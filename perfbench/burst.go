package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/detector"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// burst_train: trainBursts bursts, fluence log-uniform in 1–4 MeV/cm²,
// polar angle 0–60°, random azimuth, spaced trainSpacing apart on a low
// (~3.5 k events/s detected) background, streamed as fast as possible
// through adaptstream's default configuration (no journal) with metrics
// and sky maps on, float32 models and GOMAXPROCS localization workers.
const (
	trainBursts      = 100
	trainSpacing     = 1.6
	trainLead        = 2.0 // quiet sky before the first burst
	trainTail        = 1.5 // after the last onset
	trainThrownHz    = 6200.0
	trainFluenceLo   = 1.0
	trainFluenceHi   = 4.0
	trainCheckBursts = 12 // bursts in the Workers=1 comparison prefix
)

type burstTrain struct {
	seed   uint64
	bundle *models.Bundle
	rate   float64
	events []*detector.Event
	onsets []float64
}

func prepareBurstTrain(seed uint64, _ float64, _ string) (instance, error) {
	root := xrand.New(seed)
	bundle := trainFloat32()
	bursts := trainSpecs(root.Split(keyParams), trainBursts, trainLead)
	end := bursts[len(bursts)-1].onset + trainTail
	events := simulate(root, []bkgSegment{{0, end, trainThrownHz}}, bursts)
	return &burstTrain{
		seed: seed, bundle: bundle,
		rate:   calibrateRate(root, trainThrownHz),
		events: events,
		onsets: onsets(bursts),
	}, nil
}

// trainSpecs draws n burst_train bursts with onsets lead + i·trainSpacing.
// Fluence and polar angle are drawn stratified — one draw from each n-th of
// the log-fluence and polar ranges, paired and ordered at random — so every
// seed offers the same spread of brightness and direction, and the latency
// percentiles compare across seeds.
func trainSpecs(params *xrand.RNG, n int, lead float64) []burstSpec {
	polarOf, order := params.Perm(n), params.Perm(n)
	bursts := make([]burstSpec, n)
	for i := range bursts {
		j := order[i]
		bursts[i] = burstSpec{
			onset:    lead + float64(i)*trainSpacing,
			fluence:  trainFluenceLo * math.Pow(trainFluenceHi/trainFluenceLo, (float64(j)+params.Float64())/float64(n)),
			polarDeg: 60 * (float64(polarOf[j]) + params.Float64()) / float64(n),
			azimDeg:  params.Uniform(0, 360),
		}
	}
	return bursts
}

func (b *burstTrain) inputs() (*layerInputs, error) {
	return &layerInputs{
		bundle: b.bundle, backend: pipeline.BackendFloat32, rate: b.rate, seed: b.seed,
		stream: b.events, onsets: b.onsets,
	}, nil
}

func (b *burstTrain) config(reg *obs.Registry, workers int) stream.Config {
	cfg := shippingStream(b.rate, b.bundle, pipeline.BackendFloat32, b.seed, reg)
	cfg.Workers = workers
	return cfg
}

func (b *burstTrain) measure(seconds float64, _ string, tr *tracer) (*outcome, error) {
	ho := newHandovers(len(b.events))
	heap := startHeapSampler()
	start := time.Now()
	var runs []*liveRun
	var regs []*obs.Registry
	for k := 0; ; k++ {
		t0 := time.Now()
		reg := obs.NewRegistry()
		root := tr.begin("bench", "burst_train", 0, fmt.Sprintf("pass-%d", k))
		run, err := drive(b.config(reg, runtime.GOMAXPROCS(0)), "bench", "feed", sliceFeed(b.events), tr, root.id, ho)
		root.end(1)
		if err != nil {
			return nil, err
		}
		runs, regs = append(runs, run), append(regs, reg)
		if !another(start, t0, seconds) {
			break
		}
	}
	hs := heap.finish()

	out := &outcome{e2e: map[string]metric{}}
	var evps, latMs []float64
	cfg := stream.DefaultConfig(1)
	for i, r := range runs {
		evps = append(evps, float64(r.events)/r.wall.Seconds())
		latMs = append(latMs, r.latencyMs...)
		missed := uncovered(b.onsets, r.records)
		out.attempted += int64(r.events) + int64(len(b.onsets))
		out.failed += int64(missed) + regs[i].Counter(stream.CtrDropped).Load() +
			regs[i].Counter(stream.CtrAlertsDropped).Load()
		out.checks = append(out.checks, checkResult{"every burst has an OK alert in its window",
			checkErr(missed == 0, "%d of %d bursts have no OK alert", missed, len(b.onsets))})
	}
	last := runs[len(runs)-1]
	out.checks = append(out.checks, detects("first burst's alerts removed", func() error {
		t0 := b.onsets[0]
		var kept []stream.Record
		for _, r := range last.records {
			if r.TriggerS < t0-cfg.WindowSec || r.TriggerS >= t0+cfg.BurstWindowSec {
				kept = append(kept, r)
			}
		}
		return checkErr(uncovered(b.onsets, kept) == 0, "a burst is uncovered")
	}))
	out.checks = append(out.checks, b.workerCheck(last.records)...)

	out.e2e["events_per_s"] = metric{median(evps), "events/s"}
	out.e2e["latency_p50_ms"] = metric{quantile(latMs, 0.5), "ms"}
	out.e2e["latency_tail_ms"] = metric{quantile(latMs, 0.9), "ms"}
	out.e2e["heap_peak_mb"] = metric{hs.peakMB, "MB"}
	note := fmt.Sprintf("(%d pass(es) of %d events)", len(runs), last.events)
	out.detail = []namedMetric{
		{"events_per_s", median(evps), "events/s", note},
		{"alert_latency_p50_ms", quantile(latMs, 0.5), "ms", fmt.Sprintf("(n=%d alerts; %d per pass for %d bursts)", len(latMs), len(last.records), len(b.onsets))},
		{"alert_latency_p90_ms", quantile(latMs, 0.9), "ms", fmt.Sprintf("(n=%d)", len(latMs))},
		hs.detail(),
	}
	return out, nil
}

// workerCheck re-runs the stream over the events before the window of
// burst trainCheckBursts with one localization worker and requires the
// same records, byte for byte, as the GOMAXPROCS run produced for every
// alert whose window closed inside that prefix.
func (b *burstTrain) workerCheck(full []stream.Record) []checkResult {
	const name = "records identical at Workers=1 and GOMAXPROCS"
	cut := b.onsets[trainCheckBursts]
	n := sort.Search(len(b.events), func(i int) bool { return b.events[i].ArrivalTime >= cut })
	run, err := drive(b.config(nil, 1), "bench", "feed", sliceFeed(b.events[:n]), nil, 0, newHandovers(n))
	if err != nil {
		return []checkResult{{name, err}}
	}
	last := b.events[n-1].ArrivalTime
	window := stream.DefaultConfig(1).BurstWindowSec
	closed := func(recs []stream.Record) []stream.Record {
		var out []stream.Record
		for _, r := range recs {
			if r.TriggerS+window <= last {
				out = append(out, r)
			}
		}
		return out
	}
	want, got := closed(full), closed(run.records)
	return []checkResult{
		{"Workers=1 prefix holds enough alerts", checkErr(len(want) >= trainCheckBursts, "only %d alerts in the prefix", len(want))},
		{name, sameRecords(want, got)},
		detects("tampered worker-count record", func() error { return sameRecords(want, tamperRecords(got)) }),
	}
}

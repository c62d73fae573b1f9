package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/merge"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// flight_journal: one mission is flightSec of event time from three
// detector lanes with static clock offsets. The quiet background (~18 k
// events/s) steps up ×2.5 for a one-second SAA passage, one lane drops out
// and is recovered by a journal-backfill source, and a handful of bursts
// arrive before the SAA passage. The lanes are merged into a stream that
// records an interval-fsync journal with metrics, sky maps and the int8
// backend; then the journal and alerts go through a 10%-loss downlink to a
// ground DirSink, and the ground journal is replayed as fast as possible.
//
// The bursts' fluences and directions are fixed and only their photons come
// from the seed, so every seed asks the localization layers for the same
// amount of work and the handful of alert latencies compare across seeds.
const (
	flightSec       = 6.0
	flightSAAStart  = 4.6
	flightSAAEnd    = 5.6
	flightSAAFactor = 2.5
	flightDropLane  = 2
	flightDropStart = 1.7
	flightDropEnd   = 2.7
	flightMergeBuf  = 1024 // adaptmerge's -buffer default
)

// flightBursts: one before the dropout, one inside it, one after it; each
// window closes before the SAA passage and its false trigger.
var (
	flightLaneOffsets = []float64{0, 0.012, -0.008}
	flightBursts      = []burstSpec{
		{onset: 0.6, fluence: 2.0, polarDeg: 20, azimDeg: 130},
		{onset: 1.9, fluence: 2.0, polarDeg: 45, azimDeg: 250},
		{onset: 3.2, fluence: 2.5, polarDeg: 35, azimDeg: 40},
	}
)

type flight struct {
	seed    uint64
	bundle  *models.Bundle
	rate    float64
	lanes   []laneFeed // live lanes, then the backfill source
	nEvents int
	onsets  []float64
}

func prepareFlight(seed uint64, _ float64, _ string) (instance, error) {
	root := xrand.New(seed)
	bundle, err := trainInt8()
	if err != nil {
		return nil, err
	}
	segs := []bkgSegment{
		{0, flightSAAStart, quietThrownHz},
		{flightSAAStart, flightSAAEnd, quietThrownHz * flightSAAFactor},
		{flightSAAEnd, flightSec, quietThrownHz},
	}
	events := simulate(root, segs, flightBursts)
	lanes := dealLanes(root.Split(keyLane), events, flightLaneOffsets)

	// The dropout: the lane's events in [start, end) of true time reach the
	// merge only through a backfill source replaying the lane's journal.
	drop := &lanes[flightDropLane]
	backfill := laneFeed{name: "backfill", offset: drop.offset}
	live := drop.events[:0:0]
	for _, ev := range drop.events {
		if t := ev.ArrivalTime - drop.offset; t >= flightDropStart && t < flightDropEnd {
			backfill.events = append(backfill.events, ev)
		} else {
			live = append(live, ev)
		}
	}
	drop.events = live
	lanes = append(lanes, backfill)

	return &flight{
		seed: seed, bundle: bundle,
		rate:    calibrateRate(root, quietThrownHz),
		lanes:   lanes,
		nEvents: len(events),
		onsets:  onsets(flightBursts),
	}, nil
}

func (f *flight) inputs() (*layerInputs, error) {
	return &layerInputs{
		bundle: f.bundle, backend: pipeline.BackendInt8, rate: f.rate, seed: f.seed,
		lanes: f.lanes, onsets: f.onsets,
	}, nil
}

func (f *flight) mergeSources() []merge.Source {
	srcs := make([]merge.Source, len(f.lanes))
	for i, l := range f.lanes {
		srcs[i] = merge.Source{Name: l.name, OffsetSec: l.offset, Feed: merge.NewSlice(l.events)}
	}
	return srcs
}

// recording is one live pass: the lanes merged into the journaled stream.
type recording struct {
	journal  string
	live     *liveRun
	counters map[string]int64
	late     int64
}

// record runs the live phase into a fresh onboard journal under dir.
func (f *flight) record(dir string, ho *handovers, tr *tracer, parent int) (*recording, error) {
	journal := filepath.Join(dir, "onboard")
	j, err := openJournal(journal)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	cfg := shippingStream(f.rate, f.bundle, pipeline.BackendInt8, f.seed, reg)
	cfg.Journal = j
	m, err := merge.New(merge.Config{Sources: f.mergeSources(), BufferEvents: flightMergeBuf, Metrics: reg})
	if err != nil {
		j.Close()
		return nil, err
	}
	live, err := drive(cfg, "merge", "Merger.Run", m.Run, tr, parent, ho)
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("merge: %w", err)
	}
	sp := tr.begin("flightlog", "Journal.Close", parent, "")
	err = j.Close()
	sp.end(1)
	if err != nil {
		return nil, fmt.Errorf("close journal: %w", err)
	}
	rec := &recording{journal: journal, live: live, late: m.LateDropped(), counters: map[string]int64{}}
	for _, c := range []string{stream.CtrDropped, stream.CtrJournalErrors, stream.CtrAlertsDropped} {
		rec.counters[c] = reg.Counter(c).Load()
	}
	return rec, nil
}

// replayGround replays the reassembled ground journal as adaptstream
// -replay does, as fast as possible.
func (f *flight) replayGround(journal string, tr *tracer, parent int) (int, time.Duration, []stream.Record, error) {
	p := stream.New(shippingStream(f.rate, f.bundle, pipeline.BackendInt8, f.seed, obs.NewRegistry()))
	got := make(chan []stream.Record, 1)
	go func() {
		var recs []stream.Record
		for a := range p.Alerts() {
			recs = append(recs, a.Record())
		}
		got <- recs
	}()
	sp := tr.begin("stream", "ReplayJournal", parent, "")
	t0 := time.Now()
	n, err := stream.ReplayJournal(journal, p)
	wall := time.Since(t0)
	sp.end(1)
	replay := <-got
	return n, wall, replay, err
}

// flightLiveShare is the share of the measured phase spent repeating the
// live phase (each repetition on a fresh journal); the downlink and ground
// replay of the last recording follow. Repeating the live phase gives the
// handful of alerts per recording enough latency samples.
const flightLiveShare = 0.6

// flightTailQ is the tail percentile of flight_journal's alert latency: with
// 5 alerts per recording and ~5 recordings in a 15 s run, p60 leaves about
// ten samples beyond it.
const flightTailQ = 0.6

func (f *flight) measure(seconds float64, work string, tr *tracer) (*outcome, error) {
	ho := newHandovers(f.nEvents)
	heap := startHeapSampler()
	start := time.Now()
	root := tr.begin("bench", "mission", 0, "")
	defer root.end(1)
	out := &outcome{e2e: map[string]metric{}}
	var evps, latMs []float64
	var first, last *recording
	for k := 0; ; k++ {
		t0 := time.Now()
		rec, err := f.record(filepath.Join(work, fmt.Sprintf("live%d", k)), ho, tr, root.id)
		if err != nil {
			return nil, err
		}
		evps = append(evps, float64(rec.live.events)/rec.live.wall.Seconds())
		latMs = append(latMs, rec.live.latencyMs...)
		missed := uncovered(f.onsets, rec.live.records)
		out.attempted += int64(rec.live.events) + int64(len(f.onsets))
		out.failed += rec.counters[stream.CtrDropped] + rec.counters[stream.CtrJournalErrors] +
			rec.counters[stream.CtrAlertsDropped] + rec.late + int64(missed)
		if first == nil {
			first = rec
		} else {
			out.checks = append(out.checks, checkResult{"live records identical across repetitions",
				sameRecords(first.live.records, rec.live.records)})
		}
		if last != nil {
			os.RemoveAll(filepath.Dir(last.journal))
		}
		last = rec
		if !another(start, t0, flightLiveShare*seconds) {
			break
		}
	}
	defer os.RemoveAll(filepath.Dir(last.journal))

	ground := filepath.Join(work, "ground")
	defer os.RemoveAll(ground)
	g, err := runGround(ground, last.journal, xrand.New(f.seed).Split(keyDownlink).Uint64(),
		stream.DefaultConfig(1).BurstWindowSec, last.live.records, tr, root.id)
	if err != nil {
		return nil, err
	}
	replayN, replayWall, replay, err := f.replayGround(filepath.Join(ground, "journal"), tr, root.id)
	if err != nil {
		return nil, fmt.Errorf("ground replay: %w", err)
	}
	hs := heap.finish()
	out.attempted += int64(g.records)
	out.failed += int64(g.records - g.sinkRecs)

	onb, err1 := readJournal(last.journal)
	gnd, err2 := readJournal(filepath.Join(ground, "journal"))
	jerr := err1
	if jerr == nil {
		jerr = err2
	}
	if jerr == nil {
		jerr = sameJournal(onb, gnd)
	}
	out.checks = append(out.checks,
		checkResult{"ground journal byte-identical to onboard", jerr},
		checkResult{"ground-replay alert records identical to live", sameRecords(last.live.records, replay)},
		checkResult{"downlink delivered every journal record", checkErr(g.sinkRecs == g.records,
			"ground has %d records, onboard %d", g.sinkRecs, g.records)},
		detects("tampered alert record", func() error { return sameRecords(last.live.records, tamperRecords(replay)) }),
	)
	if jerr == nil {
		out.checks = append(out.checks, detects("tampered journal byte", func() error {
			return sameJournal(onb, tamperJournal(gnd))
		}))
	}

	alerts := len(last.live.records)
	out.e2e["events_per_s"] = metric{median(evps), "events/s"}
	out.e2e["latency_p50_ms"] = metric{quantile(latMs, 0.5), "ms"}
	out.e2e["latency_tail_ms"] = metric{quantile(latMs, flightTailQ), "ms"}
	out.e2e["heap_peak_mb"] = metric{hs.peakMB, "MB"}
	reps := fmt.Sprintf("(median of %d live repetitions of %d events; range %.0f-%.0f)",
		len(evps), last.live.events, quantile(evps, 0), quantile(evps, 1))
	out.detail = []namedMetric{
		{"events_per_s", median(evps), "events/s", reps},
		{"replay_events_per_s", float64(replayN) / replayWall.Seconds(), "events/s", fmt.Sprintf("(%d ground-journal events)", replayN)},
		{"ground_s", g.wall.Seconds(), "s", fmt.Sprintf("(%d journal records, %d alerts)", g.records, alerts)},
		{"burst_to_ground_s", median(g.alertLat), "s", fmt.Sprintf("(event time; n=%d alert deliveries)", len(g.alertLat))},
		{"alert_latency_p50_ms", quantile(latMs, 0.5), "ms", fmt.Sprintf("(n=%d alerts: %d per recording for %d bursts)", len(latMs), alerts, len(f.onsets))},
		{"alert_latency_p90_ms", quantile(latMs, 0.9), "ms", fmt.Sprintf("(n=%d; latency_tail_ms is p%.0f)", len(latMs), 100*flightTailQ)},
		hs.detail(),
		{"downlink_retransmits", float64(g.stats.Retransmits), "count", fmt.Sprintf("(of %d chunks)", g.stats.ChunksSent)},
	}
	return out, nil
}

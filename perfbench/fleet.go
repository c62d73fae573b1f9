package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/adapt"
	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// serve_fleet: an open-loop generator offers fleetQPS requests/s to two
// in-process adaptserve replicas (int8 backend) behind an in-process
// adaptrouter over at most GOMAXPROCS connections. The bodies are alert
// windows as the stream cuts them: burst_train bursts, fleetBatch to an
// exposure, are streamed through the trigger, and each alert's
// [TriggerTime − PreTriggerSec, TriggerTime + BurstWindowSec) slice — the
// window pipeline.RunWindow localizes on board — is one body, in evio form.
// Requests mix /v1/localize and /v1/skymap, and every fourth repeats an
// earlier request byte for byte, so the router serves it from its exact
// cache.
const (
	fleetReplicas    = 2
	fleetQPS         = 20.0 // 2 cores: p50 rises from 30 req/s, saturation at 50
	fleetRepeatEvery = 4    // every fourth request repeats an earlier one
	fleetRepeatGap   = 16   // a repeat copies a request at least this many earlier
	fleetSkymapEvery = 3    // every third new body goes to /v1/skymap
	fleetBatch       = 16   // bursts per simulated exposure: bounds set-up memory
	fleetWarmup      = 4    // unscheduled requests before the measured phase
	fleetCanonical   = 6    // bodies in the routed-vs-direct canonical check
	fleetGraceSec    = 5.0  // wait for stragglers after the last due time
)

type fleet struct {
	seed   uint64
	bundle *models.Bundle
	rate   float64 // calibrated quiet rate of the exposures
	// The distinct request bodies lie back to back in bodyFile: body k is
	// bytes [offsets[k], offsets[k+1]), and the first fleetWarmup are
	// warm-up only. The file is mapped only while a measured phase runs, so
	// the bodies stay off the Go heap, as they are before a client sends
	// them: held there they would set the garbage collector's pace for the
	// servers and hide the servers' working set in heap_peak_mb.
	bodyFile string
	offsets  []int64
	nEvents  []int
	reqs     []fleetReq
	// serveStats are the serve/router per-layer figures of the last traced
	// run.
	serveStats map[string]float64
}

type fleetReq struct {
	path string
	body int
}

func prepareFleet(seed uint64, seconds float64, dir string) (instance, error) {
	// Model training runs on one core: the bodies are cut meanwhile.
	type trained struct {
		bundle *models.Bundle
		err    error
	}
	done := make(chan trained, 1)
	go func() {
		b, err := trainInt8()
		done <- trained{b, err}
	}()
	f, err := fleetInputs(seed, seconds, filepath.Join(dir, "bodies.evio"))
	m := <-done
	if err != nil {
		return nil, err
	}
	if m.err != nil {
		return nil, m.err
	}
	f.bundle = m.bundle
	return f, nil
}

// fleetInputs makes the request schedule and writes enough bodies for it
// to path. Every fourth request (after the first fleetRepeatGap) repeats a
// random earlier one, and every third new body goes to /v1/skymap, so each
// seed offers the same mix of cache hits and sky maps.
func fleetInputs(seed uint64, seconds float64, path string) (*fleet, error) {
	root := xrand.New(seed)
	f := &fleet{seed: seed, rate: calibrateRate(root, trainThrownHz), bodyFile: path}

	sched := root.Split(keyRequests)
	fresh := fleetWarmup
	for i := 0; i < int(fleetQPS*seconds); i++ {
		if i >= fleetRepeatGap && i%fleetRepeatEvery == fleetRepeatEvery-1 {
			f.reqs = append(f.reqs, f.reqs[sched.IntN(i-fleetRepeatGap+1)])
			continue
		}
		path := "/v1/localize"
		if fresh%fleetSkymapEvery == fleetSkymapEvery-1 {
			path = "/v1/skymap"
		}
		f.reqs = append(f.reqs, fleetReq{path, fresh})
		fresh++
	}

	out, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	w := bufio.NewWriter(out)
	f.offsets = []int64{0}
	for k := uint64(0); len(f.nEvents) < fresh; k++ {
		_, _, windows, err := f.exposure(k)
		if err != nil {
			return nil, err
		}
		for _, win := range windows[:min(len(windows), fresh-len(f.nEvents))] {
			blob, err := evio.Marshal(win)
			if err != nil {
				return nil, err
			}
			if _, err := w.Write(blob); err != nil {
				return nil, err
			}
			f.offsets = append(f.offsets, f.offsets[len(f.offsets)-1]+int64(len(blob)))
			f.nEvents = append(f.nEvents, len(win))
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return f, out.Close()
}

// exposure simulates burst_train exposure k of fleetBatch bursts, streams
// it through the trigger with adaptstream's defaults and returns its
// events, burst onsets and alert windows, in alert order. The trigger and
// its windows do not depend on the models or sky maps, so both are off.
func (f *fleet) exposure(k uint64) ([]*detector.Event, []float64, [][]*detector.Event, error) {
	rng := xrand.New(f.seed).Split(keyPool + k)
	bursts := trainSpecs(rng.Split(keyParams), fleetBatch, trainLead)
	end := bursts[len(bursts)-1].onset + trainTail
	events := simulate(rng, []bkgSegment{{0, end, trainThrownHz}}, bursts)
	cfg := stream.DefaultConfig(f.rate)
	cfg.Seed = f.seed
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.AlertBuffer = 1024
	run, err := drive(cfg, "bench", "feed", sliceFeed(events), nil, 0, newHandovers(len(events)))
	if err != nil {
		return nil, nil, nil, err
	}
	var windows [][]*detector.Event
	for _, r := range run.records {
		windows = append(windows, windowOf(events, r.TriggerS-cfg.PreTriggerSec, r.TriggerS+cfg.BurstWindowSec))
	}
	return events, onsets(bursts), windows, nil
}

// mapBodies maps the body file read-only; unmap releases it.
func (f *fleet) mapBodies() (bodies [][]byte, unmap func(), err error) {
	file, err := os.Open(f.bodyFile)
	if err != nil {
		return nil, nil, err
	}
	defer file.Close()
	size := f.offsets[len(f.offsets)-1]
	data, err := syscall.Mmap(int(file.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("map %s: %w", f.bodyFile, err)
	}
	bodies = make([][]byte, len(f.nEvents))
	for k := range bodies {
		bodies[k] = data[f.offsets[k]:f.offsets[k+1]:f.offsets[k+1]]
	}
	return bodies, func() { syscall.Munmap(data) }, nil
}

// inputs gives the ledger the first exposure, simulated again (holding it
// through the measured phase would weigh on the heap there), and the
// bodies cut from it.
func (f *fleet) inputs() (*layerInputs, error) {
	events, onsets, windows, err := f.exposure(0)
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	for _, win := range windows[fleetWarmup:] {
		blob, err := evio.Marshal(win)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, blob)
	}
	return &layerInputs{
		bundle: f.bundle, backend: pipeline.BackendInt8, rate: f.rate,
		seed: f.seed, stream: events, onsets: onsets, bodies: bodies,
		serveStats: f.serveStats,
	}, nil
}

// fleetRun is a running two-replica fleet behind a router.
type fleetRun struct {
	servers  []*serve.Server
	direct   []string
	rt       *router.Router
	url      string
	serveErr chan error
}

// startFleet boots the replicas and the router on loopback ports, with
// adaptserve's and adaptrouter's default settings, and probes the fleet
// once as adaptrouter does before taking traffic.
func startFleet(bundle *models.Bundle, backend pipeline.Backend) (*fleetRun, error) {
	fr := &fleetRun{serveErr: make(chan error, fleetReplicas+1)}
	listen := func() (net.Listener, string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		return l, "http://" + l.Addr().String(), nil
	}
	for i := 0; i < fleetReplicas; i++ {
		inst := adapt.DefaultInstrument()
		inst.Backend = backend
		srv := serve.New(serve.Config{Instrument: &inst, Bundle: bundle, Backend: backend})
		l, u, err := listen()
		if err != nil {
			fr.stop()
			return nil, err
		}
		fr.servers = append(fr.servers, srv)
		fr.direct = append(fr.direct, u)
		go func() { fr.serveErr <- srv.Serve(l) }()
	}
	rt, err := router.New(router.Config{Replicas: append([]string(nil), fr.direct...)})
	if err != nil {
		fr.stop()
		return nil, err
	}
	fr.rt = rt
	rt.ProbeNow(context.Background())
	l, u, err := listen()
	if err != nil {
		fr.stop()
		return nil, err
	}
	fr.url = u
	go func() { fr.serveErr <- rt.Serve(l) }()
	return fr, nil
}

// stop drains the router and replicas and waits for their Serve loops.
func (fr *fleetRun) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n := 0
	if fr.rt != nil {
		fr.rt.Shutdown(ctx)
		if fr.url != "" {
			n++
		}
	}
	for _, s := range fr.servers {
		s.Shutdown(ctx)
		n++
	}
	for i := 0; i < n; i++ {
		<-fr.serveErr
	}
}

// registries sums a counter over the replicas' registries.
func (fr *fleetRun) serveCounter(name string) int64 {
	var n int64
	for _, s := range fr.servers {
		n += s.Metrics().Counter(name).Load()
	}
	return n
}

// reqResult is one scheduled request's outcome.
type reqResult struct {
	due, sent, done time.Time
	status          int
	cache           string
	err             error
}

func (r *reqResult) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// openLoop sends reqs at fixed rate from a schedule that does not wait for
// responses, over at most conns connections. Each request is timed from
// its due time, so a stall delays every later request and the delay is
// counted. A request still unsent or unanswered at the deadline (the last
// due time plus fleetGraceSec) fails.
func openLoop(client *http.Client, base string, reqs []fleetReq, bodies [][]byte, rate float64, conns int, tr *tracer) ([]reqResult, time.Time) {
	res := make([]reqResult, len(reqs))
	start := time.Now().Add(10 * time.Millisecond)
	deadline := start.Add(time.Duration((float64(len(reqs))/rate + fleetGraceSec) * float64(time.Second)))
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	jobs := make(chan int, len(reqs)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := &res[i]
				if ctx.Err() != nil {
					r.err = fmt.Errorf("not sent before the deadline")
					continue
				}
				r.sent = time.Now()
				r.status, r.cache, _, r.err = post(ctx, client, base+reqs[i].path, bodies[reqs[i].body])
				r.done = time.Now()
				if tr != nil {
					g := "req-" + fmt.Sprint(i)
					id := tr.record("e2e", "request_latency", 0, g, r.due, r.done, 1)
					tr.record("bench", "loadgen.wait", id, g, r.due, r.sent, 1)
					tr.record("router", "POST "+reqs[i].path, id, g, r.sent, r.done, 1)
				}
			}
		}()
	}
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		res[i].due = due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res, deadline
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", serve.ContentTypeEvio)
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Adapt-Router-Cache"), b, err
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func (f *fleet) measure(_ float64, _ string, tr *tracer) (*outcome, error) {
	bodies, unmap, err := f.mapBodies()
	if err != nil {
		return nil, err
	}
	defer unmap()
	fr, err := startFleet(f.bundle, pipeline.BackendInt8)
	if err != nil {
		return nil, err
	}
	defer fr.stop()
	conns := runtime.GOMAXPROCS(0)
	client := newClient(conns)
	defer client.CloseIdleConnections()

	// Warm-up on bodies outside the schedule.
	for i := 0; i < fleetWarmup; i++ {
		path := "/v1/localize"
		if i%2 == 1 {
			path = "/v1/skymap"
		}
		if st, _, _, err := post(context.Background(), client, fr.url+path, bodies[i]); err != nil || st != http.StatusOK {
			return nil, fmt.Errorf("warm-up request: status %d, %v", st, err)
		}
	}

	heap := startHeapSampler()
	t0 := time.Now()
	res, deadline := openLoop(client, fr.url, f.reqs, bodies, fleetQPS, conns, tr)
	wall := time.Since(t0)
	hs := heap.finish()

	out := &outcome{e2e: map[string]metric{}}
	lat := make([]float64, len(res))
	var late, hitMs, missMs []float64
	var okEvents, missEvents int64
	var missBusyMs float64
	fails := 0
	for i := range res {
		r := &res[i]
		out.attempted++
		if !r.ok() {
			fails++
			out.failed++
			// A failed request misses any limit: it counts as lasting until
			// the generator gave up on it.
			lat[i] = float64(deadline.Sub(r.due)) / 1e6
			continue
		}
		lat[i] = float64(r.done.Sub(r.due)) / 1e6
		late = append(late, float64(r.sent.Sub(r.due))/1e6)
		n := int64(f.nEvents[f.reqs[i].body])
		okEvents += n
		svc := float64(r.done.Sub(r.sent)) / 1e6
		if r.cache == "hit" {
			hitMs = append(hitMs, svc)
		} else {
			missMs = append(missMs, svc)
			missEvents += n
			missBusyMs += svc
		}
	}
	out.checks = append(out.checks, f.canonicalCheck(fr, client, bodies)...)
	// The gated tail is p90: p99 rests on the ~3 slowest requests of a run,
	// which a few host stalls decide. p99 is still printed.
	p50, p90, p99 := quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	// Throughput from the fleet's own work: events the replicas localized
	// (OK responses that missed the router cache) per second of connection
	// busy time on them (send to response), times the connections. Events
	// per wall second would only echo the fixed offered rate below the knee.
	evps := float64(missEvents) * float64(conns) / (missBusyMs / 1e3)
	out.e2e["events_per_s"] = metric{evps, "events/s"}
	out.e2e["latency_p50_ms"] = metric{p50, "ms"}
	out.e2e["latency_tail_ms"] = metric{p90, "ms"}
	out.e2e["heap_peak_mb"] = metric{hs.peakMB, "MB"}
	hits := fr.rt.Metrics().Counter("router_cache_hits").Load()
	reqN := fr.rt.Metrics().Counter("router_requests").Load()
	out.detail = []namedMetric{
		{"serve_p50_ms", p50, "ms", fmt.Sprintf("(from due time; n=%d at %.0f req/s offered over %d connections)", len(res), fleetQPS, conns)},
		{"serve_p90_ms", p90, "ms", ""},
		{"serve_p99_ms", p99, "ms", fmt.Sprintf("(%d failed)", fails)},
		{"events_per_s", evps, "events/s", fmt.Sprintf("(events in OK cache-miss responses per connection-busy second x %d connections; all OK events per wall second: %.0f)", conns, float64(okEvents)/wall.Seconds())},
		hs.detail(),
		{"loadgen_late_p50_ms", quantile(late, 0.5), "ms", "(send time minus due time)"},
		{"loadgen_late_p99_ms", quantile(late, 0.99), "ms", ""},
		{"loadgen_late_max_ms", quantile(late, 1), "ms", ""},
		{"router_cache_hits", float64(hits), "count", fmt.Sprintf("(of %d routed requests)", reqN)},
	}
	if tr != nil {
		f.serveStats = fleetLayerStats(fr, hitMs, missMs)
	}
	return out, nil
}

// canonicalCheck sends a fixed sample of requests with ?canonical=1
// through the router and directly to every replica; all answers must be
// the same bytes.
func (f *fleet) canonicalCheck(fr *fleetRun, client *http.Client, bodies [][]byte) []checkResult {
	const name = "?canonical=1 responses identical routed vs direct"
	var sample []byte
	for k := 0; k < fleetCanonical && k < len(f.reqs); k++ {
		rq := f.reqs[k]
		q := rq.path + "?canonical=1"
		st, _, routed, err := post(context.Background(), client, fr.url+q, bodies[rq.body])
		if err != nil || st != http.StatusOK {
			return []checkResult{{name, fmt.Errorf("routed request: status %d, %v", st, err)}}
		}
		for _, d := range fr.direct {
			st, _, direct, err := post(context.Background(), client, d+q, bodies[rq.body])
			if err != nil || st != http.StatusOK {
				return []checkResult{{name, fmt.Errorf("direct request: status %d, %v", st, err)}}
			}
			if err := sameBytes(routed, direct); err != nil {
				return []checkResult{{name, fmt.Errorf("body %d %s via %s: %v", rq.body, rq.path, d, err)}}
			}
		}
		sample = routed
	}
	return []checkResult{
		{name, nil},
		detects("tampered response", func() error { return sameBytes(sample, tamperBytes(sample)) }),
	}
}

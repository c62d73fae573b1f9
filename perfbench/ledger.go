package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/detector"
	"repro/internal/downlink"
	"repro/internal/evio"
	"repro/internal/features"
	"repro/internal/flightlog"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/merge"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/recon"
	"repro/internal/skymap"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// layerInputs are a workload's inputs, as the per-layer ledger drives them.
// A workload fills what it has: lanes (merge sources) or a time-ordered
// stream, and request bodies; the ledger derives the rest from them.
type layerInputs struct {
	bundle  *models.Bundle
	backend pipeline.Backend
	rate    float64 // calibrated quiet rate for the stream's trigger
	seed    uint64
	lanes   []laneFeed
	stream  []*detector.Event
	onsets  []float64 // injected burst onsets on the stream's time axis
	bodies  [][]byte  // serve request bodies (evio)
	// serveStats, when set, are the serve/router per-layer figures of the
	// workload's own traced run; otherwise the ledger's fleet probe gives
	// them.
	serveStats map[string]float64
}

// Sizes of the ledger's isolated passes over the workload's inputs.
const (
	ledgerEvioEvents   = 20000  // single-event evio round trips and journal appends
	ledgerStreamEvents = 200000 // per-event stream passes
	ledgerWindows      = 6      // alert windows driven through the localization layers
	ledgerProbeBodies  = 6      // bodies in the serve/router probe
)

// ledger accumulates per-layer metrics.
type ledger struct {
	tr      *tracer
	root    int
	metrics map[string]metric
	counts  map[string]int // samples behind each per-window sum
	notes   []string
}

func (l *ledger) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		l.notes = append(l.notes, fmt.Sprintf("%s had no samples; reported as 0", name))
		v = 0
	}
	l.metrics[name] = metric{v, unit}
}

// runLedger is the --trace 1 mode: the workload's main flow once untraced
// and once traced (their wall-time difference is the tracing overhead),
// then every layer's public functions in isolation over the workload's
// inputs. It writes the span dump and self-time table and returns the
// per-layer metrics.
func runLedger(name string, seed uint64, inst instance, work, outDir string, stdout io.Writer) (*result, error) {
	t0 := time.Now()
	if _, err := inst.measure(0, work, nil); err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	tr := newTracer()
	t0 = time.Now()
	out, err := inst.measure(0, work, tr)
	if err != nil {
		return nil, err
	}
	traced := time.Since(t0)

	root := tr.begin("bench", "ledger", 0, "")
	l := &ledger{tr: tr, root: root.id, metrics: map[string]metric{}, counts: map[string]int{}}
	l.set("trace.overhead_ms", float64(traced-untraced)/1e6, "ms")
	l.set("trace.overhead_frac", float64(traced-untraced)/float64(untraced), "ratio")
	in, err := inst.inputs()
	if err != nil {
		return nil, err
	}
	if err := l.run(in, work, stdout); err != nil {
		return nil, err
	}
	root.end(1)

	table := tr.selfTimes()
	self := map[string]float64{}
	for _, r := range table {
		self[r.Layer] = r.SelfS
	}
	for _, layer := range ledgerLayers {
		l.set(layer+".self_s", self[layer], "s")
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dump := filepath.Join(outDir, "trace-"+name+".jsonl")
	summary := map[string]any{"workload": name, "seed": seed, "untraced_s": untraced.Seconds(), "traced_s": traced.Seconds()}
	if err := tr.dump(dump, table, summary); err != nil {
		return nil, fmt.Errorf("write span dump: %w", err)
	}
	fmt.Fprintf(stdout, "main flow: untraced %.3f s, traced %.3f s (tracing overhead %+.3f s)\n",
		untraced.Seconds(), traced.Seconds(), (traced - untraced).Seconds())
	printSelfTimes(stdout, table)
	bare, withMetrics := l.metrics["stream.bare_ns_per_event"].Value, l.metrics["obs.ns_per_event"].Value
	journaled := l.metrics["stream.journal_ns_per_event"].Value
	fmt.Fprintf(stdout, "stream per-event path on these events: bare %.0f ns (%.2f M events/s), metrics +%.0f ns, "+
		"metrics+interval journal %.0f ns (%.0f k events/s); the stream-trigger headline in EXPERIMENTS.md "+
		"(~8.3 M events/s) is hit-less events with metrics off and no journal\n",
		bare, 1e3/bare, withMetrics, journaled, 1e6/journaled)
	fmt.Fprintf(stdout, "span dump: %s (%d spans)\n", dump, len(tr.spans))
	names := make([]string, 0, len(l.metrics))
	for n := range l.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(stdout, "per-layer:")
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", n, l.metrics[n].Value, l.metrics[n].Unit)
	}
	for _, n := range l.notes {
		fmt.Fprintf(stdout, "note: %s\n", n)
	}
	return finish(out, l.metrics), nil
}

// ledgerLayers are the program's modules whose calls the ledger times.
var ledgerLayers = []string{
	"evio", "flightlog", "merge", "stream", "recon", "features", "nn",
	"localize", "pipeline", "skymap", "downlink", "serve", "router",
}

func (l *ledger) run(in *layerInputs, work string, stdout io.Writer) error {
	rng := xrand.New(in.seed).Split(keyLedger)
	lanes := in.lanes
	if lanes == nil {
		lanes = dealLanes(rng.Split(keyLane), in.stream, []float64{0, 0.012, -0.008})
	}
	fused, err := l.merge(lanes)
	if err != nil {
		return err
	}
	if len(fused) > ledgerStreamEvents {
		fused = fused[:ledgerStreamEvents]
	}

	blobs, err := l.evio(fused)
	if err != nil {
		return err
	}
	if err := l.flightlog(blobs, filepath.Join(work, "ledger-journal")); err != nil {
		return err
	}
	journal := filepath.Join(work, "ledger-stream-journal")
	if err := l.streamPasses(in, fused, journal); err != nil {
		return err
	}
	windows, recs, err := l.alerts(in, fused)
	if err != nil {
		return err
	}
	qbundle := in.bundle
	if qbundle.Int8 == nil {
		// The workload ships float32 models; the int8 and fpga-sim rows
		// need the quantized pair, trained here outside any timed phase.
		fmt.Fprintln(stdout, "ledger: training the quantized pair for the int8/fpga-sim rows")
		if qbundle, err = trainInt8(); err != nil {
			return err
		}
	}
	for _, w := range windows {
		l.window(in, qbundle, w, rng)
	}
	l.average()
	if err := l.downlink(journal, recs, filepath.Join(work, "ledger-ground"), in.seed); err != nil {
		return err
	}
	bodies := in.bodies
	if bodies == nil {
		for _, w := range windows {
			b, err := evio.Marshal(w.events)
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
	}
	return l.fleetProbe(in, bodies)
}

// merge fuses the lanes and returns the fused stream.
func (l *ledger) merge(lanes []laneFeed) ([]*detector.Event, error) {
	srcs := make([]merge.Source, len(lanes))
	n := 0
	for i, ln := range lanes {
		srcs[i] = merge.Source{Name: ln.name, OffsetSec: ln.offset, Feed: merge.NewSlice(ln.events)}
		n += len(ln.events)
	}
	m, err := merge.New(merge.Config{Sources: srcs, BufferEvents: flightMergeBuf, Metrics: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	fused := make([]*detector.Event, 0, n)
	sp := l.tr.begin("merge", "Merger.Run", l.root, "")
	err = m.Run(func(ev *detector.Event) { fused = append(fused, ev) })
	d := sp.end(len(fused))
	if err != nil {
		return nil, err
	}
	l.set("merge.ns_per_event", float64(d)/float64(len(fused)), "ns")
	l.set("merge.late_dropped", float64(m.LateDropped()), "count")
	return fused, nil
}

// evio round-trips a sample of single events, the way the journaled stream
// does for every event, and returns the encoded records.
func (l *ledger) evio(fused []*detector.Event) ([][]byte, error) {
	step := max(1, len(fused)/ledgerEvioEvents)
	var sample []*detector.Event
	for i := 0; i < len(fused); i += step {
		sample = append(sample, fused[i])
	}
	// Allocation counts from a loop with no spans in it.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, ev := range sample {
		blob, err := evio.Marshal([]*detector.Event{ev})
		if err != nil {
			return nil, err
		}
		if _, err := evio.Unmarshal(blob); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(sample))
	l.set("evio.allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	l.set("evio.bytes_per_event", float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B")

	blobs := make([][]byte, len(sample))
	var rt, dec time.Duration
	for i, ev := range sample {
		sp := l.tr.begin("evio", "Marshal", l.root, "")
		blob, err := evio.Marshal([]*detector.Event{ev})
		rt += sp.end(1)
		if err != nil {
			return nil, err
		}
		sp = l.tr.begin("evio", "Unmarshal", l.root, "")
		_, err = evio.Unmarshal(blob)
		d := sp.end(1)
		rt += d
		dec += d
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
	}
	l.set("evio.roundtrip_ns_per_event", float64(rt)/n, "ns")
	l.set("evio.decode_ns_per_event", float64(dec)/n, "ns")
	return blobs, nil
}

// flightlog appends the records to a scratch journal with the interval
// policy and replays it.
func (l *ledger) flightlog(blobs [][]byte, dir string) error {
	defer os.RemoveAll(dir)
	j, err := openJournal(dir)
	if err != nil {
		return err
	}
	var total time.Duration
	for _, b := range blobs {
		sp := l.tr.begin("flightlog", "Journal.Append", l.root, "")
		err := j.Append(b)
		total += sp.end(1)
		if err != nil {
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	st := j.Stats()
	n := float64(len(blobs))
	l.set("flightlog.append_ns", float64(total)/n, "ns")
	l.set("flightlog.bytes_per_event", float64(st.TotalBytes)/n, "B")

	records := 0
	sp := l.tr.begin("flightlog", "Replay", l.root, "")
	err = flightlog.Replay(dir, func([]byte) error { records++; return nil })
	d := sp.end(1)
	if err != nil {
		return err
	}
	l.set("flightlog.replay_ns_per_record", float64(d)/float64(max(records, 1)), "ns")
	return nil
}

// intervalFsyncs counts the fsyncs flightlog's documented interval policy
// issues for these appends (the shipping pass's journal) with default
// options: one whenever a segment's
// unsynced framed bytes reach SyncEveryBytes (1 MiB), one per segment
// rotation at 8 MiB, and one at Close. flightlog keeps no fsync counter, so
// the count is derived from the policy rather than observed.
func intervalFsyncs(blobs [][]byte) int {
	const (
		header       = 8
		frame        = 8
		segmentBytes = 8 << 20
		everyBytes   = 1 << 20
	)
	seg, unsynced, syncs := int64(header), int64(0), 0
	for _, b := range blobs {
		if seg >= segmentBytes {
			syncs++
			seg, unsynced = header, 0
		}
		n := int64(frame + len(b))
		seg += n
		unsynced += n
		if unsynced >= everyBytes {
			syncs++
			unsynced = 0
		}
	}
	return syncs + 1
}

// streamPasses times the per-event path with the trigger disabled: bare (no
// journal, no metrics), with metrics, and with metrics plus an interval
// journal (the shipping per-event path), then replays that journal.
func (l *ledger) streamPasses(in *layerInputs, fused []*detector.Event, journal string) error {
	pass := func(name string, reg *obs.Registry, j *flightlog.Journal) (time.Duration, error) {
		cfg := shippingStream(in.rate, in.bundle, in.backend, in.seed, reg)
		cfg.SigmaThreshold = math.Inf(1) // per-event path only: never fire
		cfg.Journal = j
		sp := l.tr.begin("stream", name, l.root, "")
		run, err := drive(cfg, "bench", "feed", sliceFeed(fused), nil, 0, newHandovers(len(fused)))
		sp.end(len(fused))
		if err != nil {
			return 0, err
		}
		return run.wall, nil
	}
	bare, err := pass("Processor.Ingest(bare)", nil, nil)
	if err != nil {
		return err
	}
	withMetrics, err := pass("Processor.Ingest(metrics)", obs.NewRegistry(), nil)
	if err != nil {
		return err
	}
	j, err := openJournal(journal)
	if err != nil {
		return err
	}
	shipping, err := pass("Processor.Ingest(metrics+journal)", obs.NewRegistry(), j)
	if err != nil {
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	n := float64(len(fused))
	l.set("stream.bare_ns_per_event", float64(bare)/n, "ns")
	l.set("obs.ns_per_event", float64(withMetrics-bare)/n, "ns")
	l.set("stream.journal_ns_per_event", float64(shipping)/n, "ns")

	cfg := shippingStream(in.rate, in.bundle, in.backend, in.seed, obs.NewRegistry())
	cfg.SigmaThreshold = math.Inf(1)
	p := stream.New(cfg)
	go func() {
		for range p.Alerts() {
		}
	}()
	sp := l.tr.begin("stream", "ReplayJournal", l.root, "")
	replayed, err := stream.ReplayJournal(journal, p)
	d := sp.end(1)
	if err != nil {
		return err
	}
	l.set("stream.replay_ns_per_event", float64(d)/float64(max(replayed, 1)), "ns")
	return nil
}

// alertWindow is the event window of one alert.
type alertWindow struct {
	seq    int
	t0, t1 float64
	events []*detector.Event
}

// alerts runs the shipping stream (trigger on, no journal) over the fused
// stream and returns up to ledgerWindows of its alert windows, spread over
// the alerts, and every alert record.
func (l *ledger) alerts(in *layerInputs, fused []*detector.Event) ([]alertWindow, []stream.Record, error) {
	reg := obs.NewRegistry()
	cfg := shippingStream(in.rate, in.bundle, in.backend, in.seed, reg)
	sp := l.tr.begin("stream", "Processor(shipping)", l.root, "")
	run, err := drive(cfg, "bench", "feed", sliceFeed(fused), l.tr, sp.id, newHandovers(len(fused)))
	sp.end(len(fused))
	if err != nil {
		return nil, nil, err
	}
	bursts := 0
	end := fused[len(fused)-1].ArrivalTime
	for _, t := range in.onsets {
		if t < end {
			bursts++
		}
	}
	l.set("stream.triggers", float64(reg.Counter(stream.CtrTriggers).Load()), "count")
	l.set("stream.alerts", float64(len(run.records)), "count")
	l.set("stream.alerts_per_burst", float64(len(run.records))/float64(max(bursts, 1)), "ratio")

	var windows []alertWindow
	n := len(run.records)
	for k := 0; k < min(n, ledgerWindows); k++ {
		a := run.records[k*n/min(n, ledgerWindows)]
		w := alertWindow{seq: a.Seq, t0: a.TriggerS - cfg.PreTriggerSec, t1: a.TriggerS + cfg.BurstWindowSec}
		w.events = windowOf(fused, w.t0, w.t1)
		windows = append(windows, w)
	}
	if len(windows) == 0 {
		return nil, nil, fmt.Errorf("the workload's stream raised no alerts")
	}
	return windows, run.records, nil
}

// window drives the localization layers in isolation over one alert
// window. Per-window figures accumulate and average sums them.
func (l *ledger) window(in *layerInputs, qbundle *models.Bundle, w alertWindow, rng *xrand.RNG) {
	g := "alert-" + fmt.Sprint(w.seq)
	rc := recon.DefaultConfig()
	loc := localize.DefaultConfig()
	loc.Workers = runtime.GOMAXPROCS(0)

	sp := l.tr.begin("recon", "Reconstruct", l.root, g)
	var rings []*recon.Ring
	for _, ev := range w.events {
		if r, ok := recon.Reconstruct(&rc, ev); ok {
			rings = append(rings, r)
		}
	}
	d := sp.end(len(w.events))
	l.add("recon.ns_per_event", float64(d)/float64(len(w.events)), "ns")
	l.add("recon.ring_yield", float64(len(rings))/float64(len(w.events)), "ratio")

	opts := pipeline.DefaultOptions()
	opts.Bundle = in.bundle
	opts.Backend = in.backend
	run := func(workers int) (pipeline.Result, time.Duration) {
		opts.Workers = workers
		sp := l.tr.begin("pipeline", fmt.Sprintf("RunWindow(workers=%d)", workers), l.root, g)
		res := pipeline.RunWindow(opts, w.events, w.t0, w.t1, rng.Split(uint64(w.seq)+1))
		return res, sp.end(1)
	}
	res, d := run(runtime.GOMAXPROCS(0))
	l.add("pipeline.run_ms", float64(d)/1e6, "ms")
	_, d1 := run(1)
	l.add("pipeline.run_ms.w1", float64(d1)/1e6, "ms")
	l.add("pipeline.nn_iterations", float64(res.NNIterations), "count")
	l.add("pipeline.kept_frac", float64(res.Kept)/float64(max(res.Rings, 1)), "ratio")

	polar := 30.0 // a mid-range guess when localization failed
	if res.Loc.OK {
		polar = geom.Deg(geom.Polar(res.Loc.Dir))
	}
	sp = l.tr.begin("localize", "Approximate", l.root, g)
	seeds := localize.Approximate(&loc, rings, rng.Split(uint64(w.seq)+1), 3)
	d = sp.end(1)
	l.add("localize.approx_ms", float64(d)/1e6, "ms")
	if len(seeds) > 0 {
		sp = l.tr.begin("localize", "Refine", l.root, g)
		localize.Refine(&loc, rings, seeds[0])
		d = sp.end(1)
		l.add("localize.refine_ms", float64(d)/1e6, "ms")
	}

	sp = l.tr.begin("features", "Matrix", l.root, g)
	_ = features.Matrix(rings, polar, in.bundle.WithPolar)
	d = sp.end(len(rings))
	l.add("features.ns_per_ring", float64(d)/float64(max(len(rings), 1)), "ns")
	for _, b := range []struct {
		backend pipeline.Backend
		bundle  *models.Bundle
	}{
		{pipeline.BackendFloat32, in.bundle},
		{pipeline.BackendInt8, qbundle},
		{pipeline.BackendFPGASim, qbundle},
	} {
		xb := features.Matrix(rings, polar, b.bundle.WithPolar)
		b.bundle.BkgNorm.Apply(xb)
		cls, err := pipeline.NewClassifier(b.backend, b.bundle)
		if err != nil {
			panic(err) // both bundles were built for these backends
		}
		out := make([]float32, xb.Rows)
		sp := l.tr.begin("nn", "ClassifierProbsInto("+string(b.backend)+")", l.root, g)
		pipeline.ClassifierProbsInto(cls, xb, out)
		d := sp.end(xb.Rows)
		l.add("nn.bkg_ns_per_row."+string(b.backend), float64(d)/float64(max(xb.Rows, 1)), "ns")
	}
	sp = l.tr.begin("nn", "ApplyDEta", l.root, g)
	pipeline.ApplyDEta(in.bundle, rings, polar, opts.DEtaFloor, opts.DEtaWidenRatio)
	d = sp.end(len(rings))
	l.add("nn.deta_ns_per_ring", float64(d)/float64(max(len(rings), 1)), "ns")

	// The alert product, built as the stream builds it.
	if res.Loc.OK {
		active := res.ActiveRings
		sp = l.tr.begin("pipeline", "BackgroundProbs", l.root, g)
		pipeline.ApplyDEtaCalibrated(in.bundle, active, polar)
		probs := pipeline.BackgroundProbs(in.bundle, active, polar)
		sp.end(1)
		sp = l.tr.begin("skymap", "FromRings", l.root, g)
		pm := skymap.FromRings(&loc, active, probs, skymap.Options{Workers: runtime.GOMAXPROCS(0)})
		d = sp.end(1)
		l.add("skymap.build_ms", float64(d)/1e6, "ms")
		sp = l.tr.begin("skymap", "Encode", l.root, g)
		payload := pm.Encode()
		d = sp.end(1)
		l.add("skymap.encode_us", float64(d)/1e3, "us")
		l.add("skymap.payload_bytes", float64(len(payload)), "B")
	}
}

// add accumulates a per-window figure; average divides by the count.
func (l *ledger) add(name string, v float64, unit string) {
	m := l.metrics[name]
	m.Value += v
	m.Unit = unit
	l.metrics[name] = m
	l.counts[name]++
}

func (l *ledger) average() {
	for name, n := range l.counts {
		m := l.metrics[name]
		l.set(name, m.Value/float64(n), m.Unit)
	}
	l.counts = nil
}

// downlink times the codec over the shipping pass's journal records in
// adaptstream's batches and sends the journal and alerts through a seeded
// lossy session. It also counts that journal's fsyncs.
func (l *ledger) downlink(journal string, recs []stream.Record, ground string, seed uint64) error {
	defer os.RemoveAll(journal)
	defer os.RemoveAll(ground)
	var records [][]byte
	var raw int64
	if err := flightlog.Replay(journal, func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		raw += int64(len(p))
		return nil
	}); err != nil {
		return err
	}
	l.set("flightlog.fsyncs", float64(intervalFsyncs(records)), "count")
	var enc, dec time.Duration
	var coded int64
	for lo := 0; lo < len(records); lo += downlinkBatch {
		hi := min(lo+downlinkBatch, len(records))
		sp := l.tr.begin("downlink", "EncodeRecords", l.root, "")
		blob, err := downlink.EncodeRecords(records[lo:hi], downlink.CodecOptions{})
		enc += sp.end(hi - lo)
		if err != nil {
			return err
		}
		coded += int64(len(blob))
		sp = l.tr.begin("downlink", "DecodeRecords", l.root, "")
		back, err := downlink.DecodeRecords(blob)
		dec += sp.end(hi - lo)
		if err != nil {
			return err
		}
		if len(back) != hi-lo {
			return fmt.Errorf("downlink codec returned %d records for %d", len(back), hi-lo)
		}
	}
	n := float64(max(len(records), 1))
	l.set("downlink.encode_ns_per_record", float64(enc)/n, "ns")
	l.set("downlink.decode_ns_per_record", float64(dec)/n, "ns")
	l.set("downlink.compression_ratio", float64(raw)/float64(max(coded, 1)), "ratio")

	g, err := runGround(ground, journal, xrand.New(seed).Split(keyDownlink).Uint64(),
		stream.DefaultConfig(1).BurstWindowSec, recs, l.tr, l.root)
	if err != nil {
		return err
	}
	l.set("downlink.chunks", float64(g.stats.ChunksSent), "count")
	l.set("downlink.retransmits", float64(g.stats.Retransmits), "count")
	return nil
}

package stream

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// TestWindowEvictionCounted: a burst window larger than BufferEvents loses
// its oldest events, and every lost one is counted — NEvents plus the
// eviction counter is exactly the window's size in the input.
func TestWindowEvictionCounted(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.BufferEvents = 2000
	cfg.Metrics = obs.NewRegistry()
	events := steadyTicks(0, 4, 1000)
	events = append(events, steadyTicks(2, 2.5, 10000)...) // ~5000 burst events
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	alerts := feedAndDrain(cfg, events)
	if len(alerts) != 1 {
		t.Fatalf("%d alerts, want 1", len(alerts))
	}
	a := alerts[0]
	inWindow := 0
	for _, ev := range events {
		if ev.ArrivalTime >= a.TriggerTime-cfg.PreTriggerSec && ev.ArrivalTime < a.TriggerTime+cfg.BurstWindowSec {
			inWindow++
		}
	}
	evicted := cfg.Metrics.Counter(CtrWindowEvicted).Load()
	if a.NEvents != cfg.BufferEvents || evicted == 0 {
		t.Errorf("NEvents %d (ring %d), evicted %d: want a full ring and counted evictions",
			a.NEvents, cfg.BufferEvents, evicted)
	}
	if int64(a.NEvents)+evicted != int64(inWindow) {
		t.Errorf("NEvents %d + evicted %d != %d events in the window", a.NEvents, evicted, inWindow)
	}

	// A ring that holds the whole window evicts nothing.
	cfg.BufferEvents = 0
	cfg.Metrics = obs.NewRegistry()
	if alerts := feedAndDrain(cfg, events); len(alerts) != 1 || alerts[0].NEvents != inWindow {
		t.Fatalf("default ring: %d alerts, want 1 holding %d events", len(alerts), inWindow)
	}
	if got := cfg.Metrics.Counter(CtrWindowEvicted).Load(); got != 0 {
		t.Errorf("default ring evicted %d window events", got)
	}
}

// quietEvents simulates sec seconds of real quiet-sky background.
func quietEvents(t testing.TB, sec float64, seed uint64) ([]*detector.Event, float64) {
	t.Helper()
	det := detector.DefaultConfig()
	events := background.DefaultModel().Simulate(&det, sec, xrand.New(seed))
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	return events, float64(len(events)) / sec
}

// TestJournalBytesMatchPerRecordAppend: group commit writes exactly the
// journal one Marshal'd record per admitted event would, in admission
// order, and never modifies the caller's events.
func TestJournalBytesMatchPerRecordAppend(t *testing.T) {
	events, rate := quietEvents(t, 0.5, 3)
	before, err := evio.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := make([]detector.Hit, 0, len(events))
	for _, ev := range events {
		hitsBefore = append(hitsBefore, ev.Hits...)
	}

	base := t.TempDir()
	opts := flightlog.Options{Dir: filepath.Join(base, "stream"), SegmentBytes: 256 << 10}
	j, err := flightlog.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(rate)
	cfg.Journal = j
	cfg.Admit = func(ev *detector.Event) bool { return len(ev.Hits) != 2 }
	feedAndDrain(cfg, events)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Dir = filepath.Join(base, "reference")
	ref, err := flightlog.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for _, ev := range events {
		if len(ev.Hits) == 2 {
			continue
		}
		blob, err := evio.Marshal([]*detector.Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Append(blob); err != nil {
			t.Fatal(err)
		}
		admitted++
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if admitted == len(events) || admitted == 0 {
		t.Fatalf("gate admitted %d of %d events; the test needs a mix", admitted, len(events))
	}

	segs, _ := filepath.Glob(filepath.Join(opts.Dir, "journal-*.flog"))
	if len(segs) < 2 {
		t.Fatalf("%d reference segments; the test should span a rotation", len(segs))
	}
	for _, refSeg := range segs {
		want, _ := os.ReadFile(refSeg)
		got, err := os.ReadFile(filepath.Join(base, "stream", filepath.Base(refSeg)))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s differs from the per-record reference (err %v)", filepath.Base(refSeg), err)
		}
	}

	after, err := evio.Marshal(events)
	if err != nil || !bytes.Equal(after, before) {
		t.Error("journaling modified the caller's events")
	}
	k := 0
	for _, ev := range events {
		for _, h := range ev.Hits {
			if h != hitsBefore[k] {
				t.Fatal("journaling modified the caller's hits")
			}
			k++
		}
	}
}

// perEventAllocs feeds events through a fresh processor with metrics on,
// the trigger disabled and, when journaled, an interval-fsync journal, and
// returns heap allocations and bytes per event from first Ingest to Close.
func perEventAllocs(t *testing.T, events []*detector.Event, rate float64, journaled bool) (allocs, bytes float64) {
	t.Helper()
	cfg := DefaultConfig(rate)
	cfg.SigmaThreshold = math.Inf(1)
	cfg.Metrics = obs.NewRegistry()
	if journaled {
		j, err := flightlog.Open(flightlog.Options{Dir: t.TempDir(), Sync: flightlog.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		cfg.Journal = j
	}
	p := New(cfg)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, ev := range events {
		p.Ingest(ev)
	}
	p.Close()
	runtime.ReadMemStats(&m1)
	if got := cfg.Metrics.Counter(CtrIngested).Load(); got != int64(len(events)) {
		t.Fatalf("ingested %d of %d events", got, len(events))
	}
	n := float64(len(events))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

// TestPerEventAllocBudget is the hot path's allocation gate, on real
// simulated background in the shipping configuration (metrics on,
// interval journal). The journaled path may allocate only the canonical
// event and its hits; the unjournaled path allocates nothing per event.
// Allocation counts are deterministic, so this runs as a plain test.
func TestPerEventAllocBudget(t *testing.T) {
	events, rate := quietEvents(t, 1.2, 9)
	if len(events) < 20000 {
		t.Fatalf("only %d simulated events; the budget is defined over >= 20k", len(events))
	}
	allocs, bytes := perEventAllocs(t, events, rate, true)
	t.Logf("journaled: %.2f allocs, %.0f B per event over %d events", allocs, bytes, len(events))
	if allocs > 3 || bytes > 512 {
		t.Errorf("journaled path: %.2f allocs and %.0f B per event, budget 3 and 512", allocs, bytes)
	}
	allocs, bytes = perEventAllocs(t, events, rate, false)
	t.Logf("unjournaled: %.4f allocs, %.1f B per event", allocs, bytes)
	if allocs >= 0.01 {
		t.Errorf("unjournaled path: %.4f allocs per event, want 0 (only one-time buffer growth)", allocs)
	}
}

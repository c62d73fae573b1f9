package main

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/detector"
	"repro/internal/flightlog"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stream"
)

// shippingStream is the stream.Config adaptstream builds from its flags:
// flight trigger defaults at the calibrated quiet rate, GOMAXPROCS
// localization workers, -alerts buffer 1024, metrics on, sky maps on.
func shippingStream(rate float64, bundle *models.Bundle, backend pipeline.Backend, seed uint64, reg *obs.Registry) stream.Config {
	cfg := stream.DefaultConfig(rate)
	cfg.Bundle = bundle
	cfg.Backend = backend
	cfg.Seed = seed
	cfg.Metrics = reg
	cfg.AlertBuffer = 1024
	cfg.SkyMap = true
	return cfg
}

// openJournal opens a flight journal with adaptstream's default -fsync
// interval policy.
func openJournal(dir string) (*flightlog.Journal, error) {
	return flightlog.Open(flightlog.Options{Dir: dir, Sync: flightlog.SyncInterval})
}

// liveRun is one pass of events through a stream.Processor.
type liveRun struct {
	events int
	// wall is the time from the first Ingest to Close returning.
	wall    time.Duration
	records []stream.Record
	// latencyMs[i] is alert i's wall latency: from the hand-over of the
	// first event at or past its window deadline (TriggerTime + burst
	// window) until it arrived on Alerts(). An alert flushed by Close is
	// timed from the Close call.
	latencyMs []float64
}

// handovers is drive's log of each handed-over event: its event time and
// the wall time since the pass began. A measured phase allocates it before
// taking its heap baseline and reuses it across passes, so the log does not
// count as the program's heap.
type handovers struct {
	times []float64
	walls []int64
}

func newHandovers(n int) *handovers {
	return &handovers{make([]float64, 0, n), make([]int64, 0, n)}
}

// drive runs feed — which must call emit once per event, in nondecreasing
// event time — into a new processor built from cfg, then closes it. The
// benchmark reads the clock once per handed-over event (logged in ho) so
// that alert latency can be measured from the deadline-crossing hand-over;
// traced runs also time each Ingest call.
func drive(cfg stream.Config, feedLayer, feedName string, feed func(emit func(*detector.Event)) error, tr *tracer, parent int, ho *handovers) (*liveRun, error) {
	p := stream.New(cfg)
	epoch := time.Now()
	// Alerts are kept in their record form only: the consumer holds no
	// pipeline results while the pass runs.
	type arrival struct {
		rec stream.Record
		ns  int64
	}
	got := make(chan []arrival, 1)
	go func() {
		var as []arrival
		for a := range p.Alerts() {
			ns := int64(time.Since(epoch))
			as = append(as, arrival{a.Record(), ns})
		}
		got <- as
	}()

	times, walls := ho.times[:0], ho.walls[:0]
	var ingestNs int64
	traced := tr != nil
	emit := func(ev *detector.Event) {
		w := int64(time.Since(epoch))
		times = append(times, ev.ArrivalTime)
		walls = append(walls, w)
		p.Ingest(ev)
		if traced {
			ingestNs += int64(time.Since(epoch)) - w
		}
	}
	ingest := tr.begin(feedLayer, feedName, parent, "")
	start := time.Now()
	err := feed(emit)
	ingest.end(len(times))
	closeAt := int64(time.Since(epoch))
	closeSpan := tr.begin("stream", "Processor.Close", parent, "")
	p.Close()
	closeSpan.end(1)
	wall := time.Since(start)
	ho.times, ho.walls = times, walls
	if traced {
		// One aggregate span per run for the per-event Ingest calls: their
		// summed time, placed at the start of the feed span.
		s := tr.epoch.Add(time.Duration(ingest.start))
		tr.record("stream", "Processor.Ingest", ingest.id, "", s, s.Add(time.Duration(ingestNs)), len(times))
	}
	as := <-got
	if err != nil {
		return nil, err
	}

	run := &liveRun{events: len(times), wall: wall}
	for _, x := range as {
		deadline := x.rec.TriggerS + cfg.BurstWindowSec
		k := sort.SearchFloat64s(times, deadline)
		from := closeAt
		if k < len(walls) {
			from = walls[k]
		}
		run.records = append(run.records, x.rec)
		run.latencyMs = append(run.latencyMs, float64(x.ns-from)/1e6)
		if tr != nil {
			tr.record("e2e", "alert_latency", parent, "alert-"+strconv.Itoa(x.rec.Seq),
				epoch.Add(time.Duration(from)), epoch.Add(time.Duration(x.ns)), 1)
		}
	}
	return run, nil
}

// windowOf returns the events of a time-ordered stream in [t0, t1): the
// window pipeline.RunWindow localizes for an alert.
func windowOf(events []*detector.Event, t0, t1 float64) []*detector.Event {
	lo := sort.Search(len(events), func(i int) bool { return events[i].ArrivalTime >= t0 })
	hi := sort.Search(len(events), func(i int) bool { return events[i].ArrivalTime >= t1 })
	return events[lo:hi]
}

// sliceFeed feeds a time-ordered event slice.
func sliceFeed(events []*detector.Event) func(emit func(*detector.Event)) error {
	return func(emit func(*detector.Event)) error {
		for _, ev := range events {
			emit(ev)
		}
		return nil
	}
}

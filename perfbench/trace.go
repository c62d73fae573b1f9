package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records one span per call the benchmark makes into a layer's
// public functions: name, layer, start, end, parent, and a group id shared
// by the spans of one alert or request. Spans stay in memory until the run
// ends. A nil *tracer records nothing, which is how the end-to-end metrics
// are measured.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Group  string `json:"group,omitempty"`
	// Calls is how many calls of the same function the span covers: 1,
	// except where one span wraps a loop over per-event calls, whose
	// individual spans would cost more than the calls.
	Calls   int   `json:"calls"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     int
	parent int
	layer  string
	name   string
	group  string
	start  int64
}

// begin starts a span under parent (0 = root).
func (t *tracer) begin(layer, name string, parent int, group string) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{}) // reserve the id
	id := len(t.spans)
	t.mu.Unlock()
	return openSpan{t: t, id: id, parent: parent, layer: layer, name: name, group: group,
		start: int64(time.Since(t.epoch))}
}

// end records the span, covering calls calls (≤ 0 means 1), and returns
// its duration.
func (o openSpan) end(calls int) time.Duration {
	if o.t == nil {
		return 0
	}
	end := int64(time.Since(o.t.epoch))
	if calls <= 0 {
		calls = 1
	}
	o.t.mu.Lock()
	o.t.spans[o.id-1] = span{ID: o.id, Parent: o.parent, Layer: o.layer, Name: o.name, Group: o.group,
		Calls: calls, StartNs: o.start, EndNs: end}
	o.t.mu.Unlock()
	return time.Duration(end - o.start)
}

// record adds a span whose start and end were taken elsewhere (for
// example, a request's due time and its completion) covering calls calls.
func (t *tracer) record(layer, name string, parent int, group string, start, end time.Time, calls int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Group: group,
		Calls: calls, StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch))})
	return id
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes computes each layer's self time: the sum over its spans of the
// span's duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.ID != 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.ID == 0 { // begun but never ended
			continue
		}
		r := rows[s.Layer]
		if r == nil {
			r = &layerTime{Layer: s.Layer}
			rows[s.Layer] = r
		}
		dur := s.EndNs - s.StartNs
		r.Spans++
		r.Calls += s.Calls
		r.TotalS += float64(dur) / 1e9
		r.SelfS += float64(dur-covered(s, children[s.ID])) / 1e9
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered returns how many nanoseconds of s the union of kids covers.
func covered(s *span, kids []*span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// dump writes the spans as JSON lines, then the self-time table, to path.
func (t *tracer) dump(path string, table []layerTime, extra map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].ID == 0 {
			continue
		}
		if err := enc.Encode(t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := enc.Encode(map[string]any{"self_time": table, "summary": extra}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSelfTimes(w io.Writer, table []layerTime) {
	fmt.Fprintln(w, "self time by layer (spans taken around the benchmark's calls into each layer):")
	fmt.Fprintf(w, "  %-10s %8s %10s %10s %10s\n", "layer", "spans", "calls", "total_s", "self_s")
	for _, r := range table {
		fmt.Fprintf(w, "  %-10s %8d %10d %10.4f %10.4f\n", r.Layer, r.Spans, r.Calls, r.TotalS, r.SelfS)
	}
}

package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// another reports whether a measured phase that began at start should run
// one more repetition like the one that began at last: it does when at
// least half of the repetition fits in the seconds budget.
func another(start, last time.Time, seconds float64) bool {
	rep := time.Since(last).Seconds()
	return time.Since(start).Seconds()+rep/2 < seconds
}

// heapSampler reads the live heap (bytes marked live by the most recent GC
// cycle) after every GC cycle while it runs, above a baseline read right
// after a forced GC when it starts. The inputs, models and buffers the
// benchmark holds through the measured phase are in the baseline, so the
// readings are the program's own working set plus the outputs it has
// handed back.
type heapSampler struct {
	stop     chan struct{}
	done     chan struct{}
	base     uint64
	readings []float64 // MB above the baseline, one per GC cycle
	read     func()
}

// heapStats summarizes a sampler's readings.
type heapStats struct {
	peakMB float64
	cycles int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	metrics.Read(sample)
	cycles := sample[0].Value.Uint64()
	h.base = sample[1].Value.Uint64()
	h.read = func() {
		metrics.Read(sample)
		if c := sample[0].Value.Uint64(); c != cycles {
			cycles = c
			h.readings = append(h.readings, float64(int64(sample[1].Value.Uint64()-h.base))/(1<<20))
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.read()
				return
			case <-t.C:
				h.read()
			}
		}
	}()
	return h
}

// finish stops the sampler and summarizes its readings. A phase that ran
// no GC cycle gets one reading, from a GC forced at its end.
func (h *heapSampler) finish() heapStats {
	close(h.stop)
	<-h.done
	if len(h.readings) == 0 {
		runtime.GC()
		h.read()
	}
	return heapStats{quantile(h.readings, 1), len(h.readings)}
}

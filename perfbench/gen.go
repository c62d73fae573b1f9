package main

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/xrand"
)

// Generation runs only in set-up. Every random draw comes from a fixed
// Split of the workload seed, so the inputs are a pure function of the
// seed and independent of how the work is spread over goroutines.
const (
	keyCalibrate = 0xCA1 // quiet-rate calibration (the binaries' convention)
	keyBkgChunk  = 0x1000
	keyBurst     = 0x2000
	keyLane      = 0x3000
	keyParams    = 0x4000
	keyRequests  = 0x6000
	keyDownlink  = 0x7000
	keyPool      = 0x8000
	keyLedger    = 0x9000
)

// quietThrownHz is the default background model's thrown-particle rate,
// which detects ~18 k events/s.
var quietThrownHz = background.DefaultModel().RatePerSecond

// bkgSegment is a stretch of background at a constant thrown rate.
type bkgSegment struct {
	start, end float64
	thrownHz   float64
}

// burstSpec places one burst.
type burstSpec struct {
	onset                      float64
	fluence, polarDeg, azimDeg float64
}

// onsets lists the bursts' onset times.
func onsets(bursts []burstSpec) []float64 {
	out := make([]float64, len(bursts))
	for i, b := range bursts {
		out[i] = b.onset
	}
	return out
}

// simulate generates background segments (in chunks of at most one second,
// each on its own substream) and bursts concurrently, then returns all
// events sorted by arrival time.
func simulate(root *xrand.RNG, segs []bkgSegment, bursts []burstSpec) []*detector.Event {
	det := detector.DefaultConfig()
	type job struct {
		bkg   *bkgSegment
		t0    float64
		dur   float64
		burst int
	}
	var jobs []job
	for i := range segs {
		s := &segs[i]
		for t := s.start; t < s.end; t++ {
			jobs = append(jobs, job{bkg: s, t0: t, dur: math.Min(1, s.end-t)})
		}
	}
	for i := range bursts {
		jobs = append(jobs, job{burst: i})
	}
	out := make([][]*detector.Event, len(jobs))
	next := make(chan int, len(jobs))
	for i := range jobs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				if j.bkg != nil {
					m := background.DefaultModel()
					m.RatePerSecond = j.bkg.thrownHz
					evs := m.Simulate(&det, j.dur, root.Split(keyBkgChunk+uint64(i)))
					for _, ev := range evs {
						ev.ArrivalTime += j.t0
					}
					out[i] = evs
					continue
				}
				b := bursts[j.burst]
				evs := detector.SimulateBurst(&det, detector.Burst{
					Fluence: b.fluence, PolarDeg: b.polarDeg, AzimuthDeg: b.azimDeg,
				}, root.Split(keyBurst+uint64(j.burst)))
				for _, ev := range evs {
					ev.ArrivalTime += b.onset
				}
				out[i] = evs
			}
		}()
	}
	wg.Wait()

	n := 0
	for _, evs := range out {
		n += len(evs)
	}
	all := make([]*detector.Event, 0, n)
	for _, evs := range out {
		all = append(all, evs...)
	}
	sortByTime(all)
	return all
}

func sortByTime(evs []*detector.Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].ArrivalTime < evs[j].ArrivalTime })
}

// calibrateRate counts one seeded second of quiet sky at the given thrown
// rate, the calibration adaptstream and the campaign runner perform.
func calibrateRate(root *xrand.RNG, thrownHz float64) float64 {
	det := detector.DefaultConfig()
	m := background.DefaultModel()
	m.RatePerSecond = thrownHz
	return math.Max(float64(len(m.Simulate(&det, 1, root.Split(keyCalibrate)))), 1)
}

// laneFeed is one merge source: raw (uncorrected) lane clock times in
// nondecreasing order, and the lane's static clock offset.
type laneFeed struct {
	name   string
	offset float64
	events []*detector.Event
}

// dealLanes deals a time-ordered exposure over len(offsets) detector lanes
// and applies each lane's static clock offset (raw = true + offset). Events
// are copied, so the exposure itself is left untouched.
func dealLanes(rng *xrand.RNG, events []*detector.Event, offsets []float64) []laneFeed {
	lanes := make([]laneFeed, len(offsets))
	for i := range lanes {
		lanes[i] = laneFeed{name: laneName(i), offset: offsets[i]}
	}
	for _, ev := range events {
		l := rng.IntN(len(lanes))
		c := *ev
		c.ArrivalTime = ev.ArrivalTime + offsets[l]
		lanes[l].events = append(lanes[l].events, &c)
	}
	return lanes
}

func laneName(i int) string { return "lane" + string(rune('0'+i)) }

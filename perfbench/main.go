// Command perfbench is the repository's benchmark. It runs one named
// workload through the public entry points the binaries use, with the
// binaries' shipping settings, checks that the outputs are correct, and
// prints the metrics as one JSON object on the last line of standard
// output. Human-readable detail goes to the lines before it.
//
//	bash perfbench/run.sh --workload flight_journal --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, timed with tracing off.
// With --trace 1 it runs the workload once untraced and once traced, then
// drives every layer's public functions in isolation over the workload's
// inputs, and reports the per-layer ledger; the span dump and self-time
// table are written under .bench_build/perfbench/.
//
// Run it from the root of a checkout: it reads and writes nothing outside
// it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a trace-0 run performs its set-up; setup_s is
// the median. Set-up is dominated by model training, so more repetitions
// would cost more than the measured phase.
const setupReps = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload's measured phase produced.
type outcome struct {
	// e2e holds the end-to-end metrics BENCHMARK.json declares (setup_s is
	// added by main).
	e2e map[string]metric
	// detail holds the workload-specific end-to-end metrics, printed by
	// name above the JSON line.
	detail []namedMetric
	// attempted/failed count operations and failed ones: journal errors,
	// drops, bursts with no OK alert, failed or unsent requests, failed
	// output checks.
	attempted, failed int64
	// checks are the output checks run, each nil on success.
	checks []checkResult
}

type namedMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

// instance is one workload's prepared inputs and models.
type instance interface {
	// measure runs the workload's measured phase for about seconds of wall
	// time with tracing off (tr nil) or on; files it writes go under work.
	measure(seconds float64, work string, tr *tracer) (*outcome, error)
	// inputs exposes the workload's inputs to the per-layer ledger.
	inputs() (*layerInputs, error)
}

type workloadDef struct {
	name string
	// prepare makes the inputs from the seed and trains the models. seconds
	// sizes the inputs whose count follows the run length, and dir takes
	// the inputs kept on disk — both for serve_fleet's request bodies; the
	// stream workloads repeat inputs they hold.
	prepare func(seed uint64, seconds float64, dir string) (instance, error)
}

var workloads = []workloadDef{
	{"flight_journal", prepareFlight},
	{"burst_train", prepareBurstTrain},
	{"serve_fleet", prepareFleet},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: flight_journal, burst_train or serve_fleet")
	seed := fs.Uint64("seed", 1, "workload seed: the inputs are a pure function of it")
	seconds := fs.Float64("seconds", 10, "wall-clock length of the measured phase")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = traced per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	outDir := filepath.Join(".bench_build", "perfbench")
	work := filepath.Join(outDir, fmt.Sprintf("work-%s-%d", def.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	res, err := runWorkload(def, *seed, *seconds, *trace == 1, work, outDir, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func runWorkload(def *workloadDef, seed uint64, seconds float64, traced bool, work, outDir string, stdout io.Writer) (*result, error) {
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d %s/%s\n",
		def.name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)

	reps := setupReps
	if traced {
		reps = 1 // the ledger does not report setup_s
	}
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		in, err := def.prepare(seed, seconds, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	fmt.Fprintf(stdout, "setup: %s s (median of %d)\n", fmtList(setups), len(setups))

	if traced {
		return runLedger(def.name, seed, inst, work, outDir, stdout)
	}

	out, err := inst.measure(seconds, work, nil)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = metric{median(setups), "s"}
	printOutcome(stdout, out)
	return finish(out, out.e2e), nil
}

// finish folds the checks into the result.
func finish(out *outcome, metrics map[string]metric) *result {
	res := &result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	for _, c := range out.checks {
		res.Attempted++
		if c.err != nil {
			res.Failed++
			res.Correct = false
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	return res
}

func printOutcome(w io.Writer, out *outcome) {
	fmt.Fprintln(w, "end-to-end:")
	names := make([]string, 0, len(out.e2e))
	for n := range out.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", n, out.e2e[n].Value, out.e2e[n].Unit)
	}
	fmt.Fprintln(w, "workload metrics:")
	for _, m := range out.detail {
		fmt.Fprintf(w, "  %-24s %14.6g %-10s %s\n", m.name, m.value, m.unit, m.note)
	}
	att, failed := out.attempted, out.failed
	for _, c := range out.checks {
		att++
		status := "ok"
		if c.err != nil {
			failed++
			status = "FAILED: " + c.err.Error()
		}
		fmt.Fprintf(w, "check %-44s %s\n", c.name, status)
	}
	frac := 0.0
	if att > 0 {
		frac = float64(failed) / float64(att)
	}
	fmt.Fprintf(w, "  %-24s %14.6g %-10s (%d failed of %d attempted)\n", "failed_frac", frac, "ratio", failed, att)
}

func (h heapStats) detail() namedMetric {
	return namedMetric{"heap_peak_mb", h.peakMB, "MB",
		fmt.Sprintf("(live heap above the start-of-phase baseline; peak of %d GC-cycle readings)", h.cycles)}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

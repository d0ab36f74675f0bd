// Command perfbench is the repository's end-to-end benchmark.  Each run
// measures one workload in its own process and prints, as the last line
// of standard output, one JSON object with the correctness verdict, the
// op counts and the metrics: the end-to-end metrics on an untraced run
// (-trace 0), the per-layer metrics on a traced run (-trace 1).
//
//	bash perfbench/run.sh --workload core-cold --seed 1 --seconds 25 --trace 0
//
// run.sh builds this package from the checkout it is run in; the tests
// run with "go test ./..." in this directory.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - core-cold: the paper's algorithms alone — NewSolver then Solve on
//     fresh probe-heavy instances, one closed-loop caller;
//   - serve-hits: the HTTP edge — an open loop through an in-process
//     lb.Proxy into two serve.Server shards, mostly result-cache hits;
//   - session-churn: incremental sessions — stream.Session Apply then
//     Solve on a churn delta trace, one closed-loop caller.
//
// Every input is a pure function of -seed and is built before timing
// starts.  Every output is checked off the clock; a failed check counts
// against "failed" and clears "correct".  All timings are taken from
// outside, around calls into each layer's public functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// traceDir holds the span dumps of traced runs, relative to the
// directory the benchmark runs from.
const traceDir = ".bench_build/trace"

// budget is the time one measured pass runs for: the whole --seconds on
// an untraced run, half of it for each of the traced run's two passes.
func (c config) budget() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 2
	}
	return d
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int64
	failures          []string
	values            map[string]float64
	counts            map[string]int
	notes             []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, counts: map[string]int{}}
}

// set records a metric value with the number of samples behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// fail counts one failed op; the first few reasons are printed.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config, *report) error{
	coreCold:     runCoreCold,
	serveHits:    runServeHits,
	sessionChurn: runSessionChurn,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: core-cold, serve-hits or session-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&cfg.seconds, "seconds", 25, "measured seconds (split over two passes when tracing)")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload core-cold|serve-hits|session-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := checkCatalog(catalog); err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep := newReport()
	if err := run(cfg, rep); err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	if _, ok := rep.values["peak_rss_mb"]; !ok && !cfg.trace {
		rep.set("peak_rss_mb", peakRSSMB(), 1)
	}
	out, err := finish(cfg, rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish prints the human-readable summary and returns the result line.
// An untraced run must have measured every end-to-end metric as a
// positive number; a traced run reports a layer metric that does not run
// on the workload as 0 with n=0.
func finish(cfg config, rep *report) ([]byte, error) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	for _, f := range rep.failures {
		fmt.Println("# FAILED:", f)
	}
	if rep.attempted < 1 {
		return nil, fmt.Errorf("no ops attempted")
	}
	fmt.Printf("# attempted=%d failed=%d fail_frac=%g\n", rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted))
	res := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range catalog {
		if d.layer != cfg.trace {
			continue
		}
		v, ok := rep.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		if !d.layer && (!ok || v <= 0) {
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		if ok {
			fmt.Printf("# %-22s %14.6f %-6s n=%d\n", d.name, v, d.unit, rep.counts[d.name])
		} else {
			fmt.Printf("# %-22s %14s %-6s n=0 (does not run on %s)\n", d.name, "n/a", d.unit, cfg.workload)
		}
		fmt.Printf("#     %s\n", d.what)
		if d.moves != "" {
			fmt.Printf("#     should move: %s\n", d.moves)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return json.Marshal(res)
}

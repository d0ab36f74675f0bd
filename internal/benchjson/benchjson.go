// Package benchjson measures the solve engines against their baselines
// through the public APIs and emits/validates the machine-readable
// BENCH_core.json performance-trajectory report: the parallel engine vs
// the serial path, and the incremental session engine (warm re-solve
// after a delta) vs a cold NewSolver+Solve.  It lives outside
// internal/expt so the root package's benchmarks can keep importing expt
// without an import cycle.
package benchjson

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"setupsched"
	"setupsched/obs"
	"setupsched/sched"
	"setupsched/schedgen"
	"setupsched/stream"
)

// BenchCoreSchema versions the BENCH_core.json wire format.  v2 holds a
// list of runs keyed by environment, so single-core and multi-core
// measurements coexist in one file and comparisons are only ever made
// within one environment (a gomaxprocs=1 run must never be read as a
// parallel-speedup regression).
const BenchCoreSchema = "setupsched/bench_core/v2"

// BenchResult is one datapoint: one measured path at one instance size in
// one engine mode.
type BenchResult struct {
	// Name is the measured path: "split/exact32", "nonp/eps", ...,
	// "solveall/paper" for the nine-run fan-out, or "session/<variant>"
	// for the incremental session engine.
	Name string `json:"name"`
	// N is the instance's job count.
	N int `json:"n"`
	// Mode pairs up baselines and contenders: "serial" vs "parallel"
	// (the SolveAll fan-out; single-solve paths are measured serially
	// only, though older runs also hold parallel rows for them), and
	// "cold" vs "warm" (fresh NewSolver+Solve per change vs session delta
	// + warm re-solve).
	Mode string `json:"mode"`
	// Parallelism is the goroutine width of the parallel mode (1
	// otherwise).
	Parallelism int `json:"parallelism"`
	// NsPerOp is the mean wall-clock time per operation in nanoseconds.
	// For the session pairs one operation is one delta plus one re-solve.
	NsPerOp float64 `json:"ns_per_op"`
	// Probes is the dual-test count of one solve (0 where not applicable).
	Probes int `json:"probes"`
	// PrepareNs/SearchNs/BuildNs attribute the row to the paper's
	// algorithm phases — the O(n) preprocessing, the dual-approximation
	// threshold search, and the schedule build — measured by one
	// span-instrumented solve of the same path (serial single-solve rows
	// only; omitted on fan-out, parallel and session rows).  PrepareNs is
	// the instance's one-time NewSolver cost, shared by the size's rows.
	PrepareNs float64 `json:"prepare_ns,omitempty"`
	SearchNs  float64 `json:"search_ns,omitempty"`
	BuildNs   float64 `json:"build_ns,omitempty"`
}

// modePeer maps each mode to the counterpart it is compared against.
var modePeer = map[string]string{
	"serial": "parallel", "parallel": "serial",
	"cold": "warm", "warm": "cold",
}

// BenchRun is one environment's worth of datapoints.
type BenchRun struct {
	GoVersion     string        `json:"go_version"`
	GOOS          string        `json:"goos"`
	GOARCH        string        `json:"goarch"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	NumCPU        int           `json:"num_cpu"`
	GeneratedUnix int64         `json:"generated_unix"`
	Sizes         []int         `json:"sizes"`
	Reps          int           `json:"reps"`
	Results       []BenchResult `json:"results"`
}

// EnvKey identifies the environment a run was measured in; successive
// regenerations replace the run with the matching key instead of mixing
// measurements across environments.
func (r *BenchRun) EnvKey() string {
	return fmt.Sprintf("%s/%s/%s/gomaxprocs=%d", r.GoVersion, r.GOOS, r.GOARCH, r.GoMaxProcs)
}

// BenchReport is the schema of BENCH_core.json: environment-keyed runs.
type BenchReport struct {
	Schema string     `json:"schema"`
	Runs   []BenchRun `json:"runs"`
}

// MergeRun inserts the run into the report, replacing an existing run
// with the same environment key.
func MergeRun(rep *BenchReport, run BenchRun) {
	rep.Schema = BenchCoreSchema
	for i := range rep.Runs {
		if rep.Runs[i].EnvKey() == run.EnvKey() {
			rep.Runs[i] = run
			return
		}
	}
	rep.Runs = append(rep.Runs, run)
}

// benchSpec is one measured solve path.
type benchSpec struct {
	name string
	// single marks paths that are one Solver.Solve call: they probe
	// serially, so they are measured in serial mode only, and a span
	// recorder can attribute them to phases (the fan-out interleaves nine
	// searches' probe events, so its spans would misattribute).
	single bool
	run    func(s *setupsched.Solver, opts ...setupsched.Option) (probes int, err error)
}

func benchSpecs() []benchSpec {
	var out []benchSpec
	for _, r := range setupsched.PaperRuns() {
		if r.Algorithm == setupsched.TwoApprox {
			continue // no search to measure
		}
		r := r
		var name string
		switch r.Variant {
		case setupsched.Splittable:
			name = "split/"
		case setupsched.Preemptive:
			name = "pmtn/"
		default:
			name = "nonp/"
		}
		if r.Algorithm == setupsched.EpsilonSearch {
			name += "eps"
		} else {
			name += "exact32"
		}
		out = append(out, benchSpec{name: name, single: true, run: func(s *setupsched.Solver, extra ...setupsched.Option) (int, error) {
			opts := append([]setupsched.Option{setupsched.WithAlgorithm(r.Algorithm)}, extra...)
			res, err := s.Solve(context.Background(), r.Variant, opts...)
			if err != nil {
				return 0, err
			}
			return res.Probes, nil
		}})
	}
	out = append(out, benchSpec{name: "solveall/paper", run: func(s *setupsched.Solver, opts ...setupsched.Option) (int, error) {
		rrs, err := s.SolveAll(context.Background(), opts...)
		if err != nil {
			return 0, err
		}
		var probes int
		for _, rr := range rrs {
			if rr.Err != nil {
				return 0, rr.Err
			}
			probes += rr.Result.Probes
		}
		return probes, nil
	}})
	return out
}

// BenchCoreInstance builds the setup-heavy instance shape used for the
// trajectory datapoints.  Unlike the uniform shape, its dual searches
// genuinely probe, so the fan-out and warm-start paths are both
// exercised.  Setup and job magnitudes are large (~2e9 resp. ~2e8):
// the searches' probe counts scale with log T — the paper's
// O(n log(n + Delta)) — so value-heavy instances are where search cost,
// and therefore warm starts, genuinely matter; tiny magnitudes would
// hide the search behind the O(n) schedule emission.
// (v1 reports used MaxSetup 500; v2 datapoints are not comparable.)
func BenchCoreInstance(n int) *sched.Instance {
	classes := n / 8
	if classes < 1 {
		classes = 1
	}
	// Magnitudes are capped so m*N stays safely inside the instance
	// limits at every size: N <= ~0.225*n*maxSetup for this shape and
	// m ~ n/10, so maxSetup <= ~1.6e18/n^2 keeps m*N below half of
	// sched.MaxMachineLoadProduct.
	maxSetup := int64(2_000_000_000)
	if cap := int64(1.6e18) / int64(n) / int64(n); cap < maxSetup {
		maxSetup = cap
	}
	if maxSetup < 500 {
		maxSetup = 500
	}
	maxJob := maxSetup / 10
	if maxJob < 60 {
		maxJob = 60
	}
	// Machine-rich and setup-dominated (the cfg of the engine tests): the
	// trivial bound is rejected and every exact search runs its full
	// breakpoint/jump narrowing.
	// Slightly fewer machines than classes keeps the expensive classes'
	// machine demand above m at the trivial bound.
	return schedgen.ExpensiveSetups(schedgen.Params{
		M: int64(n/10 + 1), Classes: classes, JobsPer: 8,
		MaxSetup: maxSetup, MaxJob: maxJob, Seed: int64(n),
	})
}

// sessionDelta returns the alternating small edit the session pairs
// replay: one job arrives, then departs, so the instance stays bounded
// over any number of reps while every re-solve sees a real change.
func sessionDelta(i int, jobs0 int) sched.Delta {
	if i%2 == 0 {
		return sched.Delta{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{17}}
	}
	return sched.Delta{Op: sched.DeltaRemoveJob, Class: 0, Job: jobs0}
}

// benchSession measures the session engine on one instance: "warm" is
// one delta applied to a live Session followed by a warm re-solve;
// "cold" is the same delta applied to a plain instance followed by a
// fresh NewSolver+Solve — the stateless cost the session amortizes.
func benchSession(in *sched.Instance, v sched.Variant, reps int) (cold, warm BenchResult, err error) {
	name := "session/" + v.Short()
	nj := in.NumJobs()
	jobs0 := len(in.Classes[0].Jobs)

	// Cold: rebuild everything per change.
	coldIn := in.Clone()
	ctx := context.Background()
	var coldProbes int
	coldOnce := func(i int) error {
		if _, err := sessionDelta(i, jobs0).Apply(coldIn); err != nil {
			return err
		}
		solver, err := setupsched.NewSolver(coldIn)
		if err != nil {
			return err
		}
		res, err := solver.Solve(ctx, v)
		if err != nil {
			return err
		}
		coldProbes = res.Probes
		return nil
	}
	if err := coldOnce(0); err != nil { // warm-up (also de-aligns the alternation)
		return cold, warm, fmt.Errorf("%s cold: %w", name, err)
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := coldOnce(i + 1); err != nil {
			return cold, warm, fmt.Errorf("%s cold: %w", name, err)
		}
	}
	coldNs := float64(time.Since(start).Nanoseconds()) / float64(reps)

	// Warm: the session absorbs the same stream of changes.
	sess, err := stream.NewSession(in)
	if err != nil {
		return cold, warm, err
	}
	var warmProbes int
	warmOnce := func(i int) error {
		if err := sess.Apply(ctx, sessionDelta(i, jobs0)); err != nil {
			return err
		}
		res, err := sess.Solve(ctx, v)
		if err != nil {
			return err
		}
		warmProbes = res.Probes
		return nil
	}
	if err := warmOnce(0); err != nil {
		return cold, warm, fmt.Errorf("%s warm: %w", name, err)
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := warmOnce(i + 1); err != nil {
			return cold, warm, fmt.Errorf("%s warm: %w", name, err)
		}
	}
	warmNs := float64(time.Since(start).Nanoseconds()) / float64(reps)

	cold = BenchResult{Name: name, N: nj, Mode: "cold", Parallelism: 1, NsPerOp: coldNs, Probes: coldProbes}
	warm = BenchResult{Name: name, N: nj, Mode: "warm", Parallelism: 1, NsPerOp: warmNs, Probes: warmProbes}
	return cold, warm, nil
}

// BenchCore measures each paper search serially, the SolveAll fan-out
// against its serial path, and the session engine against stateless
// re-solving, across instance sizes, returning one environment-keyed run.
// parallelism is the fan-out width; <= 1 defaults to
// runtime.GOMAXPROCS(0).
func BenchCore(sizes []int, reps, parallelism int) (*BenchRun, error) {
	if len(sizes) == 0 {
		return nil, errors.New("benchjson: BenchCore needs at least one size")
	}
	if reps < 1 {
		reps = 1
	}
	if parallelism <= 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism < 2 {
		// Never emit "parallel" rows that secretly ran serial (width 1
		// disables the engine entirely): on a single-CPU box the parallel
		// datapoints then measure goroutine overhead at width 2, which is
		// honest — the recorded gomaxprocs/num_cpu tell the reader why.
		parallelism = 2
	}
	run := &BenchRun{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GeneratedUnix: time.Now().Unix(),
		Sizes:         sizes,
		Reps:          reps,
	}
	for _, n := range sizes {
		in := BenchCoreInstance(n)
		prepStart := time.Now()
		solver, err := setupsched.NewSolver(in)
		prepareNs := float64(time.Since(prepStart).Nanoseconds())
		if err != nil {
			return nil, err
		}
		nj := in.NumJobs()
		for _, spec := range benchSpecs() {
			modes := []struct {
				name string
				par  int
			}{{"serial", 1}, {"parallel", parallelism}}
			if spec.single {
				modes = modes[:1]
			}
			for _, mode := range modes {
				var opts []setupsched.Option
				if mode.par > 1 {
					opts = append(opts, setupsched.WithParallelism(mode.par))
				}
				var probes int
				// One warm-up solve keeps one-time costs out of the mean.
				if probes, err = spec.run(solver, opts...); err != nil {
					return nil, fmt.Errorf("%s n=%d %s: %w", spec.name, n, mode.name, err)
				}
				start := time.Now()
				for r := 0; r < reps; r++ {
					if _, err := spec.run(solver, opts...); err != nil {
						return nil, fmt.Errorf("%s n=%d %s: %w", spec.name, n, mode.name, err)
					}
				}
				el := time.Since(start)
				result := BenchResult{
					Name: spec.name, N: nj, Mode: mode.name, Parallelism: mode.par,
					NsPerOp: float64(el.Nanoseconds()) / float64(reps),
					Probes:  probes,
				}
				// One extra instrumented solve attributes the serial row
				// to the paper's phases (search vs. build; prepare is the
				// instance's one-time NewSolver cost).
				if spec.single {
					rec := obs.NewSpanRecorder()
					if _, err := spec.run(solver, setupsched.WithObserver(rec)); err != nil {
						return nil, fmt.Errorf("%s n=%d spans: %w", spec.name, n, err)
					}
					phases := obs.PhaseDurations(rec.Root())
					result.PrepareNs = prepareNs
					result.SearchNs = float64(phases["search"].Nanoseconds())
					result.BuildNs = float64(phases["build"].Nanoseconds())
				}
				run.Results = append(run.Results, result)
			}
		}
		for _, v := range sched.Variants {
			cold, warm, err := benchSession(in, v, reps)
			if err != nil {
				return nil, err
			}
			run.Results = append(run.Results, cold, warm)
		}
	}
	return run, nil
}

// ValidateBenchReport checks the structural invariants of a BENCH_core
// report: schema tag, at least one run, environment fields, unique
// environment keys, and positive measurements with a known mode.  Within
// each run, every (name, n) of the SolveAll fan-out needs its
// serial/parallel pair and every session row its cold/warm pair.
func ValidateBenchReport(rep *BenchReport) error {
	if rep == nil {
		return errors.New("benchjson: nil bench report")
	}
	if rep.Schema != BenchCoreSchema {
		return fmt.Errorf("benchjson: schema %q, want %q (regenerate with schedbench -json)", rep.Schema, BenchCoreSchema)
	}
	if len(rep.Runs) == 0 {
		return errors.New("benchjson: bench report has no runs")
	}
	envs := map[string]bool{}
	for i := range rep.Runs {
		run := &rep.Runs[i]
		if err := validateRun(run); err != nil {
			return fmt.Errorf("benchjson: run %s: %w", run.EnvKey(), err)
		}
		if envs[run.EnvKey()] {
			return fmt.Errorf("benchjson: duplicate environment %s (runs must be merged per environment)", run.EnvKey())
		}
		envs[run.EnvKey()] = true
	}
	return nil
}

func validateRun(run *BenchRun) error {
	if run.GoVersion == "" || run.GOOS == "" || run.GOARCH == "" || run.GoMaxProcs < 1 || run.NumCPU < 1 {
		return errors.New("missing environment fields")
	}
	if run.GeneratedUnix <= 0 || run.Reps < 1 || len(run.Sizes) == 0 {
		return errors.New("missing run parameters")
	}
	if len(run.Results) == 0 {
		return errors.New("no results")
	}
	type key struct {
		name string
		n    int
		mode string
	}
	seen := map[key]bool{}
	for _, r := range run.Results {
		if r.Name == "" || r.N < 1 || r.NsPerOp <= 0 || r.Parallelism < 1 {
			return fmt.Errorf("malformed result %+v", r)
		}
		if modePeer[r.Mode] == "" {
			return fmt.Errorf("result %q has unknown mode %q", r.Name, r.Mode)
		}
		seen[key{r.Name, r.N, r.Mode}] = true
	}
	for k := range seen {
		if k.name != "solveall/paper" && !strings.HasPrefix(k.name, "session/") {
			continue // single-solve paths are measured serially only
		}
		if !seen[key{k.name, k.n, modePeer[k.mode]}] {
			return fmt.Errorf("result %s n=%d has no %s counterpart", k.name, k.n, modePeer[k.mode])
		}
	}
	return nil
}

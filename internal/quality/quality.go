// Package quality measures the realized approximation quality of the
// paper's non-preemptive algorithms against the exact reference backend
// (the public RefExact SolveAll run) and emits/validates the
// machine-readable BENCH_quality.json report: per (schedgen family,
// algorithm) distributions of the measured makespan/OPT ratio, with the
// worst ratio kept as an exact rational so guarantee checks and the CI
// regression gate never depend on float rounding.
//
// Where the reference backend converges the recorded ratio is the true
// realized ratio; where its node budget runs out, the certified bracket's
// lower end still gives a sound upper bound on the ratio, tracked
// separately as worst_bound.  cmd/schedquality drives this package as a
// CLI; quality_test.go drives the same entry point as the tier-1
// guarantee table.
package quality

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// Schema versions the BENCH_quality.json wire format.
const Schema = "setupsched/bench_quality/v1"

// DefaultEpsilon is the eps-search accuracy measured when Config.Epsilon
// is zero.
const DefaultEpsilon = 1e-3

// measured returns the measured runs in report order: the
// non-preemptive rows of setupsched.PaperRuns, the variant the exact
// reference solves.
func measured() []setupsched.Run {
	var out []setupsched.Run
	for _, r := range setupsched.PaperRuns() {
		if r.Variant == setupsched.NonPreemptive {
			out = append(out, r)
		}
	}
	return out
}

// FamilyResult is one (family, algorithm) distribution of measured
// ratios.
type FamilyResult struct {
	Family string `json:"family"`
	// Spec names the measured run (setupsched.Run.String).
	Spec string `json:"spec"`
	// Instances is the number of swept instances; Exact of them had a
	// converged reference optimum, Bracket only a certified OPT bracket.
	Instances int `json:"instances"`
	Exact     int `json:"exact"`
	Bracket   int `json:"bracket"`
	// Guarantee is the paper's ratio bound for this spec, exact
	// (setupsched.Run.Guarantee at the sweep's eps).
	Guarantee sched.Rat `json:"guarantee"`
	// WorstRatio is the worst true makespan/OPT ratio over the Exact
	// instances (zero when Exact is 0); every ratio is exact, so the
	// guarantee comparison has no float slack anywhere.
	WorstRatio sched.Rat `json:"worst_ratio"`
	// WorstFloat renders WorstRatio for humans and plots.
	WorstFloat float64 `json:"worst_ratio_float"`
	// MeanFloat is the mean true ratio over the Exact instances, summed
	// in seed order.
	MeanFloat float64 `json:"mean_ratio_float"`
	// WorstBound is the worst certified ratio upper bound
	// makespan/bracket-lo over the Bracket instances (zero when Bracket
	// is 0).  It bounds the true ratio from above but is not itself a
	// realized ratio, so the guarantee is asserted on WorstRatio only.
	WorstBound sched.Rat `json:"worst_bound"`
}

// Run is one environment's sweep.  Ratios are deterministic in the sweep
// parameters — the environment key only tells regenerations apart.
type Run struct {
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	GeneratedUnix int64   `json:"generated_unix"`
	Seeds         int64   `json:"seeds"`
	SeedBase      int64   `json:"seed_base"`
	Epsilon       float64 `json:"epsilon"`
	NodeBudget    int64   `json:"node_budget"`
	// Params sizes the swept instances (Seed is overwritten per seed).
	M        int64 `json:"m"`
	Classes  int   `json:"classes"`
	JobsPer  int   `json:"jobs_per"`
	MaxSetup int64 `json:"max_setup"`
	MaxJob   int64 `json:"max_job"`

	Results []FamilyResult `json:"results"`
}

// EnvKey identifies the environment a run was measured in; regenerations
// replace the run with the matching key.
func (r *Run) EnvKey() string {
	return fmt.Sprintf("%s/%s/%s/gomaxprocs=%d", r.GoVersion, r.GOOS, r.GOARCH, r.GoMaxProcs)
}

// Report is the schema of BENCH_quality.json: environment-keyed runs.
type Report struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// MergeRun inserts the run into the report, replacing an existing run
// with the same environment key.
func MergeRun(rep *Report, run Run) {
	rep.Schema = Schema
	for i := range rep.Runs {
		if rep.Runs[i].EnvKey() == run.EnvKey() {
			rep.Runs[i] = run
			return
		}
	}
	rep.Runs = append(rep.Runs, run)
}

// Config drives one Sweep.
type Config struct {
	// Families to sweep; empty means the full schedgen catalog.
	Families []schedgen.Family
	// Params sizes every instance (Seed is overwritten per seed).  The
	// zero value selects a small profile every family converges on.
	Params schedgen.Params
	// Seeds runs seeds SeedBase .. SeedBase+Seeds-1 per family.
	Seeds    int64
	SeedBase int64
	// Epsilon is the eps-search accuracy (default DefaultEpsilon).
	Epsilon float64
	// NodeBudget bounds the reference backend per instance (0 = the
	// backend's default).
	NodeBudget int64
	// Workers bounds sweep parallelism; <= 0 means 1.
	Workers int
}

// DefaultParams is the sweep profile committed in BENCH_quality.json:
// beyond the exhaustive gate (so the branch-and-bound reference is the
// only source of optima) yet small enough that it converges across the
// catalog.
func DefaultParams() schedgen.Params {
	return schedgen.Params{M: 4, Classes: 10, JobsPer: 3, MaxSetup: 40, MaxJob: 60}
}

// outcome is one instance's measurement: per measured run, the true
// ratio makespan/OPT when the reference converged (exact), otherwise the
// certified ratio upper bound makespan/bracket-lo.
type outcome struct {
	exact  bool
	ratios []sched.Rat
}

// Sweep measures every family under Config and returns one
// environment-keyed run, deterministic in the sweep parameters: workers
// fill one outcome slot per (family, seed), and the distributions are
// folded in seed order after the pool drains, so no float sum depends on
// completion order.  Every solve goes through the public Solver surface:
// the three approximation algorithms and the RefExact reference are one
// SolveAll call per instance.
func Sweep(ctx context.Context, cfg Config) (*Run, error) {
	families := cfg.Families
	if len(families) == 0 {
		families = schedgen.Families
	}
	params := cfg.Params
	if params == (schedgen.Params{}) {
		params = DefaultParams()
	}
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	eps := cfg.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}

	specs := measured()
	runs := append(measured(), setupsched.Run{Variant: setupsched.NonPreemptive, Algorithm: setupsched.RefExact})

	outs := make([][]outcome, len(families))
	for i := range outs {
		outs[i] = make([]outcome, seeds)
	}

	type item struct{ fam, seed int }
	jobs := make(chan item)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				p := params
				p.Seed = cfg.SeedBase + int64(it.seed)
				out, err := sweepOne(ctx, families[it.fam].Make(p), runs, eps, cfg.NodeBudget)
				outs[it.fam][it.seed] = out
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s seed %d: %w", families[it.fam].Name, p.Seed, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for fi := range families {
		for s := 0; s < int(seeds); s++ {
			if ctx.Err() != nil {
				break feed
			}
			mu.Lock()
			stop := firstErr != nil
			mu.Unlock()
			if stop {
				break feed
			}
			jobs <- item{fi, s}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	run := &Run{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GeneratedUnix: time.Now().Unix(),
		Seeds:         seeds,
		SeedBase:      cfg.SeedBase,
		Epsilon:       eps,
		NodeBudget:    cfg.NodeBudget,
		M:             params.M,
		Classes:       params.Classes,
		JobsPer:       params.JobsPer,
		MaxSetup:      params.MaxSetup,
		MaxJob:        params.MaxJob,
	}
	for fi, fam := range families {
		for si, sp := range specs {
			fr := FamilyResult{Family: fam.Name, Spec: sp.String(), Guarantee: sp.Guarantee(eps)}
			var sum float64
			for _, o := range outs[fi] {
				ratio := o.ratios[si]
				fr.Instances++
				if o.exact {
					fr.Exact++
					sum += ratio.Float64()
					if fr.WorstRatio.Less(ratio) {
						fr.WorstRatio = ratio
					}
				} else {
					fr.Bracket++
					if fr.WorstBound.Less(ratio) {
						fr.WorstBound = ratio
					}
				}
			}
			if fr.Exact > 0 {
				fr.WorstFloat = fr.WorstRatio.Float64()
				fr.MeanFloat = sum / float64(fr.Exact)
			}
			run.Results = append(run.Results, fr)
		}
	}
	return run, nil
}

// sweepOne solves one instance (three approximations plus the RefExact
// reference in one SolveAll) and measures the approximations' ratios.
func sweepOne(ctx context.Context, in *sched.Instance, runs []setupsched.Run, eps float64, budget int64) (outcome, error) {
	solver, err := setupsched.NewSolver(in)
	if err != nil {
		return outcome{}, err
	}
	opts := []setupsched.Option{
		setupsched.WithRuns(runs...),
		setupsched.WithEpsilon(eps),
	}
	if budget > 0 {
		opts = append(opts, setupsched.WithNodeBudget(budget))
	}
	rrs, err := solver.SolveAll(ctx, opts...)
	if err != nil {
		return outcome{}, err
	}

	// The RefExact run is last: its result (or typed budget error) is the
	// reference the approximation ratios are measured against.
	ref := rrs[len(rrs)-1]
	var div int64 // the optimum when converged, else the bracket's lower end
	switch {
	case ref.Err == nil:
		o := ref.Result.Makespan
		if !o.IsInt() {
			return outcome{}, fmt.Errorf("reference optimum %s is not integral", o)
		}
		div = o.Num()
	case errors.Is(ref.Err, setupsched.ErrExactBudget):
		var be *setupsched.ExactBudgetError
		if !errors.As(ref.Err, &be) {
			return outcome{}, fmt.Errorf("budget error without bracket: %w", ref.Err)
		}
		div = be.Lo
	default:
		return outcome{}, ref.Err
	}

	out := outcome{exact: ref.Err == nil, ratios: make([]sched.Rat, len(rrs)-1)}
	for i, rr := range rrs[:len(rrs)-1] {
		if rr.Err != nil {
			return outcome{}, fmt.Errorf("%s: %w", rr.Run, rr.Err)
		}
		out.ratios[i] = rr.Result.Makespan.DivInt(div)
	}
	return out, nil
}

// Validate checks the structural invariants of a BENCH_quality report:
// schema tag, at least one run with unique environment keys, complete
// sweep parameters, and per result a known spec, consistent counts, and
// exact ratios that are >= 1 where present and — the point of the file —
// within the recorded paper guarantee.
func Validate(rep *Report) error {
	if rep == nil {
		return errors.New("quality: nil report")
	}
	if rep.Schema != Schema {
		return fmt.Errorf("quality: schema %q, want %q (regenerate with schedquality -o)", rep.Schema, Schema)
	}
	if len(rep.Runs) == 0 {
		return errors.New("quality: report has no runs")
	}
	envs := map[string]bool{}
	for i := range rep.Runs {
		run := &rep.Runs[i]
		if err := validateRun(run); err != nil {
			return fmt.Errorf("quality: run %s: %w", run.EnvKey(), err)
		}
		if envs[run.EnvKey()] {
			return fmt.Errorf("quality: duplicate environment %s (runs must be merged per environment)", run.EnvKey())
		}
		envs[run.EnvKey()] = true
	}
	return nil
}

func validateRun(run *Run) error {
	if run.GoVersion == "" || run.GOOS == "" || run.GOARCH == "" || run.GoMaxProcs < 1 || run.NumCPU < 1 {
		return errors.New("missing environment fields")
	}
	if run.GeneratedUnix <= 0 || run.Seeds < 1 {
		return errors.New("missing run parameters")
	}
	if run.M < 1 || run.Classes < 1 || run.JobsPer < 1 || run.MaxJob < 1 {
		return errors.New("missing sweep size parameters")
	}
	if len(run.Results) == 0 {
		return errors.New("no results")
	}
	known := map[string]bool{}
	for _, sp := range measured() {
		known[sp.String()] = true
	}
	one := sched.R(1)
	seen := map[string]bool{}
	for _, fr := range run.Results {
		tag := fr.Family + "/" + fr.Spec
		if fr.Family == "" || !known[fr.Spec] {
			return fmt.Errorf("result %q has unknown family or spec", tag)
		}
		if seen[tag] {
			return fmt.Errorf("duplicate result %q", tag)
		}
		seen[tag] = true
		if fr.Instances < 1 || fr.Exact+fr.Bracket != fr.Instances {
			return fmt.Errorf("result %q: counts exact=%d bracket=%d don't add to instances=%d",
				tag, fr.Exact, fr.Bracket, fr.Instances)
		}
		if fr.Guarantee.Sign() <= 0 {
			return fmt.Errorf("result %q: missing guarantee", tag)
		}
		if fr.Exact > 0 {
			if fr.WorstRatio.Less(one) {
				return fmt.Errorf("result %q: worst ratio %s below 1 (a schedule beat the optimum)", tag, fr.WorstRatio)
			}
			if fr.Guarantee.Less(fr.WorstRatio) {
				return fmt.Errorf("result %q: worst measured ratio %s exceeds the paper guarantee %s",
					tag, fr.WorstRatio, fr.Guarantee)
			}
		}
		if fr.Bracket > 0 && fr.WorstBound.Less(one) {
			return fmt.Errorf("result %q: worst certified bound %s below 1", tag, fr.WorstBound)
		}
	}
	return nil
}

// CompareRuns gates the current sweep against a baseline run: for every
// (family, spec) present in both, the current worst measured ratio must
// not exceed the baseline's (exact rational compare).  The sweeps must
// use the same size parameters, eps and seed base — with those fixed and
// current seeds <= baseline seeds, the current worst is measured over a
// subset of the baseline's instances, so any increase is a genuine
// algorithmic regression, not sampling noise.  Returns one message per
// regression (empty = gate passes).
func CompareRuns(baseline, current *Run) []string {
	var msgs []string
	if baseline.M != current.M || baseline.Classes != current.Classes ||
		baseline.JobsPer != current.JobsPer || baseline.MaxSetup != current.MaxSetup ||
		baseline.MaxJob != current.MaxJob || baseline.SeedBase != current.SeedBase ||
		baseline.Epsilon != current.Epsilon {
		return []string{"sweep parameters differ from the baseline; ratios are not comparable (regenerate the baseline)"}
	}
	if current.Seeds > baseline.Seeds {
		msgs = append(msgs, fmt.Sprintf(
			"current sweep has more seeds (%d) than the baseline (%d); extra seeds can only widen the worst case — regenerate the baseline to accept",
			current.Seeds, baseline.Seeds))
	}
	base := map[string]FamilyResult{}
	for _, fr := range baseline.Results {
		base[fr.Family+"/"+fr.Spec] = fr
	}
	keys := make([]string, 0, len(current.Results))
	cur := map[string]FamilyResult{}
	for _, fr := range current.Results {
		k := fr.Family + "/" + fr.Spec
		cur[k] = fr
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, ok := base[k]
		if !ok {
			continue // new family: nothing to regress against
		}
		c := cur[k]
		if c.Exact > 0 && b.Exact > 0 && b.WorstRatio.Less(c.WorstRatio) {
			msgs = append(msgs, fmt.Sprintf("%s: worst measured ratio regressed %s -> %s",
				k, b.WorstRatio, c.WorstRatio))
		}
		if c.Exact == 0 && b.Exact > 0 {
			msgs = append(msgs, fmt.Sprintf("%s: reference backend no longer converges on any instance (baseline had %d)",
				k, b.Exact))
		}
	}
	return msgs
}

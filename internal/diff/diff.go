// Package diff is the differential guarantee-checking harness: it runs
// every paper algorithm on generated instances through the public Solver
// API and cross-checks the results against each other, against exact
// references (the exhaustive search on tiny instances and, with a node
// budget configured, the branch-and-bound backend — which contributes a
// true optimum when it converges and a certified OPT bracket when it
// does not), and against the classical baselines (internal/baseline).
//
// For every instance it asserts, per algorithm:
//
//   - setupsched.Verify accepts the result (feasible schedule, stated
//     makespan matches, certified bound sound against the trivial bound);
//   - makespan / certified lower bound never exceeds the paper guarantee
//     setupsched.Run.Guarantee (2 for the 2-approximations, 3/2 for the
//     exact searches, (3/2)(1 + core.EpsRat(eps)) for the eps-searches),
//     compared as exact rationals, except for the documented bounded-round
//     fallbacks, which are counted instead;
//   - where internal/exact can solve the instance: the certified lower
//     bound never exceeds OPT, no schedule beats OPT, and the makespan
//     stays within guarantee*OPT (using the sandwich
//     OPT_split <= OPT_pmtn <= OPT_nonp for the preemptive variant);
//
// and, per instance:
//
//   - the exact optima respect OPT_split <= OPT_nonp;
//   - every preemptive/non-preemptive makespan is at least every certified
//     splittable lower bound (and non-preemptive at least preemptive),
//     the relaxation chain of the three variants;
//   - the baseline schedules validate, and their makespans are upper
//     bounds: at least the exact non-preemptive optimum and at least every
//     certified non-preemptive lower bound.
//
// Any broken invariant becomes a Violation carrying the family, seed and
// size profile that produced it, so one (family, Params) pair reproduces
// the failure exactly.  cmd/schedstress drives this package as a soak CLI;
// diff_test.go drives it as tier-1 table tests.
package diff

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"setupsched"
	"setupsched/internal/baseline"
	"setupsched/internal/exact"
	"setupsched/sched"
	"setupsched/schedgen"
)

// DefaultEpsilon is the eps-search accuracy used when Config.Epsilon is 0.
const DefaultEpsilon = 1e-3

// AlgoRun is the outcome of one paper run (a row of Table 1, see
// setupsched.PaperRuns) on one instance.
type AlgoRun struct {
	Run       setupsched.Run
	Algorithm string // algorithm name reported by the solver
	Makespan  sched.Rat
	Lower     sched.Rat
	Probes    int
	// RatioVsLB is Makespan/Lower, the measured ratio the guarantee caps.
	RatioVsLB float64
	// Fallback reports the documented bounded-round fallback path, whose
	// certified bound is conservative (guarantee-vs-LB not asserted).
	Fallback bool
}

// Report is the outcome of checking one instance.
type Report struct {
	Fingerprint string
	Jobs        int
	Classes     int
	Machines    int64
	// OptNonp is the exact non-preemptive optimum — from the exhaustive
	// search on tiny instances, from the branch-and-bound reference when a
	// node budget is configured and it converges — or -1 when neither
	// applies.
	OptNonp int64
	// NonpLo/NonpHi is the certified bracket NonpLo <= OPT_nonp <= NonpHi
	// the branch-and-bound reference reached (equal to OptNonp when it
	// converged, a strict bracket when its node budget ran out, 0 when the
	// reference did not run).  The bracket powers the same soundness
	// checks as an exact optimum, just one-sided: lower bounds must not
	// exceed NonpHi, makespans must not undercut NonpLo.
	NonpLo, NonpHi int64
	// OptSplit is the exhaustive splittable optimum when HasOptSplit.
	OptSplit    sched.Rat
	HasOptSplit bool
	Runs        []AlgoRun
	Fallbacks   int
	// Violations lists every broken invariant, human-readable.
	Violations []string
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// exact-search gates tighter than internal/exact's own, keeping the
// per-instance exhaustive budget small enough for soak throughput.
func wantExactNonp(in *sched.Instance) bool {
	return in.NumJobs() <= 12 && in.M <= 4 && len(in.Classes) <= 12
}

func wantExactSplit(in *sched.Instance) bool {
	return in.M <= 4 && len(in.Classes) <= 4
}

// wantExactBB gates the branch-and-bound reference during a sweep: the
// backend's own gate is memory-only, so a job cap keeps the per-instance
// soak cost bounded (an exhausted node budget still yields a usable
// certified bracket, it just burns the whole budget first).
func wantExactBB(in *sched.Instance) bool {
	return in.NumJobs() <= 512
}

// CheckInstance runs every paper run on the instance, with eps as the
// eps-search accuracy (0 means DefaultEpsilon), and cross-checks the
// results.  Violations are reported in the Report, not as an error; the
// error return is reserved for infrastructure failures (context
// cancellation, a nil or invalid instance).
func CheckInstance(ctx context.Context, in *sched.Instance, eps float64) (*Report, error) {
	return CheckInstanceParallel(ctx, in, eps, 1)
}

// CheckInstanceParallel is CheckInstance with the nine algorithm runs
// fanned out concurrently through Solver.SolveAll at the given width
// (<= 1 is fully serial).  The fan-out path returns bit-identical results
// to the serial loop, so the checks are width-independent.
func CheckInstanceParallel(ctx context.Context, in *sched.Instance, eps float64, parallelism int) (*Report, error) {
	return CheckInstanceBudget(ctx, in, eps, parallelism, 0)
}

// CheckInstanceBudget is CheckInstanceParallel with a branch-and-bound
// node budget: when nodeBudget > 0, instances beyond the exhaustive gate
// (up to the wantExactBB job cap) also get an exact reference from the
// RefExact backend.  When it converges, its optimum feeds the same
// differential checks as the exhaustive one — and is pinned against the
// exhaustive optimum where both apply; when the budget runs out, the
// certified bracket it returns still bounds every certified lower bound
// from above and every schedule makespan from below.
func CheckInstanceBudget(ctx context.Context, in *sched.Instance, eps float64, parallelism int, nodeBudget int64) (*Report, error) {
	solver, err := setupsched.NewSolver(in)
	if err != nil {
		return nil, err
	}
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	rep := &Report{
		Fingerprint: in.Fingerprint(),
		Jobs:        in.NumJobs(),
		Classes:     in.NumClasses(),
		Machines:    in.M,
		OptNonp:     -1,
	}

	// Exhaustive references, where affordable.
	if wantExactNonp(in) {
		switch opt, err := exact.NonPreemptive(in); {
		case err == nil:
			rep.OptNonp = opt
		case !errors.Is(err, exact.ErrTooLarge):
			return nil, err
		}
	}
	if wantExactSplit(in) {
		switch opt, err := exact.Splittable(in); {
		case err == nil:
			rep.OptSplit, rep.HasOptSplit = opt, true
		case !errors.Is(err, exact.ErrTooLarge):
			return nil, err
		}
	}
	// Branch-and-bound reference, when a node budget allows it.
	if nodeBudget > 0 && wantExactBB(in) {
		switch res, err := exact.BranchBound(ctx, in, nodeBudget); {
		case err == nil:
			if rep.OptNonp >= 0 && rep.OptNonp != res.Opt {
				rep.violate("branch-and-bound optimum %d disagrees with exhaustive optimum %d", res.Opt, rep.OptNonp)
			}
			rep.OptNonp = res.Opt
			rep.NonpLo, rep.NonpHi = res.Opt, res.Opt
		case errors.Is(err, exact.ErrBudget):
			var be *exact.BudgetError
			if errors.As(err, &be) {
				rep.NonpLo, rep.NonpHi = be.Lo, be.Hi
			}
		case errors.Is(err, exact.ErrTooLarge):
			// Beyond the backend's memory gate: no reference for this one.
		default:
			return nil, err
		}
	}
	if rep.OptNonp >= 0 && rep.HasOptSplit && sched.R(rep.OptNonp).Less(rep.OptSplit) {
		rep.violate("exact optima inverted: OPT_split %s > OPT_nonp %d", rep.OptSplit, rep.OptNonp)
	}

	// All nine paper runs go through Solver.SolveAll off the one shared
	// preparation; with parallelism > 1 they solve concurrently, in
	// deterministic report order either way.
	opts := []setupsched.Option{setupsched.WithEpsilon(eps)}
	if parallelism > 1 {
		opts = append(opts, setupsched.WithParallelism(parallelism))
	}
	results, err := solver.SolveAll(ctx, opts...)
	if err != nil {
		return nil, err
	}
	for _, rr := range results {
		if rr.Err != nil {
			if errors.Is(rr.Err, setupsched.ErrCanceled) {
				return rep, rr.Err
			}
			rep.violate("%s: solve failed: %v", rr.Run, rr.Err)
			continue
		}
		res := rr.Result
		run := AlgoRun{
			Run:       rr.Run,
			Algorithm: res.Algorithm,
			Makespan:  res.Makespan,
			Lower:     res.LowerBound,
			Probes:    res.Probes,
			RatioVsLB: res.Ratio,
			Fallback:  res.Fallback,
		}
		rep.Runs = append(rep.Runs, run)
		if run.Fallback {
			rep.Fallbacks++
		}
		checkRun(rep, in, eps, run, res)
	}
	checkRelaxationChain(rep)
	checkBaselines(rep, in)
	return rep, nil
}

// checkRun asserts the per-algorithm invariants for one result of a
// solve at eps-search accuracy eps.
func checkRun(rep *Report, in *sched.Instance, eps float64, run AlgoRun, res *setupsched.Result) {
	if err := setupsched.Verify(in, run.Run.Variant, res); err != nil {
		rep.violate("%s: Verify rejected the solver's own result: %v", run.Run, err)
		return
	}

	// Guarantee against the certified lower bound, compared as exact
	// rationals so a ratio a hair above it cannot hide inside float
	// rounding (skipped for the documented conservative fallbacks, which
	// are counted instead).
	g := run.Run.Guarantee(eps)
	if !run.Fallback && run.Lower.Mul(g).Less(run.Makespan) {
		rep.violate("%s: makespan %s exceeds guarantee %s x certified bound %s (ratio %.6f)",
			run.Run, run.Makespan, g, run.Lower, run.RatioVsLB)
	}

	// Differential checks against the exhaustive optima.  The preemptive
	// optimum is sandwiched: OPT_split <= OPT_pmtn <= OPT_nonp.
	var optLo, optHi sched.Rat // OPT in [optLo, optHi] for this variant
	var haveLo, haveHi bool
	switch run.Run.Variant {
	case sched.Splittable:
		if rep.HasOptSplit {
			optLo, optHi, haveLo, haveHi = rep.OptSplit, rep.OptSplit, true, true
		}
	case sched.NonPreemptive:
		if rep.OptNonp >= 0 {
			o := sched.R(rep.OptNonp)
			optLo, optHi, haveLo, haveHi = o, o, true, true
		} else if rep.NonpLo >= 1 {
			// The branch-and-bound bracket is one-sided but sound in both
			// directions: Lo <= OPT (for the beats-optimum check) and
			// OPT <= Hi (for the unsound-certificate check).
			optLo, optHi, haveLo, haveHi = sched.R(rep.NonpLo), sched.R(rep.NonpHi), true, true
		}
	case sched.Preemptive:
		if rep.HasOptSplit {
			optLo, haveLo = rep.OptSplit, true
		}
		if rep.OptNonp >= 0 {
			optHi, haveHi = sched.R(rep.OptNonp), true
		} else if rep.NonpHi >= 1 {
			optHi, haveHi = sched.R(rep.NonpHi), true
		}
	}
	if haveHi && optHi.Less(run.Lower) {
		rep.violate("%s: certified lower bound %s exceeds exact optimum %s (unsound certificate)",
			run.Run, run.Lower, optHi)
	}
	if haveLo && run.Makespan.Less(optLo) {
		rep.violate("%s: schedule makespan %s beats the exact optimum %s (infeasible schedule or broken exact search)",
			run.Run, run.Makespan, optLo)
	}
	if haveHi && !run.Fallback && optHi.Mul(g).Less(run.Makespan) {
		rep.violate("%s: makespan %s exceeds guarantee %s x exact optimum %s",
			run.Run, run.Makespan, g, optHi)
	}
}

// checkRelaxationChain asserts OPT_split <= OPT_pmtn <= OPT_nonp through
// the runs: a feasible schedule of a stricter variant can never undercut a
// certified lower bound of a more relaxed one.
func checkRelaxationChain(rep *Report) {
	rank := func(v sched.Variant) int {
		switch v {
		case sched.Splittable:
			return 0
		case sched.Preemptive:
			return 1
		default:
			return 2
		}
	}
	for _, lower := range rep.Runs {
		for _, upper := range rep.Runs {
			if rank(lower.Run.Variant) < rank(upper.Run.Variant) &&
				upper.Makespan.Less(lower.Lower) {
				rep.violate("relaxation chain broken: %s makespan %s below %s certified bound %s",
					upper.Run, upper.Makespan, lower.Run, lower.Lower)
			}
		}
	}
}

// checkBaselines validates the classical baselines and uses them as upper
// bounds: every baseline schedules the instance non-preemptively, so its
// makespan is at least OPT_nonp and at least every certified
// non-preemptive lower bound.
func checkBaselines(rep *Report, in *sched.Instance) {
	for _, b := range []struct {
		name string
		make func(*sched.Instance) *sched.Schedule
	}{
		{"baseline/lpt", baseline.LPTBatches},
		{"baseline/nextfit", baseline.NextFitBatches},
		{"baseline/monmapotts", baseline.MonmaPottsSplit},
	} {
		s := b.make(in)
		if err := s.Validate(in); err != nil {
			rep.violate("%s: invalid schedule: %v", b.name, err)
			continue
		}
		mk := s.Makespan()
		if rep.OptNonp >= 0 && mk.Less(sched.R(rep.OptNonp)) {
			rep.violate("%s: makespan %s beats the exact non-preemptive optimum %d", b.name, mk, rep.OptNonp)
		} else if rep.NonpLo >= 1 && mk.Less(sched.R(rep.NonpLo)) {
			rep.violate("%s: makespan %s beats the certified optimum bracket lower end %d", b.name, mk, rep.NonpLo)
		}
		for _, run := range rep.Runs {
			if run.Run.Variant == sched.NonPreemptive && mk.Less(run.Lower) {
				rep.violate("%s: makespan %s below %s certified bound %s", b.name, mk, run.Run, run.Lower)
			}
		}
	}
}

// Profile is a named instance-size profile.
type Profile struct {
	Name string
	// Params sizes the generated instances; Seed is overwritten per run.
	Params schedgen.Params
}

// DefaultProfiles returns the standard soak ladder: "tiny" is sized so
// internal/exact can compute true optima, "small" and "medium" are checked
// against certified bounds, baselines and the relaxation chain only.
func DefaultProfiles() []Profile {
	return []Profile{
		{"tiny", schedgen.Params{M: 3, Classes: 3, JobsPer: 2, MaxSetup: 12, MaxJob: 16}},
		{"small", schedgen.Params{M: 4, Classes: 10, JobsPer: 3, MaxSetup: 40, MaxJob: 60}},
		{"medium", schedgen.Params{M: 16, Classes: 80, JobsPer: 5, MaxSetup: 200, MaxJob: 300}},
	}
}

// ProfilesByNames resolves a comma-separated profile list against
// DefaultProfiles; "all" (or "") selects every profile.
func ProfilesByNames(spec string) ([]Profile, error) {
	all := DefaultProfiles()
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return all, nil
	}
	known := make([]string, len(all))
	for i, p := range all {
		known[i] = p.Name
	}
	var out []Profile
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		found := false
		for _, p := range all {
			if p.Name == name {
				out = append(out, p)
				seen[name] = true
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("diff: unknown profile %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("diff: empty profile selection %q", spec)
	}
	return out, nil
}

// Violation is one broken invariant with everything needed to reproduce
// it: the family, size profile and seed regenerate the instance exactly.
type Violation struct {
	Family      string
	Profile     string
	Seed        int64
	Fingerprint string
	Msg         string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s/%s seed=%d fp=%.12s] %s", v.Family, v.Profile, v.Seed, v.Fingerprint, v.Msg)
}

// Config drives one Run sweep.
type Config struct {
	// Families to generate; empty means the full schedgen catalog.
	Families []schedgen.Family
	// Profiles to size instances with; empty means DefaultProfiles.
	Profiles []Profile
	// Seeds runs seeds SeedBase .. SeedBase+Seeds-1 per (family, profile).
	Seeds    int64
	SeedBase int64
	// Epsilon is the eps-search accuracy (default DefaultEpsilon).
	Epsilon float64
	// ExactNodeBudget > 0 runs the branch-and-bound exact reference on
	// every instance within the wantExactBB gate, spending at most this
	// many search nodes per instance: converged instances gain true-ratio
	// differential checks, budget-exhausted ones a certified OPT bracket.
	// Zero keeps the sweep to the tiny exhaustive references only.
	ExactNodeBudget int64
	// Workers bounds check parallelism; <= 0 means 1.
	Workers int
	// Parallelism fans each instance's nine algorithm runs out through
	// Solver.SolveAll at this width; <= 1 keeps the serial loop.  It
	// multiplies with Workers, so the effective goroutine bound is
	// Workers * Parallelism.
	Parallelism int
	// MaxViolations stops early once this many violations are collected
	// (0 = unlimited).
	MaxViolations int
	// Observe, when non-nil, receives the wall-clock duration of every
	// completed per-instance check (all of the instance's solves).  It is
	// called concurrently from the worker goroutines, so the sink must be
	// safe for concurrent use — an obs.Histogram is the intended consumer.
	Observe func(d time.Duration)
	// Progress, when non-nil, is called after every checked instance with
	// the sweep's running totals.  It runs under the summary lock: keep it
	// cheap (bump shared counters for a reporter goroutine to read).
	Progress func(instances, solves int64, violations int)
}

// Summary aggregates a Run sweep.
type Summary struct {
	Instances  int64
	Solves     int64
	ExactNonp  int64 // instances with an exact non-preemptive optimum (exhaustive or B&B)
	ExactSplit int64 // instances with an exhaustive splittable optimum
	BBBrackets int64 // instances where the B&B reference certified only a bracket
	Fallbacks  int64
	// MaxRatioVsLB is the worst measured makespan/certified-bound ratio
	// per spec name (setupsched.Run.String), over non-fallback runs, exact.
	MaxRatioVsLB map[string]sched.Rat
	Violations   []Violation
}

// Run sweeps families x profiles x seeds, checking every instance on a
// bounded worker pool.  It stops early when ctx is done (returning what
// was checked so far with the context's error) or when MaxViolations is
// reached (nil error).
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	families := cfg.Families
	if len(families) == 0 {
		families = schedgen.Families
	}
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		profiles = DefaultProfiles()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}

	type item struct {
		fam     schedgen.Family
		profile Profile
		seed    int64
	}
	jobs := make(chan item)
	sum := &Summary{MaxRatioVsLB: map[string]sched.Rat{}}
	var mu sync.Mutex
	var firstErr error
	stop := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil ||
			(cfg.MaxViolations > 0 && len(sum.Violations) >= cfg.MaxViolations)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				p := it.profile.Params
				p.Seed = it.seed
				in := it.fam.Make(p)
				t0 := time.Now()
				rep, err := CheckInstanceBudget(ctx, in, cfg.Epsilon, cfg.Parallelism, cfg.ExactNodeBudget)
				if cfg.Observe != nil {
					cfg.Observe(time.Since(t0))
				}
				mu.Lock()
				record := func() {
					for _, msg := range rep.Violations {
						sum.Violations = append(sum.Violations, Violation{
							Family: it.fam.Name, Profile: it.profile.Name, Seed: it.seed,
							Fingerprint: rep.Fingerprint, Msg: msg,
						})
					}
				}
				if err != nil {
					if firstErr == nil && !errors.Is(err, setupsched.ErrCanceled) {
						firstErr = fmt.Errorf("%s/%s seed %d: %w", it.fam.Name, it.profile.Name, it.seed, err)
					}
					if firstErr == nil && ctx.Err() != nil {
						firstErr = ctx.Err()
					}
					// A cancellation mid-instance must not discard evidence
					// the completed specs already produced.
					if rep != nil {
						record()
					}
					mu.Unlock()
					continue
				}
				sum.Instances++
				sum.Solves += int64(len(rep.Runs))
				sum.Fallbacks += int64(rep.Fallbacks)
				if rep.OptNonp >= 0 {
					sum.ExactNonp++
				}
				if rep.HasOptSplit {
					sum.ExactSplit++
				}
				if rep.OptNonp < 0 && rep.NonpLo >= 1 {
					sum.BBBrackets++
				}
				for _, run := range rep.Runs {
					// A non-positive bound is already a Verify violation.
					if run.Fallback || run.Lower.Sign() <= 0 {
						continue
					}
					ratio := run.Makespan.Mul(sched.RatOf(run.Lower.Den(), run.Lower.Num()))
					if name := run.Run.String(); sum.MaxRatioVsLB[name].Less(ratio) {
						sum.MaxRatioVsLB[name] = ratio
					}
				}
				record()
				if cfg.Progress != nil {
					cfg.Progress(sum.Instances, sum.Solves, len(sum.Violations))
				}
				mu.Unlock()
			}
		}()
	}

feed:
	for _, fam := range families {
		for _, profile := range profiles {
			for s := int64(0); s < cfg.Seeds; s++ {
				if ctx.Err() != nil || stop() {
					break feed
				}
				jobs <- item{fam, profile, cfg.SeedBase + s}
			}
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return sum, firstErr
	}
	if err := ctx.Err(); err != nil {
		return sum, err
	}
	return sum, nil
}

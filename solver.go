package setupsched

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"setupsched/internal/core"
	"setupsched/internal/exact"
	"setupsched/sched"
)

// DefaultEpsilon is the accuracy used by EpsilonSearch when no explicit
// epsilon is supplied.
const DefaultEpsilon = 1e-4

// Observer receives probe-level events from a running solve.  The dual
// approximation searches are sequences of probe evaluations at makespan
// guesses T; an Observer sees each one as it happens, which powers live
// metrics, progress reporting and Result.Trace.
//
// A single solve emits events sequentially from its own goroutine, but an
// Observer shared between concurrent solves (for example one Solver used
// by many requests) must be safe for concurrent use.
type Observer interface {
	// ProbeStarted fires before the dual test is evaluated at guess T.
	ProbeStarted(T Rat)
	// ProbeFinished fires after the dual test at T decided accept/reject.
	ProbeFinished(T Rat, accepted bool)
	// SearchFinished fires once after a successful solve with the
	// algorithm's name and its total probe count.
	SearchFinished(algorithm string, probes int)
}

// Probe records one dual-test evaluation of a search (see Result.Trace).
type Probe struct {
	// T is the makespan guess that was tested.
	T Rat
	// Accepted reports the dual test's decision: true means a schedule
	// with makespan at most 3/2*T exists, false certifies T < OPT.
	Accepted bool
}

// Solver solves one instance repeatedly without redoing the per-instance
// preparation (class work sums, maxima, trivial bounds — the O(n)
// core.Prepare pass).  Create one with NewSolver and reuse it across
// variants, algorithms and requests; it is immutable after construction
// and safe for concurrent use.
type Solver struct {
	in   *Instance
	prep *core.Prep
}

// NewSolver validates the instance and computes the shared preparation.
// The instance must not be mutated while the Solver is in use.
func NewSolver(in *Instance) (*Solver, error) {
	if in == nil {
		return nil, ErrNilInstance
	}
	if err := in.Validate(); err != nil {
		return nil, &ValidationError{Err: err}
	}
	return &Solver{in: in, prep: core.Prepare(in)}, nil
}

// Instance returns the instance this Solver was built for.
func (s *Solver) Instance() *Instance { return s.in }

// LowerBound returns the trivial variant-specific lower bound on OPT
// (max(N/m, s_max) for splittable; max(N/m, max_i(s_i + t_max^(i)))
// otherwise, rounded up to an integer for the non-preemptive case).
func (s *Solver) LowerBound(v Variant) Rat { return s.prep.TMin(v) }

// Option configures one Solver.Solve, Solver.SolveAll or Solver.DualTest
// call.
type Option func(*solveConfig) error

// solveConfig is the resolved option set of one call.
//
// The two inline arrays keep observer wiring allocation-neutral: the
// observers slice appends into obsBuf and solveRun fans out through
// fanBuf, so attaching up to three observers adds zero heap allocations
// beyond the config itself — a solve with live metrics costs exactly as
// many allocations as a bare one (asserted by a regression test).
type solveConfig struct {
	algorithm   Algorithm
	epsilon     float64
	observers   []Observer
	probeLimit  int
	parallelism int
	nodeBudget  int64
	runs        []Run

	obsBuf [3]Observer // backing array for observers
	fanBuf [4]Observer // backing array for solveRun's fan-out (trace + obsBuf)
}

// WithAlgorithm selects the approximation algorithm (default Auto, the
// exact 3/2-approximation).
func WithAlgorithm(a Algorithm) Option {
	return func(c *solveConfig) error {
		switch a {
		case Auto, TwoApprox, EpsilonSearch, Exact32, RefExact:
			c.algorithm = a
			return nil
		}
		return fmt.Errorf("setupsched: unknown algorithm %v", a)
	}
}

// WithNodeBudget bounds the branch-and-bound node count of a RefExact
// solve; exceeding it aborts with an *ExactBudgetError (matching
// ErrExactBudget) that carries the certified bracket reached.  Zero (the
// default) selects the backend's default budget; negative budgets are
// rejected.  Other algorithms ignore the option.
func WithNodeBudget(n int64) Option {
	return func(c *solveConfig) error {
		if n < 0 {
			return fmt.Errorf("setupsched: negative node budget %d", n)
		}
		c.nodeBudget = n
		return nil
	}
}

// WithParallelism bounds how many (variant, algorithm) runs of a
// Solver.SolveAll call solve concurrently.  n must be at least 1 (the
// default: fully serial).  Each run probes serially, so results do not
// depend on n.  Solve and DualTest reject any n other than 1.
func WithParallelism(n int) Option {
	return func(c *solveConfig) error {
		if n < 1 {
			return fmt.Errorf("setupsched: parallelism %d < 1", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithRuns restricts Solver.SolveAll to the given (variant, algorithm)
// combinations, solved and reported in exactly this order.  Only applies
// to SolveAll; Solve and DualTest reject it.
func WithRuns(runs ...Run) Option {
	return func(c *solveConfig) error {
		if len(runs) == 0 {
			return fmt.Errorf("setupsched: WithRuns needs at least one run")
		}
		for _, r := range runs {
			switch r.Variant {
			case Splittable, Preemptive, NonPreemptive:
			default:
				return fmt.Errorf("setupsched: unknown variant %v in WithRuns", r.Variant)
			}
			switch r.Algorithm {
			case Auto, TwoApprox, EpsilonSearch, Exact32, RefExact:
			default:
				return fmt.Errorf("setupsched: unknown algorithm %v in WithRuns", r.Algorithm)
			}
		}
		c.runs = append([]Run(nil), runs...)
		return nil
	}
}

// WithEpsilon sets the accuracy of EpsilonSearch.  The value must lie in
// the open interval (0, 1); anything else is rejected with an
// *EpsilonRangeError instead of being silently replaced by the default.
// The search works on exact rationals with tolerance denominator 2^20, so
// the certified relative gap effectively floors at 2^-20 for smaller
// epsilons.
func WithEpsilon(eps float64) Option {
	return func(c *solveConfig) error {
		if eps <= 0 || eps >= 1 {
			return &EpsilonRangeError{Epsilon: eps}
		}
		c.epsilon = eps
		return nil
	}
}

// WithObserver attaches an Observer to the call.  Multiple observers may
// be attached; they are notified in registration order.  A nil observer
// is ignored.
func WithObserver(obs Observer) Option {
	return func(c *solveConfig) error {
		if obs != nil {
			c.observers = append(c.observers, obs)
		}
		return nil
	}
}

// WithProbeLimit bounds the number of dual-test evaluations a search may
// perform; exceeding it aborts the solve with ErrProbeLimit.  The
// searches need O(log) probes, so a limit of a few dozen is generous for
// any realistic instance.  Zero (the default) means unlimited; negative
// limits are rejected.
func WithProbeLimit(n int) Option {
	return func(c *solveConfig) error {
		if n < 0 {
			return fmt.Errorf("setupsched: negative probe limit %d", n)
		}
		c.probeLimit = n
		return nil
	}
}

func resolveOptions(opts []Option) (*solveConfig, error) {
	cfg := &solveConfig{algorithm: Auto, epsilon: DefaultEpsilon, parallelism: 1}
	cfg.observers = cfg.obsBuf[:0]
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(cfg); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// traceObserver collects the probe sequence for Result.Trace, one entry
// per probe in execution order.
type traceObserver struct {
	trace []Probe
}

func (t *traceObserver) ProbeStarted(Rat) {}
func (t *traceObserver) ProbeFinished(T Rat, accepted bool) {
	t.trace = append(t.trace, Probe{T: T, Accepted: accepted})
}
func (t *traceObserver) SearchFinished(string, int) {}

// multiObserver fans events out to several observers in order.
type multiObserver []Observer

func (m multiObserver) ProbeStarted(T Rat) {
	for _, o := range m {
		o.ProbeStarted(T)
	}
}

func (m multiObserver) ProbeFinished(T Rat, accepted bool) {
	for _, o := range m {
		o.ProbeFinished(T, accepted)
	}
}

func (m multiObserver) SearchFinished(algorithm string, probes int) {
	for _, o := range m {
		o.SearchFinished(algorithm, probes)
	}
}

// Solve computes an approximate schedule for the Solver's instance under
// the given variant.  The context cancels the search between probes: a
// canceled or expired ctx aborts promptly with an error matching both
// ErrCanceled and the context's own error, and no partial schedule is
// returned.  With no options it runs the exact 3/2-approximation.
func (s *Solver) Solve(ctx context.Context, v Variant, opts ...Option) (*Result, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if cfg.runs != nil || cfg.parallelism != 1 {
		return nil, errors.New("setupsched: WithRuns and WithParallelism only apply to SolveAll")
	}
	return s.solveRun(ctx, v, cfg.algorithm, cfg, cfg.fanBuf[:0])
}

// solveRun executes one (variant, algorithm) solve under the resolved
// configuration.  fan is the backing storage for the observer fan-out:
// Solve passes the config's inline buffer (zero extra allocations);
// SolveAll passes nil because its concurrent runs must not share one
// buffer.
func (s *Solver) solveRun(ctx context.Context, v Variant, algorithm Algorithm, cfg *solveConfig, fan []Observer) (*Result, error) {
	tr := &traceObserver{}
	fan = append(fan, tr)
	fan = append(fan, cfg.observers...)
	obs := multiObserver(fan)
	if algorithm == RefExact {
		res, err := s.solveExact(ctx, v, cfg)
		if err != nil {
			return nil, err
		}
		obs.SearchFinished(res.Algorithm, res.Probes)
		return res, nil
	}
	ctl := core.Ctl{Ctx: ctx, Obs: obs, ProbeLimit: cfg.probeLimit}

	var r *core.Result
	var err error
	switch algorithm {
	case TwoApprox:
		if v == Splittable {
			r, err = s.prep.SolveSplit2(ctl)
		} else {
			r, err = s.prep.SolveNonp2(ctl, v)
		}
	case EpsilonSearch:
		r, err = s.prep.SolveEps(ctl, v, cfg.epsilon)
	default: // Auto, Exact32
		switch v {
		case Splittable:
			r, err = s.prep.SolveSplitJump(ctl)
		case Preemptive:
			r, err = s.prep.SolvePmtnJump(ctl)
		default:
			r, err = s.prep.SolveNonpSearch(ctl)
		}
	}
	if err != nil {
		return nil, wrapSolveErr(err)
	}
	res := finish(r)
	res.Trace = tr.trace
	obs.SearchFinished(res.Algorithm, res.Probes)
	return res, nil
}

// solveExact runs the RefExact branch-and-bound reference backend.  It
// sits outside the core.Result pipeline: the backend returns the true
// optimum, so Makespan, Guess and LowerBound all collapse to OPT and the
// realized ratio is exactly 1.  The search has no dual-test probes to
// observe; Probes counts the backend's threshold probes and Trace stays
// empty.
func (s *Solver) solveExact(ctx context.Context, v Variant, cfg *solveConfig) (*Result, error) {
	if v != NonPreemptive {
		return nil, ErrExactUnsupported
	}
	res, err := exact.BranchBound(ctx, s.in, cfg.nodeBudget)
	if err != nil {
		if errors.Is(err, exact.ErrTooLarge) {
			return nil, ErrExactTooLarge
		}
		var be *exact.BudgetError
		if errors.As(err, &be) {
			return nil, &ExactBudgetError{Budget: be.Budget, Nodes: be.Nodes, Lo: be.Lo, Hi: be.Hi}
		}
		return nil, wrapSolveErr(err)
	}
	opt := sched.R(res.Opt)
	return &Result{
		Schedule:   res.Schedule,
		Makespan:   opt,
		Guess:      opt,
		LowerBound: opt,
		Ratio:      1,
		Algorithm:  RefExact.String(),
		Probes:     res.Probes,
	}, nil
}

// Run names one (variant, algorithm) combination for Solver.SolveAll.
type Run struct {
	Variant   Variant
	Algorithm Algorithm
}

// String renders the run's spec name, the row name the differential
// harness, the quality and benchmark reports and schedbench's ratio table
// print: "split", "pmtn" or "nonp", a slash, and "2approx", "eps" or
// "exact32".  Other algorithms render with Algorithm.String.  Both halves
// of a Run's spec name parse back (ParseVariant, ParseAlgorithm) to the
// Run for every Algorithm other than Auto.
func (r Run) String() string {
	v := r.Variant.Short()
	switch r.Variant {
	case Splittable:
		v = "split"
	case Preemptive:
		v = "pmtn"
	case NonPreemptive:
		v = "nonp"
	}
	a := r.Algorithm.String()
	switch r.Algorithm {
	case TwoApprox:
		a = "2approx"
	case EpsilonSearch:
		a = "eps"
	case Exact32:
		a = "exact32"
	}
	return v + "/" + a
}

// ParseVariant reads a variant name: "split", "pmtn" or "nonp", or the
// long forms "splittable", "preemptive" and "nonpreemptive" that
// Variant.Short prints.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "split", "splittable":
		return Splittable, nil
	case "pmtn", "preemptive":
		return Preemptive, nil
	case "nonp", "nonpreemptive":
		return NonPreemptive, nil
	}
	return 0, fmt.Errorf("setupsched: unknown variant %q (want split, pmtn or nonp)", s)
}

// ParseAlgorithm reads an algorithm name: "auto", "2approx", "eps",
// "exact32" (also accepted as "exact") or "refexact", which is also
// RefExact's Algorithm.String and the Result.Algorithm of its solves.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "auto":
		return Auto, nil
	case "2approx":
		return TwoApprox, nil
	case "eps":
		return EpsilonSearch, nil
	case "exact32", "exact":
		return Exact32, nil
	case "refexact":
		return RefExact, nil
	}
	return 0, fmt.Errorf("setupsched: unknown algorithm %q (want auto, 2approx, eps, exact32 or refexact)", s)
}

// Guarantee returns the run's approximation guarantee from the paper's
// Table 1 as an exact rational bound on makespan / certified lower bound:
// 2 for TwoApprox, 3/2 for Exact32 and Auto, and 1 for RefExact.  For
// EpsilonSearch it is (3/2)(1 + core.EpsRat(eps)), the bound the search
// certifies for the rational tolerance it runs with, which lies slightly
// above (3/2)(1 + eps).  eps 0 means this package's DefaultEpsilon
// (1e-4), as in Solve, not the coarser accuracy a test harness solves
// at: a caller solving at another eps passes that eps.  Results with
// Fallback set certify a conservative lower bound and may exceed it.
func (r Run) Guarantee(eps float64) Rat {
	switch r.Algorithm {
	case TwoApprox:
		return sched.R(2)
	case EpsilonSearch:
		if eps == 0 {
			eps = DefaultEpsilon
		}
		return sched.RatOf(3, 2).Mul(core.EpsRat(eps).AddInt(1))
	case RefExact:
		return sched.R(1)
	}
	return sched.RatOf(3, 2)
}

// RunResult is the outcome of one Run of a SolveAll call.  Exactly one of
// Result and Err is non-nil.
type RunResult struct {
	Run    Run
	Result *Result
	Err    error
}

// PaperRuns returns the nine algorithm combinations of the paper's
// Table 1 — every variant solved with the 2-approximation, the
// (3/2+eps)-search and the exact 3/2-approximation — in the order
// SolveAll reports them by default.
func PaperRuns() []Run {
	var out []Run
	for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
		for _, a := range []Algorithm{TwoApprox, EpsilonSearch, Exact32} {
			out = append(out, Run{Variant: v, Algorithm: a})
		}
	}
	return out
}

// SolveAll solves many (variant, algorithm) combinations concurrently off
// the Solver's one shared preparation.  By default it runs PaperRuns();
// restrict or reorder the set with WithRuns.  WithParallelism(n) bounds
// how many runs are in flight at once (default 1, fully serial); each
// run probes serially, so results are bit-identical to calling Solve once
// per run.  The returned slice always has one entry per requested run, in
// the requested order regardless of completion order, with per-run
// failures in RunResult.Err (a canceled context marks every unfinished
// run with an error matching ErrCanceled).  The error return is reserved
// for invalid options.
//
// WithAlgorithm does not apply (the algorithm is part of each Run);
// WithEpsilon configures every EpsilonSearch run, and observers attached
// with WithObserver receive events from concurrent runs and must be safe
// for concurrent use.
func (s *Solver) SolveAll(ctx context.Context, opts ...Option) ([]RunResult, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if cfg.algorithm != Auto {
		return nil, errors.New("setupsched: WithAlgorithm does not apply to SolveAll; use WithRuns")
	}
	runs := cfg.runs
	if runs == nil {
		runs = PaperRuns()
	}
	out := make([]RunResult, len(runs))
	workers := cfg.parallelism
	if workers > len(runs) {
		workers = len(runs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := runs[i]
				res, err := s.solveRun(ctx, r.Variant, r.Algorithm, cfg, nil)
				out[i] = RunResult{Run: r, Result: res, Err: err}
			}
		}()
	}
	for i := range runs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, nil
}

// DualTest runs the variant's 3/2-dual approximation at the makespan
// guess T: it either returns a feasible schedule with makespan at most
// 3/2*T (accepted) or reports that T was rejected, which certifies
// T < OPT.  Observers attached with WithObserver see the probe; the
// search-only options WithAlgorithm and WithProbeLimit do not apply to a
// single probe and are rejected rather than silently ignored.
//
// T must be positive with denominator at most 2^20.
func (s *Solver) DualTest(ctx context.Context, v Variant, T Rat, opts ...Option) (accepted bool, sc *Schedule, err error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return false, nil, err
	}
	if cfg.algorithm != Auto || cfg.probeLimit != 0 || cfg.parallelism != 1 || cfg.runs != nil {
		return false, nil, errors.New("setupsched: WithAlgorithm, WithProbeLimit, WithParallelism and WithRuns do not apply to DualTest")
	}
	if T.Sign() <= 0 {
		return false, nil, fmt.Errorf("setupsched: non-positive makespan guess %s", T)
	}
	if T.Den() > maxDualDen {
		return false, nil, fmt.Errorf("setupsched: makespan guess denominator %d exceeds %d", T.Den(), maxDualDen)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, nil, wrapSolveErr(err)
		}
	}
	obs := multiObserver(cfg.observers)
	obs.ProbeStarted(T)
	accepted, sc, err = s.dualTest(v, T)
	obs.ProbeFinished(T, accepted)
	return accepted, sc, err
}

func (s *Solver) dualTest(v Variant, T Rat) (bool, *Schedule, error) {
	switch v {
	case Splittable:
		ev := s.prep.EvalSplit(T, nil)
		if !ev.OK {
			return false, nil, nil
		}
		sc, err := s.prep.BuildSplit(ev)
		return true, sc, err
	case Preemptive:
		ev := s.prep.EvalPmtn(T, nil)
		if !ev.OK {
			return false, nil, nil
		}
		sc, err := s.prep.BuildPmtn(ev)
		return true, sc, err
	default:
		ev := s.prep.EvalNonp(T)
		if !ev.OK {
			return false, nil, nil
		}
		sc, err := s.prep.BuildNonp(ev)
		return true, sc, err
	}
}

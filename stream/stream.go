// Package stream provides incremental solve sessions: a Session wraps a
// mutable scheduling instance, maintains the solver preparation under
// delta edits, and warm-starts re-solves from previously certified
// bounds, so a stream of small changes pays for the *delta*, not the
// instance — the online workload of Kawase et al. (arXiv:2507.11311) and
// Mäcker et al. (arXiv:1504.07066) served with the guarantees of Deppert
// & Jansen (SPAA 2019).
//
// A Session owns a private copy of its instance.  Deltas (sched.Delta:
// job churn, setup drift, class add/remove, machine scaling) are applied
// through the session, which patches the per-instance preparation
// (internal/core's incremental Prep maintenance) instead of re-running
// the O(n) cold pass.  Solve and SolveAll then reuse two levels of state:
//
//   - unchanged instance: the previous Result is returned outright
//     (Result.Cached);
//   - changed instance: the exact searches are warm-started from the last
//     certified [reject, accept] bracket shifted by the delta's load
//     bounds, re-certifying an unchanged-or-slightly-moved threshold in
//     O(1) probes instead of a full O(log) cold search (Result.Warm).
//
// # Bit-identity contract
//
// A session solve returns exactly what a cold solve of the current
// instance returns: Makespan, Guess, LowerBound, Algorithm, Fallback and
// the Schedule are bit-identical to NewSolver(instance).Solve(...) at
// every revision.  Three mechanisms enforce this:
//
//   - the patched preparation is field-for-field identical to a fresh one
//     (exact integer patches; see core.Inc and Session.SelfCheck);
//   - warm seeds are validated by real probes and only narrow the search
//     bracket, and the exact searches converge to the unique threshold of
//     the monotone dual test from any correctly narrowed bracket;
//   - a warm solve that lands on a documented bounded-round fallback path
//     (whose certified bound is trajectory-dependent) is discarded and
//     re-run cold.
//
// Probe counts and traces are NOT part of the contract — a warm solve
// runs fewer probes; that is the point.  The eps-search's certified pair
// is a function of its full bisection trajectory, so it never warm-starts
// (only the unchanged-instance cache applies); the 2-approximations run
// no search and are simply recomputed.  internal/diff enforces the
// contract differentially over the schedgen catalog and drift traces, the
// same way PR 4 enforced serial/parallel identity.
//
// A Session serializes all access internally (delta application, solves
// and stats are mutually exclusive); any number of goroutines may share
// one.  For concurrent *solving* of one instance use setupsched.Solver,
// which is immutable and fully parallel — a Session's job is to absorb
// mutation.
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"

	"setupsched"
	"setupsched/internal/core"
	"setupsched/sched"
)

// Result is a session solve outcome: the solver Result plus the session
// bookkeeping of how it was obtained.
type Result struct {
	*setupsched.Result
	// Cached reports the result was returned from the session cache
	// because no delta arrived since it was computed.
	Cached bool
	// Warm reports the search reused the previous certified bracket (a
	// validated warm start).  False for cached, cold and non-search runs.
	Warm bool
	// Rev is the session revision the result is valid for.
	Rev uint64
}

// Stats are cumulative session counters.
type Stats struct {
	// Deltas is the number of applied (accepted) deltas.
	Deltas uint64
	// Solves counts solver runs actually executed (cache returns excluded).
	Solves uint64
	// CacheHits counts solves answered from the unchanged-revision cache.
	CacheHits uint64
	// WarmHits counts executed solves whose warm seed was validated.
	WarmHits uint64
	// Rebuilds counts staleness-triggered full preparation rebuilds.
	Rebuilds uint64
	// Rev is the current session revision (one per applied delta).
	Rev uint64
}

// solveKey identifies one cached (variant, algorithm, epsilon) result.
// Auto normalizes to Exact32 (identical solver path).
type solveKey struct {
	v    sched.Variant
	algo setupsched.Algorithm
	eps  float64 // nonzero only for EpsilonSearch
}

// entry is the per-key cache: the last result plus everything needed to
// seed the next warm start.
type entry struct {
	rev        uint64 // session revision the result was computed at
	epoch      uint64 // machine-count epoch (seeds do not survive scaling)
	cumAdded   int64  // session load counters at compute time
	cumRemoved int64
	res        *setupsched.Result
	seedLo     sched.Rat
	hasSeedLo  bool
}

// Session is a mutable scheduling instance with delta-maintained solver
// state.  Create one with NewSession; all methods are safe for concurrent
// use (serialized internally).
type Session struct {
	mu     chanMutex
	in     *sched.Instance // owned private copy
	inc    *core.Inc
	fpView sched.CanonicalView // reusable fingerprint view (guarded by mu)

	rev        uint64
	machEpoch  uint64
	cumAdded   int64 // total load added by deltas since session start
	cumRemoved int64 // total load removed by deltas since session start

	entries map[solveKey]*entry

	deltas, solves, cacheHits, warmHits uint64
}

// chanMutex is a context-aware mutex: Solve honors ctx cancellation while
// waiting for its turn behind a long-running solve on the same session.
type chanMutex chan struct{}

func (m chanMutex) lock()   { m <- struct{}{} }
func (m chanMutex) unlock() { <-m }
func (m chanMutex) lockCtx(ctx context.Context) error {
	if ctx == nil {
		m.lock()
		return nil
	}
	select {
	case m <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", setupsched.ErrCanceled, ctx.Err())
	}
}

// NewSession validates the instance and builds a session around a private
// deep copy; later mutations of the caller's instance do not affect it.
func NewSession(in *sched.Instance) (*Session, error) {
	if in == nil {
		return nil, setupsched.ErrNilInstance
	}
	if err := in.Validate(); err != nil {
		return nil, &setupsched.ValidationError{Err: err}
	}
	own := in.Clone()
	return &Session{
		mu:      make(chanMutex, 1),
		in:      own,
		inc:     core.NewInc(own),
		entries: make(map[solveKey]*entry),
	}, nil
}

// Instance returns a deep copy of the session's current instance.
func (s *Session) Instance() *sched.Instance {
	s.mu.lock()
	defer s.mu.unlock()
	return s.in.Clone()
}

// Fingerprint returns the canonical-form fingerprint of the current
// instance (an O(n log n) pass through the session's reusable canonical
// view, so repeated calls allocate nothing beyond the hex digest).  The
// context cancels the wait for the session lock behind a long-running
// solve.
func (s *Session) Fingerprint(ctx context.Context) (string, error) {
	if err := s.mu.lockCtx(ctx); err != nil {
		return "", err
	}
	defer s.mu.unlock()
	s.fpView.Bind(s.in)
	fp := s.fpView.Fingerprint()
	s.fpView.Unbind()
	return fp, nil
}

// Rev returns the session revision: the number of applied deltas.
func (s *Session) Rev() uint64 {
	s.mu.lock()
	defer s.mu.unlock()
	return s.rev
}

// Snapshot returns a deep copy of the current instance together with the
// revision it is at, taken under one lock so the pair is consistent.
// The snapshot is everything another process needs to re-create a
// bit-identical session (see AdvanceTo): warm seeds and cached results
// are optimizations a new session rebuilds, never correctness inputs.
// The context cancels the wait for the session lock behind a
// long-running solve.
func (s *Session) Snapshot(ctx context.Context) (*sched.Instance, uint64, error) {
	if err := s.mu.lockCtx(ctx); err != nil {
		return nil, 0, err
	}
	defer s.mu.unlock()
	return s.in.Clone(), s.rev, nil
}

// AdvanceTo fast-forwards the session revision to rev without applying
// deltas.  It exists for migration: a session re-created from a
// Snapshot's instance starts at rev 0, and AdvanceTo restores the
// original revision so clients holding Result.Rev or If-Match-style
// revision checks keep working across the move.  Revisions at or below
// the current one are a no-op (idempotent re-import).  The context
// cancels the wait for the session lock.
func (s *Session) AdvanceTo(ctx context.Context, rev uint64) error {
	if err := s.mu.lockCtx(ctx); err != nil {
		return err
	}
	defer s.mu.unlock()
	if rev > s.rev {
		s.rev = rev
	}
	return nil
}

// Shape describes the session's current instance.
type Shape struct {
	// Rev is the session revision the shape was read at.
	Rev uint64
	// Machines, Classes and Jobs are the instance's current counts.
	Machines int64
	Classes  int
	Jobs     int
}

// Describe returns the current shape and revision.  The context cancels
// the wait for the session lock behind a long-running solve.
func (s *Session) Describe(ctx context.Context) (Shape, error) {
	if err := s.mu.lockCtx(ctx); err != nil {
		return Shape{}, err
	}
	defer s.mu.unlock()
	p := s.inc.Prep()
	return Shape{Rev: s.rev, Machines: p.M, Classes: p.C, Jobs: p.NJob}, nil
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	s.mu.lock()
	defer s.mu.unlock()
	return Stats{
		Deltas:    s.deltas,
		Solves:    s.solves,
		CacheHits: s.cacheHits,
		WarmHits:  s.warmHits,
		Rebuilds:  uint64(s.inc.Rebuilds()),
		Rev:       s.rev,
	}
}

// ErrStale reports that a Result's revision no longer matches the
// session's: deltas arrived after the solve that produced it.
var ErrStale = errors.New("stream: result revision is stale")

// Verify re-checks a session result against the session's current
// instance (setupsched.Verify: feasible schedule, matching makespan,
// sound bound).  If deltas arrived since the result was computed it
// returns ErrStale without checking — a result only describes the
// revision it was solved at.  The context cancels the wait for the
// session lock behind a long-running solve.
func (s *Session) Verify(ctx context.Context, v sched.Variant, r *Result) error {
	if r == nil || r.Result == nil {
		return errors.New("stream: Verify needs a result")
	}
	if err := s.mu.lockCtx(ctx); err != nil {
		return err
	}
	defer s.mu.unlock()
	if r.Rev != s.rev {
		return ErrStale
	}
	return setupsched.Verify(s.in, v, r.Result)
}

// SelfCheck verifies the delta-maintained preparation against a fresh
// cold preparation of the current instance and re-validates the instance.
// It is O(n); tests, fuzzing and the diff harness call it, production
// code does not need to.
func (s *Session) SelfCheck() error {
	s.mu.lock()
	defer s.mu.unlock()
	if err := s.in.Validate(); err != nil {
		return fmt.Errorf("stream: session instance invalid: %w", err)
	}
	return s.inc.Check()
}

// Apply applies the deltas in order, stopping at the first invalid one
// (already-applied deltas stay applied; the error names the failing
// index).  Each accepted delta bumps the session revision.  The context
// cancels the wait for the session lock behind a long-running solve;
// once the lock is held the (microsecond-scale) application runs to
// completion.
func (s *Session) Apply(ctx context.Context, ds ...sched.Delta) error {
	if err := s.mu.lockCtx(ctx); err != nil {
		return err
	}
	defer s.mu.unlock()
	for i, d := range ds {
		if err := s.applyLocked(d); err != nil {
			if len(ds) > 1 {
				return fmt.Errorf("stream: delta %d of %d (%s): %w", i, len(ds), d, err)
			}
			return err
		}
	}
	return nil
}

func (s *Session) applyLocked(d sched.Delta) error {
	added, removed := d.LoadShift(s.in)
	machines := d.Op == sched.DeltaSetMachines
	if err := s.inc.Apply(d); err != nil {
		return err
	}
	s.rev++
	s.deltas++
	s.cumAdded += added
	s.cumRemoved += removed
	if machines {
		s.machEpoch++
	}
	return nil
}

// The convenience delta methods below apply one delta each; they block
// until the session lock is free (use Apply with a context to bound the
// wait behind a long-running solve).

// AddJobs appends jobs to class (delta op "add_jobs").
func (s *Session) AddJobs(class int, jobs ...int64) error {
	return s.Apply(context.Background(), sched.Delta{Op: sched.DeltaAddJobs, Class: class, Jobs: jobs})
}

// RemoveJob removes job index job from class (delta op "remove_job").
func (s *Session) RemoveJob(class, job int) error {
	return s.Apply(context.Background(), sched.Delta{Op: sched.DeltaRemoveJob, Class: class, Job: job})
}

// SetSetup replaces class's setup time (delta op "set_setup").
func (s *Session) SetSetup(class int, setup int64) error {
	return s.Apply(context.Background(), sched.Delta{Op: sched.DeltaSetSetup, Class: class, Setup: setup})
}

// AddClass appends a new class (delta op "add_class").
func (s *Session) AddClass(setup int64, jobs ...int64) error {
	return s.Apply(context.Background(), sched.Delta{Op: sched.DeltaAddClass, Setup: setup, Jobs: jobs})
}

// RemoveClass removes class index class (delta op "remove_class"); later
// class indices shift down by one.
func (s *Session) RemoveClass(class int) error {
	return s.Apply(context.Background(), sched.Delta{Op: sched.DeltaRemoveClass, Class: class})
}

// SetMachines replaces the machine count (delta op "set_machines").
// Machine scaling invalidates warm seeds (the makespan scale changes);
// the next solve per key runs cold and re-establishes them.
func (s *Session) SetMachines(m int64) error {
	return s.Apply(context.Background(), sched.Delta{Op: sched.DeltaSetMachines, M: m})
}

// SolveOption configures one Session.Solve or SolveAll call.
type SolveOption func(*solveCfg) error

type solveCfg struct {
	algorithm setupsched.Algorithm
	epsilon   float64
	cold      bool
	observers []setupsched.Observer
}

// WithAlgorithm selects the approximation algorithm (default Auto, the
// exact 3/2-approximation).  Applies to Solve only; SolveAll takes the
// algorithm from each run.
func WithAlgorithm(a setupsched.Algorithm) SolveOption {
	return func(c *solveCfg) error {
		switch a {
		case setupsched.Auto, setupsched.TwoApprox, setupsched.EpsilonSearch, setupsched.Exact32:
			c.algorithm = a
			return nil
		}
		return fmt.Errorf("stream: unknown algorithm %v", a)
	}
}

// WithEpsilon sets the accuracy of EpsilonSearch runs; the value must lie
// in (0, 1) (see setupsched.WithEpsilon).
func WithEpsilon(eps float64) SolveOption {
	return func(c *solveCfg) error {
		if eps <= 0 || eps >= 1 {
			return &setupsched.EpsilonRangeError{Epsilon: eps}
		}
		c.epsilon = eps
		return nil
	}
}

// WithObserver attaches a probe-level Observer to this call: it sees
// every dual-test evaluation of the executed search exactly as a
// Solver-attached observer would (see setupsched.Observer), followed by
// one SearchFinished with the final algorithm name and probe count.  A
// solve answered from the session's unchanged-revision cache executes no
// search and emits no events.  Warm-started solves emit only the probes
// they actually run — fewer than a cold search; that is the point.
// Multiple observers may be attached; nil observers are ignored.  This
// is the hook obs.SpanRecorder plugs into for session solve traces.
func WithObserver(o setupsched.Observer) SolveOption {
	return func(c *solveCfg) error {
		if o != nil {
			c.observers = append(c.observers, o)
		}
		return nil
	}
}

// WithCold disables the session cache and warm seeding for this call: the
// solve runs exactly like a fresh Solver.  Diff harnesses and benchmarks
// use it; the result still refreshes the session cache and seeds.
func WithCold() SolveOption {
	return func(c *solveCfg) error {
		c.cold = true
		return nil
	}
}

func resolveOpts(opts []SolveOption) (*solveCfg, error) {
	cfg := &solveCfg{algorithm: setupsched.Auto, epsilon: setupsched.DefaultEpsilon}
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

// Solve computes an approximate schedule for the session's current
// instance under the given variant, reusing session state across calls:
// an unchanged instance returns the cached previous result, a changed one
// warm-starts from the previous certified bracket where the algorithm
// allows it (see the package comment for the bit-identity contract).  The
// context cancels both the wait for the session lock and the search.
func (s *Session) Solve(ctx context.Context, v sched.Variant, opts ...SolveOption) (*Result, error) {
	cfg, err := resolveOpts(opts)
	if err != nil {
		return nil, err
	}
	if err := s.mu.lockCtx(ctx); err != nil {
		return nil, err
	}
	defer s.mu.unlock()
	return s.solveLocked(ctx, v, cfg.algorithm, cfg.epsilon, cfg.cold, cfg.observer())
}

// RunResult is the outcome of one run of SolveAll; exactly one of Result
// and Err is non-nil.
type RunResult struct {
	Run    setupsched.Run
	Result *Result
	Err    error
}

// SolveAll solves the given (variant, algorithm) runs — nil means the
// nine paper combinations (setupsched.PaperRuns) — sequentially off the
// session's shared state, each reusing its own cache and warm seeds.  The
// returned slice has one entry per run in order; per-run failures land in
// RunResult.Err, and a canceled context marks every remaining run.
func (s *Session) SolveAll(ctx context.Context, runs []setupsched.Run, opts ...SolveOption) ([]RunResult, error) {
	cfg, err := resolveOpts(opts)
	if err != nil {
		return nil, err
	}
	if cfg.algorithm != setupsched.Auto {
		return nil, fmt.Errorf("stream: WithAlgorithm does not apply to SolveAll; the algorithm is part of each run")
	}
	if runs == nil {
		runs = setupsched.PaperRuns()
	}
	if err := s.mu.lockCtx(ctx); err != nil {
		return nil, err
	}
	defer s.mu.unlock()
	obs := cfg.observer()
	out := make([]RunResult, len(runs))
	for i, r := range runs {
		res, err := s.solveLocked(ctx, r.Variant, r.Algorithm, cfg.epsilon, cfg.cold, obs)
		out[i] = RunResult{Run: r, Result: res, Err: err}
	}
	return out, nil
}

// observer collapses the attached observers into one core.Observer (nil
// when none).  setupsched.Observer and core.Observer have identical
// method sets (Rat is an alias), so a single observer passes through
// without wrapping.
func (c *solveCfg) observer() core.Observer {
	switch len(c.observers) {
	case 0:
		return nil
	case 1:
		return c.observers[0]
	default:
		return fanObserver(c.observers)
	}
}

// fanObserver fans events out to several observers in order.
type fanObserver []setupsched.Observer

func (f fanObserver) ProbeStarted(T sched.Rat) {
	for _, o := range f {
		o.ProbeStarted(T)
	}
}

func (f fanObserver) ProbeFinished(T sched.Rat, accepted bool) {
	for _, o := range f {
		o.ProbeFinished(T, accepted)
	}
}

func (f fanObserver) SearchFinished(algorithm string, probes int) {
	for _, o := range f {
		o.SearchFinished(algorithm, probes)
	}
}

// warmable reports whether the algorithm's exact search supports bracket
// seeding (see the package comment for why the eps-search does not).
func warmable(a setupsched.Algorithm) bool {
	return a == setupsched.Exact32
}

func normKey(v sched.Variant, a setupsched.Algorithm, eps float64) solveKey {
	if a == setupsched.Auto {
		a = setupsched.Exact32
	}
	k := solveKey{v: v, algo: a}
	if a == setupsched.EpsilonSearch {
		k.eps = eps
	}
	return k
}

func (s *Session) solveLocked(ctx context.Context, v sched.Variant, algo setupsched.Algorithm, eps float64, cold bool, obs core.Observer) (*Result, error) {
	key := normKey(v, algo, eps)
	ent := s.entries[key]
	if ent != nil && ent.rev == s.rev && !cold {
		s.cacheHits++
		return &Result{Result: ent.res, Cached: true, Rev: s.rev}, nil
	}

	var seed *core.BracketSeed
	if !cold && warmable(key.algo) && ent != nil && ent.epoch == s.machEpoch {
		// Optimism-ordered candidate ladders.  First the previous
		// certified pair unshifted — small deltas usually leave the
		// threshold in place, so re-confirming costs two probes — then the
		// pair shifted by the delta's load bounds (the threshold provably
		// moves up by at most the added load and down by at most the
		// removed load), which catches a moved threshold in a bracket of
		// width |delta| instead of the full cold range.
		seed = &core.BracketSeed{His: []sched.Rat{ent.res.Guess}}
		if add := s.cumAdded - ent.cumAdded; add != 0 {
			if hi, ok := shiftSeed(ent.res.Guess, add); ok {
				seed.His = append(seed.His, hi)
			}
		}
		if ent.hasSeedLo {
			seed.Los = append(seed.Los, ent.seedLo)
			if rem := s.cumRemoved - ent.cumRemoved; rem != 0 {
				if lo, ok := shiftSeed(ent.seedLo, -rem); ok {
					seed.Los = append(seed.Los, lo)
				}
			}
		}
	}

	r, err := s.runCore(ctx, v, key.algo, eps, seed, obs)
	if err != nil {
		return nil, wrapErr(err)
	}
	if r.Fallback && seed != nil {
		// The bounded-round fallback's certified bound depends on the
		// search trajectory, which a warm bracket changes; discard and
		// re-run cold so the session answer matches a fresh solve exactly.
		// The observer sees both searches' probes — they all ran.
		if r, err = s.runCore(ctx, v, key.algo, eps, nil, obs); err != nil {
			return nil, wrapErr(err)
		}
	}
	s.solves++
	if r.SeedUsed {
		s.warmHits++
	}
	if obs != nil {
		obs.SearchFinished(r.Algorithm, r.Probes)
	}

	res := &setupsched.Result{
		Schedule:   r.Schedule,
		Makespan:   r.Makespan,
		Guess:      r.T,
		LowerBound: r.LowerBound,
		Ratio:      core.Ratio(r.Makespan, r.LowerBound),
		Algorithm:  r.Algorithm,
		Probes:     r.Probes,
		Fallback:   r.Fallback,
	}
	s.entries[key] = &entry{
		rev:        s.rev,
		epoch:      s.machEpoch,
		cumAdded:   s.cumAdded,
		cumRemoved: s.cumRemoved,
		res:        res,
		seedLo:     r.SeedLo,
		hasSeedLo:  r.HasSeedLo,
	}
	return &Result{Result: res, Warm: r.SeedUsed, Rev: s.rev}, nil
}

// runCore dispatches one algorithm run against the maintained Prep.
func (s *Session) runCore(ctx context.Context, v sched.Variant, algo setupsched.Algorithm, eps float64, seed *core.BracketSeed, obs core.Observer) (*core.Result, error) {
	ctl := core.Ctl{Ctx: ctx, Obs: obs, Seed: seed}
	p := s.inc.Prep()
	switch algo {
	case setupsched.TwoApprox:
		if v == sched.Splittable {
			return p.SolveSplit2(ctl)
		}
		return p.SolveNonp2(ctl, v)
	case setupsched.EpsilonSearch:
		return p.SolveEps(ctl, v, eps)
	default: // Auto, Exact32
		switch v {
		case sched.Splittable:
			return p.SolveSplitJump(ctl)
		case sched.Preemptive:
			return p.SolvePmtnJump(ctl)
		default:
			return p.SolveNonpSearch(ctl)
		}
	}
}

// wrapErr gives context errors escaping a solve the
// setupsched.ErrCanceled identity, mirroring the Solver API's contract.
func wrapErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", setupsched.ErrCanceled, err)
	}
	return err
}

// shiftSeed shifts a certified guess by a signed load delta, reporting
// false when the exact arithmetic would overflow (the seed is then simply
// not used — warm starts are an optimization, never a requirement).
func shiftSeed(r sched.Rat, by int64) (sched.Rat, bool) {
	if by == 0 {
		return r, true
	}
	d := r.Den()
	a := by
	if a < 0 {
		if a == math.MinInt64 {
			return sched.Rat{}, false
		}
		a = -a
	}
	n := r.Num()
	if n < 0 {
		n = -n
	}
	if a > (math.MaxInt64-n)/d {
		return sched.Rat{}, false
	}
	return r.AddInt(by), true
}

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
// the O(n) cold pass.  Solve then reuses two levels of state:
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
// runs fewer probes; that is the point.  Every result still carries one
// Trace entry per probe its search ran, as a Solver's does: a session
// solve runs setupsched.Solver's own solve, core.Prep.Solve, on the
// maintained preparation.  The eps-search's certified pair is a function
// of its full bisection trajectory, so it never warm-starts (only the
// unchanged-instance cache applies); the 2-approximations run no search
// and are simply recomputed.  internal/diff enforces the contract
// differentially over the schedgen catalog and drift traces, as it does
// serial/parallel identity.
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
		return core.WrapCanceled(ctx.Err())
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

// SolveOption configures one Session.Solve call.
type SolveOption func(*solveCfg) error

type solveCfg struct {
	algorithm setupsched.Algorithm
	epsilon   float64
	cold      bool
	observers core.Observers
}

// WithAlgorithm selects the approximation algorithm (default Auto, the
// exact 3/2-approximation).
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
// solve runs exactly like a fresh Solver.  serve's session route sets it
// for a request with no_cache; the result still refreshes the session
// cache and seeds.
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
	key := normKey(v, cfg.algorithm, cfg.epsilon)
	ent := s.entries[key]
	if ent != nil && ent.rev == s.rev && !cfg.cold {
		s.cacheHits++
		return &Result{Result: ent.res, Cached: true, Rev: s.rev}, nil
	}

	ctl := core.Ctl{Ctx: ctx, Obs: cfg.observers}
	if !cfg.cold && warmable(key.algo) && ent != nil && ent.epoch == s.machEpoch {
		// Optimism-ordered candidate ladders.  First the previous
		// certified pair unshifted — small deltas usually leave the
		// threshold in place, so re-confirming costs two probes — then the
		// pair shifted by the delta's load bounds (the threshold provably
		// moves up by at most the added load and down by at most the
		// removed load), which catches a moved threshold in a bracket of
		// width |delta| instead of the full cold range.
		seed := &core.BracketSeed{His: []sched.Rat{ent.res.Guess}}
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
		ctl.Seed = seed
	}

	r, err := s.inc.Prep().Solve(ctl, v, key.algo, cfg.epsilon)
	if err != nil {
		return nil, err
	}
	s.solves++
	if r.SeedUsed {
		s.warmHits++
	}
	res := r.Public()
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

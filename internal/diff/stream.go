package diff

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
	"setupsched/stream"
)

// defaultDriftSteps is the delta count per generated drift trace.
const defaultDriftSteps = 24

// CheckSessionTrace replays a delta trace through a stream.Session and a
// plain mirror instance, enforcing the session subsystem's contracts at
// every step:
//
//   - delta acceptance is identical on both sides (a delta the session
//     rejects must also be rejected by sched.Delta.Apply, and vice
//     versa), so replicas replaying one trace cannot diverge;
//   - at every solve point the session instance equals the mirror
//     (sched.Instance.Equal and fingerprints) and the delta-maintained
//     preparation passes Session.SelfCheck;
//   - every paper run solved through the session — warm, cached or cold
//     — is bit-identical to a fresh NewSolver solve of the mirror:
//     makespan, certified lower bound, accepted guess, algorithm name and
//     fallback flag all match.  Probe counts are exempt (warm solves run
//     fewer; that is the feature).  When either side lands on a
//     documented bounded-round fallback the certified bound is
//     trajectory-dependent, so the comparison relaxes to both-sides
//     soundness (setupsched.Verify) — the same carve-out the guarantee
//     checks apply.
//
// Mismatches come back as human-readable violations plus the session's
// final stats; the error return is reserved for infrastructure failures.
func CheckSessionTrace(ctx context.Context, events []schedgen.TraceEvent, eps float64) ([]string, stream.Stats, error) {
	if len(events) == 0 || events[0].Base == nil {
		return nil, stream.Stats{}, errors.New("diff: trace must start with a base instance")
	}
	sess, err := stream.NewSession(events[0].Base)
	if err != nil {
		return nil, stream.Stats{}, err
	}
	mirror := events[0].Base.Clone()
	if eps <= 0 {
		eps = DefaultEpsilon
	}

	var violations []string
	solvePoints := 0
	for i, ev := range events[1:] {
		switch {
		case ev.Delta != nil:
			errS := sess.Apply(ctx, *ev.Delta)
			_, errM := ev.Delta.Apply(mirror)
			if (errS == nil) != (errM == nil) {
				violations = append(violations, fmt.Sprintf(
					"event %d %s: session and fresh apply disagree (session err %v, fresh err %v)",
					i+1, ev.Delta, errS, errM))
			}
		case ev.Solve:
			solvePoints++
			msgs, err := checkSolvePoint(ctx, sess, mirror, eps, solvePoints)
			violations = append(violations, msgs...)
			if err != nil {
				return violations, sess.Stats(), err
			}
		}
	}
	return violations, sess.Stats(), nil
}

// checkSolvePoint cross-checks one solve point of a trace replay.
func checkSolvePoint(ctx context.Context, sess *stream.Session, mirror *sched.Instance, eps float64, point int) ([]string, error) {
	var violations []string
	if !sess.Instance().Equal(mirror) {
		violations = append(violations, fmt.Sprintf(
			"solve point %d: session instance diverged from fresh replay", point))
		return violations, nil
	}
	sessFP, err := sess.Fingerprint(ctx)
	if err != nil {
		return violations, err
	}
	if got, want := sessFP, mirror.Fingerprint(); got != want {
		violations = append(violations, fmt.Sprintf(
			"solve point %d: session fingerprint %.12s != fresh %.12s", point, got, want))
	}
	if err := sess.SelfCheck(); err != nil {
		violations = append(violations, fmt.Sprintf(
			"solve point %d: incremental preparation drifted: %v", point, err))
	}
	// The SoA eval layout must track the reference walk on the drifted
	// instance too — delta maintenance rebuilds the sorted/prefix arrays
	// per touched class, and this is where a stale rebuild would surface.
	for _, msg := range CheckEvalLayout(mirror, int64(point)) {
		violations = append(violations, fmt.Sprintf("solve point %d: %s", point, msg))
	}
	fresh, err := setupsched.NewSolver(mirror)
	if err != nil {
		return violations, err
	}
	for _, run := range setupsched.PaperRuns() {
		fOpts := []setupsched.Option{setupsched.WithAlgorithm(run.Algorithm)}
		sOpts := []stream.SolveOption{stream.WithAlgorithm(run.Algorithm)}
		if run.Algorithm == setupsched.EpsilonSearch {
			fOpts = append(fOpts, setupsched.WithEpsilon(eps))
			sOpts = append(sOpts, stream.WithEpsilon(eps))
		}
		fr, err := fresh.Solve(ctx, run.Variant, fOpts...)
		if err != nil {
			return violations, err
		}
		sr, err := sess.Solve(ctx, run.Variant, sOpts...)
		if err != nil {
			return violations, err
		}
		violations = append(violations, compareSessionRun(mirror, run, point, sr, fr)...)
	}
	return violations, nil
}

// compareSessionRun asserts one session result against the fresh
// reference.
func compareSessionRun(in *sched.Instance, run setupsched.Run, point int, sr *stream.Result, fr *setupsched.Result) []string {
	tag := func(msg string, args ...any) string {
		return fmt.Sprintf("solve point %d %s (%s): %s", point, run, sessionMode(sr), fmt.Sprintf(msg, args...))
	}
	if sr.Fallback || fr.Fallback {
		// Trajectory-dependent conservative path: identity is not defined,
		// soundness still is.
		var out []string
		if err := setupsched.Verify(in, run.Variant, sr.Result); err != nil {
			out = append(out, tag("fallback result failed Verify: %v", err))
		}
		return out
	}
	var out []string
	if !sr.Makespan.Equal(fr.Makespan) {
		out = append(out, tag("makespan %s != fresh %s", sr.Makespan, fr.Makespan))
	}
	if !sr.LowerBound.Equal(fr.LowerBound) {
		out = append(out, tag("lower bound %s != fresh %s", sr.LowerBound, fr.LowerBound))
	}
	if !sr.Guess.Equal(fr.Guess) {
		out = append(out, tag("accepted guess %s != fresh %s", sr.Guess, fr.Guess))
	}
	if sr.Algorithm != fr.Algorithm {
		out = append(out, tag("algorithm %q != fresh %q", sr.Algorithm, fr.Algorithm))
	}
	if err := setupsched.Verify(in, run.Variant, sr.Result); err != nil {
		out = append(out, tag("failed Verify: %v", err))
	}
	return out
}

func sessionMode(r *stream.Result) string {
	switch {
	case r.Cached:
		return "cached"
	case r.Warm:
		return "warm"
	}
	return "cold"
}

// DriftConfig drives one RunDrift sweep.
type DriftConfig struct {
	// Regimes to generate; empty means the full drift catalog.
	Regimes []schedgen.DriftRegime
	// Profiles size the base instances; empty means DefaultProfiles.
	Profiles []Profile
	// Steps is the delta count per trace (default 24).
	Steps int
	// Seeds runs seeds SeedBase .. SeedBase+Seeds-1 per (regime, profile).
	Seeds    int64
	SeedBase int64
	// Epsilon is the eps-search accuracy (default DefaultEpsilon).
	Epsilon float64
	// Workers bounds trace-replay parallelism; <= 0 means 1.
	Workers int
	// MaxViolations stops early once this many violations are collected
	// (0 = unlimited).
	MaxViolations int
}

// DriftSummary aggregates a RunDrift sweep.
type DriftSummary struct {
	Traces     int64
	Deltas     uint64
	Solves     uint64
	WarmHits   uint64
	CacheHits  uint64
	Rebuilds   uint64
	Violations []Violation
}

// RunDrift sweeps drift regimes x profiles x seeds, replaying every
// generated trace through CheckSessionTrace on a bounded worker pool.  It
// stops early when ctx is done (returning what was checked so far with
// the context's error) or when MaxViolations is reached (nil error).
func RunDrift(ctx context.Context, cfg DriftConfig) (*DriftSummary, error) {
	regimes := cfg.Regimes
	if len(regimes) == 0 {
		regimes = schedgen.DriftRegimes
	}
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		profiles = DefaultProfiles()
	}
	steps := cfg.Steps
	if steps <= 0 {
		steps = defaultDriftSteps
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}

	type item struct {
		regime  schedgen.DriftRegime
		profile Profile
		seed    int64
	}
	jobs := make(chan item)
	sum := &DriftSummary{}
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
				events := it.regime.Make(p, steps)
				msgs, stats, err := CheckSessionTrace(ctx, events, cfg.Epsilon)
				mu.Lock()
				for _, msg := range msgs {
					sum.Violations = append(sum.Violations, Violation{
						Family: "drift/" + it.regime.Name, Profile: it.profile.Name, Seed: it.seed,
						Msg: msg,
					})
				}
				if err != nil {
					if firstErr == nil && !errors.Is(err, setupsched.ErrCanceled) {
						firstErr = fmt.Errorf("drift/%s/%s seed %d: %w", it.regime.Name, it.profile.Name, it.seed, err)
					}
					if firstErr == nil && ctx.Err() != nil {
						firstErr = ctx.Err()
					}
					mu.Unlock()
					continue
				}
				sum.Traces++
				sum.Deltas += stats.Deltas
				sum.Solves += stats.Solves
				sum.WarmHits += stats.WarmHits
				sum.CacheHits += stats.CacheHits
				sum.Rebuilds += stats.Rebuilds
				mu.Unlock()
			}
		}()
	}

feed:
	for _, regime := range regimes {
		for _, profile := range profiles {
			for s := int64(0); s < cfg.Seeds; s++ {
				if ctx.Err() != nil || stop() {
					break feed
				}
				jobs <- item{regime, profile, cfg.SeedBase + s}
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

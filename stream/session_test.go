package stream

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// testInstance is machine-rich and setup-dominated so the trivial bound
// is rejected and the exact searches genuinely narrow a bracket — the
// regime where warm starts have something to save.
func testInstance(seed int64) *sched.Instance {
	return schedgen.ExpensiveSetups(schedgen.Params{
		M: 26, Classes: 31, JobsPer: 8, MaxSetup: 500, MaxJob: 60, Seed: seed,
	})
}

// freshResult solves the instance cold through the public Solver API.
func freshResult(t *testing.T, in *sched.Instance, v sched.Variant, opts ...setupsched.Option) *setupsched.Result {
	t.Helper()
	s, err := setupsched.NewSolver(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), v, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSame(t *testing.T, tag string, got *Result, want *setupsched.Result) {
	t.Helper()
	if err := sameSchedule(got, want); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

func TestSessionColdCachedWarm(t *testing.T) {
	ctx := context.Background()
	in := testInstance(1)
	s, err := NewSession(in)
	if err != nil {
		t.Fatal(err)
	}

	r1, err := s.Solve(ctx, sched.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Warm {
		t.Fatalf("first solve reported cached=%v warm=%v", r1.Cached, r1.Warm)
	}
	assertSame(t, "cold", r1, freshResult(t, in, sched.NonPreemptive))

	r2, err := s.Solve(ctx, sched.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("unchanged-instance re-solve was not served from the cache")
	}
	if !r2.Makespan.Equal(r1.Makespan) {
		t.Fatal("cached result differs from the original")
	}

	// A small delta: the re-solve must warm-start yet stay bit-identical
	// to a fresh cold solve of the new instance.
	d := sched.Delta{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{7, 3}}
	if err := s.Apply(ctx, d); err != nil {
		t.Fatal(err)
	}
	mirror := in.Clone()
	if _, err := d.Apply(mirror); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Solve(ctx, sched.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("post-delta solve served stale cache")
	}
	fresh := freshResult(t, mirror, sched.NonPreemptive)
	assertSame(t, "post-delta", r3, fresh)
	if !r3.Warm {
		t.Fatal("post-delta re-solve did not warm-start")
	}
	if r3.Probes >= fresh.Probes {
		t.Fatalf("warm solve probed %d times, cold %d; expected savings", r3.Probes, fresh.Probes)
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.WarmHits != 1 || st.Solves != 2 || st.Deltas != 1 {
		t.Fatalf("stats = %+v, want 1 cache hit, 1 warm hit, 2 solves, 1 delta", st)
	}
}

// TestSessionIdentityAcrossAlgorithms replays a delta sequence and checks
// every paper (variant, algorithm) combination against a fresh solver
// after each edit.
func TestSessionIdentityAcrossAlgorithms(t *testing.T) {
	ctx := context.Background()
	in := testInstance(2)
	s, err := NewSession(in)
	if err != nil {
		t.Fatal(err)
	}
	mirror := in.Clone()
	deltas := []sched.Delta{
		{Op: sched.DeltaAddJobs, Class: 3, Jobs: []int64{41, 7}},
		{Op: sched.DeltaSetSetup, Class: 1, Setup: 95},
		{Op: sched.DeltaRemoveJob, Class: 3, Job: 0},
		{Op: sched.DeltaAddClass, Setup: 12, Jobs: []int64{30, 2}},
		{Op: sched.DeltaSetMachines, M: 9},
		{Op: sched.DeltaRemoveClass, Class: 2},
	}
	for _, d := range deltas {
		if err := s.Apply(ctx, d); err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if _, err := d.Apply(mirror); err != nil {
			t.Fatalf("%s (mirror): %v", d, err)
		}
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("after %s: %v", d, err)
		}
		for _, run := range setupsched.PaperRuns() {
			opts := []setupsched.Option{setupsched.WithAlgorithm(run.Algorithm)}
			want := freshResult(t, mirror, run.Variant, opts...)
			got, err := s.Solve(ctx, run.Variant, WithAlgorithm(run.Algorithm))
			if err != nil {
				t.Fatalf("%s %s: %v", d, run, err)
			}
			assertSame(t, d.String()+" "+run.String(), got, want)
		}
	}
}

// TestSessionSolveAll solves every paper run on one session twice: the
// second pass is at the same revision, so every answer must come from
// the session cache.
func TestSessionSolveAll(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession(testInstance(3))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, run := range setupsched.PaperRuns() {
			r, err := s.Solve(ctx, run.Variant, WithAlgorithm(run.Algorithm))
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, run, err)
			}
			if r.Cached != (pass == 1) {
				t.Fatalf("pass %d %s: cached=%v", pass, run, r.Cached)
			}
		}
	}
}

// TestSessionTraceMatchesProbes pins the trace contract on every session
// answer, as on a Solver's: fresh, cached and warm results of every
// paper run carry one trace entry per probe.
func TestSessionTraceMatchesProbes(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession(testInstance(14))
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	check := func(tag string) {
		t.Helper()
		for _, run := range setupsched.PaperRuns() {
			r, err := s.Solve(ctx, run.Variant, WithAlgorithm(run.Algorithm))
			if err != nil {
				t.Fatalf("%s %s: %v", tag, run, err)
			}
			if len(r.Trace) != r.Probes {
				t.Fatalf("%s %s (cached=%v warm=%v): %d trace entries for %d probes",
					tag, run, r.Cached, r.Warm, len(r.Trace), r.Probes)
			}
			if r.Warm {
				warm++
			}
		}
	}
	check("fresh")
	check("cached")
	if err := s.Apply(ctx, sched.Delta{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{17}}); err != nil {
		t.Fatal(err)
	}
	check("after delta")
	if warm == 0 {
		t.Fatal("no solve after the delta warm-started")
	}
}

// sameSchedule reports how a session answer differs from a fresh
// solver's, comparing the whole setupsched.Result, schedule included,
// bit for bit; nil when identical.  Probes and Trace are outside the
// bit-identity contract: a warm start runs fewer probes by design.
func sameSchedule(got *Result, want *setupsched.Result) error {
	if got.Fallback || want.Fallback {
		return nil
	}
	g, w := *got.Result, *want
	g.Probes, g.Trace, w.Probes, w.Trace = 0, nil, 0, nil
	if reflect.DeepEqual(g, w) {
		return nil
	}
	if !reflect.DeepEqual(g.Schedule, w.Schedule) {
		return errors.New("session schedule differs from the fresh solver's")
	}
	return fmt.Errorf("session (mk=%s lb=%s T=%s ratio=%v %s fallback=%v) != fresh (mk=%s lb=%s T=%s ratio=%v %s fallback=%v)",
		g.Makespan, g.LowerBound, g.Guess, g.Ratio, g.Algorithm, g.Fallback,
		w.Makespan, w.LowerBound, w.Guess, w.Ratio, w.Algorithm, w.Fallback)
}

// TestSessionsResolveBesideSolveAll runs a shared Solver's concurrent
// SolveAll while two sessions re-solve under churn.  Every solve borrows
// its build scratch from core.ScratchPool, so the race detector must stay
// quiet and every answer must match its serial or fresh-solver reference
// bit for bit.
func TestSessionsResolveBesideSolveAll(t *testing.T) {
	ctx := context.Background()
	solver, err := setupsched.NewSolver(testInstance(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.SolveAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deltas := []sched.Delta{
		{Op: sched.DeltaAddJobs, Class: 3, Jobs: []int64{41, 7}},
		{Op: sched.DeltaRemoveJob, Class: 1, Job: 0},
		{Op: sched.DeltaAddClass, Setup: 12, Jobs: []int64{30, 2}},
		{Op: sched.DeltaSetSetup, Class: 2, Setup: 95},
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 3; iter++ {
			got, err := solver.SolveAll(ctx, setupsched.WithParallelism(3))
			if err != nil {
				t.Error(err)
				return
			}
			for i, rr := range got {
				if rr.Err != nil {
					t.Errorf("SolveAll %s: %v", rr.Run, rr.Err)
					return
				}
				if !reflect.DeepEqual(rr.Result.Schedule, want[i].Result.Schedule) {
					t.Errorf("SolveAll %s: schedule differs from the serial run", rr.Run)
				}
			}
		}
	}()
	for _, seed := range []int64{9, 10} {
		go func() {
			defer wg.Done()
			in := testInstance(seed)
			s, err := NewSession(in)
			if err != nil {
				t.Error(err)
				return
			}
			mirror := in.Clone()
			for _, d := range deltas {
				if err := s.Apply(ctx, d); err != nil {
					t.Errorf("seed %d %s: %v", seed, d, err)
					return
				}
				if _, err := d.Apply(mirror); err != nil {
					t.Errorf("seed %d %s (mirror): %v", seed, d, err)
					return
				}
				fresh, err := setupsched.NewSolver(mirror.Clone())
				if err != nil {
					t.Error(err)
					return
				}
				for _, run := range setupsched.PaperRuns() {
					got, err := s.Solve(ctx, run.Variant, WithAlgorithm(run.Algorithm))
					if err != nil {
						t.Errorf("seed %d %s %s: %v", seed, d, run, err)
						return
					}
					ref, err := fresh.Solve(ctx, run.Variant, setupsched.WithAlgorithm(run.Algorithm))
					if err != nil {
						t.Errorf("seed %d %s %s (fresh): %v", seed, d, run, err)
						return
					}
					if err := sameSchedule(got, ref); err != nil {
						t.Errorf("seed %d %s %s: %v", seed, d, run, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestSessionMachineScalingDropsSeeds(t *testing.T) {
	ctx := context.Background()
	in := testInstance(4)
	s, err := NewSession(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(ctx, sched.Splittable); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(ctx, sched.Delta{Op: sched.DeltaSetMachines, M: in.M * 2}); err != nil {
		t.Fatal(err)
	}
	mirror := in.Clone()
	mirror.M *= 2
	r, err := s.Solve(ctx, sched.Splittable)
	if err != nil {
		t.Fatal(err)
	}
	if r.Warm {
		t.Fatal("solve after machine scaling claimed a warm start; seeds must not survive scaling")
	}
	assertSame(t, "scaled", r, freshResult(t, mirror, sched.Splittable))
	// The next edit re-establishes seeds at the new machine count.
	d := sched.Delta{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{5}}
	if err := s.Apply(ctx, d); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(mirror); err != nil {
		t.Fatal(err)
	}
	r2, err := s.Solve(ctx, sched.Splittable)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "rescaled+delta", r2, freshResult(t, mirror, sched.Splittable))
}

func TestSessionRejectsInvalid(t *testing.T) {
	if _, err := NewSession(nil); !errors.Is(err, setupsched.ErrNilInstance) {
		t.Fatalf("NewSession(nil) = %v", err)
	}
	var vErr *setupsched.ValidationError
	if _, err := NewSession(&sched.Instance{M: 0}); !errors.As(err, &vErr) {
		t.Fatalf("NewSession(invalid) = %v, want ValidationError", err)
	}

	s, err := NewSession(testInstance(5))
	if err != nil {
		t.Fatal(err)
	}
	rev := s.Stats().Rev
	if err := s.Apply(context.Background(), sched.Delta{Op: sched.DeltaAddJobs, Class: 999, Jobs: []int64{1}}); err == nil {
		t.Fatal("out-of-range delta accepted")
	}
	if s.Stats().Rev != rev {
		t.Fatal("rejected delta bumped the revision")
	}
	if _, err := s.Solve(context.Background(), sched.NonPreemptive, WithEpsilon(2)); err == nil {
		t.Fatal("epsilon 2 accepted")
	}
	if _, err := s.Solve(context.Background(), sched.NonPreemptive, WithAlgorithm(setupsched.Algorithm(99))); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSessionCanceledContext(t *testing.T) {
	s, err := NewSession(testInstance(6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(ctx, sched.NonPreemptive); !errors.Is(err, setupsched.ErrCanceled) {
		t.Fatalf("canceled solve = %v, want ErrCanceled match", err)
	}
}

// TestSessionOwnsItsCopy pins that the session is isolated from caller
// mutations of the source instance.
func TestSessionOwnsItsCopy(t *testing.T) {
	in := testInstance(7)
	s, err := NewSession(in)
	if err != nil {
		t.Fatal(err)
	}
	want := in.Fingerprint()
	in.Classes[0].Jobs[0] = 12345 // caller mutates their copy
	got, err := s.Fingerprint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("caller mutation leaked into the session")
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestShiftSeedOverflow(t *testing.T) {
	r := sched.RatOf(1<<50, 3)
	if _, ok := shiftSeed(r, 1<<62); ok {
		t.Fatal("overflowing shift reported ok")
	}
	if got, ok := shiftSeed(r, 6); !ok || !got.Equal(sched.RatOf(1<<50+18, 3)) {
		t.Fatalf("small shift = %v, %v", got, ok)
	}
	if got, ok := shiftSeed(r, 0); !ok || !got.Equal(r) {
		t.Fatalf("zero shift = %v, %v", got, ok)
	}
}

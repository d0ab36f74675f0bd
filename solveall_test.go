package setupsched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"setupsched/schedgen"
)

func solveAllInstance(t *testing.T) *Solver {
	t.Helper()
	in := schedgen.ExpensiveSetups(schedgen.Params{
		M: 32, Classes: 40, JobsPer: 3, MaxSetup: 500, MaxJob: 60, Seed: 11,
	})
	s, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSolveAllMatchesSerialSolve asserts SolveAll's results are
// bit-identical to one Solve per run, for every parallelism, and that the
// output order is the requested order.
func TestSolveAllMatchesSerialSolve(t *testing.T) {
	s := solveAllInstance(t)
	ctx := context.Background()
	runs := PaperRuns()
	want := make([]*Result, len(runs))
	for i, r := range runs {
		res, err := s.Solve(ctx, r.Variant, WithAlgorithm(r.Algorithm))
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		want[i] = res
	}
	for _, par := range []int{1, 2, 4, 16} {
		got, err := s.SolveAll(ctx, WithParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != len(runs) {
			t.Fatalf("parallelism %d: %d results for %d runs", par, len(got), len(runs))
		}
		for i, rr := range got {
			if rr.Run != runs[i] {
				t.Fatalf("parallelism %d: result %d is %s, want %s (ordering must be deterministic)",
					par, i, rr.Run, runs[i])
			}
			if rr.Err != nil {
				t.Fatalf("parallelism %d: %s: %v", par, rr.Run, rr.Err)
			}
			if !rr.Result.Makespan.Equal(want[i].Makespan) ||
				!rr.Result.LowerBound.Equal(want[i].LowerBound) ||
				!rr.Result.Guess.Equal(want[i].Guess) {
				t.Errorf("parallelism %d: %s: (%s, %s, %s) != serial (%s, %s, %s)",
					par, rr.Run,
					rr.Result.Makespan, rr.Result.LowerBound, rr.Result.Guess,
					want[i].Makespan, want[i].LowerBound, want[i].Guess)
			}
			if rr.Result.Algorithm != want[i].Algorithm {
				t.Errorf("parallelism %d: %s: algorithm %q != %q", par, rr.Run, rr.Result.Algorithm, want[i].Algorithm)
			}
		}
	}
}

// TestSolveAllWithRuns checks subset selection and requested-order output.
func TestSolveAllWithRuns(t *testing.T) {
	s := solveAllInstance(t)
	runs := []Run{
		{NonPreemptive, Exact32},
		{Splittable, TwoApprox},
		{NonPreemptive, EpsilonSearch},
	}
	got, err := s.SolveAll(context.Background(), WithRuns(runs...), WithParallelism(3), WithEpsilon(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(runs) {
		t.Fatalf("%d results for %d runs", len(got), len(runs))
	}
	for i, rr := range got {
		if rr.Run != runs[i] {
			t.Fatalf("result %d is %s, want %s", i, rr.Run, runs[i])
		}
		if rr.Err != nil {
			t.Fatalf("%s: %v", rr.Run, rr.Err)
		}
		if err := Verify(s.Instance(), rr.Run.Variant, rr.Result); err != nil {
			t.Fatalf("%s: %v", rr.Run, err)
		}
	}
}

// TestSolveAllOptionValidation covers the option rejection rules.
func TestSolveAllOptionValidation(t *testing.T) {
	s := solveAllInstance(t)
	ctx := context.Background()
	if _, err := s.SolveAll(ctx, WithAlgorithm(Exact32)); err == nil ||
		!strings.Contains(err.Error(), "WithRuns") {
		t.Fatalf("SolveAll accepted WithAlgorithm: %v", err)
	}
	if _, err := s.SolveAll(ctx, WithParallelism(0)); err == nil {
		t.Fatal("SolveAll accepted parallelism 0")
	}
	if _, err := s.SolveAll(ctx, WithRuns()); err == nil {
		t.Fatal("SolveAll accepted empty WithRuns")
	}
	if _, err := s.SolveAll(ctx, WithRuns(Run{Variant: 42})); err == nil {
		t.Fatal("SolveAll accepted an unknown variant")
	}
	if _, err := s.SolveAll(ctx, WithRuns(Run{Variant: NonPreemptive, Algorithm: 42})); err == nil {
		t.Fatal("SolveAll accepted an unknown algorithm")
	}
	if _, err := s.Solve(ctx, NonPreemptive, WithRuns(Run{Variant: NonPreemptive})); err == nil {
		t.Fatal("Solve accepted WithRuns")
	}
	if _, err := s.Solve(ctx, NonPreemptive, WithParallelism(4)); err == nil {
		t.Fatal("Solve accepted WithParallelism")
	}
	if _, _, err := s.DualTest(ctx, NonPreemptive, Rat{}.AddInt(1000), WithParallelism(2)); err == nil {
		t.Fatal("DualTest accepted WithParallelism")
	}
}

// TestSolveSpeculativeMatchesSerial: Solve has no speculative path. The
// one width it accepts, WithParallelism(1), returns bit-identical results
// to plain Solve, and each trace holds one entry per probe with no guess
// repeated.
func TestSolveSpeculativeMatchesSerial(t *testing.T) {
	s := solveAllInstance(t)
	ctx := context.Background()
	for _, r := range PaperRuns() {
		serial, err := s.Solve(ctx, r.Variant, WithAlgorithm(r.Algorithm))
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		one, err := s.Solve(ctx, r.Variant, WithAlgorithm(r.Algorithm), WithParallelism(1))
		if err != nil {
			t.Fatalf("%s with parallelism 1: %v", r, err)
		}
		if !one.Makespan.Equal(serial.Makespan) || !one.LowerBound.Equal(serial.LowerBound) ||
			!one.Guess.Equal(serial.Guess) || one.Probes != serial.Probes {
			t.Errorf("%s: parallelism 1 (%s, %s, %s, %d probes) != serial (%s, %s, %s, %d probes)",
				r, one.Makespan, one.LowerBound, one.Guess, one.Probes,
				serial.Makespan, serial.LowerBound, serial.Guess, serial.Probes)
		}
		if len(serial.Trace) != serial.Probes {
			t.Errorf("%s: %d trace entries for %d probes", r, len(serial.Trace), serial.Probes)
		}
		seen := map[string]bool{}
		for _, p := range serial.Trace {
			if seen[p.T.String()] {
				t.Errorf("%s: duplicate trace entry for guess %s", r, p.T)
			}
			seen[p.T.String()] = true
		}
	}
}

// TestSolveAllCancellation: a canceled context yields one ErrCanceled per
// run and no partial results.
func TestSolveAllCancellation(t *testing.T) {
	s := solveAllInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := s.SolveAll(ctx, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range got {
		if rr.Err == nil {
			t.Fatalf("%s: no error under canceled context", rr.Run)
		}
		if !errors.Is(rr.Err, ErrCanceled) || !errors.Is(rr.Err, context.Canceled) {
			t.Fatalf("%s: error %v does not match ErrCanceled/context.Canceled", rr.Run, rr.Err)
		}
		if rr.Result != nil {
			t.Fatalf("%s: partial result under canceled context", rr.Run)
		}
	}
}

// TestSolveAllSharedObserver: an observer passed to SolveAll sees events
// from all runs (and must therefore be concurrency-safe, which this test
// exercises under -race).
func TestSolveAllSharedObserver(t *testing.T) {
	s := solveAllInstance(t)
	var mu sync.Mutex
	finished := map[string]int{}
	obs := funcObserver{onSearchFinished: func(algorithm string, probes int) {
		mu.Lock()
		finished[algorithm]++
		mu.Unlock()
	}}
	got, err := s.SolveAll(context.Background(), WithParallelism(8), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, n := range finished {
		total += n
	}
	if total != len(got) {
		t.Fatalf("observer saw %d SearchFinished events for %d runs", total, len(got))
	}
}

// funcObserver adapts callbacks to the Observer interface.
type funcObserver struct {
	onSearchFinished func(string, int)
}

func (f funcObserver) ProbeStarted(Rat)        {}
func (f funcObserver) ProbeFinished(Rat, bool) {}
func (f funcObserver) SearchFinished(a string, p int) {
	if f.onSearchFinished != nil {
		f.onSearchFinished(a, p)
	}
}

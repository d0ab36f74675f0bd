package setupsched

import (
	"context"
	"errors"
	"testing"

	"setupsched/internal/exact"
	"setupsched/schedgen"
)

// TestRefExactSolve pins the RefExact public surface: the reference
// backend returns the true optimum, so Makespan, Guess and LowerBound
// collapse to one value, the ratio is exactly 1, and the witness passes
// Verify.
func TestRefExactSolve(t *testing.T) {
	in := multiProbeInstance()
	s, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), NonPreemptive, WithAlgorithm(RefExact))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "refexact" {
		t.Errorf("algorithm name %q, want %q", res.Algorithm, "refexact")
	}
	if res.Ratio != 1 {
		t.Errorf("ratio %g, want exactly 1", res.Ratio)
	}
	if !res.Makespan.Equal(res.LowerBound) || !res.Makespan.Equal(res.Guess) {
		t.Errorf("exact result must collapse makespan=%s guess=%s lb=%s", res.Makespan, res.Guess, res.LowerBound)
	}
	if res.Fallback || res.Trace != nil {
		t.Errorf("exact result must not carry fallback/trace: %+v", res)
	}
	if err := Verify(in, NonPreemptive, res); err != nil {
		t.Errorf("Verify rejected the exact result: %v", err)
	}
	// The optimum must agree with the independent exhaustive search.
	want, err := exact.NonPreemptive(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.CmpInt(want) != 0 {
		t.Errorf("RefExact optimum %s != exhaustive %d", res.Makespan, want)
	}
	// And it must lower-bound every approximation's makespan.
	approx, err := s.Solve(context.Background(), NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Makespan.Less(res.Makespan) {
		t.Errorf("3/2-approximation makespan %s below exact optimum %s", approx.Makespan, res.Makespan)
	}
}

// TestRefExactUnsupportedVariants pins that the reference backend only
// solves the non-preemptive variant.
func TestRefExactUnsupportedVariants(t *testing.T) {
	s, err := NewSolver(multiProbeInstance())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{Splittable, Preemptive} {
		if _, err := s.Solve(context.Background(), v, WithAlgorithm(RefExact)); !errors.Is(err, ErrExactUnsupported) {
			t.Errorf("%v: got %v, want ErrExactUnsupported", v, err)
		}
	}
}

// TestRefExactBudgetError pins the typed budget error on the public
// surface: a one-node budget must surface an *ExactBudgetError matching
// ErrExactBudget with a sane certified bracket.
func TestRefExactBudgetError(t *testing.T) {
	in := schedgen.BigJobs(schedgen.Params{M: 4, Classes: 8, JobsPer: 4, MaxSetup: 50, MaxJob: 80, Seed: 3})
	s, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), NonPreemptive, WithAlgorithm(RefExact), WithNodeBudget(1))
	if err == nil {
		t.Skip("instance solved greedily; budget never consulted")
	}
	if !errors.Is(err, ErrExactBudget) {
		t.Fatalf("error %v does not match ErrExactBudget", err)
	}
	var be *ExactBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not an *ExactBudgetError", err)
	}
	if be.Budget != 1 || be.Nodes < 1 || be.Lo < 1 || be.Lo > be.Hi {
		t.Errorf("implausible budget error %+v", be)
	}
}

// TestRefExactOptionValidation pins WithNodeBudget's input checking and
// that other algorithms ignore the option.
func TestRefExactOptionValidation(t *testing.T) {
	s, err := NewSolver(multiProbeInstance())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), NonPreemptive, WithNodeBudget(-1)); err == nil {
		t.Error("negative node budget accepted")
	}
	// A tiny budget must not perturb the approximation algorithms.
	res, err := s.Solve(context.Background(), NonPreemptive, WithNodeBudget(1))
	if err != nil {
		t.Errorf("approximation with node budget failed: %v", err)
	} else if res.Schedule == nil {
		t.Error("approximation with node budget returned no schedule")
	}
}

// TestRefExactTooLarge pins the size gate's public sentinel.
func TestRefExactTooLarge(t *testing.T) {
	in := &Instance{M: 2, Classes: []Class{{Setup: 1}}}
	for j := 0; j <= exact.MaxBranchBoundJobs; j++ {
		in.Classes[0].Jobs = append(in.Classes[0].Jobs, 1)
	}
	s, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), NonPreemptive, WithAlgorithm(RefExact)); !errors.Is(err, ErrExactTooLarge) {
		t.Errorf("oversized instance: got %v, want ErrExactTooLarge", err)
	}
}

// TestRefExactCancel pins that cancellation surfaces with the ErrCanceled
// identity like every other solve.
func TestRefExactCancel(t *testing.T) {
	in := schedgen.Uniform(schedgen.Params{M: 8, Classes: 40, JobsPer: 5, MaxSetup: 100, MaxJob: 200, Seed: 1})
	s, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(ctx, NonPreemptive, WithAlgorithm(RefExact)); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled exact solve returned %v, want ErrCanceled", err)
	}
}

// TestRefExactSolveAll pins RefExact as one more SolveAll run alongside
// the paper algorithms, including the observer's SearchFinished event.
func TestRefExactSolveAll(t *testing.T) {
	s, err := NewSolver(multiProbeInstance())
	if err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	runs := []Run{
		{Variant: NonPreemptive, Algorithm: Exact32},
		{Variant: NonPreemptive, Algorithm: RefExact},
		{Variant: NonPreemptive, Algorithm: RefExact}, // also reject non-nonp below
	}
	out, err := s.SolveAll(context.Background(), WithRuns(runs...), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(runs) {
		t.Fatalf("got %d results for %d runs", len(out), len(runs))
	}
	for i, rr := range out {
		if rr.Err != nil {
			t.Fatalf("run %d (%s): %v", i, rr.Run, rr.Err)
		}
	}
	approx, ref := out[0].Result, out[1].Result
	if approx.Makespan.Less(ref.Makespan) {
		t.Errorf("approximation %s below exact optimum %s", approx.Makespan, ref.Makespan)
	}
	if !ref.Makespan.Equal(out[2].Result.Makespan) {
		t.Errorf("repeated RefExact runs disagree: %s vs %s", ref.Makespan, out[2].Result.Makespan)
	}
	if obs.finished != len(runs) {
		t.Errorf("observer saw %d SearchFinished events, want %d", obs.finished, len(runs))
	}
	// A RefExact run for an unsupported variant fails per-run, not whole-call.
	out, err = s.SolveAll(context.Background(), WithRuns(Run{Variant: Splittable, Algorithm: RefExact}))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out[0].Err, ErrExactUnsupported) {
		t.Errorf("splittable RefExact run: got %v, want ErrExactUnsupported", out[0].Err)
	}
}

// countingObserver counts SearchFinished events; safe for SolveAll's
// serial default.
type countingObserver struct{ finished int }

func (c *countingObserver) ProbeStarted(Rat)           {}
func (c *countingObserver) ProbeFinished(Rat, bool)    {}
func (c *countingObserver) SearchFinished(string, int) { c.finished++ }

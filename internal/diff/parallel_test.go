package diff

import (
	"context"
	"fmt"
	"testing"

	"setupsched"
	"setupsched/schedgen"
)

// TestEngineParallelBitIdentical is the acceptance cross-check of the
// SolveAll fan-out: over the full schedgen catalog, every spec solved
// through SolveAll at width 4 must return a bit-identical makespan,
// certified bound, accepted guess and algorithm to one serial Solve.
func TestEngineParallelBitIdentical(t *testing.T) {
	profiles := []Profile{
		{"tiny", schedgen.Params{M: 3, Classes: 3, JobsPer: 2, MaxSetup: 12, MaxJob: 16}},
		// Setup-heavy sizing whose searches genuinely probe (the tiny
		// profile mostly accepts the trivial bound on the first guess).
		{"searchy", schedgen.Params{M: 32, Classes: 40, JobsPer: 3, MaxSetup: 500, MaxJob: 60}},
	}
	ctx := context.Background()
	specs := Specs(0)
	runs, specEps := specRuns(specs)
	for _, fam := range schedgen.Families {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			for _, prof := range profiles {
				for seed := int64(0); seed < 3; seed++ {
					p := prof.Params
					p.Seed = seed
					solver, err := setupsched.NewSolver(fam.Make(p))
					if err != nil {
						t.Fatal(err)
					}
					fanned, err := solver.SolveAll(ctx, setupsched.WithRuns(runs...),
						setupsched.WithEpsilon(specEps), setupsched.WithParallelism(4))
					if err != nil {
						t.Fatal(err)
					}
					for i, spec := range specs {
						tag := fmt.Sprintf("%s seed %d: %s", prof.Name, seed, spec.Name)
						opts := []setupsched.Option{setupsched.WithAlgorithm(spec.Algorithm)}
						if spec.Algorithm == setupsched.EpsilonSearch {
							opts = append(opts, setupsched.WithEpsilon(spec.Epsilon))
						}
						serial, err := solver.Solve(ctx, spec.Variant, opts...)
						if err != nil {
							t.Fatalf("%s: serial: %v", tag, err)
						}
						if fanned[i].Err != nil {
							t.Fatalf("%s: fan-out: %v", tag, fanned[i].Err)
						}
						got := fanned[i].Result
						if !got.Makespan.Equal(serial.Makespan) || !got.LowerBound.Equal(serial.LowerBound) ||
							!got.Guess.Equal(serial.Guess) || got.Algorithm != serial.Algorithm {
							t.Errorf("%s: fan-out (%s, %s, %s, %q) != serial (%s, %s, %s, %q)", tag,
								got.Makespan, got.LowerBound, got.Guess, got.Algorithm,
								serial.Makespan, serial.LowerBound, serial.Guess, serial.Algorithm)
						}
					}
				}
			}
		})
	}
}

// TestCheckInstanceParallelMatchesSerial asserts the fan-out check path
// produces the same report as the serial one.
func TestCheckInstanceParallelMatchesSerial(t *testing.T) {
	in := schedgen.ExpensiveSetups(schedgen.Params{M: 32, Classes: 40, JobsPer: 3, MaxSetup: 500, MaxJob: 60, Seed: 1})
	serial, err := CheckInstance(context.Background(), in, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CheckInstanceParallel(context.Background(), in, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Violations) != 0 || len(par.Violations) != 0 {
		t.Fatalf("violations: serial %v, parallel %v", serial.Violations, par.Violations)
	}
	if len(serial.Runs) != len(par.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(serial.Runs), len(par.Runs))
	}
	for i := range serial.Runs {
		s, p := serial.Runs[i], par.Runs[i]
		if s.Spec.Name != p.Spec.Name {
			t.Fatalf("run %d ordering differs: %s vs %s", i, s.Spec.Name, p.Spec.Name)
		}
		if !s.Makespan.Equal(p.Makespan) || !s.Lower.Equal(p.Lower) {
			t.Errorf("%s: serial (%s, %s) != parallel (%s, %s)",
				s.Spec.Name, s.Makespan, s.Lower, p.Makespan, p.Lower)
		}
	}
}

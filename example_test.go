package setupsched_test

import (
	"context"
	"fmt"
	"log"

	"setupsched"
)

// ExampleNewSolver shows the prepare-once/solve-many pattern with
// functional options: the Solver validates the instance and runs the
// shared O(n) preparation a single time, then serves any number of
// solves, dual tests and variants.
func ExampleNewSolver() {
	in := &setupsched.Instance{
		M: 3,
		Classes: []setupsched.Class{
			{Setup: 4, Jobs: []int64{7, 2, 5}},
			{Setup: 1, Jobs: []int64{3, 3}},
		},
	}
	solver, err := setupsched.NewSolver(in)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// The same prepared Solver serves different algorithms and options.
	res, err := solver.Solve(ctx, setupsched.NonPreemptive,
		setupsched.WithAlgorithm(setupsched.EpsilonSearch),
		setupsched.WithEpsilon(1e-3),
		setupsched.WithProbeLimit(64),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("eps-search makespan:", res.Makespan)
	fmt.Println("trivial lower bound:", solver.LowerBound(setupsched.NonPreemptive))
	// Output:
	// eps-search makespan: 11
	// trivial lower bound: 11
}

// ExampleSolver_Solve solves one instance with the default exact
// 3/2-approximation and reads the certified result fields.
func ExampleSolver_Solve() {
	in := &setupsched.Instance{
		M: 3,
		Classes: []setupsched.Class{
			{Setup: 4, Jobs: []int64{7, 2, 5}},
			{Setup: 1, Jobs: []int64{3, 3}},
		},
	}
	solver, err := setupsched.NewSolver(in)
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), setupsched.NonPreemptive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("makespan:", res.Makespan)
	fmt.Println("lower bound:", res.LowerBound)
	fmt.Println("ratio:", res.Ratio)
	// Output:
	// makespan: 11
	// lower bound: 11
	// ratio: 1
}

// ExampleSolver_SolveAll fans several (variant, algorithm) combinations
// out concurrently over one shared preparation.  Results arrive in the
// requested order no matter which run finishes first, and are
// bit-identical to calling Solve once per run.
func ExampleSolver_SolveAll() {
	in := &setupsched.Instance{
		M: 2,
		Classes: []setupsched.Class{
			{Setup: 2, Jobs: []int64{4, 4}},
			{Setup: 3, Jobs: []int64{6}},
		},
	}
	solver, err := setupsched.NewSolver(in)
	if err != nil {
		log.Fatal(err)
	}
	results, err := solver.SolveAll(context.Background(),
		setupsched.WithRuns(
			setupsched.Run{Variant: setupsched.Splittable, Algorithm: setupsched.Exact32},
			setupsched.Run{Variant: setupsched.Preemptive, Algorithm: setupsched.Exact32},
			setupsched.Run{Variant: setupsched.NonPreemptive, Algorithm: setupsched.Exact32},
		),
		setupsched.WithParallelism(3),
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, rr := range results {
		if rr.Err != nil {
			log.Fatal(rr.Err)
		}
		fmt.Printf("%s: makespan %s (certified >= %s)\n", rr.Run, rr.Result.Makespan, rr.Result.LowerBound)
	}
	// Output:
	// split/exact32: makespan 57/4 (certified >= 19/2)
	// pmtn/exact32: makespan 55/4 (certified >= 19/2)
	// nonp/exact32: makespan 10 (certified >= 10)
}

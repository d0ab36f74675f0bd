// Command schedsolve reads a scheduling instance as JSON and solves it.
//
// Usage:
//
//	schedsolve [-variant split|pmtn|nonp] [-algo auto|2approx|eps|exact32|refexact] \
//	           [-eps 1e-4] [-timeout 0] [-gantt] [-trace] [-spans] \
//	           [instance.json]
//
// The instance format is
//
//	{"m": 3, "classes": [{"setup": 4, "jobs": [7, 2, 5]}, ...]}
//
// With no file argument the instance is read from standard input.
//
// With -spans the solve is traced and its span tree — prepare (the O(n)
// preprocessing), search (one child per dual-approximation probe) and
// build (schedule construction) — is printed as JSON after the summary,
// bound to a locally generated trace id (the same identity scheme the
// serving tier's distributed traces use).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"setupsched"
	"setupsched/internal/render"
	"setupsched/obs"
)

func main() {
	variant := flag.String("variant", "nonp", "problem variant: split, pmtn or nonp")
	algo := flag.String("algo", "auto", "algorithm: auto, 2approx, eps, exact32 (or exact) or refexact")
	eps := flag.Float64("eps", setupsched.DefaultEpsilon, "accuracy for -algo eps")
	timeout := flag.Duration("timeout", 0, "abort the solve after this long (0 = no limit)")
	gantt := flag.Bool("gantt", false, "render the schedule as an ASCII Gantt chart")
	trace := flag.Bool("trace", false, "print the search's probe trace")
	spans := flag.Bool("spans", false, "print the solve's span tree (phase timings) as JSON")
	flag.Parse()

	var r io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	var in setupsched.Instance
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		fail(fmt.Errorf("decoding instance: %w", err))
	}

	v, err := setupsched.ParseVariant(*variant)
	if err != nil {
		fail(err)
	}
	a, err := setupsched.ParseAlgorithm(*algo)
	if err != nil {
		fail(err)
	}
	var rec *obs.SpanRecorder
	var tc obs.TraceContext
	if *spans {
		// Bind a locally generated trace id so the printed tree carries
		// the same identity scheme as the serving tier's recorders.
		rec = obs.NewSpanRecorder()
		tc = obs.NewTrace()
		rec.Trace(tc, obs.SpanID{})
	}
	var solver *setupsched.Solver
	{
		var stop func()
		if rec != nil {
			stop = rec.StartPhase("prepare")
		}
		solver, err = setupsched.NewSolver(&in)
		if stop != nil {
			stop()
		}
	}
	if err != nil {
		fail(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := []setupsched.Option{setupsched.WithAlgorithm(a)}
	if a == setupsched.EpsilonSearch {
		opts = append(opts, setupsched.WithEpsilon(*eps))
	}
	if rec != nil {
		opts = append(opts, setupsched.WithObserver(rec))
	}
	res, err := solver.Solve(ctx, v, opts...)
	if err != nil {
		fail(err)
	}
	if err := res.Schedule.Validate(&in); err != nil {
		fail(fmt.Errorf("internal error, invalid schedule: %w", err))
	}

	fmt.Printf("variant:     %s\n", v)
	fmt.Printf("algorithm:   %s\n", res.Algorithm)
	fmt.Printf("makespan:    %s (%.4f)\n", res.Makespan, res.Makespan.Float64())
	fmt.Printf("lower bound: %s (%.4f)\n", res.LowerBound, res.LowerBound.Float64())
	fmt.Printf("ratio <=     %.4f\n", res.Ratio)
	fmt.Printf("machines:    %d of %d used\n", res.Schedule.MachineCount(), in.M)
	fmt.Printf("setups:      %d\n", res.Schedule.SetupCount())
	fmt.Printf("probes:      %d\n", res.Probes)
	if *trace {
		for i, pr := range res.Trace {
			verdict := "rejected (OPT > T)"
			if pr.Accepted {
				verdict = "accepted"
			}
			fmt.Printf("  probe %2d: T=%-12s %s\n", i+1, pr.T, verdict)
		}
	}
	if *spans {
		fmt.Printf("trace id:    %s\n", tc.TraceID)
		buf, err := json.MarshalIndent(rec.Root(), "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Printf("spans:\n%s\n", buf)
	}
	if *gantt {
		fmt.Println()
		fmt.Print(render.Legend(&in))
		fmt.Print(render.Gantt(res.Schedule, &render.Options{T: res.Guess}))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "schedsolve:", err)
	os.Exit(1)
}

// Command schedstream replays an NDJSON delta trace (schedgen -trace, or
// hand-written) through an incremental solve session, reporting how the
// session engine answered each solve point — warm-started, cached or
// cold — and the amortized cost against stateless re-solving.
//
// Usage:
//
//	schedstream [-f trace.ndjson] [-variant nonp] [-algorithm auto]
//	            [-eps 1e-4] [-check] [-v]
//
//	schedgen -trace churn -steps 100 | schedstream
//	schedgen -trace scale | schedstream -check -v   # cross-check vs fresh solves
//
// The trace format is one JSON object per line: first {"base": instance},
// then {"delta": {"op": ...}} edits interleaved with {"solve": true}
// solve points.  With -check every solve point is also solved by a fresh
// cold Solver and compared bit-for-bit, schedule included (the stream
// package's identity contract, checked by diff.CheckSessionResult); any
// mismatch fails the run.  Exit status: 0 ok, 1 mismatch
// or replay failure, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"setupsched"
	"setupsched/internal/diff"
	"setupsched/obs"
	"setupsched/schedgen"
	"setupsched/stream"
)

func main() {
	os.Exit(run())
}

func run() int {
	file := flag.String("f", "", "trace file (default stdin)")
	variant := flag.String("variant", "nonp", "variant solved at solve points: split, pmtn or nonp")
	algorithm := flag.String("algorithm", "auto", "algorithm: auto, 2approx, eps or exact32 (or exact)")
	eps := flag.Float64("eps", setupsched.DefaultEpsilon, "accuracy for -algorithm eps")
	check := flag.Bool("check", false, "cross-check every solve point against a fresh cold Solver (bit-identity)")
	verbose := flag.Bool("v", false, "per-solve-point output")
	flag.Parse()

	v, err := setupsched.ParseVariant(*variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedstream:", err)
		return 2
	}
	algo, err := setupsched.ParseAlgorithm(*algorithm)
	if err == nil && algo == setupsched.RefExact {
		err = fmt.Errorf("sessions do not run %s", algo)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedstream:", err)
		return 2
	}

	var in io.Reader = os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedstream:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	events, err := schedgen.DecodeTrace(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedstream:", err)
		return 1
	}

	sess, err := stream.NewSession(events[0].Base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedstream:", err)
		return 1
	}
	mirror := events[0].Base.Clone()
	opts := []stream.SolveOption{stream.WithAlgorithm(algo)}
	if algo == setupsched.EpsilonSearch {
		opts = append(opts, stream.WithEpsilon(*eps))
	}

	ctx := context.Background()
	var sessionNs, freshNs int64
	solvePoints, mismatches := 0, 0
	hist := obs.NewHistogram(obs.DefaultLatencyBuckets()...)
	start := time.Now()
	for i, ev := range events[1:] {
		switch {
		case ev.Delta != nil:
			if err := sess.Apply(ctx, *ev.Delta); err != nil {
				fmt.Fprintf(os.Stderr, "schedstream: event %d (%s): %v\n", i+1, ev.Delta, err)
				return 1
			}
			if *check {
				if _, err := ev.Delta.Apply(mirror); err != nil {
					fmt.Fprintf(os.Stderr, "schedstream: event %d (%s): fresh replay rejected: %v\n", i+1, ev.Delta, err)
					return 1
				}
			}
		case ev.Solve:
			solvePoints++
			t0 := time.Now()
			res, err := sess.Solve(ctx, v, opts...)
			d := time.Since(t0)
			sessionNs += d.Nanoseconds()
			hist.ObserveDuration(d)
			if err != nil {
				fmt.Fprintf(os.Stderr, "schedstream: solve point %d: %v\n", solvePoints, err)
				return 1
			}
			mode := "cold"
			switch {
			case res.Cached:
				mode = "cached"
			case res.Warm:
				mode = "warm"
			}
			if *verbose {
				shape, _ := sess.Describe(ctx)
				fmt.Printf("solve %3d rev %4d (m=%d c=%d n=%d): makespan %-12s bound %-12s probes %2d %s\n",
					solvePoints, res.Rev, shape.Machines, shape.Classes, shape.Jobs, res.Makespan, res.LowerBound, res.Probes, mode)
			}
			if *check {
				t1 := time.Now()
				solver, err := setupsched.NewSolver(mirror.Clone())
				var fres *setupsched.Result
				if err == nil {
					fOpts := []setupsched.Option{setupsched.WithAlgorithm(algo)}
					if algo == setupsched.EpsilonSearch {
						fOpts = append(fOpts, setupsched.WithEpsilon(*eps))
					}
					fres, err = solver.Solve(ctx, v, fOpts...)
				}
				freshNs += time.Since(t1).Nanoseconds()
				if err != nil {
					fmt.Fprintf(os.Stderr, "schedstream: solve point %d: fresh solve: %v\n", solvePoints, err)
					return 1
				}
				if err := diff.CheckSessionResult(mirror, v, res.Result, fres); err != nil {
					mismatches++
					fmt.Fprintf(os.Stderr, "schedstream: solve point %d MISMATCH: %v\n", solvePoints, err)
				}
			}
		}
	}

	st := sess.Stats()
	fmt.Printf("schedstream: %d deltas, %d solve points in %.1fms (%s, %s)\n",
		st.Deltas, solvePoints, float64(time.Since(start).Nanoseconds())/1e6, v.Short(), algo)
	fmt.Printf("  engine: %d solver runs, %d warm hits, %d cache hits, %d prep rebuilds\n",
		st.Solves, st.WarmHits, st.CacheHits, st.Rebuilds)
	if solvePoints > 0 {
		fmt.Printf("  session solve time: %.3fms total, %.3fms/solve\n",
			float64(sessionNs)/1e6, float64(sessionNs)/1e6/float64(solvePoints))
		p50, p90, p99 := hist.P50P90P99()
		fmt.Printf("  session solve latency: p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms\n",
			p50*1e3, p90*1e3, p99*1e3, hist.Max()*1e3)
	}
	if *check {
		if solvePoints > 0 {
			fmt.Printf("  fresh solve time:   %.3fms total, %.3fms/solve (%.1fx)\n",
				float64(freshNs)/1e6, float64(freshNs)/1e6/float64(solvePoints),
				float64(freshNs)/float64(max64(sessionNs, 1)))
		}
		if mismatches > 0 {
			fmt.Printf("  %d MISMATCHES\n", mismatches)
			return 1
		}
		fmt.Println("  all solve points bit-identical to fresh solves")
	}
	return 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

package stream

import (
	"context"
	"fmt"
	"testing"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// benchInstance builds the setup-heavy shape of the session benchmarks:
// machine-rich, setup-dominated and value-heavy, so every exact search
// genuinely pays its Theta(log T) probes.  Setup and job magnitudes are
// large (~2e9 resp. ~2e8): the searches' probe counts scale with log T,
// the paper's O(n log(n + Delta)), so value-heavy instances are where
// search cost, and therefore warm starts, genuinely matter.
func benchInstance(n int) *sched.Instance {
	classes := n / 8
	if classes < 1 {
		classes = 1
	}
	// Magnitudes are capped so m*N stays safely inside the instance
	// limits at every size: N <= ~0.225*n*maxSetup for this shape and
	// m ~ n/10, so maxSetup <= ~1.6e18/n^2 keeps m*N below half of
	// sched.MaxMachineLoadProduct.
	maxSetup := max(min(2_000_000_000, int64(1.6e18)/int64(n)/int64(n)), 500)
	return schedgen.ExpensiveSetups(schedgen.Params{
		M: int64(n/10 + 1), Classes: classes, JobsPer: 8,
		MaxSetup: maxSetup, MaxJob: max(maxSetup/10, 60), Seed: int64(n),
	})
}

// benchDelta alternates one job arriving and departing, so the instance
// stays bounded while every re-solve sees a real change.
func benchDelta(i int, jobs0 int) sched.Delta {
	if i%2 == 0 {
		return sched.Delta{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{17}}
	}
	return sched.Delta{Op: sched.DeltaRemoveJob, Class: 0, Job: jobs0}
}

// benchResolve runs resolve as one sub-benchmark per variant and size,
// named <variant>/n=<jobs>, at n = 1e4 and n = 1e5.
func benchResolve(b *testing.B, resolve func(b *testing.B, in *sched.Instance, v sched.Variant)) {
	for _, n := range []int{10_000, 100_000} {
		in := benchInstance(n)
		for _, v := range sched.Variants {
			b.Run(fmt.Sprintf("%s/n=%d", v.Short(), n), func(b *testing.B) { resolve(b, in, v) })
		}
	}
}

// BenchmarkSession_WarmResolve measures the session's amortized cost per
// change: one small delta plus a warm re-solve.  Compare with
// BenchmarkSession_ColdResolve; README ("Incremental sessions") records
// the measured ratio per variant, which no test checks.
func BenchmarkSession_WarmResolve(b *testing.B) {
	benchResolve(b, func(b *testing.B, in *sched.Instance, v sched.Variant) {
		jobs0 := len(in.Classes[0].Jobs)
		s, err := NewSession(in)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := s.Solve(ctx, v); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Apply(ctx, benchDelta(i, jobs0)); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Solve(ctx, v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSession_ColdResolve is the stateless baseline the session
// amortizes: the same delta stream, but every change pays a fresh
// NewSolver (O(n) preparation) and a cold search.
func BenchmarkSession_ColdResolve(b *testing.B) {
	benchResolve(b, func(b *testing.B, in *sched.Instance, v sched.Variant) {
		jobs0 := len(in.Classes[0].Jobs)
		work := in.Clone()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := benchDelta(i, jobs0).Apply(work); err != nil {
				b.Fatal(err)
			}
			solver, err := setupsched.NewSolver(work)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := solver.Solve(ctx, v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSession_CachedResolve measures the unchanged-instance fast
// path: no deltas between solves, so every call returns the cached
// result.
func BenchmarkSession_CachedResolve(b *testing.B) {
	s, err := NewSession(benchInstance(10000))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Solve(ctx, sched.NonPreemptive); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(ctx, sched.NonPreemptive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSession_DeltaApply isolates the incremental preparation
// maintenance: one small delta per iteration, no solves.
func BenchmarkSession_DeltaApply(b *testing.B) {
	in := benchInstance(10000)
	jobs0 := len(in.Classes[0].Jobs)
	s, err := NewSession(in)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Apply(ctx, benchDelta(i, jobs0)); err != nil {
			b.Fatal(err)
		}
	}
}

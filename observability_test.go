package setupsched_test

import (
	"context"
	"runtime/debug"
	"sync"
	"testing"

	"setupsched"
	"setupsched/internal/core"
	"setupsched/obs"
	"setupsched/schedgen"
)

// allocInstance is an n=1e4-job instance, the size the acceptance
// criteria pin the hot-path overhead measurements to.
func allocInstance() *setupsched.Solver {
	in := schedgen.Uniform(schedgen.Params{
		M: 64, Classes: 1250, JobsPer: 8, MaxSetup: 50, MaxJob: 100, Seed: 7,
	})
	s, err := setupsched.NewSolver(in)
	if err != nil {
		panic(err)
	}
	return s
}

// TestObservedSolveAllocsNoMoreThanBare is the regression test for the
// serve hot path's observer wiring: attaching a live metrics observer
// (the shared obs.ProbeCounter a server hangs on every solve) must not
// allocate more than a bare solve.  The option slice is built once, as
// the server does, so the per-solve cost is pure observer fan-out —
// which the solveConfig's inline buffers keep allocation-free.
//
// Both measured solves draw one pinned scratch from a pool whose New
// hands it out: race builds drop a random quarter of sync.Pool Puts, and
// a dropped scratch is reallocated and regrown on the next solve, so
// counts through core.ScratchPool would depend on pool hits rather than
// on the observer.
func TestObservedSolveAllocsNoMoreThanBare(t *testing.T) {
	s := allocInstance()
	ctx := context.Background()
	pinned := new(core.BuildScratch)
	defer func(p *sync.Pool) { core.ScratchPool = p }(core.ScratchPool)
	core.ScratchPool = &sync.Pool{New: func() any { return pinned }}
	var probes obs.Counter
	pc := &obs.ProbeCounter{C: &probes}
	metered := []setupsched.Option{setupsched.WithObserver(pc)}

	solve := func(opts []setupsched.Option) func() {
		return func() {
			if _, err := s.Solve(ctx, setupsched.Splittable, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	// AllocsPerRun counts process-wide mallocs, and the runtime allocates
	// in background work it starts after each GC cycle (the unique-map
	// cleanup linked in by net/netip), which -race makes frequent enough
	// to land inside a run.  Pausing GC keeps the count to the solve's own
	// allocations, so the comparison below can stay exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bare := testing.AllocsPerRun(10, solve(nil))
	withObs := testing.AllocsPerRun(10, solve(metered))
	if withObs > bare {
		t.Fatalf("metered solve allocates %.1f/op, bare %.1f/op — observer wiring regressed", withObs, bare)
	}
	if probes.Load() == 0 {
		t.Fatal("probe counter never fired; observer was not attached")
	}
}

// TestSpanRecorderOnRealSolve wires an obs.SpanRecorder through the
// public Observer seam and checks the recorded tree attributes the
// solve's phases: a prepare span (bracketed around NewSolver), a search
// span with one probe child per dual test, and a build span.
func TestSpanRecorderOnRealSolve(t *testing.T) {
	in := schedgen.Uniform(schedgen.Params{
		M: 8, Classes: 40, JobsPer: 5, MaxSetup: 30, MaxJob: 60, Seed: 3,
	})
	rec := obs.NewSpanRecorder()
	stop := rec.StartPhase("prepare")
	s, err := setupsched.NewSolver(in)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), setupsched.NonPreemptive, setupsched.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	root := rec.Root()
	if root.Algorithm != res.Algorithm {
		t.Errorf("root algorithm = %q, want %q", root.Algorithm, res.Algorithm)
	}
	if root.Child("prepare") == nil {
		t.Error("missing prepare span")
	}
	search := root.Child("search")
	if search == nil {
		t.Fatal("missing search span")
	}
	if search.Probes != res.Probes {
		t.Errorf("search probes = %d, want %d", search.Probes, res.Probes)
	}
	if len(search.Children) != res.Probes {
		t.Errorf("probe spans = %d, want %d", len(search.Children), res.Probes)
	}
	for i, p := range search.Children {
		if p.Outcome != "accept" && p.Outcome != "reject" {
			t.Errorf("probe %d has outcome %q", i, p.Outcome)
		}
	}
	if root.Child("build") == nil {
		t.Error("missing build span")
	}
	phases := obs.PhaseDurations(root)
	total := phases["prepare"] + phases["search"] + phases["build"]
	if total <= 0 {
		t.Errorf("phase durations sum to %v", total)
	}
}

// BenchmarkSolveObserverOverhead quantifies the instrumented hot path
// against the bare one at n=1e4 (the ≤5% acceptance bound; compare the
// two sub-benchmarks' ns/op).
func BenchmarkSolveObserverOverhead(b *testing.B) {
	s := allocInstance()
	ctx := context.Background()
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(ctx, setupsched.Splittable); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("metered", func(b *testing.B) {
		var probes obs.Counter
		lat := obs.NewHistogram(obs.DefaultLatencyBuckets()...)
		pc := &obs.ProbeCounter{C: &probes}
		opts := []setupsched.Option{setupsched.WithObserver(pc)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(ctx, setupsched.Splittable, opts...); err != nil {
				b.Fatal(err)
			}
			lat.Observe(1e-3)
		}
	})
}

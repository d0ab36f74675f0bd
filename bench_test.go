package setupsched

// Benchmark harness regenerating the paper's evaluation artifacts:
//
//   - BenchmarkTable1 has one sub-benchmark per row of Table 1 (the
//     paper's algorithm overview, PaperRuns, named by Run.String),
//     measuring the running time of each algorithm across instance sizes;
//     near-constant ns/job across sizes confirms the near-linear bounds.
//   - BenchmarkFigure*_ benchmarks the constructions behind each figure.
//   - BenchmarkDual_* measures a single O(n) dual test per variant.
//   - BenchmarkAblation_* quantifies two design choices: run compression
//     for huge m (ALGORITHMS.md, "Schedule emission") and Class Jumping
//     against the eps-search (ALGORITHMS.md, "Search machinery").
//
// Run with:  go test -bench=. -benchmem .

import (
	"context"
	"testing"

	"setupsched/internal/core"
	"setupsched/sched"
	"setupsched/schedgen"
)

func benchInstance(n int) *Instance {
	classes := n / 8
	if classes < 1 {
		classes = 1
	}
	return schedgen.Uniform(schedgen.Params{
		M: int64(n/50 + 1), Classes: classes, JobsPer: 8,
		MaxSetup: 1000, MaxJob: 1000, Seed: int64(n),
	})
}

var benchSizes = []struct {
	name string
	n    int
}{
	{"n=1e3", 1000},
	{"n=1e4", 10000},
	{"n=1e5", 100000},
}

// BenchmarkTable1 solves every row of Table 1 on one reused Solver per
// size, so the timing covers search and build but not the one-time
// preparation.  The eps-search runs at eps = 1e-3, the accuracy the
// differential harness and schedbench measure.
func BenchmarkTable1(b *testing.B) {
	for _, run := range PaperRuns() {
		for _, sz := range benchSizes {
			s, err := NewSolver(benchInstance(sz.n))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(run.String()+"/"+sz.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(context.Background(), run.Variant,
						WithAlgorithm(run.Algorithm), WithEpsilon(1e-3)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- The O(n) dual tests underlying Theorems 4, 7 and 9 ---

func BenchmarkDual_Splittable(b *testing.B) {
	in := benchInstance(100000)
	p := core.Prepare(in)
	T := p.TMin(sched.Splittable).MulInt(5).DivInt(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.EvalSplit(T, nil)
	}
}

func BenchmarkDual_Preemptive(b *testing.B) {
	in := benchInstance(100000)
	p := core.Prepare(in)
	T := p.TMin(sched.Preemptive).MulInt(5).DivInt(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.EvalPmtn(T, nil)
	}
}

func BenchmarkDual_NonPreemptive(b *testing.B) {
	in := benchInstance(100000)
	p := core.Prepare(in)
	T := p.TMin(sched.NonPreemptive).MulInt(5).DivInt(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.EvalNonp(T)
	}
}

// --- Figures: one benchmark per construction shown in the paper ---

// Figure 1: the splittable construction (expensive wrap + cheap wrap).
func BenchmarkFigure1_SplittableBuild(b *testing.B) {
	in := benchInstance(20000)
	p := core.Prepare(in)
	T := sched.R(in.N() / in.M * 2)
	ev := p.EvalSplit(T, nil)
	if !ev.OK {
		b.Fatalf("guess rejected: %s", ev.Reason)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.BuildSplit(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 2/5: the preemptive nice-instance construction.
func BenchmarkFigure2_NiceInstanceBuild(b *testing.B) {
	in := schedgen.ExpensiveSetups(schedgen.Params{M: 600, Classes: 500, JobsPer: 6, MaxSetup: 1000, MaxJob: 200, Seed: 5})
	p := core.Prepare(in)
	res, err := p.SolvePmtnJump(core.Ctl{})
	if err != nil {
		b.Fatal(err)
	}
	ev := p.EvalPmtn(res.T, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.BuildPmtn(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 3/4: the preemptive general construction with large machines.
func BenchmarkFigure3_LargeMachinesBuild(b *testing.B) {
	in := schedgen.BigJobs(schedgen.Params{M: 64, Classes: 300, JobsPer: 6, MaxSetup: 300, MaxJob: 400, Seed: 6})
	p := core.Prepare(in)
	res, err := p.SolvePmtnJump(core.Ctl{})
	if err != nil {
		b.Fatal(err)
	}
	ev := p.EvalPmtn(res.T, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.BuildPmtn(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 6: raw Batch Wrapping throughput.
func BenchmarkFigure6_Wrap(b *testing.B) {
	in := benchInstance(100000)
	p := core.Prepare(in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.TwoApproxSplit(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 7: the next-fit 2-approximation.
func BenchmarkFigure7_NextFit2Approx(b *testing.B) {
	in := benchInstance(100000)
	p := core.Prepare(in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.TwoApproxNonPreemptive(sched.NonPreemptive, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 10-13: the non-preemptive Algorithm 6 construction.
func BenchmarkFigure10_NonpBuild(b *testing.B) {
	in := benchInstance(50000)
	p := core.Prepare(in)
	res, err := p.SolveNonpSearch(core.Ctl{})
	if err != nil {
		b.Fatal(err)
	}
	ev := p.EvalNonp(res.T)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.BuildNonp(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-family datapoints over the schedgen catalog ---
//
// One sub-benchmark per adversarial family at a fixed mid size, for each
// exact 3/2 search.  These are the BENCH trajectory's per-family series:
// a regression in one structural regime (say nearhalf's J+ churn or
// msweep's run compression) shows up as that family's datapoint moving
// while the others hold still.

func benchFamilyInstance(f schedgen.Family) *Instance {
	return f.Make(schedgen.Params{
		M: 64, Classes: 1000, JobsPer: 8, MaxSetup: 500, MaxJob: 800, Seed: 1,
	})
}

func benchFamilies(b *testing.B, run func(*core.Prep) (*core.Result, error)) {
	for _, fam := range schedgen.Families {
		in := benchFamilyInstance(fam)
		p := core.Prepare(in)
		b.Run(fam.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFamilies_SplitJump(b *testing.B) {
	benchFamilies(b, func(p *core.Prep) (*core.Result, error) { return p.SolveSplitJump(core.Ctl{}) })
}

func BenchmarkFamilies_PmtnJump(b *testing.B) {
	benchFamilies(b, func(p *core.Prep) (*core.Result, error) { return p.SolvePmtnJump(core.Ctl{}) })
}

func BenchmarkFamilies_NonpSearch(b *testing.B) {
	benchFamilies(b, func(p *core.Prep) (*core.Result, error) { return p.SolveNonpSearch(core.Ctl{}) })
}

// --- Ablations ---

// Run compression: the splittable solver on a cluster of one million
// machines must not be slower than on a thousand (Theorem 7's O(n + c)
// construction relies on machine-configuration multiplicities).
func BenchmarkAblation_RunCompression_m1e3(b *testing.B) { benchSplitHugeM(b, 1_000) }
func BenchmarkAblation_RunCompression_m1e6(b *testing.B) { benchSplitHugeM(b, 1_000_000) }

func benchSplitHugeM(b *testing.B, m int64) {
	in := schedgen.Uniform(schedgen.Params{M: m, Classes: 200, JobsPer: 8, MaxSetup: 50, MaxJob: 100, Seed: 1})
	p := core.Prepare(in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveSplitJump(core.Ctl{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Probe economy: Class Jumping needs O(log) dual tests; the eps-search
// needs O(log 1/eps).  This benchmark pins their relative cost.
func BenchmarkAblation_JumpVsEps_Jump(b *testing.B) {
	in := benchInstance(50000)
	p := core.Prepare(in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveSplitJump(core.Ctl{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_JumpVsEps_Eps(b *testing.B) {
	in := benchInstance(50000)
	p := core.Prepare(in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveEps(core.Ctl{}, sched.Splittable, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel engine: SolveAll fan-out ---
//
// The serial/parallel pairs below are the wall-clock datapoints behind
// the solveall/paper rows of BENCH_core.json (see cmd/schedbench -json).
// The instance shape is machine-rich and setup-dominated so every search
// genuinely probes (~10-24 dual tests); on a single-core box the fan-out
// pays goroutine overhead without a win — compare the pairs on
// GOMAXPROCS > 1.

func benchSearchyInstance(n int) *Instance {
	classes := n / 8
	if classes < 1 {
		classes = 1
	}
	return schedgen.ExpensiveSetups(schedgen.Params{
		M: int64(n/10 + 1), Classes: classes, JobsPer: 8,
		MaxSetup: 500, MaxJob: 60, Seed: int64(n),
	})
}

func benchSolveAll(b *testing.B, par int) {
	s, err := NewSolver(benchSearchyInstance(100000))
	if err != nil {
		b.Fatal(err)
	}
	opts := []Option{}
	if par > 1 {
		opts = append(opts, WithParallelism(par))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rrs, err := s.SolveAll(context.Background(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		for _, rr := range rrs {
			if rr.Err != nil {
				b.Fatal(rr.Err)
			}
		}
	}
}

func BenchmarkParallel_SolveAll_Serial(b *testing.B)  { benchSolveAll(b, 1) }
func BenchmarkParallel_SolveAll_Fanout4(b *testing.B) { benchSolveAll(b, 4) }
func BenchmarkParallel_SolveAll_Fanout9(b *testing.B) { benchSolveAll(b, 9) }

// Solver reuse vs one-shot: a fresh Solver per call re-validates and
// re-prepares the instance every time; a reused Solver pays both once.
// This pair quantifies the gap the Solver API exists to close (the
// serving layer's repeated-traffic hot path).
func BenchmarkSolverOneShotPerCall(b *testing.B) {
	in := benchInstance(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSolver(in)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(context.Background(), NonPreemptive); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverReuse(b *testing.B) {
	in := benchInstance(10000)
	s, err := NewSolver(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(context.Background(), NonPreemptive); err != nil {
			b.Fatal(err)
		}
	}
}

// Repeated dual tests are where preparation reuse pays most: a rejected
// probe is one O(n) evaluation with no schedule construction, so a fresh
// Solver per probe spends about half its time re-validating and
// re-preparing the instance.  The guess below is under the trivial bound
// and always rejected.
func BenchmarkDualTestOneShot(b *testing.B) {
	in := benchInstance(10000)
	T := sched.R(in.N() / in.M / 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSolver(in)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.DualTest(context.Background(), NonPreemptive, T); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDualTestReuse(b *testing.B) {
	in := benchInstance(10000)
	s, err := NewSolver(in)
	if err != nil {
		b.Fatal(err)
	}
	T := sched.R(in.N() / in.M / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.DualTest(context.Background(), NonPreemptive, T); err != nil {
			b.Fatal(err)
		}
	}
}

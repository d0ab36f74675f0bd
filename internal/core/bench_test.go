package core

import (
	"testing"

	"setupsched/sched"
	"setupsched/schedgen"
)

// benchEvalPrep builds an n-job setup-heavy shape plus a probe ladder
// spanning the searches' decision regions — the workload of one dual
// search's worth of guesses.
func benchEvalPrep(n int) (*Prep, []sched.Rat) {
	in := schedgen.ExpensiveSetups(schedgen.Params{
		M: int64(n/10 + 1), Classes: n / 8, JobsPer: 8,
		MaxSetup: 100_000, MaxJob: 10_000, Seed: int64(n),
	})
	p := Prepare(in)
	tmin := p.TMin(sched.NonPreemptive)
	ladder := []sched.Rat{
		sched.R(p.SPT), tmin, tmin.MulInt(2),
		sched.Mid(tmin, sched.R(p.N)), sched.R(p.N),
		sched.RatOf(2*p.N+1, 3), sched.RatOf(3*p.N+2, 5), tmin.MulInt(3),
	}
	return p, ladder
}

// BenchmarkEvalNonpWalk_n1e5 is the pre-SoA baseline: the reference
// per-job walk, kept as the differential oracle.  One op = one 8-guess
// ladder sweep.
func BenchmarkEvalNonpWalk_n1e5(b *testing.B) {
	p, ladder := benchEvalPrep(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, T := range ladder {
			p.EvalNonpRef(T)
		}
	}
}

// BenchmarkEvalNonpSoA_n1e5 is the rewritten probe: binary-search
// thresholds over per-class sorted jobs plus prefix-sum K-work lookups.
func BenchmarkEvalNonpSoA_n1e5(b *testing.B) {
	p, ladder := benchEvalPrep(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, T := range ladder {
			p.EvalNonp(T)
		}
	}
}

// BenchmarkEvalNonpScratch_n1e5 is the warm serial probe: the SoA eval
// through a reused scratch, as stream sessions and serve solves run it.
// Allocs/op must be 0 (pinned by TestEvalNonpScratchZeroAlloc).
func BenchmarkEvalNonpScratch_n1e5(b *testing.B) {
	p, ladder := benchEvalPrep(100_000)
	var sc NonpEvalScratch
	p.EvalNonpScratch(ladder[0], &sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, T := range ladder {
			p.EvalNonpScratch(T, &sc)
		}
	}
}

// coreColdInstance builds one instance of the end-to-end benchmark's
// core-cold shape at nominal size n: ExpensiveSetups with m just below the
// class count and setups ~1e9, on which the Class Jumping searches
// genuinely probe.
func coreColdInstance(n int) *sched.Instance {
	return schedgen.ExpensiveSetups(schedgen.Params{
		M: int64(n/10 + 1), Classes: n / 8, JobsPer: 8,
		MaxSetup: 2_000_000_000, MaxJob: 200_000_000, Seed: 1,
	})
}

func coreColdPrep(n int) *Prep { return Prepare(coreColdInstance(n)) }

// BenchmarkPrepare is the cold per-instance preparation every fresh
// Solver pays before its first probe, on the core-cold shape.
func BenchmarkPrepare(b *testing.B) {
	in := coreColdInstance(20_000) // ≈11k jobs in 2.5k classes
	b.ReportAllocs()
	for b.Loop() {
		Prepare(in)
	}
}

// benchJump times one Class Jumping search on the core-cold shape: cold
// from the trivial bracket, and warm from a Ctl.Seed holding the cold
// result's certified pair, the way a session re-solves after a small
// delta.  The Prep is built once, off the clock.
func benchJump(b *testing.B, solve func(*Prep, Ctl) (*Result, error)) {
	p := coreColdPrep(20_000) // ≈11k jobs in 2.5k classes
	cold, err := solve(p, Ctl{})
	if err != nil {
		b.Fatal(err)
	}
	seed := &BracketSeed{His: []sched.Rat{cold.T}}
	if cold.HasSeedLo {
		seed.Los = []sched.Rat{cold.SeedLo}
	}
	for _, bc := range []struct {
		name string
		ctl  Ctl
	}{{"cold", Ctl{}}, {"warm", Ctl{Seed: seed}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := solve(p, bc.ctl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolvePmtnJump is the exact preemptive search (Theorem 6),
// whose breakpoint list spans every job.
func BenchmarkSolvePmtnJump(b *testing.B) { benchJump(b, (*Prep).SolvePmtnJump) }

// BenchmarkSolveSplitJump is the exact splittable search (Theorem 3).
func BenchmarkSolveSplitJump(b *testing.B) { benchJump(b, (*Prep).SolveSplitJump) }

// benchProbe replays the guesses one cold exact search on the core-cold
// shape probes (recorded through Ctl.Obs), one op = all of them: record
// evaluates each through the allocating EvalX(T, nil), decision through
// the searches' decision-only probe.
func benchProbe(b *testing.B, solve func(*Prep, Ctl) (*Result, error), record, decision func(*Prep, sched.Rat) bool) {
	p := coreColdPrep(20_000)
	var obs orderObserver
	if _, err := solve(p, Ctl{Obs: Observers{&obs}}); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		probe func(*Prep, sched.Rat) bool
	}{{"record", record}, {"decision", decision}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, T := range obs.started {
					bc.probe(p, T)
				}
			}
		})
	}
}

// BenchmarkProbeSplit is the splittable dual test (Theorem 7) over the
// 13 guesses of one cold SolveSplitJump.
func BenchmarkProbeSplit(b *testing.B) {
	benchProbe(b, (*Prep).SolveSplitJump,
		func(p *Prep, T sched.Rat) bool { return p.EvalSplit(T, nil).OK }, (*Prep).splitOK)
}

// BenchmarkProbePmtn is the preemptive dual test (Theorems 4/5) over the
// 16 guesses of one cold SolvePmtnJump.
func BenchmarkProbePmtn(b *testing.B) {
	benchProbe(b, (*Prep).SolvePmtnJump,
		func(p *Prep, T sched.Rat) bool { return p.EvalPmtn(T, nil).OK }, (*Prep).pmtnOK)
}

// scratchBuild is one schedule construction drawing on the scratch it
// is passed.
type scratchBuild = func(*BuildScratch) (*sched.Schedule, sched.Rat, error)

// buildAtAccepted returns the variant's builder bound to the accepting
// evaluation at the exact search's answer for p, the construction every
// exact solve ends with.
func buildAtAccepted(tb testing.TB, p *Prep, v sched.Variant) scratchBuild {
	tb.Helper()
	switch v {
	case sched.Splittable:
		r, err := p.SolveSplitJump(Ctl{})
		if err != nil {
			tb.Fatal(err)
		}
		ev := p.EvalSplit(r.T, nil)
		return func(sc *BuildScratch) (*sched.Schedule, sched.Rat, error) { return p.BuildSplitScratch(ev, &sc.Run) }
	case sched.Preemptive:
		r, err := p.SolvePmtnJump(Ctl{})
		if err != nil {
			tb.Fatal(err)
		}
		ev := p.EvalPmtn(r.T, nil)
		return func(sc *BuildScratch) (*sched.Schedule, sched.Rat, error) { return p.BuildPmtnScratch(ev, &sc.Run) }
	default:
		r, err := p.SolveNonpSearch(Ctl{})
		if err != nil {
			tb.Fatal(err)
		}
		ev := p.EvalNonp(r.T)
		return func(sc *BuildScratch) (*sched.Schedule, sched.Rat, error) { return p.BuildNonpScratch(ev, sc) }
	}
}

// twoApprox returns the variant's 2-approximation for p.
func twoApprox(p *Prep, v sched.Variant) scratchBuild {
	if v == sched.Splittable {
		return func(sc *BuildScratch) (*sched.Schedule, sched.Rat, error) { return p.TwoApproxSplit(&sc.Run) }
	}
	return func(sc *BuildScratch) (*sched.Schedule, sched.Rat, error) {
		return p.TwoApproxNonPreemptive(v, &sc.Run)
	}
}

// churnPrep builds the base instance of the end-to-end benchmark's
// session-churn shape: a schedgen.Churn base on m = 1000 with 1250
// classes of about 8 jobs, setups <= 500 and jobs <= 60.  Its accepted
// guesses, 663817/1000 splittable and 311181/500 preemptive, put the
// builds on fine grids, unlike core-cold's denominators 1 and 3.
func churnPrep() *Prep { return Prepare(churnInstance()) }

func churnInstance() *sched.Instance {
	trace := schedgen.Churn(schedgen.Params{M: 1000, Classes: 1250, JobsPer: 8, MaxSetup: 500, MaxJob: 60, Seed: 3}, 0)
	return trace[0].Base
}

// benchBuild times one construction on the core-cold and the churn
// shape: fresh allocates its working memory per build, scratch reuses one
// warm BuildScratch, as a solve does that draws one from ScratchPool.
func benchBuild(b *testing.B, v sched.Variant) {
	for _, shape := range []struct {
		name string
		p    *Prep
	}{{"corecold", coreColdPrep(20_000)}, {"churn", churnPrep()}} {
		build := buildAtAccepted(b, shape.p, v)
		warm := &BuildScratch{}
		if _, _, err := build(warm); err != nil {
			b.Fatal(err)
		}
		for _, bc := range []struct {
			name    string
			scratch func() *BuildScratch
		}{{"fresh", func() *BuildScratch { return new(BuildScratch) }}, {"scratch", func() *BuildScratch { return warm }}} {
			b.Run(shape.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, _, err := build(bc.scratch()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBuildPmtn is the preemptive construction (Theorem 5(ii)).
func BenchmarkBuildPmtn(b *testing.B) { benchBuild(b, sched.Preemptive) }

// BenchmarkBuildSplit is the splittable construction (Theorem 7(ii)).
func BenchmarkBuildSplit(b *testing.B) { benchBuild(b, sched.Splittable) }

// BenchmarkBuildNonp is the non-preemptive construction (Theorem 9(ii),
// Algorithm 6).
func BenchmarkBuildNonp(b *testing.B) { benchBuild(b, sched.NonPreemptive) }

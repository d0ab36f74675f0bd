package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"setupsched/sched"
	"setupsched/schedgen"
)

// evalLadder returns makespan guesses exercising every decision region of
// the dual tests: below SPT, at and around the trivial bounds, random
// interior points, and non-integral rationals (the floor path).
func evalLadder(p *Prep, rng *rand.Rand) []sched.Rat {
	tmin := p.TMin(sched.NonPreemptive)
	ladder := []sched.Rat{
		sched.R(1),
		sched.R(p.SPT - 1), sched.R(p.SPT), sched.R(p.SPT + 1),
		tmin, tmin.MulInt(2), sched.R(p.N),
		sched.Mid(tmin, sched.R(p.N)),
		sched.RatOf(2*p.N+1, 3), // non-integral
	}
	for i := 0; i < 24; i++ {
		ladder = append(ladder, sched.RatOf(1+rng.Int63n(2*p.N), 1+rng.Int63n(4)))
	}
	return ladder
}

func sameNonpEval(t *testing.T, tag string, got, want *NonpEval) {
	t.Helper()
	if got.T != want.T || got.OK != want.OK || got.Reason != want.Reason ||
		got.MPrime != want.MPrime || got.L != want.L {
		t.Fatalf("%s: eval header differs:\n got %+v\nwant %+v", tag, got, want)
	}
	if !slices.Equal(got.Exp, want.Exp) {
		t.Fatalf("%s: Exp %v != %v", tag, got.Exp, want.Exp)
	}
	if !slices.Equal(got.Mi, want.Mi) {
		t.Fatalf("%s: Mi %v != %v", tag, got.Mi, want.Mi)
	}
	if !slices.Equal(got.XiPos, want.XiPos) {
		t.Fatalf("%s: XiPos %v != %v", tag, got.XiPos, want.XiPos)
	}
}

// TestEvalNonpLayoutMatchesRef pins the SoA eval (binary-search
// thresholds over sorted jobs + prefix sums) and its scratch variant to
// the original per-job walk, field for field, across the generator
// catalog.
func TestEvalNonpLayoutMatchesRef(t *testing.T) {
	for _, fam := range schedgen.Families {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				in := fam.Make(schedgen.Params{
					M: 3 + seed*3, Classes: 7 + int(seed), JobsPer: 6,
					MaxSetup: 50, MaxJob: 70, Seed: seed,
				})
				p := Prepare(in)
				rng := rand.New(rand.NewSource(seed * 7919))
				ladder := evalLadder(p, rng)
				var sc NonpEvalScratch
				for _, T := range ladder {
					want := p.EvalNonpRef(T)
					sameNonpEval(t, "soa", p.EvalNonp(T), want)
					sameNonpEval(t, "scratch", p.EvalNonpScratch(T, &sc), want)
				}
			}
		})
	}
}

// pmtnPredicates decides the preemptive partition comparisons by exact
// Rat comparisons: the reference the int64 dualThresholds are checked
// against.
type pmtnPredicates struct {
	point bool
	T, hi sched.Rat
}

// above reports x > T (point) resp. x > T' for all T' in (T, hi).
func (q *pmtnPredicates) above(x int64) bool {
	if q.point {
		return q.T.CmpInt(x) < 0
	}
	return sched.R(x).Cmp(q.hi) >= 0
}

// strictBelow reports x < T resp. x < T' for all T' in the open interval.
func (q *pmtnPredicates) strictBelow(x int64) bool {
	if q.point {
		return q.T.CmpInt(x) > 0
	}
	return sched.R(x).Cmp(q.T) <= 0
}

// aboveScaled reports a*x > b*T on the point/interval.
func (q *pmtnPredicates) aboveScaled(x, a, b int64) bool {
	ref := q.T
	if !q.point {
		ref = q.hi
	}
	c := cmpProd(a*x, ref.Den(), b, ref.Num())
	if q.point {
		return c > 0
	}
	return c >= 0
}

// gamma returns the Section 4.4 machine count of an I+exp class.
func (q *pmtnPredicates) gamma(sp int64) int64 {
	var g int64
	if q.point {
		g = sched.CeilDivInt(2*sp, q.T) - 2
	} else {
		g = sched.FloorDivInt(2*sp, q.hi) - 1
	}
	if g < 1 {
		g = 1
	}
	return g
}

// refPmtnPartition is the Rat-predicate reference for the partition, m'
// and star sets of an EvalPmtn record: the classes walked in order, and
// each I-chp class's big jobs found by a per-job walk.
func refPmtnPartition(p *Prep, q *pmtnPredicates) *PmtnEval {
	ev := &PmtnEval{}
	for i := range p.In.Classes {
		s := p.In.Classes[i].Setup
		sp := s + p.P[i]
		switch {
		case q.above(2 * s):
			switch {
			case !q.strictBelow(sp):
				ev.ExpPlus = append(ev.ExpPlus, i)
				ev.Gamma = append(ev.Gamma, q.gamma(sp))
			case q.aboveScaled(sp, 4, 3):
				ev.ExpZero = append(ev.ExpZero, i)
			default:
				ev.ExpMinus = append(ev.ExpMinus, i)
			}
		case q.strictBelow(4 * s):
			ev.ChpMinus = append(ev.ChpMinus, i)
		default:
			ev.ChpPlus = append(ev.ChpPlus, i)
		}
	}
	ev.MPrime = int64(len(ev.ExpZero)) + (int64(len(ev.ExpMinus))+1)/2
	for _, g := range ev.Gamma {
		ev.MPrime += g
	}
	for _, i := range ev.ChpMinus {
		cls := &p.In.Classes[i]
		var cnt, work int64
		for _, tj := range cls.Jobs {
			if q.above(2 * (cls.Setup + tj)) {
				cnt++
				work += tj
			}
		}
		if cnt > 0 {
			ev.Star = append(ev.Star, i)
			ev.BigCnt = append(ev.BigCnt, cnt)
			ev.BigWork = append(ev.BigWork, work)
		}
	}
	return ev
}

// refEvalSplit is the splittable dual test with its partition decided by
// Rat comparisons: the reference EvalSplit is checked against.
func refEvalSplit(p *Prep, T sched.Rat, hi *sched.Rat) *SplitEval {
	ev := &SplitEval{T: T}
	if T.CmpInt(p.SMax) < 0 && hi == nil {
		ev.Reason = "T < s_max < OPT"
		return ev
	}
	for i := range p.In.Classes {
		s := p.In.Classes[i].Setup
		expensive := T.CmpInt(2*s) < 0
		if hi != nil {
			expensive = sched.R(2*s).Cmp(*hi) >= 0
		}
		if !expensive {
			ev.Chp = append(ev.Chp, i)
			continue
		}
		b := sched.CeilDivInt(2*p.P[i], T)
		if hi != nil {
			b = sched.FloorDivInt(2*p.P[i], *hi) + 1
		}
		ev.Exp = append(ev.Exp, i)
		ev.Beta = append(ev.Beta, b)
		ev.MExp += b
		if ev.MExp > p.M {
			ev.MachFail = true
			ev.Reason = "m < m_exp (expensive classes need too many machines)"
			return ev
		}
	}
	ev.L = p.PJ
	for _, i := range ev.Chp {
		ev.L += p.In.Classes[i].Setup
	}
	for k, i := range ev.Exp {
		ev.L += ev.Beta[k] * p.In.Classes[i].Setup
	}
	ref := T
	if hi != nil {
		ref = *hi
	}
	if cmpProd(p.M, ref.Num(), ev.L, ref.Den()) < 0 {
		ev.Reason = "m*T < L_split (load exceeds capacity)"
		return ev
	}
	ev.OK = true
	return ev
}

// partitionGuesses returns the evalLadder guesses plus every breakpoint
// b = k/scale of the keys and its neighbours b -+ 1/den(b), positive,
// ascending and deduplicated.
func partitionGuesses(p *Prep, rng *rand.Rand, keys []int64, scale int64) []sched.Rat {
	gs := evalLadder(p, rng)
	for _, k := range keys {
		b := sched.RatOf(k, scale)
		d := sched.RatOf(1, b.Den())
		gs = append(gs, b, b.Sub(d), b.Add(d))
	}
	gs = slices.DeleteFunc(gs, func(T sched.Rat) bool { return T.Sign() <= 0 })
	slices.SortFunc(gs, sched.Rat.Cmp)
	return slices.CompactFunc(gs, sched.Rat.Equal)
}

// guessModes yields each guess at its point and on two intervals: up to
// the next guess (whose end may sit exactly on a breakpoint) and up to
// 9/4 of the guess.
func guessModes(gs []sched.Rat, f func(T sched.Rat, hi *sched.Rat)) {
	for k, T := range gs {
		f(T, nil)
		if k+1 < len(gs) {
			next := gs[k+1]
			f(T, &next)
		}
		wide := T.MulInt(9).Quarter()
		f(T, &wide)
	}
}

// caseAInstance lands the preemptive dual test in the knapsack branch
// (case A) near its threshold, which no schedgen family reaches: I0exp
// classes filling the large machines, an I+exp class, star classes with
// one big job each and a few light cheap classes, on barely more
// machines than large ones.
func caseAInstance(seed int64) *sched.Instance {
	rng := rand.New(rand.NewSource(seed))
	var cls []sched.Class
	l := 3 + rng.Intn(6)
	for k := 0; k < l; k++ {
		cls = append(cls, sched.Class{Setup: 52 + rng.Int63n(8), Jobs: []int64{20 + rng.Int63n(10)}})
	}
	cls = append(cls, sched.Class{Setup: 52, Jobs: []int64{48, 40 + rng.Int63n(8)}})
	for k := 0; k < 2+rng.Intn(3); k++ {
		cls = append(cls, sched.Class{Setup: 5 + rng.Int63n(10), Jobs: []int64{40 + rng.Int63n(8), 1 + rng.Int63n(6)}})
	}
	for k := 0; k < rng.Intn(4); k++ {
		cls = append(cls, sched.Class{Setup: 1 + rng.Int63n(5), Jobs: []int64{1 + rng.Int63n(12), 1 + rng.Int63n(12)}})
	}
	return &sched.Instance{M: int64(l + 1 + rng.Intn(3)), Classes: cls}
}

// partitionGroup is one subtest's instances of the partition tests.
type partitionGroup struct {
	name string
	ins  []*sched.Instance
}

// partitionCorpus returns the instances the partition tests sweep: every
// schedgen family at four seeds, plus case-A shapes.
func partitionCorpus() []partitionGroup {
	var out []partitionGroup
	for _, fam := range schedgen.Families {
		g := partitionGroup{name: fam.Name}
		for seed := int64(0); seed < 4; seed++ {
			g.ins = append(g.ins, fam.Make(schedgen.Params{
				M: 4 + seed, Classes: 8, JobsPer: 5,
				MaxSetup: 60, MaxJob: 45, Seed: seed,
			}))
		}
		out = append(out, g)
	}
	g := partitionGroup{name: "casea"}
	for seed := int64(1); seed <= 16; seed++ {
		g.ins = append(g.ins, caseAInstance(seed))
	}
	return append(out, g)
}

// TestEvalPmtnStarMatchesWalk pins the integer-threshold preemptive
// evaluation to the Rat-predicate reference: partition lists, gamma, m'
// and star sets (the Star binary search against a per-job walk) agree at
// every evalLadder guess and every partition breakpoint and its
// neighbours, at the point and on intervals, and the decision-only probe
// agrees with the record's OK.  The corpus reaches both case A and case B.
func TestEvalPmtnStarMatchesWalk(t *testing.T) {
	var caseA, caseB int
	for _, g := range partitionCorpus() {
		t.Run(g.name, func(t *testing.T) {
			for seed, in := range g.ins {
				p := Prepare(in)
				rng := rand.New(rand.NewSource(int64(seed) * 104729))
				gs := partitionGuesses(p, rng, p.pmtnBreakpoints(sched.R(0), sched.R(4*p.N)), 3)
				guessModes(gs, func(T sched.Rat, hi *sched.Rat) {
					ev := p.EvalPmtn(T, hi)
					mode := "point"
					q := &pmtnPredicates{point: hi == nil, T: T}
					if hi != nil {
						mode = "interval to " + hi.String()
						q.hi = *hi
					} else {
						if ok := p.pmtnOK(T); ok != ev.OK {
							t.Fatalf("T=%s: decision-only %v, record %v (%s)", T, ok, ev.OK, ev.Reason)
						}
						if !ev.MachFail && T.CmpInt(p.SPT) >= 0 {
							if ev.CaseA {
								caseA++
							} else {
								caseB++
							}
						}
					}
					if hi == nil && T.CmpInt(p.SPT) < 0 {
						return // rejected before the partition ran
					}
					want := refPmtnPartition(p, q)
					if !slices.Equal(ev.ExpPlus, want.ExpPlus) || !slices.Equal(ev.Gamma, want.Gamma) ||
						!slices.Equal(ev.ExpZero, want.ExpZero) || !slices.Equal(ev.ExpMinus, want.ExpMinus) ||
						!slices.Equal(ev.ChpPlus, want.ChpPlus) || !slices.Equal(ev.ChpMinus, want.ChpMinus) ||
						ev.MPrime != want.MPrime {
						t.Fatalf("%s T=%s: partition differs:\n got %v/%v/%v %v/%v gamma %v m' %d\nwant %v/%v/%v %v/%v gamma %v m' %d",
							mode, T, ev.ExpPlus, ev.ExpZero, ev.ExpMinus, ev.ChpPlus, ev.ChpMinus, ev.Gamma, ev.MPrime,
							want.ExpPlus, want.ExpZero, want.ExpMinus, want.ChpPlus, want.ChpMinus, want.Gamma, want.MPrime)
					}
					if ev.MachFail {
						return // rejected before the Star scan ran
					}
					if !slices.Equal(ev.Star, want.Star) ||
						!slices.Equal(ev.BigCnt, want.BigCnt) || !slices.Equal(ev.BigWork, want.BigWork) {
						t.Fatalf("%s T=%s: star sets differ:\n got %v %v %v\nwant %v %v %v",
							mode, T, ev.Star, ev.BigCnt, ev.BigWork, want.Star, want.BigCnt, want.BigWork)
					}
					if ev.L == 0 {
						return // rejected before L_pmtn was formed
					}
					// L_pmtn from the record's lists: every setup once, the
					// extra I+exp setups, and case A's unselected star setups.
					var unsel int64
					for k, i := range ev.Star {
						if ev.CaseA && !ev.Sel[k] && k != ev.SplitPos {
							unsel += p.Setups[i]
						}
					}
					L := p.N + unsel
					for k, i := range ev.ExpPlus {
						L += (ev.Gamma[k] - 1) * p.Setups[i]
					}
					if ev.UnselSetup != unsel || ev.L != L {
						t.Fatalf("%s T=%s: UnselSetup %d L %d, want %d and %d", mode, T, ev.UnselSetup, ev.L, unsel, L)
					}
				})
			}
		})
	}
	if caseA == 0 || caseB == 0 {
		t.Fatalf("corpus reached case A %d and case B %d times, want both", caseA, caseB)
	}
	t.Logf("point probes past the machine test: case A %d, case B %d", caseA, caseB)
}

// TestEvalSplitMatchesRat pins the integer-threshold splittable
// evaluation, field for field, to the Rat-comparison reference at every
// evalLadder guess and every breakpoint 2 s_i and its neighbours, at the
// point and on intervals, and the decision-only probe to the record's OK.
func TestEvalSplitMatchesRat(t *testing.T) {
	for _, g := range partitionCorpus() {
		t.Run(g.name, func(t *testing.T) {
			for seed, in := range g.ins {
				p := Prepare(in)
				rng := rand.New(rand.NewSource(int64(seed) * 7907))
				gs := partitionGuesses(p, rng, p.splitBreakpoints(sched.R(0), sched.R(4*p.N)), 1)
				guessModes(gs, func(T sched.Rat, hi *sched.Rat) {
					got, want := p.EvalSplit(T, hi), refEvalSplit(p, T, hi)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("T=%s hi=%v: eval differs:\n got %+v\nwant %+v", T, hi, got, want)
					}
					if hi == nil {
						if ok := p.splitOK(T); ok != got.OK {
							t.Fatalf("T=%s: decision-only %v, record %v (%s)", T, ok, got.OK, got.Reason)
						}
					}
				})
			}
		})
	}
}

// TestProbesZeroAlloc pins the decision-only probe path on the core-cold
// shape: splittable probes and case-B preemptive probes allocate nothing.
// The search's accepted and certified-rejected guesses are probed; the
// preemptive rejection is a case-A one decided before its knapsack input
// is allocated.
func TestProbesZeroAlloc(t *testing.T) {
	p := coreColdPrep(20_000)
	for _, tc := range []struct {
		name  string
		solve func(*Prep, Ctl) (*Result, error)
		probe func(sched.Rat) bool
	}{
		{"split", (*Prep).SolveSplitJump, p.splitOK},
		{"pmtn", (*Prep).SolvePmtnJump, p.pmtnOK},
	} {
		r, err := tc.solve(p, Ctl{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.HasSeedLo {
			t.Fatalf("%s: search certified no rejected guess", tc.name)
		}
		if tc.name == "pmtn" {
			if ev := p.EvalPmtn(r.T, nil); !ev.OK || ev.CaseA {
				t.Fatalf("pmtn T=%s: want an accepted case-B probe, got OK=%v CaseA=%v", r.T, ev.OK, ev.CaseA)
			}
		}
		for _, T := range []sched.Rat{r.T, r.SeedLo} {
			if n := testing.AllocsPerRun(50, func() { tc.probe(T) }); n != 0 {
				t.Errorf("%s probe at T=%s allocates %v, want 0", tc.name, T, n)
			}
		}
	}
}

// TestEvalNonpScratchZeroAlloc pins the bugfix for per-probe Mi/XiPos
// allocations: repeated probes through one scratch allocate nothing.
func TestEvalNonpScratchZeroAlloc(t *testing.T) {
	in := schedgen.Families[0].Make(schedgen.Params{
		M: 16, Classes: 64, JobsPer: 32, MaxSetup: 200, MaxJob: 300, Seed: 42,
	})
	p := Prepare(in)
	var sc NonpEvalScratch
	tmin := p.TMin(sched.NonPreemptive)
	ladder := []sched.Rat{tmin, sched.Mid(tmin, sched.R(p.N)), sched.R(p.N), sched.R(p.SPT - 1)}
	p.EvalNonpScratch(ladder[0], &sc) // warm the scratch
	if n := testing.AllocsPerRun(100, func() {
		for _, T := range ladder {
			p.EvalNonpScratch(T, &sc)
		}
	}); n != 0 {
		t.Fatalf("EvalNonpScratch allocates %v per run, want 0", n)
	}
}

// FuzzEvalNonpLayout cross-checks the SoA eval against the reference walk
// on fuzzer-shaped instances and guesses.
func FuzzEvalNonpLayout(f *testing.F) {
	f.Add(int64(3), int64(2), uint8(4), uint8(3), int64(7), int64(1))
	f.Add(int64(1), int64(0), uint8(1), uint8(1), int64(2), int64(3))
	f.Add(int64(9), int64(40), uint8(6), uint8(9), int64(1000), int64(2))
	f.Fuzz(func(t *testing.T, m, setupBase int64, classes, jobsPer uint8, tNum, tDen int64) {
		if m < 1 || m > 1<<20 || classes == 0 || jobsPer == 0 {
			t.Skip()
		}
		if setupBase < 0 || setupBase > 1<<30 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(setupBase ^ tNum ^ int64(classes)))
		in := &sched.Instance{M: m}
		for i := 0; i < int(classes); i++ {
			cl := sched.Class{Setup: setupBase + rng.Int63n(setupBase+13)}
			for j := 0; j < int(jobsPer); j++ {
				cl.Jobs = append(cl.Jobs, 1+rng.Int63n(97))
			}
			in.Classes = append(in.Classes, cl)
		}
		if err := in.Validate(); err != nil {
			t.Skip()
		}
		p := Prepare(in)
		if tDen < 1 {
			tDen = 1
		}
		if tNum < 1 {
			tNum = 1
		}
		T := sched.RatOf(tNum%(2*p.N)+1, tDen%7+1)
		want := p.EvalNonpRef(T)
		sameNonpEval(t, "soa", p.EvalNonp(T), want)
		var sc NonpEvalScratch
		sameNonpEval(t, "scratch", p.EvalNonpScratch(T, &sc), want)
	})
}

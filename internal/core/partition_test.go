package core

import (
	"math/rand"
	"testing"

	"setupsched/sched"
)

// TestSplitEvalHandExample verifies the splittable dual quantities against
// hand computation at T = 100.
func TestSplitEvalHandExample(t *testing.T) {
	in := &sched.Instance{M: 13, Classes: []sched.Class{
		{Setup: 60, Jobs: []int64{90, 80}}, // expensive, beta = ceil(340/100) = 4
		{Setup: 55, Jobs: []int64{70, 60}}, // expensive, beta = 3
		{Setup: 70, Jobs: []int64{30}},     // expensive, beta = 1
		{Setup: 50, Jobs: []int64{50, 30}}, // 2s = T: cheap
		{Setup: 20, Jobs: []int64{15}},     // cheap
	}}
	p := Prepare(in)
	ev := p.EvalSplit(sched.R(100), nil)
	if !ev.OK {
		t.Fatalf("rejected: %s", ev.Reason)
	}
	if len(ev.Exp) != 3 || len(ev.Chp) != 2 {
		t.Fatalf("partition: exp=%v chp=%v", ev.Exp, ev.Chp)
	}
	wantBeta := []int64{4, 3, 1}
	for k := range ev.Exp {
		if ev.Beta[k] != wantBeta[k] {
			t.Errorf("beta[%d] = %d, want %d", k, ev.Beta[k], wantBeta[k])
		}
	}
	if ev.MExp != 8 {
		t.Errorf("mexp = %d", ev.MExp)
	}
	// L = P(J) + s_chp + sum beta*s = 425 + 70 + (240+165+70) = 970.
	if ev.L != 970 {
		t.Errorf("L = %d, want 970", ev.L)
	}
}

// TestPmtnEvalHandExample verifies the preemptive partition and gamma
// values at T = 100.
func TestPmtnEvalHandExample(t *testing.T) {
	in := &sched.Instance{M: 12, Classes: []sched.Class{
		{Setup: 55, Jobs: []int64{45, 45, 45, 20}}, // s+P = 210 >= T: I+exp, gamma = ceil(420/100)-2 = 3
		{Setup: 60, Jobs: []int64{25}},             // s+P = 85 in (75,100): I0exp
		{Setup: 70, Jobs: []int64{5}},              // s+P = 75 <= 3/4T: I-exp
		{Setup: 30, Jobs: []int64{10}},             // T/4 <= s <= T/2: I+chp
		{Setup: 10, Jobs: []int64{45, 5}},          // s < T/4, job 45: s+t = 55 > T/2: I*chp
		{Setup: 5, Jobs: []int64{12}},              // I-chp, no big jobs
	}}
	p := Prepare(in)
	ev := p.EvalPmtn(sched.R(100), nil)
	if !ev.OK {
		t.Fatalf("rejected: %s", ev.Reason)
	}
	if len(ev.ExpPlus) != 1 || ev.ExpPlus[0] != 0 || ev.Gamma[0] != 3 {
		t.Errorf("ExpPlus=%v Gamma=%v", ev.ExpPlus, ev.Gamma)
	}
	if len(ev.ExpZero) != 1 || ev.ExpZero[0] != 1 {
		t.Errorf("ExpZero=%v", ev.ExpZero)
	}
	if len(ev.ExpMinus) != 1 || ev.ExpMinus[0] != 2 {
		t.Errorf("ExpMinus=%v", ev.ExpMinus)
	}
	if len(ev.ChpPlus) != 1 || ev.ChpPlus[0] != 3 {
		t.Errorf("ChpPlus=%v", ev.ChpPlus)
	}
	if len(ev.ChpMinus) != 2 {
		t.Errorf("ChpMinus=%v", ev.ChpMinus)
	}
	if len(ev.Star) != 1 || ev.Star[0] != 4 || ev.BigCnt[0] != 1 || ev.BigWork[0] != 45 {
		t.Errorf("Star=%v cnt=%v work=%v", ev.Star, ev.BigCnt, ev.BigWork)
	}
	// m' = l + sum gamma + ceil(|I-exp|/2) = 1 + 3 + 1 = 5.
	if ev.MPrime != 5 {
		t.Errorf("m' = %d", ev.MPrime)
	}
}

// TestGammaFormula cross-checks the closed form
// gamma = max(ceil(2(s+P)/T) - 2, 1) against the paper's case definition
// using beta' = floor(2P/T).
func TestGammaFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 20000; iter++ {
		T := 2 + rng.Int63n(1000)
		s := T/2 + 1 + rng.Int63n(T/2) // expensive: s in (T/2, T]
		if s > T {
			s = T
		}
		// I+exp requires s + P >= T.
		minP := T - s
		if minP < 1 {
			minP = 1
		}
		P := minP + rng.Int63n(3*T)
		TR := sched.R(T)
		th := newDualThresholds(TR, nil)
		got := th.gamma(s + P)
		// Paper definition.
		betaP := (2 * P) / T // floor
		var want int64
		if 2*P-betaP*T <= 2*(T-s) { // P - beta'*T/2 <= T - s, scaled by 2
			want = betaP
			if want < 1 {
				want = 1
			}
		} else {
			want = sched.CeilDivInt(2*P, TR) // beta = ceil(2P/T)
		}
		if got != want {
			t.Fatalf("T=%d s=%d P=%d: gamma=%d, want %d", T, s, P, got, want)
		}
	}
}

// TestPmtnCaseBPath forces the greedy (no-knapsack) branch and verifies
// the construction.
func TestPmtnCaseBPath(t *testing.T) {
	// Plenty of machines: F is huge, so F >= sum_star(s+P) (case B), with
	// star classes present.
	in := &sched.Instance{M: 10, Classes: []sched.Class{
		{Setup: 60, Jobs: []int64{25}},    // I0exp at T=100
		{Setup: 10, Jobs: []int64{45, 4}}, // star
		{Setup: 4, Jobs: []int64{20, 7}},  // plain cheap
		{Setup: 3, Jobs: []int64{11}},
	}}
	p := Prepare(in)
	ev := p.EvalPmtn(sched.R(100), nil)
	if !ev.OK {
		t.Fatalf("rejected: %s", ev.Reason)
	}
	if ev.CaseA {
		t.Fatal("expected case B")
	}
	s, err := p.BuildPmtn(ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMakespanAtMost(sched.R(150)); err != nil {
		t.Fatal(err)
	}
}

// TestPmtnCaseAPath forces the knapsack branch.
func TestPmtnCaseAPath(t *testing.T) {
	classes := []sched.Class{}
	for k := 0; k < 7; k++ {
		classes = append(classes, sched.Class{Setup: 55, Jobs: []int64{25}}) // I0exp
	}
	classes = append(classes,
		sched.Class{Setup: 52, Jobs: []int64{48, 48}}, // I+exp
		sched.Class{Setup: 10, Jobs: []int64{45, 4}},  // star
		sched.Class{Setup: 6, Jobs: []int64{47}},      // star
	)
	in := &sched.Instance{M: 9, Classes: classes}
	p := Prepare(in)
	ev := p.EvalPmtn(sched.R(100), nil)
	if !ev.OK {
		t.Fatalf("rejected: %s", ev.Reason)
	}
	if !ev.CaseA {
		t.Fatal("expected case A")
	}
	if ev.SplitPos < 0 && ev.UnselSetup == 0 {
		t.Log("knapsack selected everything (allowed but unusual here)")
	}
	s, err := p.BuildPmtn(ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMakespanAtMost(sched.R(150)); err != nil {
		t.Fatal(err)
	}
}

// TestTrivialOneJobPerMachine covers the m >= n fast path.
func TestTrivialOneJobPerMachine(t *testing.T) {
	in := &sched.Instance{M: 10, Classes: []sched.Class{
		{Setup: 5, Jobs: []int64{8, 2}},
		{Setup: 1, Jobs: []int64{9}},
	}}
	p := Prepare(in)
	for _, f := range []func() (*Result, error){
		func() (*Result, error) { return p.SolvePmtnJump(Ctl{}) },
		func() (*Result, error) { return p.SolveNonpSearch(Ctl{}) },
	} {
		r, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Schedule.Validate(in); err != nil {
			t.Fatal(err)
		}
		// The trivial schedule is optimal: makespan = max(s_i + t_j) = 13.
		if !r.Schedule.Makespan().Equal(sched.R(13)) {
			t.Errorf("makespan %s, want 13", r.Schedule.Makespan())
		}
		if !r.LowerBound.Equal(sched.R(13)) {
			t.Errorf("lower bound %s, want 13", r.LowerBound)
		}
	}
}

// TestProbeCounts verifies the searches stay within their probe budgets
// (the practical content of the O(log ...) claims).
func TestProbeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 60; iter++ {
		in := &sched.Instance{M: int64(2 + rng.Intn(30))}
		c := 2 + rng.Intn(50)
		for i := 0; i < c; i++ {
			cl := sched.Class{Setup: rng.Int63n(500)}
			for j := 0; j <= rng.Intn(8); j++ {
				cl.Jobs = append(cl.Jobs, 1+rng.Int63n(800))
			}
			in.Classes = append(in.Classes, cl)
		}
		p := Prepare(in)
		rs, err := p.SolveSplitJump(Ctl{})
		if err != nil {
			t.Fatal(err)
		}
		// Phases: O(log c) + O(log m) + O(log c) + closing.
		budget := 6*log2(int64(c)+2) + 3*log2(in.M+2) + 16
		if rs.Probes > budget {
			t.Errorf("iter %d: split jump used %d probes (c=%d m=%d budget %d)",
				iter, rs.Probes, c, in.M, budget)
		}
		rp, err := p.SolvePmtnJump(Ctl{})
		if err != nil {
			t.Fatal(err)
		}
		n := int64(in.NumJobs())
		budget = 8*log2(n+2) + 6*log2(in.M+2) + 24
		if rp.Probes > budget {
			t.Errorf("iter %d: pmtn jump used %d probes (n=%d budget %d)",
				iter, rp.Probes, n, budget)
		}
	}
}

func log2(x int64) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n + 1
}

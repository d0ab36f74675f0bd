package core

import (
	"setupsched/internal/knap"
	"setupsched/internal/num128"
	"setupsched/sched"
)

// PmtnEval is the outcome of the preemptive 3/2-dual test (Theorems 4/5
// with the Section 4.4 machine counts).
//
// For a guess T the classes are partitioned into
//
//	I+exp:  s_i > T/2, s_i + P_i >= T        (gamma_i machines)
//	I0exp:  s_i > T/2, 3/4T < s_i+P_i < T    (the "large machines")
//	I-exp:  s_i > T/2, s_i + P_i <= 3/4T     (paired two per machine)
//	I+chp:  T/4 <= s_i <= T/2
//	I-chp:  s_i < T/4
//
// where gamma_i = max(ceil(2(s_i+P_i)/T) - 2, 1) is the machine count of
// the modified step 1 (Section 4.4), satisfying gamma_i <= beta_i <=
// alpha_i <= lambda_i, so the lower-bound direction of the dual test is
// preserved.  I*chp collects the I-chp classes with big jobs
// (s_i + t_j > T/2); a continuous knapsack (profit s_i, weight
// w_i = P(C_i) - L*_i, capacity Y = F - L*) decides which of them are
// scheduled entirely outside the large machines (case A).  When everything
// fits (case B) the construction splits the rest of I-chp greedily (see
// BuildPmtn); the test itself never needs that split.
type PmtnEval struct {
	T        sched.Rat
	OK       bool
	MachFail bool
	Reason   string

	ExpPlus, ExpZero, ExpMinus []int
	ChpPlus, ChpMinus          []int
	Gamma                      []int64 // parallel to ExpPlus

	Star     []int   // I*chp class indices
	BigCnt   []int64 // |C*_i| per Star position
	BigWork  []int64 // P(C*_i)
	CaseA    bool
	Sel      []bool // case A: x_i == 1 per Star position
	SplitPos int    // case A: Star position of the split item, or -1
	SplitU   int64  // case A: x_e * w_e in units of 1/(2 den)

	// NiceLoad = A + sum over I*chp of (s_i + P_i): the load of the
	// classes that must live entirely in the nice part plus the star
	// classes; case A iff (m-l)T < NiceLoad.
	NiceLoad   int64
	L          int64
	MPrime     int64
	RefNum     int64 // reference T for unit conversions (numerator)
	RefDen     int64 // and denominator; units are 1/(2*RefDen)
	UnselSetup int64 // sum of setups of unselected I*chp classes (case A)
}

// EvalPmtn runs the preemptive dual test in O(c log(max_i |C_i|)) and
// records its partition, star sets and knapsack selection.
//
// Interval mode (hi non-nil) evaluates the quantities shared by every T in
// the open interval (T, hi), assuming no partition breakpoint or class
// jump lies strictly inside; the knapsack is evaluated at the reference
// point hi (its selection is verified by the closing step of the search).
func (p *Prep) EvalPmtn(T sched.Rat, hi *sched.Rat) *PmtnEval {
	ev := &PmtnEval{T: T, SplitPos: -1}
	ev.OK = p.evalPmtn(newDualThresholds(T, hi), ev)
	return ev
}

// pmtnOK decides the preemptive dual test at the point T without
// recording the evaluation: the searches' probe path.  Case B is one O(c)
// scan that allocates nothing; case A allocates only the knapsack.
func (p *Prep) pmtnOK(T sched.Rat) bool {
	return p.evalPmtn(newDualThresholds(T, nil), nil)
}

// evalPmtn is the one decision core behind EvalPmtn and pmtnOK; a non-nil
// ev receives the partition, star sets and knapsack selection.
func (p *Prep) evalPmtn(th dualThresholds, ev *PmtnEval) bool {
	tn, den := th.ref.Num(), th.ref.Den()
	if ev != nil {
		ev.RefNum, ev.RefDen = tn, den
	}
	if th.point && p.SPT >= th.above {
		return ev.reject(false, "T < max_i(s_i + t_max) <= OPT")
	}

	// Partition and machine demand.  a accumulates A, the load of the
	// classes that must live entirely in the nice part, and extra the
	// setups the I+exp classes pay beyond one; both are read only once
	// m' <= m bounds them.
	var l, nMinus, gammas, a, extra int64
	for i, s := range p.Setups {
		sp := s + p.P[i]
		switch {
		case 2*s >= th.above: // expensive
			switch {
			case sp > th.below: // s+P >= T
				g := th.gamma(sp)
				gammas += g
				a += g*s + p.P[i]
				extra += (g - 1) * s
				if ev != nil {
					ev.ExpPlus = append(ev.ExpPlus, i)
					ev.Gamma = append(ev.Gamma, g)
				}
			case 4*sp >= th.above3: // s+P > 3/4 T
				l++
				if ev != nil {
					ev.ExpZero = append(ev.ExpZero, i)
				}
			default: // s+P <= 3/4 T
				nMinus++
				a += sp
				if ev != nil {
					ev.ExpMinus = append(ev.ExpMinus, i)
				}
			}
		case 4*s <= th.below: // s < T/4
			if ev != nil {
				ev.ChpMinus = append(ev.ChpMinus, i)
			}
		default: // T/4 <= s <= T/2
			a += sp
			if ev != nil {
				ev.ChpPlus = append(ev.ChpPlus, i)
			}
		}
	}
	mPrime := l + (nMinus+1)/2 + gammas
	if ev != nil {
		ev.MPrime = mPrime
	}
	if mPrime > p.M {
		return ev.reject(true, "m < m' (obligatory machines exceed m)")
	}

	// Star classes: the I-chp classes whose longest job is big
	// (s + t > T/2).  Only their load enters the case decision; the
	// record also keeps their big-job counts and work.
	var bStar, nStar int64
	for i, s := range p.Setups {
		if !th.star(s, p.TMaxC[i]) {
			continue
		}
		bStar += s + p.P[i]
		nStar++
		if ev != nil {
			cnt, work := p.bigJobs(i, &th)
			ev.Star = append(ev.Star, i)
			ev.BigCnt = append(ev.BigCnt, cnt)
			ev.BigWork = append(ev.BigWork, work)
		}
	}
	// Case A iff F = (m-l)T - A < bStar.
	caseA := cmpProd(p.M-l, tn, a+bStar, den) < 0
	if ev != nil {
		ev.CaseA = caseA
		ev.NiceLoad = a + bStar
	}

	var unsel int64
	if caseA {
		if l == 0 {
			// For T >= OPT, m*T >= total load implies F >= bStar when
			// l = 0, so this rejection is sound.
			return ev.reject(false, "free time below obligatory star load with no large machines")
		}
		var reason string
		if unsel, reason = p.pmtnKnapsack(&th, ev, a, l, nStar); reason != "" {
			return ev.reject(false, reason)
		}
	}

	// L_pmtn = P(J) + sum of all setups + the extra I+exp setups + the
	// setups of unselected I*chp classes, and the capacity test.
	L := p.N + unsel + extra
	if ev != nil {
		ev.L = L
	}
	if cmpProd(p.M, tn, L, den) < 0 {
		return ev.reject(false, "m*T < L_pmtn (load exceeds capacity)")
	}
	return true
}

// pmtnKnapsack solves the case-A continuous knapsack over the nStar star
// classes and returns the setup sum of the unselected ones, or a
// rejection reason.  A non-nil ev receives the selection.  The knapsack
// input is allocated only once the capacity is known to be non-negative.
func (p *Prep) pmtnKnapsack(th *dualThresholds, ev *PmtnEval, a, l, nStar int64) (unsel int64, reason string) {
	tn, den := th.ref.Num(), th.ref.Den()
	var lStarU num128.Acc
	var sumW, starSetups int64
	for i, s := range p.Setups {
		if !th.star(s, p.TMaxC[i]) {
			continue
		}
		lu, wu := p.starLoads(i, th)
		if lu < 0 || wu < 1 {
			return 0, "internal: malformed star load"
		}
		lStarU.AddInt(lu)
		lStarU.AddInt(2 * s * den)
		sumW += wu
		starSetups += s
	}
	// Capacity Y = F - L* in units, clamped to [reject-if-negative, sumW].
	var lhs, rhs num128.Acc
	lhs.AddProd(2*(p.M-l), tn)
	rhs.AddProd(2*a, den)
	rhs.AddAcc(&lStarU)
	capU := int64(0)
	switch lhs.Cmp(&rhs) {
	case -1:
		return 0, "negative knapsack capacity (obligatory load exceeds free time)"
	case 0:
		capU = 0
	default:
		diff, fits := lhs.Minus(&rhs)
		if !fits || diff > sumW {
			capU = sumW
		} else {
			capU = diff
		}
	}
	items := make([]knap.Item, 0, nStar)
	for i, s := range p.Setups {
		if th.star(s, p.TMaxC[i]) {
			_, wu := p.starLoads(i, th)
			items = append(items, knap.Item{Profit: s, Weight: wu})
		}
	}
	sol, err := knap.SolveContinuous(items, capU)
	if err != nil {
		return 0, "internal: knapsack failure: " + err.Error()
	}
	// Profit sums the selected setups; the split item is not selected.
	unsel = starSetups - sol.Profit
	if sol.Split >= 0 {
		unsel -= items[sol.Split].Profit
	}
	if ev != nil {
		ev.Sel = sol.Selected
		ev.SplitPos = sol.Split
		ev.SplitU = sol.SplitFill
		ev.UnselSetup = unsel
	}
	return unsel, ""
}

// starLoads returns, in units of 1/(2*den) of the reference T = tn/den,
// star class i's obligatory load outside the large machines and its
// knapsack weight:
//
//	L*_i = 2*work*den - cnt*(tn - 2*s*den) >= 0,
//	w_i  = 2*(P_i - work)*den + cnt*(tn - 2*s*den) >= 1,
//
// where cnt and work are the count and work of its big jobs.
func (p *Prep) starLoads(i int, th *dualThresholds) (lu, wu int64) {
	tn, den := th.ref.Num(), th.ref.Den()
	cnt, work := p.bigJobs(i, th)
	halfGap := tn - 2*p.Setups[i]*den // (T - 2s)*den > 0
	return 2*work*den - cnt*halfGap, 2*(p.P[i]-work)*den + cnt*halfGap
}

// star reports whether a class with setup s and longest job tmax is an
// I*chp class: s < T/4 with a big job, s + tmax > T/2.
func (th *dualThresholds) star(s, tmax int64) bool {
	return 4*s <= th.below && 2*(s+tmax) >= th.above
}

// bigJobs returns the count and work of class i's big jobs
// (2(s_i + t_j) > T).  They are a suffix of the sorted layout: one binary
// search for the first t_j >= ceil(above/2) - s_i, one prefix-sum
// difference for the work.
func (p *Prep) bigJobs(i int, th *dualThresholds) (cnt, work int64) {
	jobs := p.Sorted[i]
	lo := lowerBound64(jobs, (th.above+1)/2-p.Setups[i])
	return int64(len(jobs) - lo), p.P[i] - p.Pref[i][lo]
}

// reject records a rejection on a non-nil evaluation and returns false.
func (ev *PmtnEval) reject(machFail bool, reason string) bool {
	if ev != nil {
		ev.MachFail = machFail
		ev.Reason = reason
	}
	return false
}

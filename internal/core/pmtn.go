package core

import (
	"cmp"
	"slices"

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
// fits (case B) a greedy split is used instead.
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

	NiceRest   []int // case B: ChpMinus\Star classes fully in the nice part
	BSplit     int   // case B: class split between nice and K, or -1
	BSplitU    int64 // case B: nice-side job time of the split class (units)
	KRest      []int // case B: classes fully in the K part
	L          int64
	MPrime     int64
	RefNum     int64 // reference T for unit conversions (numerator)
	RefDen     int64 // and denominator; units are 1/(2*RefDen)
	UnselSetup int64 // sum of setups of unselected I*chp classes (case A)
}

// pmtnPredicates bundles the partition comparisons for point and interval
// evaluation modes.
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

// EvalPmtn runs the preemptive dual test in O(n).
//
// Interval mode (hi non-nil) evaluates the quantities shared by every T in
// the open interval (T, hi), assuming no partition breakpoint or class
// jump lies strictly inside; the knapsack is evaluated at the reference
// point hi (its selection is verified by the closing step of the search).
func (p *Prep) EvalPmtn(T sched.Rat, hi *sched.Rat) *PmtnEval {
	ev := &PmtnEval{T: T, SplitPos: -1, BSplit: -1}
	q := &pmtnPredicates{point: hi == nil, T: T}
	ref := T
	if hi != nil {
		q.hi = *hi
		ref = *hi
	}
	ev.RefNum, ev.RefDen = ref.Num(), ref.Den()
	if q.point && T.CmpInt(p.SPT) < 0 {
		ev.Reason = "T < max_i(s_i + t_max) <= OPT"
		return ev
	}

	// Partition and machine demand.
	for i := range p.In.Classes {
		s := p.In.Classes[i].Setup
		sp := s + p.P[i]
		switch {
		case q.above(2 * s): // expensive
			switch {
			case !q.strictBelow(sp): // s+P >= T
				ev.ExpPlus = append(ev.ExpPlus, i)
				ev.Gamma = append(ev.Gamma, q.gamma(sp))
			case q.aboveScaled(sp, 4, 3): // s+P > 3/4 T
				ev.ExpZero = append(ev.ExpZero, i)
			default: // s+P <= 3/4 T
				ev.ExpMinus = append(ev.ExpMinus, i)
			}
		case q.strictBelow(4 * s): // s < T/4
			ev.ChpMinus = append(ev.ChpMinus, i)
		default: // T/4 <= s <= T/2
			ev.ChpPlus = append(ev.ChpPlus, i)
		}
	}
	l := int64(len(ev.ExpZero))
	ev.MPrime = l + (int64(len(ev.ExpMinus))+1)/2
	for _, g := range ev.Gamma {
		ev.MPrime += g
	}
	if ev.MPrime > p.M {
		ev.MachFail = true
		ev.Reason = "m < m' (obligatory machines exceed m)"
		return ev
	}

	// Star classes and their obligatory-outside loads.
	den := ev.RefDen
	tn := ev.RefNum
	for _, i := range ev.ChpMinus {
		s := p.Setups[i]
		// above is monotone in its argument, so the big jobs of the class
		// (s + t_j > T/2) are a suffix of the sorted layout: one binary
		// search replaces the per-job walk, and the suffix work is a
		// prefix-sum difference.  The maximum-job check skips classes with
		// no big jobs outright.
		if !q.above(2 * (s + p.TMaxC[i])) {
			continue
		}
		jobs := p.Sorted[i]
		lo, up := 0, len(jobs)
		for lo < up {
			mid := int(uint(lo+up) >> 1)
			if q.above(2 * (s + jobs[mid])) {
				up = mid
			} else {
				lo = mid + 1
			}
		}
		if cnt := int64(len(jobs) - lo); cnt > 0 {
			ev.Star = append(ev.Star, i)
			ev.BigCnt = append(ev.BigCnt, cnt)
			ev.BigWork = append(ev.BigWork, p.P[i]-p.Pref[i][lo])
		}
	}

	// A = load of classes that must live entirely in the nice part.
	var a int64
	for k, i := range ev.ExpPlus {
		a += ev.Gamma[k]*p.In.Classes[i].Setup + p.P[i]
	}
	for _, i := range ev.ExpMinus {
		a += p.In.Classes[i].Setup + p.P[i]
	}
	for _, i := range ev.ChpPlus {
		a += p.In.Classes[i].Setup + p.P[i]
	}
	var bStar int64
	for _, i := range ev.Star {
		bStar += p.In.Classes[i].Setup + p.P[i]
	}
	// Case A iff F = (m-l)T - A < bStar.
	ev.CaseA = cmpProd(p.M-l, tn, a+bStar, den) < 0

	if ev.CaseA && l == 0 {
		// For T >= OPT, m*T >= total load implies F >= bStar when l = 0,
		// so this rejection is sound (see DESIGN.md).
		ev.Reason = "free time below obligatory star load with no large machines"
		return ev
	}

	if ev.CaseA {
		// Obligatory loads in 1/(2*den) units:
		// L*_i = 2*work*den - cnt*(tn - 2*s*den) >= 0,
		// w_i  = 2*(P_i - work)*den + cnt*(tn - 2*s*den) >= 1.
		items := make([]knap.Item, len(ev.Star))
		var lStarU num128.Acc
		var sumW int64
		for k, i := range ev.Star {
			s := p.In.Classes[i].Setup
			halfGap := tn - 2*s*den // (T - 2s)*den > 0
			lu := 2*ev.BigWork[k]*den - ev.BigCnt[k]*halfGap
			wu := 2*(p.P[i]-ev.BigWork[k])*den + ev.BigCnt[k]*halfGap
			if lu < 0 || wu < 1 {
				ev.Reason = "internal: malformed star load"
				return ev
			}
			lStarU.AddInt(lu)
			lStarU.AddInt(2 * s * den)
			items[k] = knap.Item{Profit: s, Weight: wu}
			sumW += wu
		}
		// Capacity Y = F - L* in units, clamped to [reject-if-negative, sumW].
		var lhs, rhs num128.Acc
		lhs.AddProd(2*(p.M-l), tn)
		rhs.AddProd(2*a, den)
		rhs.AddAcc(&lStarU)
		capU := int64(0)
		switch lhs.Cmp(&rhs) {
		case -1:
			ev.Reason = "negative knapsack capacity (obligatory load exceeds free time)"
			return ev
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
		sol, err := knap.SolveContinuous(items, capU)
		if err != nil {
			ev.Reason = "internal: knapsack failure: " + err.Error()
			return ev
		}
		ev.Sel = sol.Selected
		ev.SplitPos = sol.Split
		ev.SplitU = sol.SplitFill
		for k, i := range ev.Star {
			if !sol.Selected[k] && k != sol.Split {
				ev.UnselSetup += p.In.Classes[i].Setup
			}
		}
	} else {
		// Case B: split ChpMinus\Star greedily (largest setups first into
		// the nice part, so the boundary class has a small setup) such
		// that the nice part receives exactly F - bStar.
		rest := make([]int, 0, len(ev.ChpMinus))
		star := make(map[int]bool, len(ev.Star))
		for _, i := range ev.Star {
			star[i] = true
		}
		for _, i := range ev.ChpMinus {
			if !star[i] {
				rest = append(rest, i)
			}
		}
		sortBySetupDesc(p, rest)
		var cum int64
		k := 0
		for ; k < len(rest); k++ {
			i := rest[k]
			next := cum + p.In.Classes[i].Setup + p.P[i]
			// Fits entirely iff A + bStar + next <= (m-l)T.
			if cmpProd(p.M-l, tn, a+bStar+next, den) < 0 {
				break
			}
			ev.NiceRest = append(ev.NiceRest, i)
			cum = next
		}
		if k < len(rest) {
			e := rest[k]
			// nice-side job time of e in units:
			// 2((m-l)tn - (a+bStar+cum+s_e)*den), clamped to [0, 2 P_e den].
			var lhs, rhs num128.Acc
			lhs.AddProd(2*(p.M-l), tn)
			rhs.AddProd(2*(a+bStar+cum+p.In.Classes[e].Setup), den)
			if lhs.Cmp(&rhs) > 0 {
				diff, fits := lhs.Minus(&rhs)
				if fits && diff > 0 && diff < 2*p.P[e]*den {
					ev.BSplit = e
					ev.BSplitU = diff
				} else if fits && diff >= 2*p.P[e]*den {
					ev.NiceRest = append(ev.NiceRest, e)
					k++
				}
			}
			for k2 := k; k2 < len(rest); k2++ {
				if rest[k2] != ev.BSplit {
					ev.KRest = append(ev.KRest, rest[k2])
				}
			}
		}
	}

	// L_pmtn and the capacity test.
	ev.L = p.PJ + ev.UnselSetup + p.SumS
	for k, i := range ev.ExpPlus {
		// ExpPlus classes pay gamma_i setups instead of one.
		ev.L += (ev.Gamma[k] - 1) * p.In.Classes[i].Setup
	}
	if cmpProd(p.M, ref.Num(), ev.L, ref.Den()) < 0 {
		ev.Reason = "m*T < L_pmtn (load exceeds capacity)"
		return ev
	}
	ev.OK = true
	return ev
}

func sortBySetupDesc(p *Prep, xs []int) {
	slices.SortFunc(xs, func(a, b int) int {
		sa, sb := p.In.Classes[a].Setup, p.In.Classes[b].Setup
		if sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(a, b)
	})
}

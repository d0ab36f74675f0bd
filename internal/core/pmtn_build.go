package core

import (
	"cmp"
	"slices"

	"setupsched/internal/num128"
	"setupsched/internal/wrap"
	"setupsched/sched"
)

// kItem is one job piece destined for the bottom of the large machines.
type kItem struct {
	class  int
	job    int
	length sched.Rat
}

// BuildPmtn constructs a feasible preemptive schedule with makespan at most
// 3/2*T from an accepting point evaluation (Theorem 5(ii), Algorithm 3).
//
// The I0exp classes occupy one large machine each, placed at [T/2, T/2+s+P).
// The knapsack/greedy decision of the evaluation splits the I-chp load into
// a part that joins the nice instance on the other m-l machines and the
// set K placed at the bottoms [0, T/2) of the large machines.  Job pieces
// in K run strictly below T/2 while their sibling pieces in the nice part
// run at or above T/2, so no job ever runs in parallel with itself.
func (p *Prep) BuildPmtn(ev *PmtnEval) (*sched.Schedule, error) {
	return p.BuildPmtnScratch(ev, nil)
}

// BuildPmtnScratch is BuildPmtn drawing its working memory from sc; a nil
// sc allocates fresh memory (identical output either way).
func (p *Prep) BuildPmtnScratch(ev *PmtnEval, sc *RunScratch) (*sched.Schedule, error) {
	if !ev.OK {
		return nil, errInternal("BuildPmtn on rejected evaluation (%s)", ev.Reason)
	}
	T := ev.T
	if ev.RefNum != T.Num() || ev.RefDen != T.Den() {
		return nil, errInternal("BuildPmtn on interval-mode evaluation")
	}
	tn, td := T.Num(), T.Den()
	uDen := 2 * td
	uRat := func(u int64) sched.Rat { return sched.RatOf(u, uDen) }
	halfT := T.Half()
	quarterT := T.Quarter()
	b := runsFor(p, sc)

	// Step 1: large machines, one I0exp class each, starting at T/2.
	for _, i := range ev.ExpZero {
		cls := &p.In.Classes[i] // expensive, so cls.Setup > T/2 > 0
		b.begin()
		b.placeAt(sched.SlotSetup, i, -1, halfT, sched.R(cls.Setup))
		for j, t := range cls.Jobs {
			b.place(sched.SlotJob, i, j, sched.R(t))
		}
		b.large = append(b.large, b.end(1))
	}
	l := int64(len(b.large))

	// Step 2: distribute the I-chp load between the nice instance's cheap
	// wrap sequence (b.seq) and K (b.kItems).
	for _, i := range ev.ChpPlus {
		b.fullBatch(p, i)
	}
	if len(b.inStar) < p.C {
		b.inStar = make([]bool, p.C)
	} else {
		clear(b.inStar)
	}
	for _, i := range ev.Star {
		b.inStar[i] = true
	}
	splitClass := -1
	if ev.CaseA {
		splitClass = splitClassOf(ev)
		for k, i := range ev.Star {
			cls := &p.In.Classes[i]
			switch {
			case ev.Sel[k]:
				b.fullBatch(p, i)
			case k == ev.SplitPos:
				if err := b.splitStarClass(p, ev, i); err != nil {
					return nil, err
				}
			default:
				// Unselected: obligatory pieces j(2) to the nice part,
				// j(1) pieces and small jobs to K.
				for j, t := range cls.Jobs {
					if isBigFor(cls.Setup, t, tn, td) {
						b.nicePiece(p, i, j, uRat(2*(cls.Setup+t)*td-tn))
						b.kItems = append(b.kItems, kItem{i, j, uRat(tn - 2*cls.Setup*td)})
					} else {
						b.kItems = append(b.kItems, kItem{i, j, sched.R(t)})
					}
				}
			}
		}
		for _, i := range ev.ChpMinus {
			if !b.inStar[i] {
				b.wholeK(p, i)
			}
		}
	} else {
		for _, i := range ev.Star {
			b.fullBatch(p, i)
		}
		var err error
		if splitClass, err = b.caseBGreedy(p, ev, l); err != nil {
			return nil, err
		}
	}

	// Step 3: the nice instance on the residual m-l machines.
	if err := p.buildNice(b, T, p.M-l, ev.ExpPlus, ev.Gamma, ev.ExpMinus); err != nil {
		return nil, err
	}

	// Step 4: place K at the bottoms of the large machines.
	if len(b.kItems) > 0 {
		if err := p.placeK(b, splitClass, halfT, quarterT); err != nil {
			return nil, err
		}
	}
	return b.emit(&sched.Schedule{Variant: sched.Preemptive, T: T}), nil
}

// splitClassOf returns the class index of the case-A split item, or -1.
func splitClassOf(ev *PmtnEval) int {
	if ev.SplitPos >= 0 {
		return ev.Star[ev.SplitPos]
	}
	return -1
}

// caseBGreedy splits the I-chp classes outside I*chp between the nice
// part and K (case B): largest setups first, whole classes join the nice
// part while A + B* plus their load fits (m-l)T, so the boundary class,
// which is split, has a small setup, and the nice part receives exactly
// F - B*.  The rest go to K whole.  It returns the split class, or -1.
// The dual test never reads this split (case B adds no load to L_pmtn),
// so it is part of the construction rather than of every probe.
func (b *RunScratch) caseBGreedy(p *Prep, ev *PmtnEval, l int64) (int, error) {
	tn, td := ev.RefNum, ev.RefDen
	b.rest = b.rest[:0]
	for _, i := range ev.ChpMinus {
		if !b.inStar[i] {
			b.rest = append(b.rest, i)
		}
	}
	sortBySetupDesc(p, b.rest)
	cum := ev.NiceLoad
	k := 0
	for ; k < len(b.rest); k++ {
		i := b.rest[k]
		next := cum + p.In.Classes[i].Setup + p.P[i]
		// Fits entirely iff A + B* + next <= (m-l)T.
		if cmpProd(p.M-l, tn, next, td) < 0 {
			break
		}
		b.fullBatch(p, i)
		cum = next
	}
	split := -1
	if k < len(b.rest) {
		e := b.rest[k]
		cls := &p.In.Classes[e]
		// Nice-side job time of e in units of 1/(2 td):
		// 2((m-l)tn - (cum+s_e)td).  It is below 2 P_e td because e does
		// not fit whole; when it is not positive, e goes to K whole.
		var lhs, rhs num128.Acc
		lhs.AddProd(2*(p.M-l), tn)
		rhs.AddProd(2*(cum+cls.Setup), td)
		if budget, fits := lhs.Minus(&rhs); fits && budget > 0 {
			split = e
			for j, t := range cls.Jobs {
				maxU := 2 * t * td
				take := min(maxU, budget)
				budget -= take
				if take > 0 {
					b.nicePiece(p, e, j, sched.RatOf(take, 2*td))
				}
				if take < maxU {
					b.kItems = append(b.kItems, kItem{e, j, sched.RatOf(maxU-take, 2*td)})
				}
			}
			if budget != 0 {
				return -1, errInternal("case-B split budget not exhausted (%d units left)", budget)
			}
			k++
		}
		for _, i := range b.rest[k:] {
			b.wholeK(p, i)
		}
	}
	return split, nil
}

// sortBySetupDesc orders classes by descending setup, ties by index.
func sortBySetupDesc(p *Prep, xs []int) {
	slices.SortFunc(xs, func(a, b int) int {
		sa, sb := p.In.Classes[a].Setup, p.In.Classes[b].Setup
		if sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(a, b)
	})
}

// isBigFor reports s + t > T/2, i.e. 2(s+t) > T.
func isBigFor(s, t, tn, td int64) bool {
	return cmpProd(2*(s+t), td, tn, 1) > 0
}

// nicePiece appends a piece of a job to the nice instance's cheap wrap
// sequence.  Each class's pieces arrive together, and the class setup
// opens its batch at the first one, so a class without nice pieces adds
// no setup.
func (b *RunScratch) nicePiece(p *Prep, class, job int, length sched.Rat) {
	if class != b.niceClass {
		b.niceClass = class
		b.seq.AddSetup(class, p.In.Classes[class].Setup)
	}
	b.seq.AddJob(class, job, length)
}

// fullBatch adds the whole class as a cheap batch.
func (b *RunScratch) fullBatch(p *Prep, class int) {
	for j, t := range p.In.Classes[class].Jobs {
		b.nicePiece(p, class, j, sched.R(t))
	}
}

// wholeK adds every job of the class as a K item.
func (b *RunScratch) wholeK(p *Prep, class int) {
	for j, t := range p.In.Classes[class].Jobs {
		b.kItems = append(b.kItems, kItem{class, j, sched.R(t)})
	}
}

// splitStarClass distributes the split class's jobs between the nice part
// and K so that the nice part receives exactly L*_e + x_e*w_e and every K
// piece j[1] keeps s_e + t <= T/2 (paper equation (6) and Note 3; we use a
// per-job greedy that preserves the same invariants with small-denominator
// rationals, see ALGORITHMS.md, "Dual tests and constructions").
func (b *RunScratch) splitStarClass(p *Prep, ev *PmtnEval, class int) error {
	cls := &p.In.Classes[class]
	tn, td := ev.RefNum, ev.RefDen
	uDen := 2 * td
	surplus := ev.SplitU
	for j, t := range cls.Jobs {
		var minU int64
		if isBigFor(cls.Setup, t, tn, td) {
			minU = 2*(cls.Setup+t)*td - tn // t(2)_j units
		}
		maxU := 2 * t * td
		raise := maxU - minU
		if raise > surplus {
			raise = surplus
		}
		surplus -= raise
		t2 := minU + raise
		if t2 > 0 {
			b.nicePiece(p, class, j, sched.RatOf(t2, uDen))
		}
		if t2 < maxU {
			b.kItems = append(b.kItems, kItem{class, j, sched.RatOf(maxU-t2, uDen)})
		}
	}
	if surplus != 0 {
		return errInternal("split-class surplus %d units not distributed", surplus)
	}
	return nil
}

// placeK places the K pieces at the bottoms [0, T/2) of the large
// machines: pieces longer than T/4 (K+) each get a dedicated bottom with
// their own setup; the rest (K-) is wrapped into a first full gap
// [0, T/2) and gaps [T/4, T/2) on the remaining large machines, ordered by
// class with the split class first.
func (p *Prep) placeK(b *RunScratch, splitClass int, halfT, quarterT sched.Rat) error {
	b.kPlus, b.kMinus = b.kPlus[:0], b.kMinus[:0]
	for _, it := range b.kItems {
		if it.length.Cmp(quarterT) > 0 {
			b.kPlus = append(b.kPlus, it)
		} else {
			b.kMinus = append(b.kMinus, it)
		}
	}
	if len(b.kPlus) > len(b.large) {
		return errInternal("K+ needs %d large machines, have %d", len(b.kPlus), len(b.large))
	}
	for k, it := range b.kPlus {
		s := p.In.Classes[it.class].Setup
		if sched.R(s).Add(it.length).Cmp(halfT) > 0 {
			return errInternal("K+ piece of class %d exceeds T/2", it.class)
		}
		b.begin()
		if s > 0 {
			b.place(sched.SlotSetup, it.class, -1, sched.R(s))
		}
		b.place(sched.SlotJob, it.class, it.job, it.length)
		b.runs[b.large[k]].pre = b.span()
	}
	if len(b.kMinus) == 0 {
		return nil
	}
	lPrime := len(b.kPlus)
	if lPrime >= len(b.large) {
		return errInternal("no large machines left for K- wrap")
	}
	// Group by class, split class first, then ascending class index.
	slices.SortStableFunc(b.kMinus, func(x, y kItem) int {
		if (x.class == splitClass) != (y.class == splitClass) {
			if x.class == splitClass {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.class, y.class)
	})
	b.seq.Reset()
	last := -1
	for _, it := range b.kMinus {
		if it.class != last {
			b.seq.AddSetup(it.class, p.In.Classes[it.class].Setup)
			last = it.class
		}
		b.seq.AddJob(it.class, it.job, it.length)
	}
	b.gaps = append(b.gaps[:0], wrap.Gap{Machine: int64(lPrime), A: sched.Rat{}, B: halfT})
	for g := lPrime + 1; g < len(b.large); g++ {
		b.gaps = append(b.gaps, wrap.Gap{Machine: int64(g), A: quarterT, B: halfT})
	}
	if err := b.wrapSeq(p, wrap.TailRun{}); err != nil {
		return errInternal("K- wrap failed: %v", err)
	}
	for g, sp := range b.placed.Machines {
		if sp.Len() > 0 {
			b.runs[b.large[lPrime+g]].pre = sp
		}
	}
	return nil
}

// buildNice schedules a nice instance (empty I0exp) on `budget` fresh
// machines (Theorem 4(ii), Algorithm 2 with the Section 4.4 step 1),
// wrapping the cheap wrap sequence b.seq:
//
//	step 1: each I+exp class i fills gamma_i machines, the first
//	        gamma_i - 1 to exactly s_i + T/2 (> T) and the last to at
//	        most 3/2 T;
//	step 2: I-exp classes are paired two per machine (load in (T, 3/2T]);
//	        an odd last class sits alone on machine mu;
//	step 3: the cheap load is wrapped into the gap [T, 3/2T) of mu and
//	        gaps [T/2, 3/2T) on the remaining machines.
func (p *Prep) buildNice(b *RunScratch, T sched.Rat, budget int64, expPlus []int, gamma []int64, expMinus []int) error {
	halfT := T.Half()
	top := T.MulInt(3).DivInt(2)
	used := int64(0)

	// Step 1.
	for k, i := range expPlus {
		cls := &p.In.Classes[i]
		g := gamma[k]
		jobIdx, jobLeft := 0, sched.R(cls.Jobs[0])
		for u := int64(0); u < g; u++ {
			b.begin()
			if cls.Setup > 0 {
				b.place(sched.SlotSetup, i, -1, sched.R(cls.Setup))
			}
			cap := halfT
			if u == g-1 {
				cap = sched.R(p.P[i]).Sub(halfT.MulInt(g - 1))
			}
			for cap.Sign() > 0 && jobIdx < len(cls.Jobs) {
				take := sched.MinRat(cap, jobLeft)
				b.place(sched.SlotJob, i, jobIdx, take)
				cap = cap.Sub(take)
				jobLeft = jobLeft.Sub(take)
				if jobLeft.IsZero() {
					jobIdx++
					if jobIdx < len(cls.Jobs) {
						jobLeft = sched.R(cls.Jobs[jobIdx])
					}
				}
			}
			if b.top.Cmp(top) > 0 {
				return errInternal("nice step 1 machine exceeds 3/2T (class %d)", i)
			}
			b.end(1)
			used++
		}
		if jobIdx < len(cls.Jobs) {
			return errInternal("nice step 1 left work of class %d", i)
		}
	}

	// Step 2.
	muIdx := -1
	for k := 0; k < len(expMinus); k += 2 {
		b.begin()
		for _, i := range []int{expMinus[k], pairOrNeg(expMinus, k+1)} {
			if i < 0 {
				continue
			}
			cls := &p.In.Classes[i]
			if cls.Setup > 0 {
				b.place(sched.SlotSetup, i, -1, sched.R(cls.Setup))
			}
			for j, t := range cls.Jobs {
				b.place(sched.SlotJob, i, j, sched.R(t))
			}
		}
		ri := b.end(1)
		if k+1 >= len(expMinus) {
			muIdx = ri
		}
		used++
	}

	// Step 3.
	if b.seq.Len() > 0 {
		b.gaps = b.gaps[:0]
		if muIdx >= 0 {
			b.gaps = append(b.gaps, wrap.Gap{Machine: int64(muIdx), A: T, B: top})
		}
		tail := wrap.TailRun{Count: budget - used, A: halfT, B: top}
		if tail.Count < 0 {
			return errInternal("nice instance machine budget exceeded (%d used of %d)", used, budget)
		}
		if err := b.wrapSeq(p, tail); err != nil {
			return errInternal("nice cheap wrap failed: %v", err)
		}
		if muIdx >= 0 && len(b.placed.Machines) > 0 {
			b.runs[muIdx].post = b.placed.Machines[0]
		}
		b.addTail()
	}
	return nil
}

func pairOrNeg(xs []int, k int) int {
	if k < len(xs) {
		return xs[k]
	}
	return -1
}

package core

import (
	"cmp"
	"slices"

	"setupsched/internal/num128"
	"setupsched/internal/wrap"
	"setupsched/sched"
)

// kItem is one job piece destined for the bottom of the large machines;
// its length is in grid offsets.
type kItem struct {
	class  int
	job    int
	length int64
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
	s, _, err := p.BuildPmtnScratch(ev, nil)
	return s, err
}

// BuildPmtnScratch is BuildPmtn drawing its working memory from sc; a nil
// sc allocates fresh memory (identical output either way).  It also
// returns the schedule's makespan, the latest slot end it placed.
func (p *Prep) BuildPmtnScratch(ev *PmtnEval, sc *RunScratch) (*sched.Schedule, sched.Rat, error) {
	if !ev.OK {
		return nil, sched.Rat{}, errInternal("BuildPmtn on rejected evaluation (%s)", ev.Reason)
	}
	T := ev.T
	if ev.RefNum != T.Num() || ev.RefDen != T.Den() {
		return nil, sched.Rat{}, errInternal("BuildPmtn on interval-mode evaluation")
	}
	// The grid 1/(4 td) puts T/4 at tn, T/2 at 2 tn, T at 4 tn and 3/2 T
	// at 6 tn; buildNice checks that 6 tn fits.
	tn, td := T.Num(), T.Den()
	b := runsFor(p, sc, wrap.Mul(4, td))
	half := wrap.Mul(2, tn)

	// Step 1: large machines, one I0exp class each, starting at T/2.
	halfT := T.Half()
	for _, i := range ev.ExpZero {
		cls := &p.In.Classes[i] // expensive, so cls.Setup > T/2 > 0
		b.beginAt(half, halfT)
		b.place(sched.SlotSetup, i, -1, b.units(cls.Setup))
		for j, t := range cls.Jobs {
			b.place(sched.SlotJob, i, j, b.units(t))
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
					return nil, sched.Rat{}, err
				}
			default:
				// Unselected: obligatory pieces j(2) to the nice part,
				// j(1) pieces and small jobs to K.
				for j, t := range cls.Jobs {
					if isBigFor(cls.Setup, t, tn, td) {
						b.nicePiece(p, i, j, b.units(cls.Setup+t)-half)
						b.kItems = append(b.kItems, kItem{i, j, half - b.units(cls.Setup)})
					} else {
						b.kItems = append(b.kItems, kItem{i, j, b.units(t)})
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
			return nil, sched.Rat{}, err
		}
	}

	// Step 3: the nice instance on the residual m-l machines.
	if err := p.buildNice(b, tn, p.M-l, ev.ExpPlus, ev.Gamma, ev.ExpMinus); err != nil {
		return nil, sched.Rat{}, err
	}

	// Step 4: place K at the bottoms of the large machines.
	if len(b.kItems) > 0 {
		if err := p.placeK(b, splitClass, tn); err != nil {
			return nil, sched.Rat{}, err
		}
	}
	s, mk := b.emit(&sched.Schedule{Variant: sched.Preemptive, T: T})
	return s, mk, nil
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
		// Nice-side job time of e in grid offsets:
		// 4((m-l)tn - (cum+s_e)td).  It is below 4 P_e td because e does
		// not fit whole; when it is not positive, e goes to K whole.
		var lhs, rhs num128.Acc
		lhs.AddProd(4*(p.M-l), tn)
		rhs.AddProd(4*(cum+cls.Setup), td)
		if budget, fits := lhs.Minus(&rhs); fits && budget > 0 {
			split = e
			for j, t := range cls.Jobs {
				maxU := b.units(t)
				take := min(maxU, budget)
				budget -= take
				if take > 0 {
					b.nicePiece(p, e, j, take)
				}
				if take < maxU {
					b.kItems = append(b.kItems, kItem{e, j, maxU - take})
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

// nicePiece appends a piece of a job, length offsets long, to the nice
// instance's cheap wrap sequence.  Each class's pieces arrive together,
// and the class setup opens its batch at the first one, so a class
// without nice pieces adds no setup.
func (b *RunScratch) nicePiece(p *Prep, class, job int, length int64) {
	if class != b.niceClass {
		b.niceClass = class
		b.seq.AddSetup(class, b.units(p.In.Classes[class].Setup))
	}
	b.seq.AddJob(class, job, length)
}

// fullBatch adds the whole class as a cheap batch.
func (b *RunScratch) fullBatch(p *Prep, class int) {
	for j, t := range p.In.Classes[class].Jobs {
		b.nicePiece(p, class, j, b.units(t))
	}
}

// wholeK adds every job of the class as a K item.
func (b *RunScratch) wholeK(p *Prep, class int) {
	for j, t := range p.In.Classes[class].Jobs {
		b.kItems = append(b.kItems, kItem{class, j, b.units(t)})
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
	half := 2 * tn                    // T/2 in grid offsets; BuildPmtn checked it
	surplus := wrap.Mul(2, ev.SplitU) // units of 1/(2 td) to grid offsets
	for j, t := range cls.Jobs {
		var minU int64
		if isBigFor(cls.Setup, t, tn, td) {
			minU = b.units(cls.Setup+t) - half // t(2)_j
		}
		maxU := b.units(t)
		raise := maxU - minU
		if raise > surplus {
			raise = surplus
		}
		surplus -= raise
		t2 := minU + raise
		if t2 > 0 {
			b.nicePiece(p, class, j, t2)
		}
		if t2 < maxU {
			b.kItems = append(b.kItems, kItem{class, j, maxU - t2})
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
// class with the split class first.  T/4 is tn on the grid 1/(4 td).
func (p *Prep) placeK(b *RunScratch, splitClass int, tn int64) error {
	quarter, half := tn, 2*tn
	b.kPlus, b.kMinus = b.kPlus[:0], b.kMinus[:0]
	for _, it := range b.kItems {
		if it.length > quarter {
			b.kPlus = append(b.kPlus, it)
		} else {
			b.kMinus = append(b.kMinus, it)
		}
	}
	if len(b.kPlus) > len(b.large) {
		return errInternal("K+ needs %d large machines, have %d", len(b.kPlus), len(b.large))
	}
	for k, it := range b.kPlus {
		s := b.units(p.In.Classes[it.class].Setup)
		if wrap.Add(s, it.length) > half {
			return errInternal("K+ piece of class %d exceeds T/2", it.class)
		}
		b.begin()
		b.place(sched.SlotSetup, it.class, -1, s)
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
			b.seq.AddSetup(it.class, b.units(p.In.Classes[it.class].Setup))
			last = it.class
		}
		b.seq.AddJob(it.class, it.job, it.length)
	}
	b.gaps = append(b.gaps[:0], wrap.Gap{A: 0, B: half})
	for g := lPrime + 1; g < len(b.large); g++ {
		b.gaps = append(b.gaps, wrap.Gap{A: quarter, B: half})
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
func (p *Prep) buildNice(b *RunScratch, tn int64, budget int64, expPlus []int, gamma []int64, expMinus []int) error {
	// T/2, T and 3/2 T on the grid 1/(4 td).
	top := wrap.Mul(6, tn)
	half, whole := 2*tn, 4*tn
	used := int64(0)

	// Step 1.
	for k, i := range expPlus {
		cls := &p.In.Classes[i]
		g := gamma[k]
		jobIdx, jobLeft := 0, b.units(cls.Jobs[0])
		for u := int64(0); u < g; u++ {
			b.begin()
			b.place(sched.SlotSetup, i, -1, b.units(cls.Setup))
			cap := half
			if u == g-1 {
				cap = b.units(p.P[i]) - wrap.Mul(half, g-1)
			}
			for cap > 0 && jobIdx < len(cls.Jobs) {
				take := min(cap, jobLeft)
				b.place(sched.SlotJob, i, jobIdx, take)
				cap -= take
				jobLeft -= take
				if jobLeft == 0 {
					jobIdx++
					if jobIdx < len(cls.Jobs) {
						jobLeft = b.units(cls.Jobs[jobIdx])
					}
				}
			}
			if b.top > top {
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
			b.place(sched.SlotSetup, i, -1, b.units(cls.Setup))
			for j, t := range cls.Jobs {
				b.place(sched.SlotJob, i, j, b.units(t))
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
			b.gaps = append(b.gaps, wrap.Gap{A: whole, B: top})
		}
		tail := wrap.TailRun{Count: budget - used, A: half, B: top}
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

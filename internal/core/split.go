package core

import (
	"setupsched/internal/wrap"
	"setupsched/sched"
)

// SplitEval is the outcome of the splittable 3/2-dual test (Theorem 7).
//
// For a makespan guess T the classes split into expensive (s_i > T/2) and
// cheap (s_i <= T/2).  With beta_i = ceil(2 P_i / T), the test rejects T
// (certifying T < OPT) when m*T < L_split or m < m_exp where
//
//	L_split = P(J) + sum_{cheap} s_i + sum_{exp} beta_i s_i
//	m_exp   = sum_{exp} beta_i.
type SplitEval struct {
	T        sched.Rat
	OK       bool
	MachFail bool   // rejected because m < m_exp
	Reason   string // human-readable rejection reason

	Exp  []int   // expensive class indices
	Chp  []int   // cheap class indices
	Beta []int64 // parallel to Exp
	MExp int64
	L    int64 // L_split (valid only when machine test passed)
}

// EvalSplit runs the splittable dual test in O(c) given Prep and records
// its partition, machine counts and load.
//
// Interval mode: when hi is non-nil the evaluation describes every T in the
// open interval (T, hi) under the precondition that no partition breakpoint
// 2 s_i and no class jump 2 P_i / g lies strictly inside; the partition is
// then decided by comparisons against hi and beta_i via floor division.
func (p *Prep) EvalSplit(T sched.Rat, hi *sched.Rat) *SplitEval {
	ev := &SplitEval{T: T}
	ev.OK = p.evalSplit(newDualThresholds(T, hi), ev)
	return ev
}

// splitOK decides the splittable dual test at the point T without
// recording the evaluation: the searches' probe path, which allocates
// nothing.
func (p *Prep) splitOK(T sched.Rat) bool {
	return p.evalSplit(newDualThresholds(T, nil), nil)
}

// evalSplit is the one decision core behind EvalSplit and splitOK: a
// single O(c) scan with an int64 partition compare per class.  A non-nil
// ev receives the partition, the beta_i and the load.
func (p *Prep) evalSplit(th dualThresholds, ev *SplitEval) bool {
	// Guard: OPT > s_max, so any T < s_max is rejected (T = s_max itself
	// is constructible when the load and machine tests pass, and rejecting
	// it would break the closing step's certified-rejection chain).
	if th.point && p.SMax >= th.above {
		return ev.reject(false, "T < s_max < OPT")
	}
	// L_split = P(J) + sum_{cheap} s_i + sum_{exp} beta_i s_i
	//         = N + sum_{exp} (beta_i - 1) s_i.
	// Once m_exp <= m it fits in int64: beta_i*s_i <= 2 P_i + s_i (since
	// s_i <= T), so L <= 3 N, and also sum beta_i s_i <= m*s_max <=
	// MaxMachineLoadProduct.
	var mexp, extra int64
	for i, s := range p.Setups {
		if 2*s < th.above { // cheap: s_i <= T/2
			if ev != nil {
				ev.Chp = append(ev.Chp, i)
			}
			continue
		}
		b := th.jumps(2 * p.P[i]) // beta_i = ceil(2 P_i / T)
		mexp += b
		if ev != nil {
			ev.Exp = append(ev.Exp, i)
			ev.Beta = append(ev.Beta, b)
			ev.MExp = mexp
		}
		if mexp > p.M {
			return ev.reject(true, "m < m_exp (expensive classes need too many machines)")
		}
		extra += (b - 1) * s
	}
	L := p.N + extra
	if ev != nil {
		ev.L = L
	}
	// In interval mode the test is reported at the supremum hi for
	// bracket narrowing; the closing step handles the threshold L/m.
	if cmpProd(p.M, th.ref.Num(), L, th.ref.Den()) < 0 {
		return ev.reject(false, "m*T < L_split (load exceeds capacity)")
	}
	return true
}

// reject records a rejection on a non-nil evaluation and returns false.
func (ev *SplitEval) reject(machFail bool, reason string) bool {
	if ev != nil {
		ev.MachFail = machFail
		ev.Reason = reason
	}
	return false
}

// BuildSplit constructs a feasible splittable schedule with makespan at
// most 3/2*T from an accepting evaluation (Theorem 7(ii)).
//
// Step 1 packs each expensive class i onto beta_i dedicated machines, each
// holding the setup plus at most T/2 of job load; at most one last machine
// per class stays below load T.  Step 2 wraps all cheap classes into the
// residual time of those last machines (above a reserved T/2 window for one
// cheap setup) and into gaps [T/2, 3/2T) on the m - m_exp unused machines,
// emitting compressed machine runs for the unused-machine region.
func (p *Prep) BuildSplit(ev *SplitEval) (*sched.Schedule, error) {
	s, _, err := p.BuildSplitScratch(ev, nil)
	return s, err
}

// BuildSplitScratch is BuildSplit drawing its working memory from sc; a
// nil sc allocates fresh memory (identical output either way).  It also
// returns the schedule's makespan, the latest slot end it placed.
func (p *Prep) BuildSplitScratch(ev *SplitEval, sc *RunScratch) (*sched.Schedule, sched.Rat, error) {
	if !ev.OK {
		return nil, sched.Rat{}, errInternal("BuildSplit on rejected evaluation (%s)", ev.Reason)
	}
	T := ev.T
	// The grid 1/(2 td) puts T/2 at tn, T at 2 tn and 3/2 T at 3 tn.
	tn, td := T.Num(), T.Den()
	b := runsFor(p, sc, wrap.Mul(2, td))
	half, top := tn, wrap.Mul(3, tn)

	// Step 1: expensive classes.  The last machine of a class that stays
	// below T gets a cheap gap; b.owners records its run.
	for k, i := range ev.Exp {
		cls := &p.In.Classes[i]
		beta := ev.Beta[k]
		setup := b.units(cls.Setup)
		jobIdx, jobLeft := 0, b.units(cls.Jobs[0])
		for u := int64(0); u < beta; u++ {
			// Machine-configuration compression (proof of Theorem 7): a
			// job spanning many full machines emits one run of identical
			// [setup, T/2-piece] machines instead of one row per machine.
			if u < beta-1 && jobLeft >= half {
				if full := min(jobLeft/half, beta-1-u); full >= 2 {
					b.begin()
					b.place(sched.SlotSetup, i, -1, setup)
					b.place(sched.SlotJob, i, jobIdx, half)
					b.end(full)
					jobLeft -= half * full
					if jobLeft == 0 && jobIdx+1 < len(cls.Jobs) {
						jobIdx++
						jobLeft = b.units(cls.Jobs[jobIdx])
					}
					u += full - 1
					continue
				}
			}
			b.begin()
			b.place(sched.SlotSetup, i, -1, setup)
			cap := half
			if u == beta-1 {
				// Last machine takes the remainder r in (0, T/2].
				cap = b.units(p.P[i]) - wrap.Mul(half, beta-1)
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
			ri := b.end(1)
			if u == beta-1 && b.top < 2*tn {
				// Reserve [L, L+T/2) for one cheap setup, fill above.
				b.gaps = append(b.gaps, wrap.Gap{A: b.top + half, B: top})
				b.owners = append(b.owners, ri)
			}
		}
		if jobLeft > 0 || jobIdx < len(cls.Jobs)-1 {
			return nil, sched.Rat{}, errInternal("splittable step 1 left work of class %d unplaced", i)
		}
	}

	// Step 2: cheap classes into the gaps plus unused machines.
	if len(ev.Chp) > 0 {
		for _, i := range ev.Chp {
			b.seq.AddBatch(i, p.In.Classes[i].Setup, p.In.Classes[i].Jobs, b.den)
		}
		tail := wrap.TailRun{Count: p.M - ev.MExp, A: half, B: top}
		if err := b.wrapSeq(p, tail); err != nil {
			return nil, sched.Rat{}, errInternal("splittable cheap wrap failed: %v", err)
		}
		for g, sp := range b.placed.Machines {
			b.runs[b.owners[g]].post = sp
		}
		b.addTail()
	}
	s, mk := b.emit(&sched.Schedule{Variant: sched.Splittable, T: T})
	return s, mk, nil
}

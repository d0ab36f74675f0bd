package core

import (
	"setupsched/sched"
)

// SolvePmtnJump is the 3/2-approximation for the preemptive case in
// O(n log n) via Class Jumping (Theorem 6, Algorithm 4).
//
// Compared with the splittable search, the breakpoint set is richer: the
// partition of classes changes at 2 s_i, s_i + P_i, 4(s_i+P_i)/3 and
// 4 s_i, and the membership of individual jobs in the big-job sets C*_i
// changes at 2(s_i + t_j), giving O(n) breakpoints in total.  Every one of
// them is a third of an integer, so the search collects them as exact
// int64 keys 3T (see pmtnBreakpoints), keeps the k keys strictly inside
// the bracket it has when narrowing starts and radix-sorts only those:
// the breakpoint list costs O(n + k), a warm-started re-solve, whose
// seeded bracket holds a handful of breakpoints, skips the sort almost
// entirely, and only a key the search probes becomes a Rat.  The jumps of
// the I+exp classes follow the family T = 2(s_i+P_i)/(g+2) of the modified
// step 1 (Section 4.4), for which Lemma 5 bounds the jumps inside the
// final interval by one per class.
//
// The one quantity the paper leaves underspecified is the knapsack
// selection's dependence on T between breakpoints (profits are constant
// but weights and capacity vary continuously).  The closing step therefore
// re-verifies its candidate T_new = L/m with a full point evaluation; if
// the selection shifted, the search subdivides at T_new and retries,
// falling back to a sound conservative answer after a bounded number of
// rounds (see ALGORITHMS.md, "Knapsack constancy").
func (p *Prep) SolvePmtnJump(ctl Ctl) (*Result, error) {
	defer p.release(ctl.borrow())
	if err := ctl.interrupted(); err != nil {
		return nil, err
	}
	if p.M >= int64(p.NJob) {
		s, mk := p.oneJobPerMachine(sched.Preemptive, &ctl.Scratch.Run)
		return &Result{Schedule: s, Makespan: mk, T: s.T, LowerBound: s.T, Algorithm: "pmtn/jump"}, nil
	}
	test := p.pmtnOK
	build := func(T sched.Rat) (*sched.Schedule, sched.Rat, error) {
		return p.BuildPmtnScratch(p.EvalPmtn(T, nil), &ctl.Scratch.Run)
	}
	tmin := p.TMin(sched.Preemptive)
	br := &bracket{lo: tmin, hi: sched.R(p.N), ctl: ctl}
	if br.probe(test, tmin) {
		if err := br.checkpoint(); err != nil {
			return nil, err
		}
		s, mk, err := build(tmin)
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: s, Makespan: mk, T: tmin, LowerBound: tmin, Algorithm: "pmtn/jump", Probes: br.probes}, nil
	}
	// Warm start: a confirmed seed hi makes the N probe redundant (N >= hi
	// is accepted by monotonicity).
	if !br.seedNarrow(test) {
		if !br.probe(test, sched.R(p.N)) {
			if br.err != nil {
				return nil, br.err
			}
			return nil, errInternal("preemptive dual rejected N")
		}
	}
	if br.err != nil {
		return nil, br.err
	}

	// Breakpoints of the partition and of big-job membership.  The
	// bracket only shrinks from here on, so the ones outside it now can
	// never be probed by a later round.
	bps := p.pmtnBreakpoints(br.lo, br.hi)

	for round := 0; round < 48 && br.err == nil; round++ {
		br.narrowOnKeys(test, bps, 3)

		// Jump search for the I+exp classes of the interval's partition.
		evInt := p.EvalPmtn(br.lo, &br.hi)
		if len(evInt.ExpPlus) > 0 {
			f := evInt.ExpPlus[0]
			for _, i := range evInt.ExpPlus {
				if p.In.Classes[i].Setup+p.P[i] > p.In.Classes[f].Setup+p.P[f] {
					f = i
				}
			}
			spf := p.In.Classes[f].Setup + p.P[f]
			jumpAt := func(k int64) sched.Rat { return sched.RatOf(2*spf, k) }
			kLo := sched.FloorDivInt(2*spf, br.hi) + 1
			if kLo < 3 {
				kLo = 3 // gamma is clamped at 1 below k = 3: no jumps there
			}
			kHi := sched.CeilDivInt(2*spf, br.lo) - 1
			br.narrowOnJumps(test, jumpAt, kLo, kHi)

			var cands []sched.Rat
			for _, i := range evInt.ExpPlus {
				if i == f {
					continue
				}
				sp := p.In.Classes[i].Setup + p.P[i]
				k0 := sched.FloorDivInt(2*sp, br.hi) + 1
				if k0 < 3 {
					k0 = 3
				}
				k1 := sched.CeilDivInt(2*sp, br.lo) - 1
				for k := k0; k <= k1 && k-k0 < 8; k++ {
					J := sched.RatOf(2*sp, k)
					if br.lo.Less(J) && J.Less(br.hi) {
						cands = append(cands, J)
					}
				}
			}
			br.narrowOnCandidates(test, sortRats(cands))
		}

		// Closing attempt.
		evInt = p.EvalPmtn(br.lo, &br.hi)
		data := intervalData{machinesOK: !evInt.MachFail, L: evInt.L}
		if !data.machinesOK {
			return p.closeJump(br, data, test, build, "pmtn/jump")
		}
		tNew := sched.RatOf(evInt.L, p.M)
		if !tNew.Less(br.hi) || !br.lo.Less(tNew) {
			return p.closeJump(br, data, test, build, "pmtn/jump")
		}
		// Verify the interval constancy at the candidate point; on a
		// mismatch, subdivide at the candidate and retry.
		if !br.begin(tNew) {
			return nil, br.err
		}
		evPoint := p.EvalPmtn(tNew, nil)
		br.end(tNew, evPoint.OK)
		if evPoint.OK && evPoint.L == evInt.L {
			s, mk, err := p.BuildPmtnScratch(evPoint, &ctl.Scratch.Run)
			if err != nil {
				return nil, err
			}
			return br.annotate(&Result{Schedule: s, Makespan: mk, T: tNew, LowerBound: tNew, Algorithm: "pmtn/jump", Probes: br.probes}, true), nil
		}
		if evPoint.OK {
			br.hi = tNew
		} else {
			br.lo = tNew
		}
	}
	if err := br.checkpoint(); err != nil {
		return nil, err
	}
	// Bounded rounds exhausted: sound conservative fallback.
	s, mk, err := build(br.hi)
	if err != nil {
		return nil, err
	}
	return br.annotate(&Result{Schedule: s, Makespan: mk, T: br.hi, LowerBound: br.lo, Algorithm: "pmtn/jump/fallback", Probes: br.probes, Fallback: true}, true), nil
}

// pmtnBreakpoints returns the keys of the preemptive partition and
// big-job membership breakpoints strictly inside (lo, hi), ascending and
// distinct.  Each breakpoint T is built as the integer key 3T (scale 3) —
// 6 s_i, 12 s_i, 3(s_i+P_i), 4(s_i+P_i) and 6(s_i+t_j) — and every key is
// at most 12 N <= 12 MaxTotalLoad < 2^57, so none overflows.  Key order
// and equality are exactly the order and equality of the Rats key/3, so
// the keys stand for the sorted, deduplicated Rat breakpoints restricted
// to (lo, hi), at the cost of a radix sort of the survivors only.
func (p *Prep) pmtnBreakpoints(lo, hi sched.Rat) []int64 {
	kLo, kHi := keyWindow(lo, hi, 3)
	keys := make([]int64, 0, p.NJob+4*p.C)
	add := func(k int64) {
		if kLo < k && k < kHi {
			keys = append(keys, k)
		}
	}
	for i := range p.In.Classes {
		cls := &p.In.Classes[i]
		sp := cls.Setup + p.P[i]
		add(6 * cls.Setup)
		add(12 * cls.Setup)
		add(3 * sp)
		add(4 * sp)
		for _, t := range cls.Jobs {
			add(6 * (cls.Setup + t))
		}
	}
	return sortKeys(keys, kLo)
}

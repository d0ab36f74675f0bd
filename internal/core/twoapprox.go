package core

import (
	"setupsched/internal/wrap"
	"setupsched/sched"
)

// TwoApproxSplit is the O(n) 2-approximation for the splittable case
// (Lemma 8): wrap the whole instance as one sequence into m identical gaps
// [s_max, s_max + N/m), leaving room for any setup below each gap.  It
// builds on the grid of N/m's denominator and draws its working memory
// from sc; nil allocates fresh memory.  It also returns the schedule's
// makespan.
func (p *Prep) TwoApproxSplit(sc *RunScratch) (*sched.Schedule, sched.Rat, error) {
	avg := sched.RatOf(p.N, p.M)
	b := runsFor(p, sc, avg.Den())
	for i := range p.In.Classes {
		b.seq.AddBatch(i, p.In.Classes[i].Setup, p.In.Classes[i].Jobs, b.den)
	}
	lo := b.units(p.SMax)
	if err := b.wrapSeq(p, wrap.TailRun{Count: p.M, A: lo, B: wrap.Add(lo, avg.Num())}); err != nil {
		return nil, sched.Rat{}, errInternal("splittable 2-approx wrap failed: %v", err)
	}
	b.addTail()
	s, mk := b.emit(&sched.Schedule{Variant: sched.Splittable, T: p.TMin(sched.Splittable)})
	return s, mk, nil
}

// nfItem is one next-fit sequence element for the non-preemptive/preemptive
// 2-approximation.
type nfItem struct {
	isSetup bool
	class   int
	job     int
	length  int64
}

// TwoApproxNonPreemptive is the O(n) 2-approximation for the
// non-preemptive (and hence also preemptive) case (Lemma 9): next-fit by
// class with threshold T_min, then move every T_min-crossing item to the
// beginning of the next machine, paying one extra setup for moved jobs.
// It emits through sc; nil allocates fresh memory.  It also returns the
// schedule's makespan.
func (p *Prep) TwoApproxNonPreemptive(v sched.Variant, sc *RunScratch) (*sched.Schedule, sched.Rat, error) {
	if v == sched.Splittable {
		return nil, sched.Rat{}, errInternal("TwoApproxNonPreemptive called with splittable variant")
	}
	// Trivial optimum when m >= n: one job (plus setup) per machine.
	if p.M >= int64(p.NJob) {
		s, mk := p.oneJobPerMachine(v, sc)
		return s, mk, nil
	}
	tmin := sched.MaxRat(sched.RatOf(p.N, p.M), sched.R(p.SPT))
	// Work on the scaled threshold exactly: compare load*den vs num.
	tn, td := tmin.Num(), tmin.Den()

	// Pass 1: next-fit with threshold, keeping the crossing item.
	machines := make([][]nfItem, 1, p.M)
	load := make([]int64, 1, p.M)
	cur := 0
	push := func(it nfItem) {
		machines[cur] = append(machines[cur], it)
		load[cur] += it.length
		if cmpProd(load[cur], td, tn, 1) > 0 { // load > T_min: close machine
			machines = append(machines, nil)
			load = append(load, 0)
			cur++
		}
	}
	for i := range p.In.Classes {
		c := &p.In.Classes[i]
		if c.Setup > 0 {
			push(nfItem{isSetup: true, class: i, job: -1, length: c.Setup})
		}
		for j, t := range c.Jobs {
			push(nfItem{class: i, job: j, length: t})
		}
	}
	if int64(len(machines)) > p.M {
		if len(machines[len(machines)-1]) == 0 {
			machines = machines[:len(machines)-1]
		}
		if int64(len(machines)) > p.M {
			return nil, sched.Rat{}, errInternal("2-approx next-fit used %d > m = %d machines", len(machines), p.M)
		}
	}

	// Pass 2: move crossing items (the last item of every machine whose
	// load exceeds T_min) to the beginning of the next machine, with an
	// extra setup for moved jobs.
	type incoming struct {
		items []nfItem
	}
	in := make([]incoming, len(machines))
	for u := 0; u < len(machines)-1; u++ {
		if cmpProd(load[u], td, tn, 1) <= 0 {
			continue
		}
		last := machines[u][len(machines[u])-1]
		machines[u] = machines[u][:len(machines[u])-1]
		if !last.isSetup {
			s := p.In.Classes[last.class].Setup
			if s > 0 {
				in[u+1].items = append(in[u+1].items, nfItem{isSetup: true, class: last.class, job: -1, length: s})
			}
		}
		in[u+1].items = append(in[u+1].items, last)
	}

	b := runsFor(p, sc, 1) // integer times: the grid is 1
	for u := range machines {
		items := append(in[u].items, machines[u]...)
		items = dropUselessSetups(items)
		b.begin()
		for _, it := range items {
			if it.isSetup {
				b.place(sched.SlotSetup, it.class, -1, it.length)
			} else {
				b.place(sched.SlotJob, it.class, it.job, it.length)
			}
		}
		b.end(1)
	}
	s, mk := b.emit(&sched.Schedule{Variant: v, T: tmin})
	return s, mk, nil
}

// dropUselessSetups removes setup items that are not directly followed by
// a job of their class (e.g. setups stranded at the top of a machine).
func dropUselessSetups(items []nfItem) []nfItem {
	keep := items[:0]
	for k := 0; k < len(items); k++ {
		it := items[k]
		if it.isSetup && (k+1 >= len(items) || items[k+1].isSetup || items[k+1].class != it.class) {
			continue
		}
		keep = append(keep, it)
	}
	return keep
}

// oneJobPerMachine returns the trivial optimal schedule for m >= n: every
// job gets its own machine with one setup.  Its makespan is
// max_i (s_i + t_max^(i)) = OPT, returned with the schedule.
func (p *Prep) oneJobPerMachine(v sched.Variant, sc *RunScratch) (*sched.Schedule, sched.Rat) {
	b := runsFor(p, sc, 1) // integer times: the grid is 1
	for i := range p.In.Classes {
		c := &p.In.Classes[i]
		for j := range c.Jobs {
			b.begin()
			b.place(sched.SlotSetup, i, -1, c.Setup)
			b.place(sched.SlotJob, i, j, c.Jobs[j])
			b.end(1)
		}
	}
	return b.emit(&sched.Schedule{Variant: v, T: sched.R(p.SPT)})
}

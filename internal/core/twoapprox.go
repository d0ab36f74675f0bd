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

// TwoApproxNonPreemptive is the O(n) 2-approximation for the
// non-preemptive (and hence also preemptive) case (Lemma 9): next-fit by
// class with threshold T_min, then move every T_min-crossing item to the
// beginning of the next machine, paying one extra setup for moved jobs.
// It draws its working memory from sc; nil allocates fresh memory.  It
// also returns the schedule's makespan.
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

	// Pass 1: next-fit over the classes' setups and jobs in order.  A
	// machine closes on the item that takes its load above T_min, its
	// crossing item, and machine u holds the items from starts[u] up to
	// the next machine's start.
	b := runsFor(p, sc, 1) // integer times: the grid is 1
	for i := range p.In.Classes {
		b.seq.AddBatch(i, p.In.Classes[i].Setup, p.In.Classes[i].Jobs, 1)
	}
	items := b.seq.Items
	starts := append(b.starts[:0], 0)
	var load int64
	for k, it := range items {
		load += it.Len
		if cmpProd(load, td, tn, 1) > 0 {
			starts = append(starts, k+1)
			load = 0
		}
	}
	b.starts = starts
	// Every closed machine carries more than T_min >= N/m, so fewer than m
	// close and next-fit opens at most m machines.
	if int64(len(starts)) > p.M {
		return nil, sched.Rat{}, errInternal("2-approx next-fit used %d > m = %d machines", len(starts), p.M)
	}

	// Pass 2: every machine but the last gives its crossing item to the
	// next machine, which places it first, after an extra setup if it is
	// a job.  A setup is placed only when a job of its class directly
	// follows, so a setup stranded at the top of a machine is dropped.
	pending := -1 // class of the setup waiting for the next item, or -1
	put := func(it wrap.Item) {
		if it.Kind == sched.SlotSetup {
			pending = it.Class
			return
		}
		if pending == it.Class {
			b.place(sched.SlotSetup, it.Class, -1, p.Setups[it.Class])
		}
		pending = -1
		b.place(sched.SlotJob, it.Class, it.Job, it.Len)
	}
	for u, lo := range starts {
		hi := len(items)
		if u+1 < len(starts) {
			hi = starts[u+1] - 1 // the crossing item moves on
		}
		b.begin()
		pending = -1
		if u > 0 {
			moved := items[lo-1]
			pending = moved.Class // a moved job pays its class setup again
			put(moved)
		}
		for _, it := range items[lo:hi] {
			put(it)
		}
		b.end(1)
	}
	s, mk := b.emit(&sched.Schedule{Variant: v, T: tmin})
	return s, mk, nil
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

package core

import (
	"setupsched/internal/wrap"
	"setupsched/sched"
)

// RunScratch is the working memory of the splittable, preemptive and
// 2-approximation builders: the slot arena every machine of one build is
// emitted into (the non-preemptive builder emits into it too), the run
// table addressing it, and the builders' working
// lists (wrap sequence and placement, gaps, K items, run indices).  Each
// build ends by copying its slots into one exactly sized array (see
// emit), so no schedule aliases the scratch and reusing it cannot change
// an earlier result.  The zero value is ready for use; a RunScratch must
// not serve two builds concurrently.
type RunScratch struct {
	arena []sched.Slot
	runs  []slotRun
	lo    int       // arena index of the open machine's first slot
	den   int64     // the build's grid denominator D: offset u is time u/D
	top   int64     // end of the open machine's last slot, in offsets
	topAt sched.Rat // top as a Rat: the last End, or Rat{} on a new machine
	peak  int64     // latest end of any slot of the build, in offsets

	seq       wrap.Sequence
	niceClass int // BuildPmtn: class of the nice batch seq ends with, or -1
	placed    wrap.Placement
	gaps      []wrap.Gap
	owners    []int // BuildSplit: run index of each cheap gap's machine
	large     []int // BuildPmtn: run index of each large machine
	kItems    []kItem
	kPlus     []kItem
	kMinus    []kItem
	inStar    []bool // BuildPmtn: I*chp membership per class
	rest      []int  // BuildPmtn case B: I-chp classes outside I*chp
	starts    []int  // TwoApproxNonPreemptive: first item of each machine
}

// slotRun is one schedule run under construction: count machines sharing
// the slots of three arena spans, in the order pre, body, post.  A
// machine is emitted as its body; placeK puts the K pieces below a large
// machine into pre, and the wraps above step-1 machines land in post, so
// prepending and appending never touch a neighbouring machine's slots.
type slotRun struct {
	count           int64
	pre, body, post wrap.Span
}

// runsFor returns sc emptied for one build on the grid of denominator
// den, or a fresh scratch when sc is nil.
func runsFor(p *Prep, sc *RunScratch, den int64) *RunScratch {
	if sc == nil {
		sc = &RunScratch{}
	}
	// A build emits one slot per job and class setup, plus at most a
	// split piece and a continuation setup per machine run.
	n := p.NJob + p.C
	sc.arena = grown(sc.arena, n+2*int(min(p.M, int64(n))))
	sc.runs = sc.runs[:0]
	sc.den = den
	sc.peak = 0
	sc.seq.Reset()
	sc.niceClass = -1
	sc.gaps = sc.gaps[:0]
	sc.owners = sc.owners[:0]
	sc.large = sc.large[:0]
	sc.kItems = sc.kItems[:0]
	return sc
}

// units returns the integer time x in grid offsets.
func (b *RunScratch) units(x int64) int64 { return wrap.Mul(x, b.den) }

// begin opens a new machine at time 0.
func (b *RunScratch) begin() {
	b.lo = len(b.arena)
	b.top, b.topAt = 0, sched.Rat{}
}

// beginAt opens a new machine whose first slot starts at offset u, the
// time at.
func (b *RunScratch) beginAt(u int64, at sched.Rat) {
	b.lo = len(b.arena)
	b.top, b.topAt = u, at
}

// place appends a slot of the given length in offsets on top of the open
// machine: its End is the one boundary it normalizes, and the next slot
// starts there.  Zero-length slots are dropped.
func (b *RunScratch) place(kind sched.SlotKind, class, job int, length int64) {
	if length <= 0 {
		if length < 0 {
			panic("core: negative slot length")
		}
		return
	}
	top := wrap.Add(b.top, length)
	at := sched.RatOf(top, b.den)
	b.arena = append(b.arena, sched.Slot{Kind: kind, Class: class, Job: job, Start: b.topAt, End: at})
	b.top, b.topAt = top, at
	b.peak = max(b.peak, top)
}

// span returns the open machine's slots so far.
func (b *RunScratch) span() wrap.Span { return wrap.Span{Lo: b.lo, Hi: len(b.arena)} }

// end closes the open machine as a run of count identical machines and
// returns its run index.
func (b *RunScratch) end(count int64) int {
	b.runs = append(b.runs, slotRun{count: count, body: b.span()})
	return len(b.runs) - 1
}

// wrapSeq wraps the sequence into the gaps followed by tail, appending
// the placed slots to the arena; b.placed then holds their spans.
func (b *RunScratch) wrapSeq(p *Prep, tail wrap.TailRun) error {
	var err error
	b.arena, err = wrap.Wrap(b.arena, &b.placed, b.gaps, tail, &b.seq, p.setups(), b.den)
	b.peak = max(b.peak, b.placed.Peak)
	return err
}

// addTail appends the last wrap's tail-machine runs to the run table.
func (b *RunScratch) addTail() {
	for _, r := range b.placed.Tail {
		b.runs = append(b.runs, slotRun{count: r.Count, body: r.Span})
	}
}

// emit copies the run table into out as one exactly sized slot array in
// run order and returns out with its makespan: the latest slot end the
// build placed, or the zero Rat when it placed none.  Every placed slot
// belongs to a run.  Every run's Slots has cap == len, and a run without
// slots keeps nil Slots.
func (b *RunScratch) emit(out *sched.Schedule) (*sched.Schedule, sched.Rat) {
	var mk sched.Rat
	if b.peak > 0 {
		mk = sched.RatOf(b.peak, b.den)
	}
	if len(b.runs) == 0 {
		return out, mk
	}
	total := 0
	for i := range b.runs {
		r := &b.runs[i]
		total += r.pre.Len() + r.body.Len() + r.post.Len()
	}
	slots := make([]sched.Slot, total)
	out.Runs = make([]sched.MachineRun, len(b.runs))
	k := 0
	for i := range b.runs {
		r := &b.runs[i]
		lo := k
		k += copy(slots[k:], r.pre.Slots(b.arena))
		k += copy(slots[k:], r.body.Slots(b.arena))
		k += copy(slots[k:], r.post.Slots(b.arena))
		out.Runs[i].Count = r.count
		if k > lo {
			out.Runs[i].Slots = slots[lo:k:k]
		}
	}
	return out, mk
}

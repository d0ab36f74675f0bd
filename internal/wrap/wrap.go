// Package wrap implements Batch Wrapping (Deppert & Jansen, SPAA 2019,
// Appendix A.1): scheduling a wrap sequence of batches (a setup followed by
// the jobs of its class) into a wrap template (a list of free time gaps,
// at most one per machine) in McNaughton wrap-around style.
//
// When an item hits the upper border of a gap it is handled as in the
// paper's Wrap/Split procedures: a setup is moved whole below the next gap;
// a job is split, the first piece ends at the border, and the remainder
// continues at the start of the next gap with a fresh setup placed directly
// below that gap.
//
// The template may end with a "tail run" of identical gaps (same start and
// end on many machines).  Pieces that span several identical tail gaps are
// emitted as machine runs with multiplicities, which is the trick the paper
// uses (proof of Theorem 7) to make the splittable algorithm run in
// O(n + c) even when m is much larger than n.
//
// Wrap emits into a caller-owned slot arena: it appends every slot it
// places to one slice and reports each machine's slots as an index range
// into it, so a whole schedule construction (the wrapped part and the
// builder's own machines) shares one growing backing array that the
// builder copies once, exactly sized, into the finished schedule.  Gaps
// are filled one after another, so each machine's slots are contiguous.
package wrap

import (
	"errors"
	"fmt"
	"slices"

	"setupsched/sched"
)

// Gap is one free interval [A, B) on a specific machine.
type Gap struct {
	Machine int64 // informational machine index
	A, B    sched.Rat
}

// Span returns B - A.
func (g Gap) Span() sched.Rat { return g.B.Sub(g.A) }

// TailRun describes Count additional identical gaps [A, B), one per unused
// machine, following the explicit gaps.
type TailRun struct {
	Count int64
	A, B  sched.Rat
}

// Item is one element of a wrap sequence.
type Item struct {
	Kind  sched.SlotKind
	Class int
	Job   int // -1 for setups
	Len   sched.Rat
}

// Sequence builds a wrap sequence [s_i, C_i]... batch by batch.
type Sequence struct {
	Items []Item
	total sched.Rat
}

// AddSetup appends a setup item for the class (skipped when s == 0).
func (q *Sequence) AddSetup(class int, s int64) {
	if s == 0 {
		return
	}
	q.Items = append(q.Items, Item{Kind: sched.SlotSetup, Class: class, Job: -1, Len: sched.R(s)})
	q.total = q.total.AddInt(s)
}

// AddJob appends a job piece of the given rational length (skipped when
// the length is zero).
func (q *Sequence) AddJob(class, job int, length sched.Rat) {
	if length.Sign() < 0 {
		panic("wrap: negative job length")
	}
	if length.IsZero() {
		return
	}
	q.Items = append(q.Items, Item{Kind: sched.SlotJob, Class: class, Job: job, Len: length})
	q.total = q.total.Add(length)
}

// AddBatch appends a setup followed by all jobs of the class.
func (q *Sequence) AddBatch(class int, setup int64, jobs []int64) {
	q.AddSetup(class, setup)
	for j, t := range jobs {
		q.AddJob(class, j, sched.R(t))
	}
}

// Load returns L(Q), the total length of all items.
func (q *Sequence) Load() sched.Rat { return q.total }

// Len returns the number of items.
func (q *Sequence) Len() int { return len(q.Items) }

// Reset empties the sequence, keeping its item storage for reuse.
func (q *Sequence) Reset() {
	q.Items = q.Items[:0]
	q.total = sched.Rat{}
}

// Span is the half-open index range [Lo, Hi) of one machine's slots in
// the arena they were appended to.
type Span struct{ Lo, Hi int }

// Len returns the number of slots in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// Slots returns the span's slots in arena, with capacity ending at Hi so
// an append to the result cannot overwrite the slots that follow.
func (s Span) Slots(arena []sched.Slot) []sched.Slot { return arena[s.Lo:s.Hi:s.Hi] }

// Run is Count identical tail machines, each holding the slots of Span.
type Run struct {
	Count int64
	Span
}

// Placement is the result of wrapping a sequence into a template; its
// spans index the arena the Wrap call appended to.
type Placement struct {
	// Machines[g] holds the slots placed on the machine of explicit gap g
	// (possibly including one setup below the gap start), in time order.
	// Entries may be empty when the sequence ended early.
	Machines []Span
	// Tail holds machine runs placed on tail-run machines, in machine
	// order.  The sum of their counts is at most the tail count.
	Tail []Run
	// TailUsed is the number of tail machines that received load.
	TailUsed int64
}

// reset sizes the placement for g explicit gaps, reusing its storage.
func (pl *Placement) reset(g int) {
	pl.Machines = slices.Grow(pl.Machines[:0], g)[:g]
	clear(pl.Machines)
	pl.Tail = pl.Tail[:0]
	pl.TailUsed = 0
}

var (
	// ErrTemplateTooSmall reports that the template cannot hold the
	// sequence (S(omega) < L(Q) or a border case exhausted the gaps).
	ErrTemplateTooSmall = errors.New("wrap: template too small for sequence")
	// ErrSetupBelowGap reports that a setup did not fit below a gap.
	ErrSetupBelowGap = errors.New("wrap: no room for setup below gap")
)

// wrapState tracks the cursor during wrapping.
type wrapState struct {
	gaps   []Gap
	tail   TailRun
	place  *Placement
	arena  []sched.Slot
	gapIdx int // next explicit gap to open; len(gaps)+k for tail machine k
	lo     int // arena index of the open gap's first slot
	curGap Gap
	open   bool
	t      sched.Rat // cursor within the open gap
	setups []int64   // per-class setup times
}

// Wrap places the sequence q into the template formed by the explicit gaps
// followed by the optional tail run.  It appends the placed slots to
// arena, returns the extended arena, and fills pl (reusing its storage)
// with each machine's index range in it.  It returns ErrTemplateTooSmall
// if the template's total span is insufficient.
//
// setups must hold the per-class setup times; they are consulted when a
// split job needs a fresh setup below the next gap.
func Wrap(arena []sched.Slot, pl *Placement, gaps []Gap, tail TailRun, q *Sequence, setups []int64) ([]sched.Slot, error) {
	// Capacity pre-check: S(omega) >= L(Q).
	var span sched.Rat
	for _, g := range gaps {
		if g.A.Sign() < 0 || g.B.Cmp(g.A) <= 0 {
			return arena, fmt.Errorf("wrap: malformed gap [%s,%s)", g.A, g.B)
		}
		span = span.Add(g.Span())
	}
	if tail.Count > 0 {
		if tail.A.Sign() < 0 || tail.B.Cmp(tail.A) <= 0 {
			return arena, fmt.Errorf("wrap: malformed tail gap [%s,%s)", tail.A, tail.B)
		}
		span = span.Add(tail.B.Sub(tail.A).MulInt(tail.Count))
	}
	if span.Cmp(q.Load()) < 0 {
		return arena, fmt.Errorf("%w: S=%s < L=%s", ErrTemplateTooSmall, span, q.Load())
	}

	pl.reset(len(gaps))
	st := wrapState{gaps: gaps, tail: tail, place: pl, arena: arena, setups: setups}
	for i := range q.Items {
		if err := st.placeItem(&q.Items[i]); err != nil {
			return st.arena, err
		}
	}
	st.closeGap()
	return st.arena, nil
}

// advance opens the next gap, optionally placing a setup of class `class`
// directly below its start (class < 0 places nothing).
func (st *wrapState) advance(class int) error {
	st.closeGap()
	var g Gap
	switch {
	case st.gapIdx < len(st.gaps):
		g = st.gaps[st.gapIdx]
	case int64(st.gapIdx-len(st.gaps)) < st.tail.Count:
		g = Gap{Machine: -1, A: st.tail.A, B: st.tail.B}
	default:
		return ErrTemplateTooSmall
	}
	st.gapIdx++
	st.curGap = g
	st.open = true
	st.t = g.A
	st.lo = len(st.arena)
	if class >= 0 {
		s := st.setups[class]
		if s > 0 {
			start := g.A.SubInt(s)
			if start.Sign() < 0 {
				return fmt.Errorf("%w: class %d setup %d below gap start %s", ErrSetupBelowGap, class, s, g.A)
			}
			st.arena = append(st.arena, sched.Slot{Kind: sched.SlotSetup, Class: class, Job: -1, Start: start, End: g.A})
		}
	}
	return nil
}

// closeGap records the open machine's slots in the placement.
func (st *wrapState) closeGap() {
	if !st.open {
		return
	}
	sp := Span{st.lo, len(st.arena)}
	if idx := st.gapIdx - 1; idx < len(st.gaps) {
		st.place.Machines[idx] = sp
	} else if sp.Len() > 0 {
		st.place.Tail = append(st.place.Tail, Run{Count: 1, Span: sp})
		st.place.TailUsed++
	}
	st.open = false
}

// tailLeft returns how many tail gaps remain unopened.
func (st *wrapState) tailLeft() int64 {
	used := int64(st.gapIdx - len(st.gaps))
	if used < 0 {
		used = 0
	}
	return st.tail.Count - used
}

func (st *wrapState) emit(kind sched.SlotKind, class, job int, length sched.Rat) {
	if length.Sign() <= 0 {
		return
	}
	end := st.t.Add(length)
	st.arena = append(st.arena, sched.Slot{Kind: kind, Class: class, Job: job, Start: st.t, End: end})
	st.t = end
}

func (st *wrapState) placeItem(it *Item) error {
	if !st.open {
		// A job opening a fresh gap needs its class setup below the gap
		// (this happens when the previous item ended exactly at a border,
		// e.g. after a bulk run).  A setup item simply starts inside.
		cls := -1
		if it.Kind == sched.SlotJob {
			cls = it.Class
		}
		if err := st.advance(cls); err != nil {
			return err
		}
	}
	if it.Kind == sched.SlotSetup {
		// Fits entirely, or moves whole below the next gap.
		if st.t.Add(it.Len).Cmp(st.curGap.B) <= 0 {
			st.emit(sched.SlotSetup, it.Class, -1, it.Len)
			return nil
		}
		return st.advance(it.Class)
	}
	remaining := it.Len
	for remaining.Sign() > 0 {
		room := st.curGap.B.Sub(st.t)
		if room.Sign() <= 0 {
			// Border reached: continue in the next gap with a fresh setup.
			// Bulk-emit full tail gaps when the piece spans many of them.
			if st.tailLeft() > 0 && st.gapIdx >= len(st.gaps) {
				gapLen := st.tail.B.Sub(st.tail.A)
				full := fullGapCount(remaining, gapLen)
				if full > st.tailLeft() {
					full = st.tailLeft()
				}
				if full >= 2 {
					st.closeGap()
					lo := len(st.arena)
					st.arena = appendFullGap(st.arena, it, st.tail, st.setups)
					st.place.Tail = append(st.place.Tail, Run{Count: full, Span: Span{lo, len(st.arena)}})
					st.place.TailUsed += full
					st.gapIdx += int(full)
					remaining = remaining.Sub(gapLen.MulInt(full))
					if remaining.Sign() == 0 {
						return nil
					}
					continue
				}
			}
			if err := st.advance(it.Class); err != nil {
				return err
			}
			continue
		}
		take := sched.MinRat(remaining, room)
		st.emit(sched.SlotJob, it.Class, it.Job, take)
		remaining = remaining.Sub(take)
	}
	return nil
}

// fullGapCount returns floor(remaining / gapLen).
func fullGapCount(remaining, gapLen sched.Rat) int64 {
	ratio := remaining.DivInt(gapLen.Num()).MulInt(gapLen.Den())
	return ratio.Floor()
}

// appendFullGap appends the slot layout of one fully consumed tail gap:
// an optional setup below the gap plus a job piece spanning the gap.
func appendFullGap(arena []sched.Slot, it *Item, tail TailRun, setups []int64) []sched.Slot {
	if s := setups[it.Class]; s > 0 {
		arena = append(arena, sched.Slot{
			Kind: sched.SlotSetup, Class: it.Class, Job: -1,
			Start: tail.A.SubInt(s), End: tail.A,
		})
	}
	return append(arena, sched.Slot{
		Kind: sched.SlotJob, Class: it.Class, Job: it.Job,
		Start: tail.A, End: tail.B,
	})
}

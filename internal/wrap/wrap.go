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
// Every time is an int64 offset on the grid of one build: with the grid
// denominator D that Wrap takes, the offset u is the time u/D.  Gap and
// tail bounds, item lengths and the sequence load are offsets, so the
// per-item loop is integer arithmetic, and each emitted slot boundary is
// normalized to a sched.Rat once: End = sched.RatOf(u, D), which the next
// slot reuses as its Start.  An explicit gap at 0 opens its machine at
// the zero value sched.Rat{}; every other boundary, a tail at 0 and a
// setup that lands at 0 below a gap included, is RatOf's form.  Offset
// arithmetic is checked (Mul, Add) and panics with sched.ErrRatOverflow
// rather than wrap around.
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
	"math"
	"math/bits"
	"slices"

	"setupsched/internal/num128"
	"setupsched/sched"
)

// Mul returns a*b for non-negative a and b, such as an integer time
// scaled to grid offsets.  It panics with sched.ErrRatOverflow when the
// product does not fit an int64.
func Mul(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		panic(sched.ErrRatOverflow)
	}
	return int64(lo)
}

// Add returns a+b for b >= 0, panicking with sched.ErrRatOverflow when
// the sum does not fit an int64.
func Add(a, b int64) int64 {
	s := a + b
	if s < a {
		panic(sched.ErrRatOverflow)
	}
	return s
}

// Gap is one free interval [A, B) on a machine, in grid offsets.
type Gap struct{ A, B int64 }

// TailRun describes Count additional identical gaps [A, B), one per unused
// machine, following the explicit gaps.
type TailRun struct {
	Count int64
	A, B  int64
}

// Item is one element of a wrap sequence; Len is in grid offsets.
type Item struct {
	Kind  sched.SlotKind
	Class int
	Job   int // -1 for setups
	Len   int64
}

// Sequence builds a wrap sequence [s_i, C_i]... batch by batch.
type Sequence struct {
	Items []Item
	total int64
}

// AddSetup appends a setup item of s offsets for the class (skipped when
// s == 0).
func (q *Sequence) AddSetup(class int, s int64) {
	if s == 0 {
		return
	}
	q.Items = append(q.Items, Item{Kind: sched.SlotSetup, Class: class, Job: -1, Len: s})
	q.total = Add(q.total, s)
}

// AddJob appends a job piece of the given length in offsets (skipped
// when the length is zero).
func (q *Sequence) AddJob(class, job int, length int64) {
	if length < 0 {
		panic("wrap: negative job length")
	}
	if length == 0 {
		return
	}
	q.Items = append(q.Items, Item{Kind: sched.SlotJob, Class: class, Job: job, Len: length})
	q.total = Add(q.total, length)
}

// AddBatch appends a setup followed by all jobs of the class, scaling the
// integer times by the grid denominator d.
func (q *Sequence) AddBatch(class int, setup int64, jobs []int64, d int64) {
	q.AddSetup(class, Mul(setup, d))
	for j, t := range jobs {
		q.AddJob(class, j, Mul(t, d))
	}
}

// Load returns L(Q), the total length of all items, in offsets.
func (q *Sequence) Load() int64 { return q.total }

// Len returns the number of items.
func (q *Sequence) Len() int { return len(q.Items) }

// Reset empties the sequence, keeping its item storage for reuse.
func (q *Sequence) Reset() {
	q.Items = q.Items[:0]
	q.total = 0
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
	// order.  The sum of their counts is the number of tail machines
	// that received load, at most the tail count.
	Tail []Run
	// Peak is the latest end of a placed slot in offsets, 0 when the
	// sequence placed none: the wrapped part's makespan, without a pass
	// over the slots.
	Peak int64
}

// reset sizes the placement for g explicit gaps, reusing its storage.
func (pl *Placement) reset(g int) {
	pl.Machines = slices.Grow(pl.Machines[:0], g)[:g]
	clear(pl.Machines)
	pl.Tail = pl.Tail[:0]
	pl.Peak = 0
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
	d      int64     // grid denominator
	tailA  sched.Rat // tail.A and tail.B as Rats, converted once per Wrap
	tailB  sched.Rat
	place  *Placement
	arena  []sched.Slot
	gapIdx int // next explicit gap to open; len(gaps)+k for tail machine k
	lo     int // arena index of the open gap's first slot
	open   bool
	t, end int64     // cursor and border of the open gap
	at     sched.Rat // the cursor as a Rat: the gap start or the last End
	setups []int64   // per-class setup times (integers, not offsets)
}

// Wrap places the sequence q into the template formed by the explicit gaps
// followed by the optional tail run, on the grid of denominator d >= 1.
// It appends the placed slots to arena, returns the extended arena, and
// fills pl (reusing its storage) with each machine's index range in it.
// It returns ErrTemplateTooSmall if the template's total span is
// insufficient.
//
// setups must hold the per-class setup times as integers; they are
// consulted when a split job needs a fresh setup below the next gap.
func Wrap(arena []sched.Slot, pl *Placement, gaps []Gap, tail TailRun, q *Sequence, setups []int64, d int64) ([]sched.Slot, error) {
	// Capacity pre-check: S(omega) >= L(Q), in 128 bits so that a long
	// tail cannot overflow it.
	var span num128.Acc
	for _, g := range gaps {
		if g.A < 0 || g.B <= g.A {
			return arena, fmt.Errorf("wrap: malformed gap [%s,%s)", sched.RatOf(g.A, d), sched.RatOf(g.B, d))
		}
		span.AddInt(g.B - g.A)
	}
	st := wrapState{gaps: gaps, tail: tail, d: d, place: pl, arena: arena, setups: setups}
	if tail.Count > 0 {
		if tail.A < 0 || tail.B <= tail.A {
			return arena, fmt.Errorf("wrap: malformed tail gap [%s,%s)", sched.RatOf(tail.A, d), sched.RatOf(tail.B, d))
		}
		span.AddProd(tail.Count, tail.B-tail.A)
		st.tailA, st.tailB = sched.RatOf(tail.A, d), sched.RatOf(tail.B, d)
	}
	if span.CmpProd(q.total, 1) < 0 {
		s, _ := span.Int64() // below the load, so it fits
		return arena, fmt.Errorf("%w: S=%s < L=%s", ErrTemplateTooSmall, sched.RatOf(s, d), sched.RatOf(q.total, d))
	}

	pl.reset(len(gaps))
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
	switch {
	case st.gapIdx < len(st.gaps):
		// An explicit gap at 0 starts its machine at the zero value, as a
		// machine a builder opens does; the schedule digests tell it apart.
		g := st.gaps[st.gapIdx]
		st.t, st.end, st.at = g.A, g.B, sched.Rat{}
		if g.A != 0 {
			st.at = sched.RatOf(g.A, st.d)
		}
	case int64(st.gapIdx-len(st.gaps)) < st.tail.Count:
		st.t, st.end, st.at = st.tail.A, st.tail.B, st.tailA
	default:
		return ErrTemplateTooSmall
	}
	st.gapIdx++
	st.open = true
	st.lo = len(st.arena)
	if class >= 0 {
		if s := st.setups[class]; s > 0 {
			start := st.t - Mul(s, st.d)
			if start < 0 {
				return fmt.Errorf("%w: class %d setup %d below gap start %s", ErrSetupBelowGap, class, s, st.at)
			}
			st.arena = append(st.arena, sched.Slot{Kind: sched.SlotSetup, Class: class, Job: -1, Start: sched.RatOf(start, st.d), End: st.at})
			st.place.Peak = max(st.place.Peak, st.t)
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

// emit appends a slot of length offsets, at most end - t, at the cursor:
// its End is the one boundary it normalizes.  Empty slots are dropped.
func (st *wrapState) emit(kind sched.SlotKind, class, job int, length int64) {
	if length <= 0 {
		return
	}
	t := st.t + length
	at := sched.RatOf(t, st.d)
	st.arena = append(st.arena, sched.Slot{Kind: kind, Class: class, Job: job, Start: st.at, End: at})
	st.t, st.at = t, at
	st.place.Peak = max(st.place.Peak, t)
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
		if it.Len <= st.end-st.t {
			st.emit(sched.SlotSetup, it.Class, -1, it.Len)
			return nil
		}
		return st.advance(it.Class)
	}
	remaining := it.Len
	for remaining > 0 {
		room := st.end - st.t
		if room <= 0 {
			// Border reached: continue in the next gap with a fresh setup.
			// Bulk-emit full tail gaps when the piece spans many of them.
			if st.tailLeft() > 0 && st.gapIdx >= len(st.gaps) {
				gapLen := st.tail.B - st.tail.A
				if full := min(remaining/gapLen, st.tailLeft()); full >= 2 {
					st.closeGap()
					lo := len(st.arena)
					st.appendFullGap(it)
					st.place.Tail = append(st.place.Tail, Run{Count: full, Span: Span{lo, len(st.arena)}})
					st.gapIdx += int(full)
					remaining -= gapLen * full
					continue
				}
			}
			if err := st.advance(it.Class); err != nil {
				return err
			}
			continue
		}
		take := min(remaining, room)
		st.emit(sched.SlotJob, it.Class, it.Job, take)
		remaining -= take
	}
	return nil
}

// appendFullGap appends the slot layout of one fully consumed tail gap:
// an optional setup below the gap plus a job piece spanning the gap.
func (st *wrapState) appendFullGap(it *Item) {
	if s := st.setups[it.Class]; s > 0 {
		st.arena = append(st.arena, sched.Slot{
			Kind: sched.SlotSetup, Class: it.Class, Job: -1,
			Start: sched.RatOf(st.tail.A-Mul(s, st.d), st.d), End: st.tailA,
		})
	}
	st.arena = append(st.arena, sched.Slot{
		Kind: sched.SlotJob, Class: it.Class, Job: it.Job,
		Start: st.tailA, End: st.tailB,
	})
	st.place.Peak = max(st.place.Peak, st.tail.B)
}

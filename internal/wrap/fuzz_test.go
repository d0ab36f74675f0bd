package wrap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"setupsched/sched"
)

// This file keeps Batch Wrapping as it was written on sched.Rat times
// (every bound, length and cursor a normalized Rat) as the oracle of
// FuzzWrap: the grid Wrap must reproduce it slot for slot.

// ratGap is an explicit gap of the oracle.
type ratGap struct{ A, B sched.Rat }

// ratTail is the oracle's tail run.
type ratTail struct {
	Count int64
	A, B  sched.Rat
}

// ratItem is one element of the oracle's wrap sequence.
type ratItem struct {
	Kind  sched.SlotKind
	Class int
	Job   int
	Len   sched.Rat
}

type ratState struct {
	gaps   []ratGap
	tail   ratTail
	place  *Placement
	arena  []sched.Slot
	gapIdx int
	lo     int
	curGap ratGap
	open   bool
	t      sched.Rat
	setups []int64
}

// ratWrap is the oracle Wrap: the items' total length is load.
func ratWrap(arena []sched.Slot, pl *Placement, gaps []ratGap, tail ratTail, items []ratItem, load sched.Rat, setups []int64) ([]sched.Slot, error) {
	var span sched.Rat
	for _, g := range gaps {
		if g.A.Sign() < 0 || g.B.Cmp(g.A) <= 0 {
			return arena, fmt.Errorf("wrap: malformed gap [%s,%s)", g.A, g.B)
		}
		span = span.Add(g.B.Sub(g.A))
	}
	if tail.Count > 0 {
		if tail.A.Sign() < 0 || tail.B.Cmp(tail.A) <= 0 {
			return arena, fmt.Errorf("wrap: malformed tail gap [%s,%s)", tail.A, tail.B)
		}
		span = span.Add(tail.B.Sub(tail.A).MulInt(tail.Count))
	}
	if span.Cmp(load) < 0 {
		return arena, fmt.Errorf("%w: S=%s < L=%s", ErrTemplateTooSmall, span, load)
	}
	pl.reset(len(gaps))
	st := ratState{gaps: gaps, tail: tail, place: pl, arena: arena, setups: setups}
	for i := range items {
		if err := st.placeItem(&items[i]); err != nil {
			return st.arena, err
		}
	}
	st.closeGap()
	return st.arena, nil
}

func (st *ratState) advance(class int) error {
	st.closeGap()
	var g ratGap
	switch {
	case st.gapIdx < len(st.gaps):
		g = st.gaps[st.gapIdx]
	case int64(st.gapIdx-len(st.gaps)) < st.tail.Count:
		g = ratGap{A: st.tail.A, B: st.tail.B}
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

func (st *ratState) closeGap() {
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

func (st *ratState) tailLeft() int64 {
	used := int64(st.gapIdx - len(st.gaps))
	if used < 0 {
		used = 0
	}
	return st.tail.Count - used
}

func (st *ratState) emit(kind sched.SlotKind, class, job int, length sched.Rat) {
	if length.Sign() <= 0 {
		return
	}
	end := st.t.Add(length)
	st.arena = append(st.arena, sched.Slot{Kind: kind, Class: class, Job: job, Start: st.t, End: end})
	st.t = end
}

func (st *ratState) placeItem(it *ratItem) error {
	if !st.open {
		cls := -1
		if it.Kind == sched.SlotJob {
			cls = it.Class
		}
		if err := st.advance(cls); err != nil {
			return err
		}
	}
	if it.Kind == sched.SlotSetup {
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
			if st.tailLeft() > 0 && st.gapIdx >= len(st.gaps) {
				gapLen := st.tail.B.Sub(st.tail.A)
				full := remaining.DivInt(gapLen.Num()).MulInt(gapLen.Den()).Floor()
				if full > st.tailLeft() {
					full = st.tailLeft()
				}
				if full >= 2 {
					st.closeGap()
					lo := len(st.arena)
					if s := st.setups[it.Class]; s > 0 {
						st.arena = append(st.arena, sched.Slot{
							Kind: sched.SlotSetup, Class: it.Class, Job: -1,
							Start: st.tail.A.SubInt(s), End: st.tail.A,
						})
					}
					st.arena = append(st.arena, sched.Slot{
						Kind: sched.SlotJob, Class: it.Class, Job: it.Job,
						Start: st.tail.A, End: st.tail.B,
					})
					st.place.Tail = append(st.place.Tail, Run{Count: full, Span: Span{lo, len(st.arena)}})
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

// wrapInput is one FuzzWrap input on the grid of denominator d.
type wrapInput struct {
	d      int64
	gaps   []Gap
	tail   TailRun
	setups []int64 // per class, integers
	seq    *Sequence
}

// Decoding bounds keep every oracle product far inside int64.
const (
	fuzzMaxD     = 1000
	fuzzMaxGaps  = 8
	fuzzMaxOff   = 1 << 20
	fuzzMaxTail  = 4096
	fuzzMaxClass = 8
	fuzzMaxSetup = 64
	fuzzMaxItems = 64
)

// encode writes in as uvarints in the order decode reads them.
func (in wrapInput) encode() []byte {
	var b []byte
	put := func(v int64) { b = binary.AppendUvarint(b, uint64(v)) }
	put(in.d - 1)
	put(int64(len(in.gaps)))
	for _, g := range in.gaps {
		put(g.A)
		put(g.B - g.A - 1)
	}
	put(in.tail.Count)
	put(in.tail.A)
	put(max(in.tail.B-in.tail.A-1, 0))
	put(int64(len(in.setups) - 1))
	for _, s := range in.setups {
		put(s)
	}
	put(int64(in.seq.Len()))
	for _, it := range in.seq.Items {
		put(int64(it.Class)<<1 | int64(it.Kind))
		put(int64(max(it.Job, 0)))
		put(it.Len)
	}
	return b
}

// decodeWrapInput reads any byte string as a well-formed input, reducing
// each value into its bound; missing values read as 0.
func decodeWrapInput(data []byte) wrapInput {
	get := func(bound int64) int64 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			data = nil
			return 0
		}
		data = data[n:]
		return int64(v % uint64(bound))
	}
	var in wrapInput
	in.d = 1 + get(fuzzMaxD)
	for range get(fuzzMaxGaps + 1) {
		a := get(fuzzMaxOff)
		in.gaps = append(in.gaps, Gap{a, a + 1 + get(fuzzMaxOff)})
	}
	in.tail.Count = get(fuzzMaxTail + 1)
	in.tail.A = get(fuzzMaxOff)
	in.tail.B = in.tail.A + 1 + get(fuzzMaxOff)
	in.setups = make([]int64, 1+get(fuzzMaxClass))
	for i := range in.setups {
		in.setups[i] = get(fuzzMaxSetup)
	}
	in.seq = &Sequence{}
	for range get(fuzzMaxItems + 1) {
		kc := get(2 * fuzzMaxClass)
		class := int(kc>>1) % len(in.setups)
		job, length := int(get(16)), get(fuzzMaxOff)
		if sched.SlotKind(kc&1) == sched.SlotSetup {
			in.seq.AddSetup(class, length)
		} else {
			in.seq.AddJob(class, job, length)
		}
	}
	return in
}

// seedInput is the FuzzWrap input of a test case.
func (c wrapCase) seedInput() wrapInput {
	return wrapInput{d: c.den(), gaps: c.gaps, tail: c.tail, setups: c.setups(), seq: c.sequence()}
}

// sameErr reports whether two Wrap results failed alike: both nil, or
// both non-nil with the same sentinel.
func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return errors.Is(a, ErrTemplateTooSmall) == errors.Is(b, ErrTemplateTooSmall) &&
		errors.Is(a, ErrSetupBelowGap) == errors.Is(b, ErrSetupBelowGap)
}

// FuzzWrap checks the grid Wrap against the Rat oracle on random grids,
// templates and sequences: both fail with the same sentinel, or both
// return the same arena (Rat{} and R(0) told apart), the same machine
// spans and the same tail runs.  The oracle gets the bounds in Wrap's
// documented Rat forms: an explicit gap at 0 starts at Rat{}, every other
// bound is sched.RatOf's.
func FuzzWrap(f *testing.F) {
	for _, c := range wrapCases {
		f.Add(c.seedInput().encode())
		f.Add(c.scaled(7).seedInput().encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeWrapInput(data)
		rat := func(u int64) sched.Rat { return sched.RatOf(u, in.d) }
		var rgaps []ratGap
		for _, g := range in.gaps {
			a := sched.Rat{}
			if g.A != 0 {
				a = rat(g.A)
			}
			rgaps = append(rgaps, ratGap{a, rat(g.B)})
		}
		var ritems []ratItem
		var load sched.Rat
		for _, it := range in.seq.Items {
			ritems = append(ritems, ratItem{it.Kind, it.Class, it.Job, rat(it.Len)})
			load = load.Add(rat(it.Len))
		}
		var got, want Placement
		ga, gerr := Wrap(nil, &got, in.gaps, in.tail, in.seq, in.setups, in.d)
		wa, werr := ratWrap(nil, &want, rgaps, ratTail{in.tail.Count, rat(in.tail.A), rat(in.tail.B)}, ritems, load, in.setups)
		if !sameErr(gerr, werr) {
			t.Fatalf("grid err %v, oracle err %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if !slices.Equal(ga, wa) {
			t.Fatalf("arenas differ:\n grid   %+v\n oracle %+v", ga, wa)
		}
		if !slices.Equal(got.Machines, want.Machines) || !slices.Equal(got.Tail, want.Tail) {
			t.Fatalf("spans differ:\n grid   %+v %+v\n oracle %+v %+v", got.Machines, got.Tail, want.Machines, want.Tail)
		}
	})
}

package wrap

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"setupsched/sched"
)

// placed is a placement together with the arena its spans index.
type placed struct {
	arena []sched.Slot
	*Placement
}

// wrapCase is one test input: every class wrapped as a batch, in order,
// on the grid of denominator d (1 when zero) into the explicit gaps
// followed by the tail run.  Gap bounds are grid offsets; class times are
// integers.
type wrapCase struct {
	d       int64
	classes []sched.Class
	gaps    []Gap
	tail    TailRun
}

// wrapCases are the inputs of the TestWrap* cases below, named after
// them; FuzzWrap starts from them too.
var wrapCases = map[string]wrapCase{
	"SingleGapFits": {
		classes: []sched.Class{{Setup: 2, Jobs: []int64{3, 4}}},
		gaps:    []Gap{{0, 9}},
	},
	// One class, setup 1, one job of length 10; two gaps of span 6 each
	// with room for a setup below the second gap.
	"SplitsJobAcrossGaps": {
		classes: []sched.Class{{Setup: 1, Jobs: []int64{10}}},
		gaps:    []Gap{{0, 6}, {1, 7}},
	},
	// The second setup would cross the first gap's border (room for 2+3,
	// then 4 would cross), so it must move whole below the second gap.
	"MovesSetupBelowNextGap": {
		classes: []sched.Class{{Setup: 2, Jobs: []int64{3}}, {Setup: 4, Jobs: []int64{2}}},
		gaps:    []Gap{{0, 7}, {5, 11}},
	},
	// The setup ends exactly at the border; the job must open the next
	// gap with a fresh setup below it.
	"BorderExactSetupThenJob": {
		classes: []sched.Class{{Setup: 3, Jobs: []int64{4}}},
		gaps:    []Gap{{0, 3}, {3, 8}},
	},
	"TemplateTooSmall": {
		classes: []sched.Class{{Setup: 1, Jobs: []int64{100}}},
		gaps:    []Gap{{0, 5}},
	},
	// Only 2 below the second gap, and the setup is 3.
	"SetupDoesNotFitBelowGap": {
		classes: []sched.Class{{Setup: 3, Jobs: []int64{4, 4}}},
		gaps:    []Gap{{0, 8}, {2, 8}},
	},
	// Load 5002 against 1000 tail gaps of span 5 (capacity 5000).
	"TailRunCapacityCheck": {
		classes: []sched.Class{{Setup: 2, Jobs: []int64{5000}}},
		tail:    TailRun{Count: 1000, A: 2, B: 7},
	},
	// 10 units setup+job per machine; a big job covering exactly 200
	// tail gaps plus change.
	"TailRunBulkCompression": {
		classes: []sched.Class{{Setup: 1, Jobs: []int64{2000}}},
		tail:    TailRun{Count: 300, A: 1, B: 11},
	},
	// Job 0 consumes exactly 4 full tail gaps (a bulk run); job 1 then
	// opens a fresh gap and must get a setup below it.
	"BulkThenNewJobGetsSetup": {
		classes: []sched.Class{{Setup: 3, Jobs: []int64{40, 12}}},
		tail:    TailRun{Count: 10, A: 3, B: 13},
	},
	// A zero-setup class may legally start a gap without any setup.
	"ZeroSetupClassFirstItem": {
		classes: []sched.Class{{Setup: 0, Jobs: []int64{9, 9}}},
		tail:    TailRun{Count: 3, A: 0, B: 7},
	},
	"ArenaSpans": {
		classes: []sched.Class{
			{Setup: 1, Jobs: []int64{5, 4, 30}},
			{Setup: 2, Jobs: []int64{3, 3, 2, 60}},
		},
		gaps: []Gap{{2, 9}, {3, 8}},
		tail: TailRun{Count: 38, A: 2, B: 7},
	},
}

func (c wrapCase) den() int64 { return max(c.d, 1) }

// scaled returns the case on the grid of denominator d: every bound
// times d, so every time is the same.
func (c wrapCase) scaled(d int64) wrapCase {
	f := wrapCase{d: c.den() * d, classes: c.classes, tail: c.tail}
	for _, g := range c.gaps {
		f.gaps = append(f.gaps, Gap{g.A * d, g.B * d})
	}
	f.tail.A, f.tail.B = c.tail.A*d, c.tail.B*d
	return f
}

// instance is the instance the case schedules: one machine per gap.
func (c wrapCase) instance() *sched.Instance {
	return &sched.Instance{M: int64(len(c.gaps)) + c.tail.Count, Classes: c.classes}
}

func (c wrapCase) setups() []int64 {
	s := make([]int64, len(c.classes))
	for i := range c.classes {
		s[i] = c.classes[i].Setup
	}
	return s
}

func (c wrapCase) sequence() *Sequence {
	var q Sequence
	for i, cl := range c.classes {
		q.AddBatch(i, cl.Setup, cl.Jobs, c.den())
	}
	return &q
}

// wrapInto wraps the case into arena, reusing pl.
func (c wrapCase) wrapInto(arena []sched.Slot, pl *Placement) ([]sched.Slot, error) {
	return Wrap(arena, pl, c.gaps, c.tail, c.sequence(), c.setups(), c.den())
}

// wrapFresh wraps the named case into a fresh arena.
func wrapFresh(t *testing.T, name string) (placed, error) {
	t.Helper()
	c, ok := wrapCases[name]
	if !ok {
		t.Fatalf("no wrap case %q", name)
	}
	p := placed{Placement: &Placement{}}
	var err error
	p.arena, err = c.wrapInto(nil, p.Placement)
	return p, err
}

// machine returns the slots of explicit gap g's machine.
func (p placed) machine(g int) []sched.Slot { return p.Machines[g].Slots(p.arena) }

// collect assembles a full Schedule from a placement.
func collect(p placed, v sched.Variant) *sched.Schedule {
	s := &sched.Schedule{Variant: v}
	for g := range p.Machines {
		s.AddMachine(p.machine(g))
	}
	for _, r := range p.Tail {
		s.AddRun(r.Count, r.Slots(p.arena))
	}
	return s
}

// wrapValid wraps the named case and validates the result against its
// instance.
func wrapValid(t *testing.T, name string, v sched.Variant) (placed, *sched.Schedule) {
	t.Helper()
	p, err := wrapFresh(t, name)
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, v)
	if err := s.Validate(wrapCases[name].instance()); err != nil {
		t.Fatalf("%v\n%v", err, s)
	}
	return p, s
}

func seqLoad(t *testing.T, q *Sequence) int64 {
	t.Helper()
	var sum int64
	for _, it := range q.Items {
		sum += it.Len
	}
	if sum != q.Load() {
		t.Fatalf("sequence load mismatch: %d vs %d", sum, q.Load())
	}
	return sum
}

func TestWrapSingleGapFits(t *testing.T) {
	seqLoad(t, wrapCases["SingleGapFits"].sequence())
	_, s := wrapValid(t, "SingleGapFits", sched.NonPreemptive)
	if !s.Makespan().Equal(sched.R(9)) {
		t.Errorf("makespan = %s", s.Makespan())
	}
}

func TestWrapSplitsJobAcrossGaps(t *testing.T) {
	p, _ := wrapValid(t, "SplitsJobAcrossGaps", sched.Splittable)
	// First machine: setup [0,1), piece [1,6).  Second: setup [0,1) below
	// gap, piece [1,6).
	if len(p.machine(0)) != 2 || len(p.machine(1)) != 2 {
		t.Fatalf("unexpected slot counts: %d, %d", len(p.machine(0)), len(p.machine(1)))
	}
	if !p.machine(1)[0].Start.Equal(sched.R(0)) || p.machine(1)[0].Kind != sched.SlotSetup {
		t.Errorf("continuation setup not below gap: %+v", p.machine(1)[0])
	}
}

func TestWrapMovesSetupBelowNextGap(t *testing.T) {
	p, _ := wrapValid(t, "MovesSetupBelowNextGap", sched.NonPreemptive)
	// The class-1 setup occupies [1,5) below gap 2 and its job [5,7).
	m1 := p.machine(1)
	if len(m1) != 2 || m1[0].Kind != sched.SlotSetup || !m1[0].Start.Equal(sched.R(1)) {
		t.Errorf("setup below gap misplaced: %+v", m1)
	}
}

func TestWrapBorderExactSetupThenJob(t *testing.T) {
	_, s := wrapValid(t, "BorderExactSetupThenJob", sched.Splittable)
	if got := s.SetupCount(); got != 2 {
		t.Errorf("setups = %d, want 2 (one wasted at border)", got)
	}
}

func TestWrapTemplateTooSmall(t *testing.T) {
	if _, err := wrapFresh(t, "TemplateTooSmall"); !errors.Is(err, ErrTemplateTooSmall) {
		t.Errorf("err = %v, want ErrTemplateTooSmall", err)
	}
}

func TestWrapSetupDoesNotFitBelowGap(t *testing.T) {
	if _, err := wrapFresh(t, "SetupDoesNotFitBelowGap"); !errors.Is(err, ErrSetupBelowGap) {
		t.Errorf("err = %v, want ErrSetupBelowGap", err)
	}
}

func TestWrapTailRunCapacityCheck(t *testing.T) {
	// The wrap must refuse up front.
	if _, err := wrapFresh(t, "TailRunCapacityCheck"); !errors.Is(err, ErrTemplateTooSmall) {
		t.Errorf("err = %v, want ErrTemplateTooSmall", err)
	}
}

func TestWrapTailRunBulkCompression(t *testing.T) {
	// Distinct slot structures must stay tiny.
	_, s := wrapValid(t, "TailRunBulkCompression", sched.Splittable)
	if s.NumSlots() > 8 {
		t.Errorf("run compression failed: %d distinct slots", s.NumSlots())
	}
	if s.MachineCount() > 300 {
		t.Errorf("used %d machines", s.MachineCount())
	}
}

func TestWrapRandomizedFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		c := rng.Intn(5) + 1
		classes := make([]sched.Class, c)
		var load int64
		smax := int64(0)
		for i := 0; i < c; i++ {
			s := rng.Int63n(5)
			nj := rng.Intn(4) + 1
			jobs := make([]int64, nj)
			for j := range jobs {
				jobs[j] = rng.Int63n(20) + 1
				load += jobs[j]
			}
			load += s
			if s > smax {
				smax = s
			}
			classes[i] = sched.Class{Setup: s, Jobs: jobs}
		}
		// Template: identical gaps [smax, smax+h) with h chosen so the
		// total span just covers the load, on a grid of random
		// denominator.
		h := rng.Int63n(30) + 21 // gap span > max job? not required for splittable
		gapCount := (load + h - 1) / h
		m := gapCount + int64(rng.Intn(3))
		d := 1 + rng.Int63n(12)
		wc := wrapCase{d: d, classes: classes, tail: TailRun{Count: m, A: smax * d, B: (smax + h) * d}}
		p := placed{Placement: &Placement{}}
		var err error
		if p.arena, err = wc.wrapInto(nil, p.Placement); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		s := collect(p, sched.Splittable)
		if err := s.Validate(wc.instance()); err != nil {
			t.Fatalf("iter %d: %v\n%v", iter, err, s)
		}
		if s.Makespan().CmpInt(smax+h) > 0 {
			t.Fatalf("iter %d: makespan %s over gap top %d", iter, s.Makespan(), smax+h)
		}
	}
}

func TestSequenceHelpers(t *testing.T) {
	var q Sequence
	q.AddSetup(0, 0) // skipped
	q.AddJob(0, 0, 0)
	if q.Len() != 0 {
		t.Error("zero items must be skipped")
	}
	q.AddBatch(1, 3, []int64{1, 2}, 4)
	if q.Len() != 3 || q.Load() != 24 || seqLoad(t, &q) != 24 {
		t.Errorf("batch: len=%d load=%d", q.Len(), q.Load())
	}
}

func TestWrapBulkThenNewJobGetsSetup(t *testing.T) {
	wrapValid(t, "BulkThenNewJobGetsSetup", sched.Splittable)
}

func TestWrapZeroSetupClassFirstItem(t *testing.T) {
	wrapValid(t, "ZeroSetupClassFirstItem", sched.Splittable)
}

// TestWrapArenaSpans checks the arena contract: Wrap appends after the
// arena's existing slots without touching them, every span's slot slice
// has cap == len (an append to one machine cannot overwrite the next),
// spans follow each other in machine order, and a reused Placement is
// reset to the new template.
func TestWrapArenaSpans(t *testing.T) {
	c := wrapCases["ArenaSpans"]
	sentinel := sched.Slot{Kind: sched.SlotJob, Class: 7, Job: 7, Start: sched.R(70), End: sched.R(77)}
	arena := []sched.Slot{sentinel, sentinel, sentinel}
	pl := &Placement{Machines: make([]Span, 5), Tail: make([]Run, 3)} // stale content
	arena, err := c.wrapInto(arena, pl)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if arena[k] != sentinel {
			t.Fatalf("Wrap overwrote existing arena slot %d: %+v", k, arena[k])
		}
	}
	if len(pl.Machines) != len(c.gaps) {
		t.Fatalf("placement has %d machines for %d gaps", len(pl.Machines), len(c.gaps))
	}
	next := 3
	spans := append([]Span(nil), pl.Machines...)
	var tailUsed int64
	for _, r := range pl.Tail {
		spans = append(spans, r.Span)
		tailUsed += r.Count
	}
	for k, sp := range spans {
		if sp.Lo != next || sp.Hi < sp.Lo {
			t.Fatalf("span %d = %+v, want it to start at %d", k, sp, next)
		}
		next = sp.Hi
		if s := sp.Slots(arena); cap(s) != len(s) {
			t.Fatalf("span %d: len %d, cap %d", k, len(s), cap(s))
		}
	}
	if next != len(arena) {
		t.Fatalf("spans end at %d, arena has %d slots", next, len(arena))
	}
	s := collect(placed{arena, pl}, sched.Splittable)
	if err := s.Validate(c.instance()); err != nil {
		t.Fatal(err)
	}
	if tailUsed > c.tail.Count || s.MachineCount() != int64(len(c.gaps))+tailUsed {
		t.Fatalf("placement uses %d machines, its tail runs %d of %d", s.MachineCount(), tailUsed, c.tail.Count)
	}
}

// TestGridOverflowPanics checks that grid arithmetic never wraps around:
// a product or sum beyond int64, in the helpers or in a sequence's
// scaling and load, panics with sched.ErrRatOverflow.
func TestGridOverflowPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Mul":      func() { Mul(1<<62, 2) },
		"Add":      func() { Add(math.MaxInt64, 1) },
		"AddBatch": func() { new(Sequence).AddBatch(0, 1, []int64{1 << 40}, 1<<23) },
		"Load":     func() { new(Sequence).AddBatch(0, 1<<62, []int64{1 << 62}, 1) },
	} {
		func() {
			defer func() {
				if r := recover(); r != sched.ErrRatOverflow {
					t.Errorf("%s: recovered %v, want sched.ErrRatOverflow", name, r)
				}
			}()
			f()
		}()
	}
	if got := Mul(1<<31, 1<<31); got != 1<<62 {
		t.Errorf("Mul(2^31, 2^31) = %d", got)
	}
}

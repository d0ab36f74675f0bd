package wrap

import (
	"errors"
	"math/rand"
	"testing"

	"setupsched/sched"
)

// placed is a placement together with the arena its spans index.
type placed struct {
	arena []sched.Slot
	*Placement
}

// wrapFresh wraps q into a fresh arena.
func wrapFresh(gaps []Gap, tail TailRun, q *Sequence, setups []int64) (placed, error) {
	p := placed{Placement: &Placement{}}
	var err error
	p.arena, err = Wrap(nil, p.Placement, gaps, tail, q, setups)
	return p, err
}

// machine returns the slots of explicit gap g's machine.
func (p placed) machine(g int) []sched.Slot { return p.Machines[g].Slots(p.arena) }

// collect assembles a full Schedule from a placement plus pre-existing
// machine content (nil for fresh machines).
func collect(p placed, pre [][]sched.Slot, v sched.Variant) *sched.Schedule {
	s := &sched.Schedule{Variant: v}
	for g := range p.Machines {
		var all []sched.Slot
		if pre != nil {
			all = append(all, pre[g]...)
		}
		all = append(all, p.machine(g)...)
		s.AddMachine(all)
	}
	for _, r := range p.Tail {
		s.AddRun(r.Count, r.Slots(p.arena))
	}
	return s
}

func seqLoad(t *testing.T, q *Sequence) sched.Rat {
	t.Helper()
	var sum sched.Rat
	for _, it := range q.Items {
		sum = sum.Add(it.Len)
	}
	if !sum.Equal(q.Load()) {
		t.Fatalf("sequence load mismatch: %s vs %s", sum, q.Load())
	}
	return sum
}

func TestWrapSingleGapFits(t *testing.T) {
	in := &sched.Instance{M: 1, Classes: []sched.Class{{Setup: 2, Jobs: []int64{3, 4}}}}
	var q Sequence
	q.AddBatch(0, 2, in.Classes[0].Jobs)
	seqLoad(t, &q)
	gaps := []Gap{{Machine: 0, A: sched.R(0), B: sched.R(9)}}
	p, err := wrapFresh(gaps, TailRun{}, &q, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.NonPreemptive)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !s.Makespan().Equal(sched.R(9)) {
		t.Errorf("makespan = %s", s.Makespan())
	}
}

func TestWrapSplitsJobAcrossGaps(t *testing.T) {
	// One class, setup 1, one job of length 10; two gaps of span 6 each
	// with room for a setup below the second gap.
	in := &sched.Instance{M: 2, Classes: []sched.Class{{Setup: 1, Jobs: []int64{10}}}}
	var q Sequence
	q.AddBatch(0, 1, in.Classes[0].Jobs)
	gaps := []Gap{
		{Machine: 0, A: sched.R(0), B: sched.R(6)},
		{Machine: 1, A: sched.R(1), B: sched.R(7)},
	}
	p, err := wrapFresh(gaps, TailRun{}, &q, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
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
	// Two classes; the second setup would cross the first gap's border, so
	// it must move whole below the second gap.
	in := &sched.Instance{M: 2, Classes: []sched.Class{
		{Setup: 2, Jobs: []int64{3}},
		{Setup: 4, Jobs: []int64{2}},
	}}
	var q Sequence
	q.AddBatch(0, 2, in.Classes[0].Jobs)
	q.AddBatch(1, 4, in.Classes[1].Jobs)
	gaps := []Gap{
		{Machine: 0, A: sched.R(0), B: sched.R(7)}, // room for 2+3, then 4 would cross
		{Machine: 1, A: sched.R(5), B: sched.R(11)},
	}
	p, err := wrapFresh(gaps, TailRun{}, &q, []int64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.NonPreemptive)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	// The class-1 setup occupies [1,5) below gap 2 and its job [5,7).
	m1 := p.machine(1)
	if len(m1) != 2 || m1[0].Kind != sched.SlotSetup || !m1[0].Start.Equal(sched.R(1)) {
		t.Errorf("setup below gap misplaced: %+v", m1)
	}
}

func TestWrapBorderExactSetupThenJob(t *testing.T) {
	// The setup ends exactly at the border; the job must open the next gap
	// with a fresh setup below it.
	in := &sched.Instance{M: 2, Classes: []sched.Class{{Setup: 3, Jobs: []int64{4}}}}
	var q Sequence
	q.AddBatch(0, 3, in.Classes[0].Jobs)
	gaps := []Gap{
		{Machine: 0, A: sched.R(0), B: sched.R(3)},
		{Machine: 1, A: sched.R(3), B: sched.R(8)},
	}
	p, err := wrapFresh(gaps, TailRun{}, &q, []int64{3})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if got := s.SetupCount(); got != 2 {
		t.Errorf("setups = %d, want 2 (one wasted at border)", got)
	}
}

func TestWrapTemplateTooSmall(t *testing.T) {
	var q Sequence
	q.AddBatch(0, 1, []int64{100})
	gaps := []Gap{{Machine: 0, A: sched.R(0), B: sched.R(5)}}
	_, err := wrapFresh(gaps, TailRun{}, &q, []int64{1})
	if !errors.Is(err, ErrTemplateTooSmall) {
		t.Errorf("err = %v, want ErrTemplateTooSmall", err)
	}
}

func TestWrapSetupDoesNotFitBelowGap(t *testing.T) {
	var q Sequence
	q.AddBatch(0, 3, []int64{4, 4})
	gaps := []Gap{
		{Machine: 0, A: sched.R(0), B: sched.R(8)},
		{Machine: 1, A: sched.R(2), B: sched.R(8)}, // only 2 below gap, setup is 3
	}
	_, err := wrapFresh(gaps, TailRun{}, &q, []int64{3})
	if !errors.Is(err, ErrSetupBelowGap) {
		t.Errorf("err = %v, want ErrSetupBelowGap", err)
	}
}

func TestWrapTailRunCapacityCheck(t *testing.T) {
	// Load 5002 against 1000 tail gaps of span 5 (capacity 5000): the
	// wrap must refuse up front.
	var q Sequence
	q.AddBatch(0, 2, []int64{5000})
	tail := TailRun{Count: 1000, A: sched.R(2), B: sched.R(7)}
	_, err := wrapFresh(nil, tail, &q, []int64{2})
	if !errors.Is(err, ErrTemplateTooSmall) {
		t.Errorf("err = %v, want ErrTemplateTooSmall", err)
	}
}

func TestWrapTailRunBulkCompression(t *testing.T) {
	// 10 units setup+job per machine; big job covering exactly 200 tail
	// gaps plus change, distinct slot structures must stay tiny.
	in := &sched.Instance{M: 300, Classes: []sched.Class{{Setup: 1, Jobs: []int64{2000}}}}
	var q Sequence
	q.AddBatch(0, 1, in.Classes[0].Jobs)
	tail := TailRun{Count: 300, A: sched.R(1), B: sched.R(11)} // span 10
	p, err := wrapFresh(nil, tail, &q, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
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
		var q Sequence
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
			q.AddBatch(i, s, jobs)
		}
		// Template: identical gaps [smax, smax+h) with h chosen so the
		// total span just covers the load.
		h := rng.Int63n(30) + 21 // gap span > max job? not required for splittable
		gapCount := (load + h - 1) / h
		m := gapCount + int64(rng.Intn(3))
		in := &sched.Instance{M: m, Classes: classes}
		setups := make([]int64, c)
		for i := range classes {
			setups[i] = classes[i].Setup
		}
		tail := TailRun{Count: m, A: sched.R(smax), B: sched.R(smax + h)}
		p, err := wrapFresh(nil, tail, &q, setups)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		s := collect(p, nil, sched.Splittable)
		if err := s.Validate(in); err != nil {
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
	q.AddJob(0, 0, sched.Rat{})
	if q.Len() != 0 {
		t.Error("zero items must be skipped")
	}
	q.AddBatch(1, 3, []int64{1, 2})
	if q.Len() != 3 || !q.Load().Equal(sched.R(6)) {
		t.Errorf("batch: len=%d load=%s", q.Len(), q.Load())
	}
}

func TestWrapBulkThenNewJobGetsSetup(t *testing.T) {
	// Regression: job 0 consumes exactly k full tail gaps (bulk run);
	// job 1 then opens a fresh gap and must get a setup below it.
	in := &sched.Instance{M: 10, Classes: []sched.Class{
		{Setup: 3, Jobs: []int64{40, 12}},
	}}
	var q Sequence
	q.AddBatch(0, 3, in.Classes[0].Jobs)
	tail := TailRun{Count: 10, A: sched.R(3), B: sched.R(13)} // span 10
	p, err := wrapFresh(nil, tail, &q, []int64{3})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatalf("bulk-boundary setup missing: %v\n%v", err, s)
	}
}

func TestWrapZeroSetupClassFirstItem(t *testing.T) {
	// A zero-setup class may legally start a gap without any setup.
	in := &sched.Instance{M: 3, Classes: []sched.Class{
		{Setup: 0, Jobs: []int64{9, 9}},
	}}
	var q Sequence
	q.AddBatch(0, 0, in.Classes[0].Jobs)
	tail := TailRun{Count: 3, A: sched.R(0), B: sched.R(7)}
	p, err := wrapFresh(nil, tail, &q, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
}

// TestWrapArenaSpans checks the arena contract: Wrap appends after the
// arena's existing slots without touching them, every span's slot slice
// has cap == len (an append to one machine cannot overwrite the next),
// spans follow each other in machine order, and a reused Placement is
// reset to the new template.
func TestWrapArenaSpans(t *testing.T) {
	in := &sched.Instance{M: 40, Classes: []sched.Class{
		{Setup: 1, Jobs: []int64{5, 4, 30}},
		{Setup: 2, Jobs: []int64{3, 3, 2, 60}},
	}}
	var q Sequence
	for i, c := range in.Classes {
		q.AddBatch(i, c.Setup, c.Jobs)
	}
	gaps := []Gap{
		{Machine: 0, A: sched.R(2), B: sched.R(9)},
		{Machine: 1, A: sched.R(3), B: sched.R(8)},
	}
	tail := TailRun{Count: 38, A: sched.R(2), B: sched.R(7)}
	sentinel := sched.Slot{Kind: sched.SlotJob, Class: 7, Job: 7, Start: sched.R(70), End: sched.R(77)}
	arena := []sched.Slot{sentinel, sentinel, sentinel}
	pl := &Placement{Machines: make([]Span, 5), Tail: make([]Run, 3)} // stale content
	arena, err := Wrap(arena, pl, gaps, tail, &q, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if arena[k] != sentinel {
			t.Fatalf("Wrap overwrote existing arena slot %d: %+v", k, arena[k])
		}
	}
	if len(pl.Machines) != len(gaps) {
		t.Fatalf("placement has %d machines for %d gaps", len(pl.Machines), len(gaps))
	}
	next := 3
	spans := append([]Span(nil), pl.Machines...)
	for _, r := range pl.Tail {
		spans = append(spans, r.Span)
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
	s := collect(placed{arena, pl}, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if s.MachineCount() != int64(len(gaps))+pl.TailUsed {
		t.Fatalf("placement uses %d machines, TailUsed says %d", s.MachineCount(), pl.TailUsed)
	}
}

package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"setupsched/sched"
	"setupsched/schedgen"
)

// arenaSolves are the searches whose schedules come out of the slot
// arena, plus the non-preemptive eps and exact searches, whose own
// builder obeys the same contract.
var arenaSolves = []struct {
	name  string
	solve func(*Prep, Ctl) (*Result, error)
}{
	{"split/2approx", (*Prep).SolveSplit2},
	{"split/eps", func(p *Prep, c Ctl) (*Result, error) { return p.SolveEps(c, sched.Splittable, 1e-3) }},
	{"split/exact", (*Prep).SolveSplitJump},
	{"pmtn/2approx", func(p *Prep, c Ctl) (*Result, error) { return p.SolveNonp2(c, sched.Preemptive) }},
	{"pmtn/eps", func(p *Prep, c Ctl) (*Result, error) { return p.SolveEps(c, sched.Preemptive, 1e-3) }},
	{"pmtn/exact", (*Prep).SolvePmtnJump},
	{"nonp/2approx", func(p *Prep, c Ctl) (*Result, error) { return p.SolveNonp2(c, sched.NonPreemptive) }},
	{"nonp/eps", func(p *Prep, c Ctl) (*Result, error) { return p.SolveEps(c, sched.NonPreemptive, 1e-3) }},
	{"nonp/exact", (*Prep).SolveNonpSearch},
}

// arenaInstances covers every schedgen family on few machines and on
// more machines than jobs (one job per machine, long tail runs), plus
// pmtnHandInstances.
func arenaInstances() []*sched.Instance {
	var out []*sched.Instance
	for _, fam := range schedgen.Families {
		out = append(out,
			fam.Make(schedgen.Params{M: 16, Classes: 40, JobsPer: 5, MaxSetup: 200, MaxJob: 300, Seed: 3}),
			fam.Make(schedgen.Params{M: 400, Classes: 12, JobsPer: 4, MaxSetup: 300, MaxJob: 400, Seed: 4}))
	}
	return append(out, pmtnHandInstances()...)
}

// pmtnHandInstances are the hand-built knapsack (case A) and greedy
// (case B) preemptive instances of partition_test.go, accepted at T = 100.
func pmtnHandInstances() []*sched.Instance {
	caseA := &sched.Instance{M: 9}
	for k := 0; k < 7; k++ {
		caseA.Classes = append(caseA.Classes, sched.Class{Setup: 55, Jobs: []int64{25}})
	}
	caseA.Classes = append(caseA.Classes,
		sched.Class{Setup: 52, Jobs: []int64{48, 48}},
		sched.Class{Setup: 10, Jobs: []int64{45, 4}},
		sched.Class{Setup: 6, Jobs: []int64{47}})
	caseB := &sched.Instance{M: 10, Classes: []sched.Class{
		{Setup: 60, Jobs: []int64{25}},
		{Setup: 10, Jobs: []int64{45, 4}},
		{Setup: 4, Jobs: []int64{20, 7}},
		{Setup: 3, Jobs: []int64{11}},
	}}
	return []*sched.Instance{caseA, caseB}
}

// cloneSchedule deep-copies s, keeping nil slices nil.
func cloneSchedule(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Runs = slices.Clone(s.Runs)
	for i := range c.Runs {
		c.Runs[i].Slots = slices.Clone(c.Runs[i].Slots)
	}
	return &c
}

// checkExactCap fails unless every run's slot slice has cap == len, so an
// append to one machine (BuildSplit step 2, placeK) cannot overwrite the
// next machine's slots.
func checkExactCap(t *testing.T, tag string, s *sched.Schedule) {
	t.Helper()
	for i, r := range s.Runs {
		if cap(r.Slots) != len(r.Slots) {
			t.Fatalf("%s: run %d has len %d, cap %d", tag, i, len(r.Slots), cap(r.Slots))
		}
	}
}

// TestArenaExactCapacity pins the emit contract on every arena builder:
// each machine's slots are exactly sized, with and without a lent
// scratch, and the two outputs are identical.
func TestArenaExactCapacity(t *testing.T) {
	var sc BuildScratch
	for k, in := range arenaInstances() {
		p := Prepare(in)
		for _, as := range arenaSolves {
			fresh, err := as.solve(p, Ctl{})
			if err != nil {
				t.Fatalf("instance %d %s: %v", k, as.name, err)
			}
			lent, err := as.solve(p, Ctl{Scratch: &sc})
			if err != nil {
				t.Fatalf("instance %d %s (lent): %v", k, as.name, err)
			}
			checkExactCap(t, as.name, fresh.Schedule)
			checkExactCap(t, as.name+" (lent)", lent.Schedule)
			if !reflect.DeepEqual(fresh.Schedule, lent.Schedule) {
				t.Fatalf("instance %d %s: lent-scratch schedule differs from fresh", k, as.name)
			}
		}
	}
	// The knapsack and greedy branches at the guess the hand examples
	// were built for.
	for _, in := range pmtnHandInstances() {
		p := Prepare(in)
		ev := p.EvalPmtn(sched.R(100), nil)
		s, _, err := p.BuildPmtnScratch(ev, &sc.Run)
		if err != nil {
			t.Fatal(err)
		}
		checkExactCap(t, "pmtn@100", s)
		if err := s.Validate(in); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArenaLentScratchKeepsResult builds a sequence of schedules through
// one lent scratch and checks that no later build changes an earlier
// schedule: results must not alias the arena or the working lists.
func TestArenaLentScratchKeepsResult(t *testing.T) {
	var sc BuildScratch
	type kept struct {
		tag       string
		got, copy *sched.Schedule
	}
	var all []kept
	for k, in := range arenaInstances() {
		p := Prepare(in)
		for _, as := range arenaSolves {
			r, err := as.solve(p, Ctl{Scratch: &sc})
			if err != nil {
				t.Fatalf("instance %d %s: %v", k, as.name, err)
			}
			all = append(all, kept{as.name, r.Schedule, cloneSchedule(r.Schedule)})
		}
	}
	for i, kp := range all {
		if !reflect.DeepEqual(kp.got, kp.copy) {
			t.Fatalf("schedule %d (%s) changed after later builds reused its scratch", i, kp.tag)
		}
	}
}

// TestResultMakespan pins that every search reports the makespan its
// builder emitted: Result.Makespan is Schedule.Makespan() with the same
// numerator and denominator fields, fresh and with a lent scratch, on
// the arena instances and the core-cold and churn shapes.  A build that
// places no slot reports the zero Rat, as Makespan() does.
func TestResultMakespan(t *testing.T) {
	var sc BuildScratch
	var preps []*Prep
	for _, in := range arenaInstances() {
		preps = append(preps, Prepare(in))
	}
	preps = append(preps, coreColdPrep(20_000), churnPrep())
	for k, p := range preps {
		for _, as := range arenaSolves {
			for _, ctl := range []Ctl{{}, {Scratch: &sc}} {
				r, err := as.solve(p, ctl)
				if err != nil {
					t.Fatalf("instance %d %s: %v", k, as.name, err)
				}
				if want := r.Schedule.Makespan(); r.Makespan != want {
					t.Fatalf("instance %d %s (lent %v): Result.Makespan %d/%d, schedule makespan %d/%d",
						k, as.name, ctl.Scratch != nil, r.Makespan.Num(), r.Makespan.Den(), want.Num(), want.Den())
				}
			}
		}
	}
	s, mk := runsFor(preps[0], nil, 1).emit(&sched.Schedule{})
	if want := s.Makespan(); mk != want || mk != (sched.Rat{}) {
		t.Fatalf("empty build: makespan %v, schedule makespan %v", mk, want)
	}
}

// TestArenaAllocsFlat pins that a warm scratch makes construction's
// allocation count independent of the instance size: the n = 2e4
// core-cold shape may allocate no more per build than the n = 2e3 one
// (the schedule, its slot array and its run array remain).
func TestArenaAllocsFlat(t *testing.T) {
	for _, v := range []sched.Variant{sched.Preemptive, sched.Splittable, sched.NonPreemptive} {
		var allocs []float64
		for _, n := range []int{2_000, 20_000} {
			build := buildAtAccepted(t, coreColdPrep(n), v)
			warm := &BuildScratch{}
			if _, _, err := build(warm); err != nil {
				t.Fatal(err)
			}
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				if _, _, err := build(warm); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%v: %v allocs per warm build at n=2e3, %v at n=2e4", v, allocs[0], allocs[1])
		if allocs[1] > allocs[0] {
			t.Errorf("%v: warm build allocates %v at n=2e4 vs %v at n=2e3", v, allocs[1], allocs[0])
		}
	}
}

// TestNonpExactSlotBytes pins that a warm non-preemptive build allocates
// its output at the exact slot count, as the arena builders do: the
// bytes it allocates, measured with GC paused, may exceed the bytes of
// its slots, runs and Schedule only by the rounding of its allocations,
// less than one 8 KiB page each, so deleted pieces, moved border items
// and dropped setups leave no spare capacity in a result.
func TestNonpExactSlotBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, shape := range []struct {
		name string
		p    *Prep
	}{{"corecold", coreColdPrep(20_000)}, {"churn", churnPrep()}} {
		build := buildAtAccepted(t, shape.p, sched.NonPreemptive)
		warm := &BuildScratch{}
		s, _, err := build(warm)
		if err != nil {
			t.Fatal(err)
		}
		const reps = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			if _, _, err := build(warm); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / reps
		allocs := (after.Mallocs - before.Mallocs) / reps
		exact := uint64(s.NumSlots())*uint64(unsafe.Sizeof(sched.Slot{})) +
			uint64(len(s.Runs))*uint64(unsafe.Sizeof(sched.MachineRun{})) + uint64(unsafe.Sizeof(sched.Schedule{}))
		t.Logf("%s: %d slots, %d bytes in %d allocs per warm build, exact output %d bytes", shape.name, s.NumSlots(), bytes, allocs, exact)
		if bytes >= exact+allocs*8192 {
			t.Errorf("%s: warm build allocates %d bytes in %d allocs for %d bytes of output", shape.name, bytes, allocs, exact)
		}
	}
}

// TestScratchPoolDropsOversized pins the pool's size rule: a scratch
// grown by a solve fits that solve's instance, and a solve of an instance
// more than scratchSlack times smaller does not put it back in the pool.
func TestScratchPoolDropsOversized(t *testing.T) {
	big, small := coreColdPrep(20_000), coreColdPrep(2_000)
	sc := &BuildScratch{}
	for _, as := range arenaSolves {
		if _, err := as.solve(big, Ctl{Scratch: sc}); err != nil {
			t.Fatalf("%s: %v", as.name, err)
		}
	}
	if !big.fits(sc) {
		t.Fatal("a scratch does not fit the instance that grew it")
	}
	if small.fits(sc) {
		t.Fatalf("a scratch grown for %d items fits an instance of %d", big.nonpItems(), small.nonpItems())
	}
	defer func(p *sync.Pool) { ScratchPool = p }(ScratchPool)
	ScratchPool = &sync.Pool{}
	small.release(sc)
	if got := ScratchPool.Get(); got != nil {
		t.Fatal("an oversized scratch went back to the pool")
	}
}

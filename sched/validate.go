package sched

import (
	"fmt"
	"slices"
)

// ValidationError describes a feasibility violation found by Validate.
type ValidationError struct {
	Machine int // index into Runs
	Slot    int // index into the run's slots, or -1
	Reason  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("sched: invalid schedule (run %d, slot %d): %s", e.Machine, e.Slot, e.Reason)
}

func vErr(run, slot int, format string, args ...any) error {
	return &ValidationError{Machine: run, Slot: slot, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks that the schedule is a feasible solution for the given
// instance under the schedule's Variant.  It verifies:
//
//   - at most in.M machines are used;
//   - slots on each machine are sorted, non-overlapping and start at >= 0;
//   - setup slots have exactly the class setup length and are never split;
//   - every job slot is immediately preceded on its machine by a setup or
//     job slot of the same class ending exactly where it starts (batch
//     rule; classes with setup 0 are exempt);
//   - every job receives exactly its processing time in total (counting
//     run multiplicities);
//   - non-preemptive: every job is a single contiguous slot on one machine;
//   - preemptive: pieces of one job never overlap in time, and runs that
//     contain job slots have multiplicity 1.
//
// The batch rule here is slightly stricter than the paper's model (which
// would allow idle time between a setup and the jobs it enables); all
// constructions in this module satisfy the stricter contiguous rule, and
// the stricter rule implies the paper's.
func (s *Schedule) Validate(in *Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if mc := s.MachineCount(); mc > in.M {
		return vErr(-1, -1, "uses %d machines but instance has m=%d", mc, in.M)
	}

	// Global job indexing for work accounting.
	offsets := make([]int, len(in.Classes)+1)
	for i := range in.Classes {
		offsets[i+1] = offsets[i] + len(in.Classes[i].Jobs)
	}
	n := offsets[len(in.Classes)]
	done := make([]Rat, n)
	slotCount := make([]int64, n)

	for ri := range s.Runs {
		run := &s.Runs[ri]
		if run.Count <= 0 {
			return vErr(ri, -1, "run has non-positive machine count %d", run.Count)
		}
		hasJob := false
		var prev *Slot
		for si := range run.Slots {
			sl := &run.Slots[si]
			if sl.Class < 0 || sl.Class >= len(in.Classes) {
				return vErr(ri, si, "class index %d out of range", sl.Class)
			}
			cls := &in.Classes[sl.Class]
			if sl.Start.Sign() < 0 {
				return vErr(ri, si, "slot starts before time 0")
			}
			if sl.End.Cmp(sl.Start) <= 0 {
				return vErr(ri, si, "slot has non-positive length")
			}
			if prev != nil && sl.Start.Cmp(prev.End) < 0 {
				return vErr(ri, si, "slot at %s overlaps previous slot ending %s", sl.Start, prev.End)
			}
			switch sl.Kind {
			case SlotSetup:
				if sl.Job != -1 {
					return vErr(ri, si, "setup slot has job index %d", sl.Job)
				}
				if sl.Len().CmpInt(cls.Setup) != 0 {
					return vErr(ri, si, "setup slot length %s != s_%d = %d (setups may not be split)", sl.Len(), sl.Class, cls.Setup)
				}
			case SlotJob:
				hasJob = true
				if sl.Job < 0 || sl.Job >= len(cls.Jobs) {
					return vErr(ri, si, "job index %d out of range for class %d", sl.Job, sl.Class)
				}
				// Batch rule.
				if cls.Setup > 0 {
					if prev == nil {
						return vErr(ri, si, "job of class %d scheduled with no preceding setup", sl.Class)
					}
					if prev.Class != sl.Class || !prev.End.Equal(sl.Start) {
						return vErr(ri, si, "job of class %d at %s not contiguous with a class-%d setup or job (prev: class %d ending %s)",
							sl.Class, sl.Start, sl.Class, prev.Class, prev.End)
					}
				}
				g := offsets[sl.Class] + sl.Job
				add := sl.Len().MulInt(run.Count)
				done[g] = done[g].Add(add)
				slotCount[g] += run.Count
			default:
				return vErr(ri, si, "unknown slot kind %d", sl.Kind)
			}
			prev = sl
		}
		if hasJob && run.Count > 1 && s.Variant != Splittable {
			return vErr(ri, -1, "%s schedule uses a multi-machine run (count=%d) containing job slots", s.Variant.Short(), run.Count)
		}
	}

	// Work accounting.
	for c := range in.Classes {
		for j, t := range in.Classes[c].Jobs {
			g := offsets[c] + j
			if done[g].CmpInt(t) != 0 {
				return vErr(-1, -1, "job (%d,%d) received %s of %d processing units", c, j, done[g], t)
			}
			if s.Variant == NonPreemptive && slotCount[g] != 1 {
				return vErr(-1, -1, "non-preemptive job (%d,%d) scheduled in %d pieces", c, j, slotCount[g])
			}
		}
	}

	if s.Variant == Preemptive {
		return s.checkSelfOverlap(offsets, slotCount)
	}
	return nil
}

// checkSelfOverlap reports a preemptive job whose pieces overlap in time.
// Every job slot lies in a run of one machine here, so slotCount[g] is
// job g's piece count: a counting pass turns the counts into the bounds
// of one flat array holding each job's pieces as one bucket (filling the
// buckets counts slotCount down to zero), and a bucket of two or more
// pieces is sorted by start and checked pairwise.
func (s *Schedule) checkSelfOverlap(offsets []int, slotCount []int64) error {
	type interval struct{ start, end Rat }
	bound := make([]int, len(slotCount)+1)
	for g, c := range slotCount {
		bound[g+1] = bound[g] + int(c)
	}
	pieces := make([]interval, bound[len(slotCount)])
	for ri := range s.Runs {
		for _, sl := range s.Runs[ri].Slots {
			if sl.Kind == SlotJob {
				g := offsets[sl.Class] + sl.Job
				slotCount[g]--
				pieces[bound[g]+int(slotCount[g])] = interval{sl.Start, sl.End}
			}
		}
	}
	for g := range slotCount {
		ivs := pieces[bound[g]:bound[g+1]]
		if len(ivs) < 2 {
			continue
		}
		slices.SortFunc(ivs, func(a, b interval) int { return a.start.Cmp(b.start) })
		for k := 1; k < len(ivs); k++ {
			if ivs[k].start.Less(ivs[k-1].end) {
				return vErr(-1, -1, "preemptive job %d runs in parallel with itself: [%s,%s) overlaps [%s,%s)",
					g, ivs[k-1].start, ivs[k-1].end, ivs[k].start, ivs[k].end)
			}
		}
	}
	return nil
}

// CheckMakespanAtMost verifies Makespan() <= bound and returns a
// descriptive error otherwise.
func (s *Schedule) CheckMakespanAtMost(bound Rat) error {
	if mk := s.Makespan(); bound.Less(mk) {
		return fmt.Errorf("sched: makespan %s exceeds bound %s", mk, bound)
	}
	return nil
}

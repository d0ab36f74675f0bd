package setupsched

import (
	"errors"
	"fmt"

	"setupsched/sched"
)

// Re-exported model types; see package sched for their documentation.
type (
	// Instance is a scheduling instance (machines and job classes).
	Instance = sched.Instance
	// Class is one batch class (setup time plus job processing times).
	Class = sched.Class
	// Schedule is a feasible schedule with exact rational time stamps.
	Schedule = sched.Schedule
	// Slot is one machine occupation (setup or job piece).
	Slot = sched.Slot
	// MachineRun is a group of identical machines in a schedule.
	MachineRun = sched.MachineRun
	// Rat is an exact rational number used for all times.
	Rat = sched.Rat
	// Variant selects the problem flavor.
	Variant = sched.Variant
	// Algorithm selects the approximation algorithm used by Solver.Solve.
	Algorithm = sched.Algorithm
	// Result is the outcome of a solve.
	Result = sched.Result
	// Probe records one dual-test evaluation of a search (see Result.Trace).
	Probe = sched.Probe
)

// Problem variants.
const (
	Splittable    = sched.Splittable
	Preemptive    = sched.Preemptive
	NonPreemptive = sched.NonPreemptive
)

// Algorithms; see sched.Algorithm for their documentation.
const (
	Auto          = sched.Auto
	TwoApprox     = sched.TwoApprox
	EpsilonSearch = sched.EpsilonSearch
	Exact32       = sched.Exact32
	RefExact      = sched.RefExact
)

// maxDualDen bounds the denominator of user-supplied dual guesses so the
// internal exact arithmetic cannot overflow.
const maxDualDen = 1 << 20

// Verify re-checks a Result against its instance: the schedule must be
// feasible for the variant, the makespan must match, and the certified
// lower bound must not exceed the makespan.  Use it to audit results that
// crossed a serialization or trust boundary.
func Verify(in *Instance, v Variant, r *Result) error {
	if in == nil || r == nil || r.Schedule == nil {
		return errors.New("setupsched: Verify needs an instance and a result with a schedule")
	}
	if r.Schedule.Variant != v {
		return fmt.Errorf("setupsched: schedule variant %v does not match %v", r.Schedule.Variant, v)
	}
	if err := r.Schedule.Validate(in); err != nil {
		return err
	}
	if !r.Schedule.Makespan().Equal(r.Makespan) {
		return fmt.Errorf("setupsched: stated makespan %s differs from schedule makespan %s",
			r.Makespan, r.Schedule.Makespan())
	}
	if r.Makespan.Less(r.LowerBound) {
		return fmt.Errorf("setupsched: makespan %s below claimed lower bound %s", r.Makespan, r.LowerBound)
	}
	if lb := in.LowerBound(v); r.LowerBound.Less(lb) {
		return fmt.Errorf("setupsched: certified bound %s below trivial bound %s", r.LowerBound, lb)
	}
	return nil
}

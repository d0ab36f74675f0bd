package setupsched

import (
	"errors"
	"fmt"

	"setupsched/internal/core"
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
)

// Problem variants.
const (
	Splittable    = sched.Splittable
	Preemptive    = sched.Preemptive
	NonPreemptive = sched.NonPreemptive
)

// Algorithm selects the approximation algorithm used by Solver.Solve.
type Algorithm int

const (
	// Auto picks the strongest guarantee: the exact 3/2-approximation.
	Auto Algorithm = iota
	// TwoApprox is the linear-time 2-approximation (Theorem 1).
	TwoApprox
	// EpsilonSearch is the (3/2+eps)-approximation (Theorem 2).
	EpsilonSearch
	// Exact32 is the exact 3/2-approximation (Theorems 3, 6 and 8).
	Exact32
	// RefExact is the exact reference backend: a branch-and-bound over
	// the threshold/batch structure that computes the true optimum (ratio
	// exactly 1) for the non-preemptive variant, bounded by a node budget
	// (WithNodeBudget).  It exists to measure the approximation quality of
	// the paper's algorithms, not to replace them: budget exhaustion is a
	// normal outcome on adversarial instances and surfaces as an
	// *ExactBudgetError carrying a certified bracket on OPT.
	RefExact
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case TwoApprox:
		return "2-approximation"
	case EpsilonSearch:
		return "(3/2+eps)-approximation"
	case Exact32:
		return "3/2-approximation"
	case RefExact:
		return "refexact"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Result is the outcome of a solve.
type Result struct {
	// Schedule is the feasible schedule found.
	Schedule *Schedule
	// Makespan is the schedule's makespan.
	Makespan Rat
	// Guess is the accepted dual makespan guess T; the approximation
	// guarantee bounds Makespan by 3/2*Guess (2*Guess for TwoApprox).
	Guess Rat
	// LowerBound is a certified lower bound on the optimal makespan.
	LowerBound Rat
	// Ratio is Makespan/LowerBound, an upper bound on the realized
	// approximation ratio (reported as float for convenience).
	Ratio float64
	// Algorithm names the algorithm that produced the schedule.
	Algorithm string
	// Probes is the number of dual-test evaluations performed.
	Probes int
	// Fallback marks results from a search's documented bounded-round
	// conservative path: the schedule is still feasible and within 3/2 of
	// the accepted guess, but the certified LowerBound is conservative,
	// so Ratio may exceed the algorithm's usual guarantee.
	Fallback bool
	// Trace records the dual-test evaluations of the search in execution
	// order, one entry per probe, so len(Trace) == Probes.  Nil for
	// results that predate the Solver API (e.g. deserialized ones).
	Trace []Probe
}

// finish converts a core result.  The makespan is the one the builder
// emitted; Verify recomputes it from the slots.
func finish(r *core.Result) *Result {
	return &Result{
		Schedule:   r.Schedule,
		Makespan:   r.Makespan,
		Guess:      r.T,
		LowerBound: r.LowerBound,
		Ratio:      core.Ratio(r.Makespan, r.LowerBound),
		Algorithm:  r.Algorithm,
		Probes:     r.Probes,
		Fallback:   r.Fallback,
	}
}

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

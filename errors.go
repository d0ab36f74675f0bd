package setupsched

import (
	"errors"
	"fmt"

	"setupsched/internal/core"
)

// ErrNilInstance reports a nil *Instance argument.
var ErrNilInstance = errors.New("setupsched: nil instance")

// ErrCanceled matches (via errors.Is) any error returned because a solve
// was aborted by its context.  The returned error also unwraps to the
// context's own error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) keep working.
var ErrCanceled = core.ErrCanceled

// ErrProbeLimit is returned when a search exhausts the probe budget set
// with WithProbeLimit before converging.
var ErrProbeLimit = core.ErrProbeLimit

// ErrExactBudget matches (via errors.Is) any RefExact failure caused by
// the branch-and-bound node budget running out before the search
// converged.  The concrete error is an *ExactBudgetError carrying the
// certified bracket reached.
var ErrExactBudget = errors.New("setupsched: exact solve node budget exhausted")

// ErrExactUnsupported is returned when RefExact is requested for a
// variant the exact reference backend does not solve (it supports only
// NonPreemptive: the splittable and preemptive references have no
// schedule witness to return).
var ErrExactUnsupported = errors.New("setupsched: exact reference backend supports only the non-preemptive variant")

// ErrExactTooLarge is returned when RefExact is requested for an
// instance above the backend's size gate (see exact backend docs; the
// gate protects memory, not time — time is governed by the node budget).
var ErrExactTooLarge = errors.New("setupsched: instance too large for the exact reference backend")

// ExactBudgetError reports an exhausted RefExact node budget together
// with the certified bracket the search had reached: Lo <= OPT <= Hi.
// It matches ErrExactBudget via errors.Is.
type ExactBudgetError struct {
	Budget int64 // the configured node budget
	Nodes  int64 // nodes expanded when the budget ran out
	Lo, Hi int64 // certified bracket on the optimal makespan at abort
}

func (e *ExactBudgetError) Error() string {
	return fmt.Sprintf("setupsched: exact node budget %d exhausted after %d nodes (certified %d <= OPT <= %d)",
		e.Budget, e.Nodes, e.Lo, e.Hi)
}

// Is reports target == ErrExactBudget, tying the typed error to the
// sentinel.
func (e *ExactBudgetError) Is(target error) bool { return target == ErrExactBudget }

// ValidationError wraps an instance-validation failure from NewSolver or
// one of the solve entry points.  It unwraps to the underlying cause.
type ValidationError struct {
	Err error
}

func (e *ValidationError) Error() string { return e.Err.Error() }

// Unwrap returns the underlying validation failure.
func (e *ValidationError) Unwrap() error { return e.Err }

// EpsilonRangeError reports an epsilon outside the open interval (0, 1).
type EpsilonRangeError struct {
	Epsilon float64
}

func (e *EpsilonRangeError) Error() string {
	return fmt.Sprintf("setupsched: epsilon %g out of range (need 0 < eps < 1)", e.Epsilon)
}

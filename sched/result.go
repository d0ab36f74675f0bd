package sched

import "fmt"

// Algorithm selects the approximation algorithm of a solve.
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
	// (setupsched.WithNodeBudget).  It exists to measure the
	// approximation quality of the paper's algorithms, not to replace
	// them: budget exhaustion is a normal outcome on adversarial instances
	// and surfaces as a *setupsched.ExactBudgetError carrying a certified
	// bracket on OPT.
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

// Probe records one dual-test evaluation of a search (see Result.Trace).
type Probe struct {
	// T is the makespan guess that was tested.
	T Rat
	// Accepted reports the dual test's decision: true means a schedule
	// with makespan at most 3/2*T exists, false certifies T < OPT.
	Accepted bool
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
	// results that predate the Solver API (e.g. deserialized ones) and
	// for RefExact, whose Probes count the backend's threshold probes.
	Trace []Probe
}

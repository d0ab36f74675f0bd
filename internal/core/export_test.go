package core

import "setupsched/sched"

// Hooks for the external core_test package: a Class Jumping search's
// breakpoint keys and their scale, key k standing for the guess k/scale.

func PmtnBreakpoints(p *Prep, lo, hi sched.Rat) ([]int64, int64) {
	return p.pmtnBreakpoints(lo, hi), 3
}

func SplitBreakpoints(p *Prep, lo, hi sched.Rat) ([]int64, int64) {
	return p.splitBreakpoints(lo, hi), 1
}

var SortKeys = sortKeys

// The arena instances, the core-cold and churn shapes and the schedule
// clone of the package's own tests.
var (
	ArenaInstances   = arenaInstances
	CoreColdInstance = coreColdInstance
	ChurnInstance    = churnInstance
	CloneSchedule    = cloneSchedule
)

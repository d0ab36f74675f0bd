// Package sched defines the problem model for scheduling with batch setup
// times: instances (machines, job classes, setup times), schedules with
// exact rational time stamps, per-variant feasibility validation, the
// exact rational arithmetic they are built on, and the outcome of a solve
// (Algorithm, Result, Probe).
//
// The model follows Deppert & Jansen, "Near-Linear Approximation Algorithms
// for Scheduling Problems with Batch Setup Times" (SPAA 2019): n jobs are
// partitioned into c classes on m identical machines; a sequence-independent
// setup s_i must be scheduled whenever a machine starts processing jobs of
// class i or switches to class i from another class; setups are never
// preempted; the objective is to minimize the makespan.
package sched

import (
	"errors"
	"fmt"
)

// Variant selects one of the three problem flavors studied in the paper.
type Variant int

const (
	// Splittable allows jobs to be preempted and parallelized:
	// P | split, setup=s_i | Cmax.
	Splittable Variant = iota
	// Preemptive allows jobs to be preempted but not parallelized (a job
	// may run on at most one machine at any moment):
	// P | pmtn, setup=s_i | Cmax.
	Preemptive
	// NonPreemptive forbids preemption entirely:
	// P | setup=s_i | Cmax.
	NonPreemptive
)

// String returns the Graham-notation name of the variant.
func (v Variant) String() string {
	switch v {
	case Splittable:
		return "P|split,setup=s_i|Cmax"
	case Preemptive:
		return "P|pmtn,setup=s_i|Cmax"
	case NonPreemptive:
		return "P|setup=s_i|Cmax"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Short returns a short lowercase name for the variant.
func (v Variant) Short() string {
	switch v {
	case Splittable:
		return "splittable"
	case Preemptive:
		return "preemptive"
	case NonPreemptive:
		return "nonpreemptive"
	}
	return fmt.Sprintf("variant%d", int(v))
}

// Variants lists all three problem variants.
var Variants = []Variant{Splittable, Preemptive, NonPreemptive}

// Class is one batch class: a setup time and the processing times of the
// jobs belonging to the class.
type Class struct {
	// Setup is the sequence-independent setup time s_i >= 0.
	Setup int64 `json:"setup"`
	// Jobs holds the processing times t_j >= 1 of the jobs in this class.
	Jobs []int64 `json:"jobs"`
}

// Work returns the total processing time P(C_i) of the class.
func (c *Class) Work() int64 {
	var p int64
	for _, t := range c.Jobs {
		p += t
	}
	return p
}

// MaxJob returns max_{j in C_i} t_j, or 0 for an empty class.
func (c *Class) MaxJob() int64 {
	var mx int64
	for _, t := range c.Jobs {
		if t > mx {
			mx = t
		}
	}
	return mx
}

// Instance is a problem instance: m identical machines and c job classes.
type Instance struct {
	// M is the number of identical parallel machines (m >= 1).
	M int64 `json:"m"`
	// Classes holds the c job classes; every class must be nonempty.
	Classes []Class `json:"classes"`
}

// Magnitude limits accepted by Validate.  They guarantee that all exact
// rational arithmetic performed by the solvers stays within int64
// numerators and denominators (products are evaluated in 128 bits).
const (
	// MaxMachines bounds the machine count m.
	MaxMachines = int64(1) << 31
	// MaxTotalLoad bounds N = sum of all setups and processing times.
	MaxTotalLoad = int64(1) << 53
	// MaxMachineLoadProduct bounds m*N, which bounds every numerator the
	// solvers can produce (schedule times are < (3/2)*N with denominators
	// in O(m)).
	MaxMachineLoadProduct = int64(1) << 56
)

var (
	errNoMachines   = errors.New("sched: instance needs at least one machine")
	errNoClasses    = errors.New("sched: instance needs at least one class")
	errEmptyClass   = errors.New("sched: classes must be nonempty")
	errBadJob       = errors.New("sched: job processing times must be >= 1")
	errBadSetup     = errors.New("sched: setup times must be >= 0")
	errTooLarge     = errors.New("sched: instance exceeds supported magnitude limits")
	errTooManyMach  = errors.New("sched: machine count exceeds supported limit")
	errLoadOverflow = errors.New("sched: total load overflows supported limit")
)

// Validate checks structural validity and the documented magnitude limits.
func (in *Instance) Validate() error {
	if in.M < 1 {
		return errNoMachines
	}
	if in.M > MaxMachines {
		return errTooManyMach
	}
	if len(in.Classes) == 0 {
		return errNoClasses
	}
	var n int64
	for i := range in.Classes {
		c := &in.Classes[i]
		if len(c.Jobs) == 0 {
			return fmt.Errorf("%w (class %d)", errEmptyClass, i)
		}
		if c.Setup < 0 {
			return fmt.Errorf("%w (class %d)", errBadSetup, i)
		}
		n += c.Setup
		if n > MaxTotalLoad {
			return errLoadOverflow
		}
		for j, t := range c.Jobs {
			if t < 1 {
				return fmt.Errorf("%w (class %d job %d)", errBadJob, i, j)
			}
			n += t
			if n > MaxTotalLoad {
				return errLoadOverflow
			}
		}
	}
	// m*N bound, compared via division to stay within int64.
	if in.M > 0 && n > 0 && n > MaxMachineLoadProduct/in.M {
		return errTooLarge
	}
	return nil
}

// NumClasses returns c.
func (in *Instance) NumClasses() int { return len(in.Classes) }

// NumJobs returns n, the total number of jobs.
func (in *Instance) NumJobs() int {
	n := 0
	for i := range in.Classes {
		n += len(in.Classes[i].Jobs)
	}
	return n
}

// TotalWork returns P(J), the sum of all processing times.
func (in *Instance) TotalWork() int64 {
	var p int64
	for i := range in.Classes {
		p += in.Classes[i].Work()
	}
	return p
}

// TotalSetup returns the sum of all setup times (one per class).
func (in *Instance) TotalSetup() int64 {
	var s int64
	for i := range in.Classes {
		s += in.Classes[i].Setup
	}
	return s
}

// N returns the trivial upper bound N = sum_i s_i + sum_j t_j
// (everything on one machine, one setup per class).
func (in *Instance) N() int64 { return in.TotalWork() + in.TotalSetup() }

// MaxSetup returns s_max.
func (in *Instance) MaxSetup() int64 {
	var mx int64
	for i := range in.Classes {
		if in.Classes[i].Setup > mx {
			mx = in.Classes[i].Setup
		}
	}
	return mx
}

// MaxSetupPlusJob returns max_i (s_i + t_max^(i)), a lower bound on OPT for
// the preemptive and non-preemptive variants (paper Notes 1 and 2).
func (in *Instance) MaxSetupPlusJob() int64 {
	var mx int64
	for i := range in.Classes {
		v := in.Classes[i].Setup + in.Classes[i].MaxJob()
		if v > mx {
			mx = v
		}
	}
	return mx
}

// LowerBound returns the variant-specific trivial lower bound T_min on OPT:
//
//	splittable:              max(N/m, s_max)
//	preemptive/nonpreemptive: max(N/m, max_i(s_i + t_max^(i)))
//
// For the non-preemptive variant OPT is integral, so the bound is rounded
// up to the next integer.
func (in *Instance) LowerBound(v Variant) Rat {
	perMachine := RatOf(in.N(), in.M)
	switch v {
	case Splittable:
		return MaxRat(perMachine, R(in.MaxSetup()))
	case Preemptive:
		return MaxRat(perMachine, R(in.MaxSetupPlusJob()))
	default:
		lb := MaxRat(perMachine, R(in.MaxSetupPlusJob()))
		return R(lb.Ceil())
	}
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{M: in.M, Classes: make([]Class, len(in.Classes))}
	for i := range in.Classes {
		out.Classes[i] = Class{
			Setup: in.Classes[i].Setup,
			Jobs:  append([]int64(nil), in.Classes[i].Jobs...),
		}
	}
	return out
}

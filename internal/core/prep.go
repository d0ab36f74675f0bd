// Package core implements the approximation algorithms of Deppert & Jansen,
// "Near-Linear Approximation Algorithms for Scheduling Problems with Batch
// Setup Times" (SPAA 2019):
//
//   - 2-approximations in O(n) for all three variants (Appendix A.2);
//   - 3/2-dual approximations in O(n) for the splittable (Theorem 7),
//     preemptive (Theorems 4/5) and non-preemptive (Theorem 9) variants;
//   - (3/2+eps)-approximations via bracketed dual search (Theorem 2);
//   - exact 3/2-approximations via Class Jumping for the splittable
//     (Theorem 3, Algorithm 1) and preemptive (Theorem 6, Algorithm 4)
//     variants, and via integral binary search for the non-preemptive
//     variant (Theorem 8).
//
// A rho-dual approximation takes a makespan guess T and either builds a
// feasible schedule with makespan <= rho*T or rejects T, certifying
// T < OPT.  All accept/reject decisions here use exact rational arithmetic.
package core

import (
	"fmt"
	"slices"

	"setupsched/internal/num128"
	"setupsched/sched"
)

// cmpProd is the exact sign of a*b - c*d.
func cmpProd(a, b, c, d int64) int { return num128.CmpProd(a, b, c, d) }

// Prep carries the per-instance precomputation shared by all algorithms:
// class work sums, maxima and the trivial bounds.  Build once, reuse for
// every makespan probe.
//
// Concurrency contract: a Prep is immutable after Prepare returns (and the
// instance it wraps must not be mutated while in use).  Every Eval*,
// Build* and Solve* method only reads the Prep and keeps all mutable
// per-probe state in per-call evaluation records (SplitEval, PmtnEval,
// NonpEval) and builder locals, so any number of goroutines may run any
// of them on one shared Prep concurrently.  This is what allows one
// prepared instance to back whole-solve fan-out (the public
// Solver.SolveAll) without copies.
type Prep struct {
	In   *sched.Instance
	M    int64
	C    int
	NJob int

	P      []int64 // P[i] = P(C_i)
	TMaxC  []int64 // max job length per class
	Setups []int64 // Setups[i] = s_i (flat copy shared by all wrap calls)
	SMax   int64
	PJ     int64 // P(J) total work
	SumS   int64 // sum of all setups
	N      int64 // PJ + SumS
	SPT    int64 // max_i (s_i + tmax_i)

	// SoA eval layout.  The dual tests classify a class's jobs by monotone
	// thresholds on t (big jobs, the K set, the preemptive C*), so with the
	// jobs sorted ascending every classification is a binary search and
	// every classified work sum is one prefix-sum difference — the per-probe
	// cost drops from O(n) to O(c log(max_i |C_i|)).
	//
	// Sorted[i] holds class i's processing times ascending; Pref[i] has
	// length len(Sorted[i])+1 with Pref[i][k] = Sorted[i][0] + ... +
	// Sorted[i][k-1] (so Pref[i][len] = P[i]).  Both are carved from flat
	// arenas by the cold Prepare; Inc replaces only a touched class's
	// segments.  Job sums are exact int64 and addition is commutative, so
	// every quantity read off this layout is bit-identical to the
	// original-order walk it replaces.
	Sorted [][]int64
	Pref   [][]int64
}

// Prepare computes the shared per-instance data in O(n log(max_i |C_i|))
// — one pass for the sums plus the per-class job sort of the SoA eval
// layout.  The sort is paid once per instance; it buys O(c log) dual-test
// probes, which dominate every search.
func Prepare(in *sched.Instance) *Prep {
	p := &Prep{
		In:     in,
		M:      in.M,
		C:      len(in.Classes),
		P:      make([]int64, len(in.Classes)),
		TMaxC:  make([]int64, len(in.Classes)),
		Setups: make([]int64, len(in.Classes)),
	}
	for i := range in.Classes {
		c := &in.Classes[i]
		p.P[i] = c.Work()
		p.TMaxC[i] = c.MaxJob()
		p.Setups[i] = c.Setup
		p.PJ += p.P[i]
		p.SumS += c.Setup
		if c.Setup > p.SMax {
			p.SMax = c.Setup
		}
		if v := c.Setup + p.TMaxC[i]; v > p.SPT {
			p.SPT = v
		}
		p.NJob += len(c.Jobs)
	}
	p.N = p.PJ + p.SumS
	p.buildSoA()
	return p
}

// buildSoA constructs the sorted-jobs/prefix-sum arrays from the
// instance.  The per-class slices are carved out of two flat arenas so
// the whole layout is two allocations plus the slice headers.
func (p *Prep) buildSoA() {
	in := p.In
	sortedArena := make([]int64, p.NJob)
	prefArena := make([]int64, p.NJob+p.C)
	p.Sorted = make([][]int64, p.C)
	p.Pref = make([][]int64, p.C)
	so, po := 0, 0
	for i := range in.Classes {
		jobs := in.Classes[i].Jobs
		seg := sortedArena[so : so+len(jobs) : so+len(jobs)]
		copy(seg, jobs)
		slices.Sort(seg)
		pseg := prefArena[po : po+len(jobs)+1 : po+len(jobs)+1]
		fillPrefix(pseg, seg)
		p.Sorted[i] = seg
		p.Pref[i] = pseg
		so += len(jobs)
		po += len(jobs) + 1
	}
}

// classSoA (re)computes one class's sorted segment and prefix sums into
// fresh slices; Inc uses it to replace a touched class's layout.
func classSoA(jobs []int64) (sorted, pref []int64) {
	sorted = make([]int64, len(jobs))
	copy(sorted, jobs)
	slices.Sort(sorted)
	pref = make([]int64, len(jobs)+1)
	fillPrefix(pref, sorted)
	return sorted, pref
}

func fillPrefix(pref, sorted []int64) {
	var sum int64
	pref[0] = 0
	for k, t := range sorted {
		sum += t
		pref[k+1] = sum
	}
}

// lowerBound64 returns the first index with a[idx] >= v (len(a) if none).
func lowerBound64(a []int64, v int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TMin returns the variant-specific trivial lower bound on OPT.
func (p *Prep) TMin(v sched.Variant) sched.Rat {
	perMachine := sched.RatOf(p.N, p.M)
	switch v {
	case sched.Splittable:
		return sched.MaxRat(perMachine, sched.R(p.SMax))
	case sched.Preemptive:
		return sched.MaxRat(perMachine, sched.R(p.SPT))
	default:
		return sched.R(sched.MaxRat(perMachine, sched.R(p.SPT)).Ceil())
	}
}

// setups returns the shared per-class setup slice (for wrap calls).  The
// slice is part of the immutable Prep; callers must not modify it.
func (p *Prep) setups() []int64 { return p.Setups }

// dualThresholds turns the partition comparisons of the splittable and
// preemptive dual tests into int64 compares, computed once per
// evaluation.  Every value compared against them (2s_i, 4s_i, s_i+P_i,
// 4(s_i+P_i), 2(s_i+t_j)) is an integer below 4 MaxTotalLoad < 2^56, so
// at a point T
//
//	x > T   <=>  x >= floor(T)+1    (above)
//	x < T   <=>  x <= ceil(T)-1     (below)
//	4x > 3T <=>  4x >= floor(3T)+1  (above3)
//
// and on an open interval (T, hi), for every T' inside at once,
//
//	x > T'   <=>  x >= ceil(hi)     (above)
//	x < T'   <=>  x <= floor(T)     (below)
//	4x > 3T' <=>  4x >= ceil(3hi)   (above3).
//
// above and above3 are clamped to thrCap, which no compared value
// reaches, so a huge guess cannot overflow them.
type dualThresholds struct {
	point bool
	// ref is T at a point and hi on an interval: the guess the machine
	// counts and the capacity tests are taken at.
	ref                  sched.Rat
	above, below, above3 int64
}

const thrCap = int64(1) << 62

func newDualThresholds(T sched.Rat, hi *sched.Rat) dualThresholds {
	if hi == nil {
		t3, ok := num128.FloorDiv(3, T.Num(), T.Den())
		if !ok {
			t3 = thrCap
		}
		return dualThresholds{
			point: true, ref: T,
			above:  min(T.Floor(), thrCap) + 1,
			below:  T.Ceil() - 1,
			above3: min(t3, thrCap) + 1,
		}
	}
	h3, ok := num128.CeilDiv(3, hi.Num(), hi.Den())
	if !ok {
		h3 = thrCap
	}
	return dualThresholds{
		ref:    *hi,
		above:  min(hi.Ceil(), thrCap),
		below:  T.Floor(),
		above3: min(h3, thrCap),
	}
}

// jumps returns ceil(x/T) at a point and floor(x/hi)+1 on an interval,
// an exact 128-bit division: beta_i = jumps(2 P_i) is the splittable
// machine count.
func (th *dualThresholds) jumps(x int64) int64 {
	if th.point {
		return sched.CeilDivInt(x, th.ref)
	}
	return sched.FloorDivInt(x, th.ref) + 1
}

// gamma returns the Section 4.4 machine count
// max(ceil(2(s_i+P_i)/T) - 2, 1) of an I+exp class with s_i+P_i = sp.
func (th *dualThresholds) gamma(sp int64) int64 {
	return max(th.jumps(2*sp)-2, 1)
}

// errInternal wraps construction-invariant violations.  These indicate a
// bug (the dual accept conditions guarantee constructibility) and are
// surfaced rather than silently producing an invalid schedule.
func errInternal(format string, args ...any) error {
	return fmt.Errorf("core: internal invariant violation: "+format, args...)
}

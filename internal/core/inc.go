package core

import (
	"fmt"
	"slices"

	"setupsched/sched"
)

// incStalenessBase is the minimum number of absorbed deltas before the
// staleness fallback considers a full rebuild.
const incStalenessBase = 64

// Inc maintains a Prep incrementally under instance deltas, so a stream
// of small edits pays O(|C_i| log |C_i|) for a job edit of class i (plus
// the slice edit) per change instead of the O(n) cold Prepare pass.
//
// The maintained state is exactly what Prepare computes:
//
//   - running sums (PJ, SumS, N, NJob and the per-class work P[i]) are
//     patched by the delta's exact integer contribution;
//   - the per-class Setups and TMaxC slices are patched in place (removals
//     are order-preserving, matching sched.Delta.Apply);
//   - the SoA eval layout (Sorted/Pref) is refreshed only for the touched
//     class — re-sorting one class is O(|C_i| log |C_i|), not O(n);
//   - SMax and SPT, which a removal can decrease, are the last entries of
//     two ascending multisets, of the per-class setups s_i and of the
//     per-class bounds s_i + t_max^(i), maintained by binary-search
//     insert/delete.
//
// All patches are exact int64 arithmetic on values a fresh Prepare would
// recompute, so the maintained Prep is field-for-field identical to
// Prepare(in) at every point — the property the session layer's
// incremental-vs-fresh bit-identity guarantee rests on, and what Check
// verifies.  As a defensive bound on drift, Inc falls back to a full
// rebuild once the number of absorbed deltas since the last rebuild
// exceeds the staleness threshold max(64, c).
//
// Inc is not safe for concurrent use: the owner must serialize Apply
// against any solve using the Prep (stream.Session holds its lock across
// both), because solvers rely on the Prep being immutable while running.
type Inc struct {
	p *Prep
	// setupsSorted and sptSorted are the ascending multisets of the
	// per-class values s_i and s_i + t_max^(i); their last elements are
	// SMax and SPT.
	setupsSorted, sptSorted []int64
	patched                 int // deltas absorbed since the last full (re)build
	rebuilds                int
}

// NewInc prepares the instance and builds the incremental state.  The
// instance must be valid; Inc assumes ownership of keeping the Prep in
// sync — the caller must route every subsequent mutation through Apply.
func NewInc(in *sched.Instance) *Inc {
	inc := &Inc{p: Prepare(in)}
	inc.rebuildSorted()
	return inc
}

// Prep returns the maintained preparation.  The pointer changes on
// rebuilds; callers must re-fetch it after every Apply.
func (inc *Inc) Prep() *Prep { return inc.p }

// N returns the maintained total load (setups + processing times).
func (inc *Inc) N() int64 { return inc.p.N }

// Patched returns the number of deltas absorbed since the last rebuild.
func (inc *Inc) Patched() int { return inc.patched }

// Rebuilds returns how many staleness-triggered full rebuilds have run.
func (inc *Inc) Rebuilds() int { return inc.rebuilds }

func (inc *Inc) rebuildSorted() {
	p := inc.p
	inc.setupsSorted = append(inc.setupsSorted[:0], p.Setups...)
	slices.Sort(inc.setupsSorted)
	inc.sptSorted = append(inc.sptSorted[:0], p.Setups...)
	for i, t := range p.TMaxC {
		inc.sptSorted[i] += t
	}
	slices.Sort(inc.sptSorted)
}

// Rebuild discards the patched state and re-runs the O(n) Prepare pass.
func (inc *Inc) Rebuild() {
	inc.p = Prepare(inc.p.In)
	inc.rebuildSorted()
	inc.patched = 0
	inc.rebuilds++
}

// Apply validates the delta (sched.Delta.ApplyWithLoad with the tracked
// load), applies it to the underlying instance, and patches the Prep.  On
// a validation error neither the instance nor the Prep changes.
func (inc *Inc) Apply(d sched.Delta) error {
	p := inc.p
	in := p.In

	// Pre-state the patches need (captured before the instance mutates).
	var oldSetup, oldJob int64
	var oldClassJobs int
	switch d.Op {
	case sched.DeltaSetSetup:
		if d.Class >= 0 && d.Class < len(in.Classes) {
			oldSetup = in.Classes[d.Class].Setup
		}
	case sched.DeltaRemoveJob:
		if d.Class >= 0 && d.Class < len(in.Classes) {
			if cl := &in.Classes[d.Class]; d.Job >= 0 && d.Job < len(cl.Jobs) {
				oldJob = cl.Jobs[d.Job]
			}
		}
	case sched.DeltaRemoveClass:
		if d.Class >= 0 && d.Class < len(in.Classes) {
			oldClassJobs = len(in.Classes[d.Class].Jobs)
		}
	}

	newN, err := d.ApplyWithLoad(in, p.N)
	if err != nil {
		return err
	}
	inc.patched++

	switch d.Op {
	case sched.DeltaAddJobs:
		i := d.Class
		var sum int64
		mx := p.TMaxC[i]
		for _, t := range d.Jobs {
			sum += t
			if t > mx {
				mx = t
			}
		}
		p.P[i] += sum
		p.PJ += sum
		p.NJob += len(d.Jobs)
		p.Sorted[i], p.Pref[i] = classSoA(in.Classes[i].Jobs)
		inc.setTMax(i, mx)

	case sched.DeltaRemoveJob:
		i := d.Class
		p.P[i] -= oldJob
		p.PJ -= oldJob
		p.NJob--
		p.Sorted[i], p.Pref[i] = classSoA(in.Classes[i].Jobs)
		if oldJob == p.TMaxC[i] {
			// The removed job may have been the class maximum; the new
			// maximum is the last sorted entry.
			var mx int64
			if n := len(p.Sorted[i]); n > 0 {
				mx = p.Sorted[i][n-1]
			}
			inc.setTMax(i, mx)
		}

	case sched.DeltaSetSetup:
		i := d.Class
		p.SumS += d.Setup - oldSetup
		inc.setupsSorted = inc.replaceSorted(inc.setupsSorted, oldSetup, d.Setup)
		inc.sptSorted = inc.replaceSorted(inc.sptSorted, oldSetup+p.TMaxC[i], d.Setup+p.TMaxC[i])
		p.Setups[i] = d.Setup

	case sched.DeltaAddClass:
		cl := &in.Classes[len(in.Classes)-1]
		w, mx := cl.Work(), cl.MaxJob()
		p.P = append(p.P, w)
		p.TMaxC = append(p.TMaxC, mx)
		p.Setups = append(p.Setups, cl.Setup)
		srt, pref := classSoA(cl.Jobs)
		p.Sorted = append(p.Sorted, srt)
		p.Pref = append(p.Pref, pref)
		p.PJ += w
		p.SumS += cl.Setup
		p.NJob += len(cl.Jobs)
		p.C++
		inc.setupsSorted = insertSorted(inc.setupsSorted, cl.Setup)
		inc.sptSorted = insertSorted(inc.sptSorted, cl.Setup+mx)

	case sched.DeltaRemoveClass:
		i := d.Class
		p.PJ -= p.P[i]
		p.SumS -= p.Setups[i]
		p.NJob -= oldClassJobs
		p.C--
		inc.setupsSorted = inc.removeSorted(inc.setupsSorted, p.Setups[i])
		inc.sptSorted = inc.removeSorted(inc.sptSorted, p.Setups[i]+p.TMaxC[i])
		p.P = append(p.P[:i], p.P[i+1:]...)
		p.TMaxC = append(p.TMaxC[:i], p.TMaxC[i+1:]...)
		p.Setups = append(p.Setups[:i], p.Setups[i+1:]...)
		p.Sorted = append(p.Sorted[:i], p.Sorted[i+1:]...)
		p.Pref = append(p.Pref[:i], p.Pref[i+1:]...)

	case sched.DeltaSetMachines:
		p.M = in.M
	}

	p.N = newN
	if n := len(inc.setupsSorted); n > 0 {
		p.SMax = inc.setupsSorted[n-1]
	}
	if n := len(inc.sptSorted); n > 0 {
		p.SPT = inc.sptSorted[n-1]
	}

	if threshold := max(incStalenessBase, p.C); inc.patched >= threshold {
		inc.Rebuild()
	}
	return nil
}

// setTMax patches class i's largest job to mx, moving its SPT bound in
// the multiset.
func (inc *Inc) setTMax(i int, mx int64) {
	p := inc.p
	inc.sptSorted = inc.replaceSorted(inc.sptSorted, p.Setups[i]+p.TMaxC[i], p.Setups[i]+mx)
	p.TMaxC[i] = mx
}

// replaceSorted replaces one occurrence of old by new in the multiset s.
func (inc *Inc) replaceSorted(s []int64, old, new int64) []int64 {
	if old == new {
		return s
	}
	return insertSorted(inc.removeSorted(s, old), new)
}

func insertSorted(s []int64, v int64) []int64 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

// removeSorted deletes one occurrence of v.  A missing value would mean
// the multiset drifted from the instance — a bug; rather than corrupt the
// maxima silently, the Inc schedules an immediate rebuild by treating the
// state as fully stale.
func (inc *Inc) removeSorted(s []int64, v int64) []int64 {
	if i, ok := slices.BinarySearch(s, v); ok {
		return slices.Delete(s, i, i+1)
	}
	inc.patched = 1 << 30 // force the staleness rebuild at the end of Apply
	return s
}

// Check verifies the maintained Prep against a fresh Prepare of the same
// instance, field for field — including the SoA eval layout, which the
// dual tests read on every probe.  It backs the session self-checks and
// the delta fuzz target; any difference is an Inc bug.
func (inc *Inc) Check() error {
	got, want := inc.p, Prepare(inc.p.In)
	switch {
	case got.M != want.M:
		return fmt.Errorf("core: Inc drift: M %d != %d", got.M, want.M)
	case got.C != want.C:
		return fmt.Errorf("core: Inc drift: C %d != %d", got.C, want.C)
	case got.NJob != want.NJob:
		return fmt.Errorf("core: Inc drift: NJob %d != %d", got.NJob, want.NJob)
	case got.PJ != want.PJ:
		return fmt.Errorf("core: Inc drift: PJ %d != %d", got.PJ, want.PJ)
	case got.SumS != want.SumS:
		return fmt.Errorf("core: Inc drift: SumS %d != %d", got.SumS, want.SumS)
	case got.N != want.N:
		return fmt.Errorf("core: Inc drift: N %d != %d", got.N, want.N)
	case got.SMax != want.SMax:
		return fmt.Errorf("core: Inc drift: SMax %d != %d", got.SMax, want.SMax)
	case got.SPT != want.SPT:
		return fmt.Errorf("core: Inc drift: SPT %d != %d", got.SPT, want.SPT)
	case !slices.Equal(got.P, want.P):
		return fmt.Errorf("core: Inc drift: per-class work sums differ")
	case !slices.Equal(got.TMaxC, want.TMaxC):
		return fmt.Errorf("core: Inc drift: per-class max jobs differ")
	case !slices.Equal(got.Setups, want.Setups):
		return fmt.Errorf("core: Inc drift: per-class setups differ")
	}
	for i := range want.Sorted {
		if !slices.Equal(got.Sorted[i], want.Sorted[i]) {
			return fmt.Errorf("core: Inc drift: sorted jobs of class %d differ", i)
		}
		if !slices.Equal(got.Pref[i], want.Pref[i]) {
			return fmt.Errorf("core: Inc drift: prefix sums of class %d differ", i)
		}
	}
	fresh := &Inc{p: want}
	fresh.rebuildSorted()
	if !slices.Equal(inc.setupsSorted, fresh.setupsSorted) {
		return fmt.Errorf("core: Inc drift: sorted setups differ from the fresh Prep's")
	}
	if !slices.Equal(inc.sptSorted, fresh.sptSorted) {
		return fmt.Errorf("core: Inc drift: sorted spt bounds differ from the fresh Prep's")
	}
	return nil
}

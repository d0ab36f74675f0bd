package core

import (
	"math"
	"slices"
	"sort"

	"setupsched/sched"
)

// Result is the outcome of a full approximation run.
type Result struct {
	Schedule *sched.Schedule
	// Makespan is the schedule's makespan as its builder emitted it, the
	// latest slot end, equal to Schedule.Makespan() without a pass over
	// the slots.
	Makespan sched.Rat
	// T is the accepted makespan guess the schedule was built for; the
	// schedule's makespan is at most 3/2*T (2*T for the 2-approximations).
	T sched.Rat
	// LowerBound is a certified lower bound on OPT (OPT >= LowerBound),
	// derived from rejected guesses and the trivial bounds.
	LowerBound sched.Rat
	// Algorithm names the algorithm that produced the schedule.
	Algorithm string
	// Probes counts dual-test evaluations performed by the search.
	Probes int
	// Fallback marks the bounded-round conservative paths: the schedule
	// and its 3/2*T bound are still sound, but the certified LowerBound is
	// conservative, so Makespan/LowerBound may exceed the search's usual
	// guarantee.
	Fallback bool
	// SeedLo is the final rejected end of the search bracket (every probe
	// at or below it was rejected, certifying OPT > SeedLo) when HasSeedLo;
	// searches that accepted the trivial bound outright have none.  A
	// subsequent solve of a slightly changed instance warm-starts from
	// (SeedLo, T) via Ctl.Seed.
	SeedLo    sched.Rat
	HasSeedLo bool
	// SeedUsed reports that a Ctl.Seed guess was validated by its probe
	// and narrowed the bracket (a warm hit).
	SeedUsed bool
}

// Ratio returns makespan/lowerBound as a float, an upper bound on the
// realized approximation ratio of a result with that makespan and
// certified lower bound.
func Ratio(makespan, lowerBound sched.Rat) float64 {
	lb := lowerBound.Float64()
	if lb <= 0 {
		return math.Inf(1)
	}
	return makespan.Float64() / lb
}

// bracket maintains the dual-search invariant: every probe at or below lo
// was rejected (or lo is the trivial lower bound), so OPT > every rejected
// point; hi was accepted.
//
// The bracket is also the choke point for per-probe control: every probe
// first checks the Ctl's context and probe budget and notifies its
// observer.  Once err is set (cancellation or budget exhaustion) all
// further probes are no-ops that report rejection without moving the
// bracket; callers must check err before trusting the bracket or building
// a schedule.
type bracket struct {
	lo, hi sched.Rat
	probes int
	ctl    Ctl
	err    error
	// seeded records that a Ctl.Seed hi-guess was confirmed by its probe
	// (a warm hit); surfaced as Result.SeedUsed.
	seeded bool
}

// seedNarrow probes the Ctl's warm-start guesses, narrowing the bracket
// before the main search phases run.  It must be called after the trivial
// lower bound was probed and rejected (so br.lo is a certified reject) and
// before the trivial upper bound is probed.  It reports whether an
// accepted seed established the bracket's upper end, in which case the
// caller may skip its trivial-upper-bound probe (acceptance at the larger
// trivial bound is implied by monotonicity).  Each guess is validated by a
// real probe and only adopted strictly inside the current bracket, so a
// wrong seed cannot corrupt the bracket invariant or the final answer.
func (br *bracket) seedNarrow(test func(sched.Rat) bool) (hiSeeded bool) {
	sd := br.ctl.Seed
	if sd == nil {
		return false
	}
	// His in optimism order until one confirms: a rejected hi candidate
	// still helps (it becomes the new lo).
	for _, hi := range sd.His {
		if br.err != nil {
			return hiSeeded
		}
		if !br.lo.Less(hi) || !hi.Less(br.hi) {
			continue
		}
		if br.probe(test, hi) {
			hiSeeded = true
			br.seeded = true
			break
		}
	}
	// Los mirror the His: stop once one rejects (lo established); an
	// accepted lo candidate became the new hi (the threshold moved below
	// it), so the next, smaller candidate is still worth probing.
	for _, lo := range sd.Los {
		if br.err != nil {
			return hiSeeded
		}
		if !br.lo.Less(lo) || !lo.Less(br.hi) {
			continue
		}
		if !br.probe(test, lo) {
			break
		}
		// The candidate accepted: it is now a certified upper end, which
		// also makes the trivial-upper-bound probe redundant.
		hiSeeded = true
		br.seeded = true
	}
	return hiSeeded
}

// annotate fills a Result's warm-start bookkeeping from the bracket's
// final state.  loRejected must report whether br.lo is a probed rejected
// guess (false only on the early trivial-bound accept paths).
func (br *bracket) annotate(r *Result, loRejected bool) *Result {
	r.SeedUsed = br.seeded
	if loRejected {
		r.SeedLo, r.HasSeedLo = br.lo, true
	}
	return r
}

// begin performs the pre-probe bookkeeping (cancellation check, probe
// budget, observer notification).  It reports whether the probe may run;
// on false the bracket's err is set.
func (br *bracket) begin(T sched.Rat) bool {
	if br.err != nil {
		return false
	}
	if err := br.ctl.interrupted(); err != nil {
		br.err = err
		return false
	}
	if br.ctl.ProbeLimit > 0 && br.probes >= br.ctl.ProbeLimit {
		br.err = ErrProbeLimit
		return false
	}
	br.probes++
	if br.ctl.Obs != nil {
		br.ctl.Obs.ProbeStarted(T)
	}
	return true
}

// end performs the post-probe observer notification.
func (br *bracket) end(T sched.Rat, accepted bool) {
	if br.ctl.Obs != nil {
		br.ctl.Obs.ProbeFinished(T, accepted)
	}
}

// checkpoint reports any pending abort condition (set error, canceled
// context).  Solvers call it before expensive post-search work such as
// schedule construction, so an expired deadline is honored even when
// every probe beat it.
func (br *bracket) checkpoint() error {
	if br.err == nil {
		br.err = br.ctl.interrupted()
	}
	return br.err
}

// probe tests T and narrows the bracket, keeping the invariant.
func (br *bracket) probe(test func(sched.Rat) bool, T sched.Rat) bool {
	if !br.begin(T) {
		return false
	}
	ok := test(T)
	br.end(T, ok)
	if ok {
		br.hi = T
		return true
	}
	br.lo = T
	return false
}

// narrowOnCandidates binary-searches the sorted ascending candidate list,
// restricted to the open interval (lo, hi), until no candidate remains
// strictly inside the bracket.  The breakpoint lists take narrowOnKeys.
func (br *bracket) narrowOnCandidates(test func(sched.Rat) bool, cands []sched.Rat) {
	lo := sort.Search(len(cands), func(i int) bool { return br.lo.Less(cands[i]) })
	hi := sort.Search(len(cands), func(i int) bool { return !cands[i].Less(br.hi) })
	for lo < hi && br.err == nil {
		mid := lo + (hi-lo)/2
		c := cands[mid]
		if !br.lo.Less(c) { // candidate slid out of the bracket
			lo = mid + 1
			continue
		}
		if !c.Less(br.hi) {
			hi = mid
			continue
		}
		if br.probe(test, c) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
}

// narrowOnKeys is narrowOnCandidates over ascending, distinct breakpoint
// keys k = scale*T: it restricts and bisects them as int64s and builds
// the Rat k/scale only for a key it probes.  Key order and equality are
// those of the Rats, so it probes exactly what narrowOnCandidates would
// on the Rat list.
func (br *bracket) narrowOnKeys(test func(sched.Rat) bool, keys []int64, scale int64) {
	kLo, kHi := keyWindow(br.lo, br.hi, scale)
	lo, _ := slices.BinarySearch(keys, kLo+1)
	hi, _ := slices.BinarySearch(keys, kHi)
	for lo < hi && br.err == nil {
		mid := lo + (hi-lo)/2
		if br.probe(test, sched.RatOf(keys[mid], scale)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
}

// narrowOnJumps binary-searches the decreasing jump family jumpAt(g) for
// g in [gLo, gHi], narrowing the bracket until no family member remains
// strictly inside.
func (br *bracket) narrowOnJumps(test func(sched.Rat) bool, jumpAt func(int64) sched.Rat, gLo, gHi int64) {
	for gLo <= gHi && br.err == nil {
		g := gLo + (gHi-gLo)/2
		T := jumpAt(g) // decreasing in g
		switch {
		case !br.lo.Less(T): // T <= lo: larger g values are even smaller
			gHi = g - 1
		case !T.Less(br.hi): // T >= hi
			gLo = g + 1
		case br.probe(test, T):
			gLo = g + 1
		default:
			gHi = g - 1
		}
	}
}

// sortRats sorts a slice of rationals ascending and removes duplicates.
func sortRats(rs []sched.Rat) []sched.Rat {
	slices.SortFunc(rs, sched.Rat.Cmp)
	return slices.CompactFunc(rs, sched.Rat.Equal)
}

// keyWindow returns the exclusive integer bounds of the breakpoint keys
// k = scale*T with T strictly inside (lo, hi): lo < k/scale < hi holds
// exactly when floor(scale*lo) < k < ceil(scale*hi).
func keyWindow(lo, hi sched.Rat, scale int64) (kLo, kHi int64) {
	return lo.MulInt(scale).Floor(), hi.MulInt(scale).Ceil()
}

// sortKeys sorts breakpoint keys ascending and removes duplicates.  Every
// key must exceed kLo.  It is an LSD radix sort on the offsets k - kLo,
// one stable counting pass per byte in which the offsets differ, so it
// costs O(k) per pass; keys below 12 MaxTotalLoad < 2^57 need at most 8
// passes.  The passes alternate between keys and one scratch buffer, and
// the result may live in either.
func sortKeys(keys []int64, kLo int64) []int64 {
	if len(keys) < 2 {
		return keys
	}
	var varying uint64
	first := uint64(keys[0] - kLo)
	for _, k := range keys {
		varying |= uint64(k-kLo) ^ first
	}
	src, dst := keys, make([]int64, len(keys))
	for shift := uint(0); varying>>shift != 0; shift += 8 {
		if (varying>>shift)&0xff == 0 {
			continue
		}
		var count [256]int
		for _, k := range src {
			count[(uint64(k-kLo)>>shift)&0xff]++
		}
		pos := 0
		for b, c := range count {
			count[b] = pos
			pos += c
		}
		for _, k := range src {
			b := (uint64(k-kLo) >> shift) & 0xff
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	return slices.Compact(src)
}

// SolveSplit2 runs the splittable 2-approximation (Theorem 1).
func (p *Prep) SolveSplit2(ctl Ctl) (*Result, error) {
	defer p.release(ctl.borrow())
	if err := ctl.interrupted(); err != nil {
		return nil, err
	}
	s, mk, err := p.TwoApproxSplit(&ctl.Scratch.Run)
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, Makespan: mk, T: s.T, LowerBound: p.TMin(sched.Splittable), Algorithm: "split/2approx"}, nil
}

// SolveNonp2 runs the non-preemptive (or preemptive) 2-approximation.
func (p *Prep) SolveNonp2(ctl Ctl, v sched.Variant) (*Result, error) {
	defer p.release(ctl.borrow())
	if err := ctl.interrupted(); err != nil {
		return nil, err
	}
	s, mk, err := p.TwoApproxNonPreemptive(v, &ctl.Scratch.Run)
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, Makespan: mk, T: s.T, LowerBound: p.TMin(v), Algorithm: v.Short() + "/2approx"}, nil
}

// EpsRat exposes the rational tolerance SolveEps actually searches with
// for a float eps: the guarantee the eps-search certifies is
// (3/2)(1 + EpsRat(eps)), so exact guarantee checks must compare against
// this value, not against the float the caller passed.
func EpsRat(eps float64) sched.Rat { return epsToRat(eps) }

// epsToRat converts a float tolerance to a rational (rounded up slightly).
func epsToRat(eps float64) sched.Rat {
	if eps <= 0 {
		eps = 1e-6
	}
	if eps > 1 {
		eps = 1
	}
	const den = 1 << 20
	num := int64(math.Ceil(eps * den))
	if num < 1 {
		num = 1
	}
	return sched.RatOf(num, den)
}

// SolveEps runs the (3/2+eps)-approximation (Theorem 2): binary search on
// the 3/2-dual test over [T_min, N] until the bracket's relative width is
// below eps, then build at the accepted end.
func (p *Prep) SolveEps(ctl Ctl, v sched.Variant, eps float64) (*Result, error) {
	defer p.release(ctl.borrow())
	test, build, name := p.dualFor(ctl, v)
	tmin := p.TMin(v)
	br := &bracket{lo: tmin, hi: sched.R(p.N), ctl: ctl}
	if br.probe(test, tmin) {
		if err := br.checkpoint(); err != nil {
			return nil, err
		}
		s, mk, err := build(tmin)
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: s, Makespan: mk, T: tmin, LowerBound: tmin, Algorithm: name + "/eps", Probes: br.probes}, nil
	}
	if !br.probe(test, sched.R(p.N)) {
		if br.err != nil {
			return nil, br.err
		}
		return nil, errInternal("dual test rejected the trivial upper bound N (unsound rejection)")
	}
	er := epsToRat(eps)
	converged := func() bool { return br.hi.Sub(br.lo).Cmp(br.lo.Mul(er)) <= 0 }
	for iter := 0; iter < 128 && br.err == nil; iter++ {
		if converged() {
			break
		}
		br.probe(test, sched.Mid(br.lo, br.hi))
	}
	if err := br.checkpoint(); err != nil {
		return nil, err
	}
	s, mk, err := build(br.hi)
	if err != nil {
		return nil, err
	}
	return br.annotate(&Result{Schedule: s, Makespan: mk, T: br.hi, LowerBound: br.lo, Algorithm: name + "/eps", Probes: br.probes}, true), nil
}

// buildFunc builds the schedule for an accepted guess T and returns it
// with the makespan the builder emitted.
type buildFunc func(T sched.Rat) (*sched.Schedule, sched.Rat, error)

// dualFor returns the dual test and builder for a variant; the builders
// and the non-preemptive test draw on the Ctl's scratch.
func (p *Prep) dualFor(ctl Ctl, v sched.Variant) (func(sched.Rat) bool, buildFunc, string) {
	switch v {
	case sched.Splittable:
		return p.splitOK,
			func(T sched.Rat) (*sched.Schedule, sched.Rat, error) {
				return p.BuildSplitScratch(p.EvalSplit(T, nil), &ctl.Scratch.Run)
			},
			"split"
	case sched.Preemptive:
		return p.pmtnOK,
			func(T sched.Rat) (*sched.Schedule, sched.Rat, error) {
				return p.BuildPmtnScratch(p.EvalPmtn(T, nil), &ctl.Scratch.Run)
			},
			"pmtn"
	default:
		// Non-preemptive probes route through the reusable eval scratch.
		sc := &ctl.Scratch.Eval
		return func(T sched.Rat) bool { return p.EvalNonpScratch(T, sc).OK },
			func(T sched.Rat) (*sched.Schedule, sched.Rat, error) {
				return p.BuildNonpScratch(p.EvalNonpScratch(T, sc), ctl.Scratch)
			},
			"nonp"
	}
}

// SolveSplitJump is the exact 3/2-approximation for the splittable case in
// O(n + c log(c+m)) via Class Jumping (Theorem 3, Algorithm 1).
//
// The search maintains a right interval (lo, hi]: lo rejected (so
// OPT > lo), hi accepted.  Phase A removes all partition breakpoints 2 s_i
// from the interval, radix-sorting only the k of them strictly inside it
// as exact int64 keys in O(c + k) (see splitBreakpoints and sortKeys);
// phase B removes the jumps 2 P_f / g of a fastest
// expensive class f; phase C removes the remaining (at most one per class,
// Lemma 3) jumps.  On the final jump-free interval the required load L and
// machine count m_exp are constant, so the smallest acceptable makespan is
// either hi or L/m, decided in O(1) (step 9 of Algorithm 1).
func (p *Prep) SolveSplitJump(ctl Ctl) (*Result, error) {
	defer p.release(ctl.borrow())
	test := p.splitOK
	tmin := p.TMin(sched.Splittable)
	br := &bracket{lo: tmin, hi: sched.R(p.N), ctl: ctl}
	if br.probe(test, tmin) {
		if err := br.checkpoint(); err != nil {
			return nil, err
		}
		s, mk, err := p.BuildSplitScratch(p.EvalSplit(tmin, nil), &ctl.Scratch.Run)
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: s, Makespan: mk, T: tmin, LowerBound: tmin, Algorithm: "split/jump", Probes: br.probes}, nil
	}
	// Warm start: a confirmed seed hi makes the N probe redundant (N >= hi
	// is accepted by monotonicity).
	if !br.seedNarrow(test) {
		if !br.probe(test, sched.R(p.N)) {
			if br.err != nil {
				return nil, br.err
			}
			return nil, errInternal("splittable dual rejected N")
		}
	}
	if br.err != nil {
		return nil, br.err
	}

	// Phase A: partition breakpoints 2 s_i.
	br.narrowOnKeys(test, p.splitBreakpoints(br.lo, br.hi), 1)
	if br.err != nil {
		return nil, br.err
	}

	// Phases B + C: jumps of expensive classes.
	evInt := p.EvalSplit(br.lo, &br.hi)
	if len(evInt.Exp) > 0 {
		// Fastest jumping class f: maximal P_f.
		f := evInt.Exp[0]
		for _, i := range evInt.Exp {
			if p.P[i] > p.P[f] {
				f = i
			}
		}
		jumpAt := func(g int64) sched.Rat { return sched.RatOf(2*p.P[f], g) }
		gLo := sched.FloorDivInt(2*p.P[f], br.hi) + 1
		gHi := sched.CeilDivInt(2*p.P[f], br.lo) - 1
		br.narrowOnJumps(test, jumpAt, gLo, gHi)

		// Phase C: at most one jump per remaining class inside (lo, hi).
		var cands []sched.Rat
		for _, i := range evInt.Exp {
			if i == f {
				continue
			}
			g0 := sched.FloorDivInt(2*p.P[i], br.hi) + 1
			g1 := sched.CeilDivInt(2*p.P[i], br.lo) - 1
			for g := g0; g <= g1 && g-g0 < 8; g++ {
				J := sched.RatOf(2*p.P[i], g)
				if br.lo.Less(J) && J.Less(br.hi) {
					cands = append(cands, J)
				}
			}
		}
		br.narrowOnCandidates(test, sortRats(cands))
	}
	if br.err != nil {
		return nil, br.err
	}

	// Closing step (Algorithm 1, step 9).
	return p.closeJump(br, p.EvalSplit(br.lo, &br.hi).machineData(), test,
		func(T sched.Rat) (*sched.Schedule, sched.Rat, error) {
			return p.BuildSplitScratch(p.EvalSplit(T, nil), &ctl.Scratch.Run)
		},
		"split/jump")
}

// splitBreakpoints returns the keys of the splittable partition
// breakpoints 2 s_i strictly inside (lo, hi), ascending and distinct.
// The key of a breakpoint T is T itself (scale 1), an integer
// 2 s_i <= 2 MaxTotalLoad (see pmtnBreakpoints).
func (p *Prep) splitBreakpoints(lo, hi sched.Rat) []int64 {
	kLo, kHi := keyWindow(lo, hi, 1)
	keys := make([]int64, 0, p.C)
	for _, s := range p.Setups {
		if k := 2 * s; kLo < k && k < kHi {
			keys = append(keys, k)
		}
	}
	return sortKeys(keys, kLo)
}

// intervalData captures the interval-constant quantities of a dual
// evaluation needed by the closing step.
type intervalData struct {
	machinesOK bool  // m >= required machine count on the interval
	L          int64 // required load on the interval (valid if machinesOK)
}

func (ev *SplitEval) machineData() intervalData {
	return intervalData{machinesOK: !ev.MachFail, L: ev.L}
}

// closeJump performs the O(1) final decision on a breakpoint- and
// jump-free right interval (lo, hi]: on such an interval the dual's
// required load L and machine demand are constant, so every T in
// (lo, min(hi, L/m)) is rejected.  Consequently
//
//	m too small or L/m >= hi  ->  OPT >= hi,  return hi;
//	otherwise                  ->  OPT >= L/m, return T_new = L/m
//
// and the returned guess is both accepted and a certified lower bound,
// giving the exact 3/2 ratio.
func (p *Prep) closeJump(br *bracket, data intervalData, test func(sched.Rat) bool,
	build buildFunc, algo string) (*Result, error) {
	if err := br.checkpoint(); err != nil {
		return nil, err
	}
	ret := func(T sched.Rat) (*Result, error) {
		s, mk, err := build(T)
		if err != nil {
			return nil, err
		}
		return br.annotate(&Result{Schedule: s, Makespan: mk, T: T, LowerBound: T, Algorithm: algo, Probes: br.probes}, true), nil
	}
	if !data.machinesOK {
		return ret(br.hi)
	}
	tNew := sched.RatOf(data.L, p.M)
	if !tNew.Less(br.hi) {
		return ret(br.hi)
	}
	if !br.lo.Less(tNew) {
		// L/m at or below the rejected end: every interior point already
		// satisfies m*T >= L, so the machine condition must have rejected
		// them; hi is the threshold.
		return ret(br.hi)
	}
	if br.probe(test, tNew) {
		return ret(tNew)
	}
	if br.err != nil {
		return nil, br.err
	}
	// The interval-constancy assumption failed (possible only for the
	// preemptive knapsack term, see ALGORITHMS.md, "Knapsack
	// constancy"); fall back to a sound conservative answer: build at
	// hi, certify only lo.
	s, mk, err := build(br.hi)
	if err != nil {
		return nil, err
	}
	return br.annotate(&Result{Schedule: s, Makespan: mk, T: br.hi, LowerBound: br.lo, Algorithm: algo + "/fallback", Probes: br.probes, Fallback: true}, true), nil
}

// SolveNonpSearch is the exact 3/2-approximation for the non-preemptive
// case (Theorem 8): OPT is integral, so an integer binary search over
// [T_min, 2 T_min] with the 3/2-dual test of Theorem 9 is exact and runs
// in O(n log T_min) = O(n log(n + Delta)).
func (p *Prep) SolveNonpSearch(ctl Ctl) (*Result, error) {
	defer p.release(ctl.borrow())
	if err := ctl.interrupted(); err != nil {
		return nil, err
	}
	if p.M >= int64(p.NJob) {
		s, mk := p.oneJobPerMachine(sched.NonPreemptive, &ctl.Scratch.Run)
		return &Result{Schedule: s, Makespan: mk, T: s.T, LowerBound: s.T, Algorithm: "nonp/binsearch"}, nil
	}
	// Every probe runs through the reusable eval scratch, so a warm
	// re-solve's probes allocate nothing.  lastEv aliases the scratch's
	// current eval; it is consumed (built from, or reported on) before
	// the next probe overwrites it.
	sc := &ctl.Scratch.Eval
	var lastEv *NonpEval
	test := func(T sched.Rat) bool { lastEv = p.EvalNonpScratch(T, sc); return lastEv.OK }
	tmin := p.TMin(sched.NonPreemptive).Num()
	br := &bracket{lo: sched.R(tmin), hi: sched.R(2 * tmin), ctl: ctl}
	if br.probe(test, sched.R(tmin)) {
		if err := br.checkpoint(); err != nil {
			return nil, err
		}
		s, mk, err := p.BuildNonpScratch(lastEv, ctl.Scratch)
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: s, Makespan: mk, T: sched.R(tmin), LowerBound: sched.R(tmin), Algorithm: "nonp/binsearch", Probes: br.probes}, nil
	}
	// Warm start: OPT is integral, so seed guesses are rounded outward
	// (floor for the reject candidate, ceil for the accept candidate) and
	// validated by real probes; a confirmed hi seed makes the 2*T_min
	// probe redundant by monotonicity.  The search still converges to the
	// unique minimal accepted integer from any correctly narrowed bracket.
	lo, hi := tmin, 2*tmin
	warm := false
	if sd := br.ctl.Seed; sd != nil {
		for _, cand := range sd.His {
			if br.err != nil {
				break
			}
			h := cand.Ceil()
			if h <= lo || h >= hi {
				continue
			}
			if br.probe(test, sched.R(h)) {
				hi, warm = h, true
				br.seeded = true
				break
			}
			lo = h
		}
		for _, cand := range sd.Los {
			if br.err != nil {
				break
			}
			l := cand.Floor()
			if l <= lo || l >= hi {
				continue
			}
			if !br.probe(test, sched.R(l)) {
				lo = l
				break
			}
			hi, warm = l, true
			br.seeded = true
		}
		if br.err != nil {
			return nil, br.err
		}
	}
	if !warm && !br.probe(test, sched.R(2*tmin)) {
		if br.err != nil {
			return nil, br.err
		}
		return nil, errInternal("non-preemptive dual rejected 2*T_min >= OPT (%s)", lastEv.Reason)
	}
	for hi-lo > 1 && br.err == nil {
		mid := lo + (hi-lo)/2
		if br.probe(test, sched.R(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	if err := br.checkpoint(); err != nil {
		return nil, err
	}
	// lo rejected => OPT >= lo+1 = hi: the result is a true 3/2-approximation.
	s, mk, err := p.BuildNonpScratch(p.EvalNonpScratch(sched.R(hi), sc), ctl.Scratch)
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, Makespan: mk, T: sched.R(hi), LowerBound: sched.R(hi), Algorithm: "nonp/binsearch", Probes: br.probes,
		SeedUsed: br.seeded, SeedLo: sched.R(lo), HasSeedLo: true}, nil
}

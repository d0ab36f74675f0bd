package core

import (
	"math"
	"slices"
	"sort"
	"sync"

	"setupsched/sched"
)

// Result is the outcome of a full approximation run.
type Result struct {
	Schedule *sched.Schedule
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
	// batch, when set, decides a whole speculative batch in one call —
	// one shared sweep over the classes instead of per-guess goroutine
	// fan-out.  probeBatch then never runs the serial test function
	// concurrently, which is what lets that function use a per-solve
	// eval scratch.  Outcomes must be bit-identical to per-guess tests.
	batch func([]sched.Rat) []bool
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

// specProbe is the outcome of one guess of a speculative batch.
type specProbe struct {
	T  sched.Rat
	ok bool
}

// probeBatch speculatively evaluates several candidate guesses at once on
// up to Ctl.Parallelism goroutines.  Ts must be sorted ascending and
// deduplicated.  The pre-probe bookkeeping (cancellation check, probe
// budget, ProbeStarted) runs for every admitted candidate in ascending-T
// order before any evaluation starts, and every ProbeFinished fires in the
// same order after all evaluations returned, so observers never see
// concurrent or reordered events (see the Observer contract).  A budget or
// cancellation cut admits only a prefix.  The bracket itself is not moved;
// callers merge the outcomes with adopt or their own monotone update.
func (br *bracket) probeBatch(test func(sched.Rat) bool, Ts []sched.Rat) []specProbe {
	out := make([]specProbe, 0, len(Ts))
	for _, T := range Ts {
		if !br.begin(T) {
			break
		}
		out = append(out, specProbe{T: T})
	}
	switch len(out) {
	case 0:
		return out
	case 1:
		out[0].ok = test(out[0].T)
		br.end(out[0].T, out[0].ok)
		return out
	}
	if br.batch != nil {
		Ts2 := make([]sched.Rat, len(out))
		for i := range out {
			Ts2[i] = out[i].T
		}
		for i, ok := range br.batch(Ts2) {
			out[i].ok = ok
		}
		for _, pr := range out {
			br.end(pr.T, pr.ok)
		}
		return out
	}
	workers := br.ctl.width()
	if workers > len(out) {
		workers = len(out)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(out); i += workers {
				out[i].ok = test(out[i].T)
			}
		}(w)
	}
	wg.Wait()
	for _, pr := range out {
		br.end(pr.T, pr.ok)
	}
	return out
}

// adopt narrows the bracket to the tightest accept/reject pair of a batch:
// the largest rejected guess becomes lo, the smallest accepted guess
// becomes hi.  The dual tests are monotone (accepting T accepts every
// T' >= T), so outcomes past the first acceptance carry no information;
// stopping there also keeps lo < hi even if an implementation bug ever
// produced a non-monotone outcome pattern.
func (br *bracket) adopt(probes []specProbe) {
	for _, pr := range probes {
		if pr.ok {
			if br.lo.Less(pr.T) && pr.T.Less(br.hi) {
				br.hi = pr.T
			}
			return
		}
		if br.lo.Less(pr.T) && pr.T.Less(br.hi) {
			br.lo = pr.T
		}
	}
}

// pickSpread selects up to k evenly spaced elements of the sorted window.
// For k = 1 it returns the midpoint the serial binary search would probe.
func pickSpread(window []sched.Rat, k int) []sched.Rat {
	if len(window) <= k {
		return window
	}
	out := make([]sched.Rat, 0, k)
	last := -1
	for j := 1; j <= k; j++ {
		idx := j * len(window) / (k + 1)
		if idx == last {
			continue
		}
		out = append(out, window[idx])
		last = idx
	}
	return out
}

// narrowOnCandidates searches the sorted ascending candidate list,
// restricted to the open interval (lo, hi), until no candidate remains
// strictly inside the bracket.
//
// Serially this is a binary search.  With speculation (Ctl.Parallelism
// k > 1) each round probes up to k evenly spaced interior candidates
// concurrently and keeps the tightest accept/reject pair.  Both converge
// to the same final bracket — the unique threshold pair of the candidate
// set under the monotone dual test — so every downstream decision is
// bit-identical; only wall-clock time and the probe count differ.
func (br *bracket) narrowOnCandidates(test func(sched.Rat) bool, cands []sched.Rat) {
	if br.ctl.width() > 1 {
		br.narrowOnCandidatesSpec(test, cands)
		return
	}
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

// narrowOnCandidatesSpec is the speculative form of narrowOnCandidates.
func (br *bracket) narrowOnCandidatesSpec(test func(sched.Rat) bool, cands []sched.Rat) {
	k := br.ctl.width()
	for br.err == nil {
		lo := sort.Search(len(cands), func(i int) bool { return br.lo.Less(cands[i]) })
		hi := sort.Search(len(cands), func(i int) bool { return !cands[i].Less(br.hi) })
		if lo >= hi {
			return
		}
		br.adopt(br.probeBatch(test, pickSpread(cands[lo:hi], k)))
	}
}

// narrowOnJumps searches the decreasing jump family jumpAt(g) for g in
// [gLo, gHi], narrowing the bracket until no family member remains
// strictly inside.  Like narrowOnCandidates it binary-searches serially
// and probes up to Ctl.Parallelism evenly spaced members per round under
// speculation, converging to the identical final bracket either way.
func (br *bracket) narrowOnJumps(test func(sched.Rat) bool, jumpAt func(int64) sched.Rat, gLo, gHi int64) {
	if br.ctl.width() > 1 {
		br.narrowOnJumpsSpec(test, jumpAt, gLo, gHi)
		return
	}
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

// narrowOnJumpsSpec is the speculative form of narrowOnJumps.  The batch
// is assembled in ascending-T order (descending g); a rejection at g
// eliminates every g' >= g (their jumps are even smaller), an acceptance
// at g eliminates every g' <= g.
func (br *bracket) narrowOnJumpsSpec(test func(sched.Rat) bool, jumpAt func(int64) sched.Rat, gLo, gHi int64) {
	k := int64(br.ctl.width())
	for gLo <= gHi && br.err == nil {
		// Up to k evenly spaced g values of the window, ascending.
		w := gHi - gLo + 1
		gs := make([]int64, 0, k)
		if w <= k {
			for g := gLo; g <= gHi; g++ {
				gs = append(gs, g)
			}
		} else {
			last := int64(-1)
			for j := int64(1); j <= k; j++ {
				g := gLo + j*w/(k+1)
				if g != last && g >= gLo && g <= gHi {
					gs = append(gs, g)
					last = g
				}
			}
		}
		// Reverse into ascending T; drop members outside the open bracket.
		Ts := make([]sched.Rat, 0, len(gs))
		gOfT := make([]int64, 0, len(gs))
		for i := len(gs) - 1; i >= 0; i-- {
			T := jumpAt(gs[i])
			switch {
			case !br.lo.Less(T): // T <= lo: this and all larger g are out
				if gs[i]-1 < gHi {
					gHi = gs[i] - 1
				}
			case !T.Less(br.hi): // T >= hi: this and all smaller g are out
				if gs[i]+1 > gLo {
					gLo = gs[i] + 1
				}
			default:
				Ts = append(Ts, T)
				gOfT = append(gOfT, gs[i])
			}
		}
		if len(Ts) == 0 {
			if gLo > gHi {
				return
			}
			continue
		}
		out := br.probeBatch(test, Ts)
		br.adopt(out)
		for i, pr := range out { // ascending T = descending g
			if pr.ok {
				// Smallest accepted T: every smaller or equal g is done.
				if gOfT[i]+1 > gLo {
					gLo = gOfT[i] + 1
				}
				break
			}
			// Largest rejected T so far: every larger or equal g is done.
			if gOfT[i]-1 < gHi {
				gHi = gOfT[i] - 1
			}
		}
		if int64(len(out)) < int64(len(Ts)) {
			return // budget or cancellation cut the batch short
		}
	}
}

// dyadicMidpoints returns the midpoints of the full binary subdivision of
// (lo, hi) down to depth d — the 2^d - 1 guesses a serial bisection could
// visit in its next d rounds — sorted ascending.
func dyadicMidpoints(lo, hi sched.Rat, d int) []sched.Rat {
	out := make([]sched.Rat, 0, (1<<d)-1)
	var rec func(a, b sched.Rat, depth int)
	rec = func(a, b sched.Rat, depth int) {
		if depth == 0 {
			return
		}
		m := sched.Mid(a, b)
		out = append(out, m)
		rec(a, m, depth-1)
		rec(m, b, depth-1)
	}
	rec(lo, hi, d)
	return sortRats(out)
}

// lookupProbe finds the outcome recorded for guess T in a batch.
func lookupProbe(probes []specProbe, T sched.Rat) (ok, found bool) {
	for _, pr := range probes {
		if pr.T.Equal(T) {
			return pr.ok, true
		}
	}
	return false, false
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

// keyRats sorts and deduplicates breakpoint keys in place and returns them
// as the ascending Rats key/scale.  Distinct keys are distinct Rats, so no
// Rat comparison is needed.
func keyRats(keys []int64, scale int64) []sched.Rat {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	out := make([]sched.Rat, len(keys))
	for i, k := range keys {
		out[i] = sched.RatOf(k, scale)
	}
	return out
}

// SolveSplit2 runs the splittable 2-approximation (Theorem 1).
func (p *Prep) SolveSplit2(ctl Ctl) (*Result, error) {
	if err := ctl.interrupted(); err != nil {
		return nil, err
	}
	s, err := p.TwoApproxSplit(ctl.runs())
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, T: s.T, LowerBound: p.TMin(sched.Splittable), Algorithm: "split/2approx"}, nil
}

// SolveNonp2 runs the non-preemptive (or preemptive) 2-approximation.
func (p *Prep) SolveNonp2(ctl Ctl, v sched.Variant) (*Result, error) {
	if err := ctl.interrupted(); err != nil {
		return nil, err
	}
	s, err := p.TwoApproxNonPreemptive(v, ctl.runs())
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, T: s.T, LowerBound: p.TMin(v), Algorithm: v.Short() + "/2approx"}, nil
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
	test, build, name := p.dualFor(ctl, v)
	tmin := p.TMin(v)
	br := &bracket{lo: tmin, hi: sched.R(p.N), ctl: ctl}
	if v != sched.Splittable && v != sched.Preemptive {
		// Non-preemptive probes route through the reusable eval scratch;
		// speculative batches go through the shared class sweep, which
		// keeps the scratch-using serial test single-threaded.
		sc := p.evalScratchFor(ctl)
		test = func(T sched.Rat) bool { return p.EvalNonpScratch(T, sc).OK }
		build = func(T sched.Rat) (*sched.Schedule, error) {
			return p.buildNonpWith(ctl, p.EvalNonpScratch(T, sc))
		}
		var bsc NonpBatchScratch
		br.batch = func(Ts []sched.Rat) []bool { return p.EvalNonpBatch(Ts, &bsc) }
	}
	if br.probe(test, tmin) {
		if err := br.checkpoint(); err != nil {
			return nil, err
		}
		s, err := build(tmin)
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: s, T: tmin, LowerBound: tmin, Algorithm: name + "/eps", Probes: br.probes}, nil
	}
	if !br.probe(test, sched.R(p.N)) {
		if br.err != nil {
			return nil, br.err
		}
		return nil, errInternal("dual test rejected the trivial upper bound N (unsound rejection)")
	}
	er := epsToRat(eps)
	converged := func() bool { return br.hi.Sub(br.lo).Cmp(br.lo.Mul(er)) <= 0 }
	if k := br.ctl.width(); k <= 1 {
		for iter := 0; iter < 128 && br.err == nil; iter++ {
			if converged() {
				break
			}
			br.probe(test, sched.Mid(br.lo, br.hi))
		}
	} else {
		// Speculative bisection: probe the full midpoint tree of the
		// current bracket d levels deep (2^d - 1 <= k guesses) in one
		// concurrent batch, then REPLAY the serial bisection decisions
		// against the precomputed outcomes, including the serial
		// termination checks.  The replayed bracket — and so the built
		// schedule and certified bound — is bit-identical to the serial
		// search's; the speculative extra probes only buy wall-clock time
		// (d serial rounds collapse into one).
		iter := 0
		for iter < 128 && br.err == nil && !converged() {
			d := 1
			for (1<<(d+1))-1 <= k && d < 6 {
				d++
			}
			if rem := 128 - iter; d > rem {
				d = rem
			}
			points := dyadicMidpoints(br.lo, br.hi, d)
			out := br.probeBatch(test, points)
			if br.err != nil {
				break
			}
			for step := 0; step < d && iter < 128 && !converged(); step++ {
				T := sched.Mid(br.lo, br.hi)
				ok, found := lookupProbe(out, T)
				if !found {
					// Unreachable by construction (every replay midpoint
					// is a tree node); probe serially as a safety net.
					ok = br.probe(test, T)
					if br.err != nil {
						break
					}
					iter++
					continue
				}
				if ok {
					br.hi = T
				} else {
					br.lo = T
				}
				iter++
			}
		}
	}
	if err := br.checkpoint(); err != nil {
		return nil, err
	}
	s, err := build(br.hi)
	if err != nil {
		return nil, err
	}
	return br.annotate(&Result{Schedule: s, T: br.hi, LowerBound: br.lo, Algorithm: name + "/eps", Probes: br.probes}, true), nil
}

// buildNonpWith builds through the Ctl's scratch when one is lent.
func (p *Prep) buildNonpWith(ctl Ctl, ev *NonpEval) (*sched.Schedule, error) {
	if ctl.Scratch != nil {
		return p.BuildNonpScratch(ev, &ctl.Scratch.Nonp)
	}
	return p.BuildNonp(ev)
}

// evalScratchFor returns the Ctl's lent eval scratch, or a fresh
// per-solve one.  Either way the scratch is only ever used from the
// solve's coordinating goroutine (speculative batches run through
// bracket.batch, not the serial test), so a lent scratch needs the same
// caller-side serialization as the build scratch it rides in.
func (p *Prep) evalScratchFor(ctl Ctl) *NonpEvalScratch {
	if ctl.Scratch != nil {
		return &ctl.Scratch.Eval
	}
	return &NonpEvalScratch{}
}

// dualFor returns the dual test and builder for a variant; the builders
// draw on the Ctl's scratch when one is lent.
func (p *Prep) dualFor(ctl Ctl, v sched.Variant) (func(sched.Rat) bool, func(sched.Rat) (*sched.Schedule, error), string) {
	switch v {
	case sched.Splittable:
		return p.splitOK,
			func(T sched.Rat) (*sched.Schedule, error) {
				return p.BuildSplitScratch(p.EvalSplit(T, nil), ctl.runs())
			},
			"split"
	case sched.Preemptive:
		return p.pmtnOK,
			func(T sched.Rat) (*sched.Schedule, error) { return p.BuildPmtnScratch(p.EvalPmtn(T, nil), ctl.runs()) },
			"pmtn"
	default:
		return func(T sched.Rat) bool { return p.EvalNonp(T).OK },
			func(T sched.Rat) (*sched.Schedule, error) { return p.BuildNonp(p.EvalNonp(T)) },
			"nonp"
	}
}

// SolveSplitJump is the exact 3/2-approximation for the splittable case in
// O(n + c log(c+m)) via Class Jumping (Theorem 3, Algorithm 1).
//
// The search maintains a right interval (lo, hi]: lo rejected (so
// OPT > lo), hi accepted.  Phase A removes all partition breakpoints 2 s_i
// from the interval, sorting only the k of them strictly inside it as
// exact int64 keys in O(c + k log k) (see splitBreakpoints; the keys stay
// below 2 MaxTotalLoad); phase B removes the jumps 2 P_f / g of a fastest
// expensive class f; phase C removes the remaining (at most one per class,
// Lemma 3) jumps.  On the final jump-free interval the required load L and
// machine count m_exp are constant, so the smallest acceptable makespan is
// either hi or L/m, decided in O(1) (step 9 of Algorithm 1).
func (p *Prep) SolveSplitJump(ctl Ctl) (*Result, error) {
	test := p.splitOK
	tmin := p.TMin(sched.Splittable)
	br := &bracket{lo: tmin, hi: sched.R(p.N), ctl: ctl}
	if br.probe(test, tmin) {
		if err := br.checkpoint(); err != nil {
			return nil, err
		}
		s, err := p.BuildSplitScratch(p.EvalSplit(tmin, nil), ctl.runs())
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: s, T: tmin, LowerBound: tmin, Algorithm: "split/jump", Probes: br.probes}, nil
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
	br.narrowOnCandidates(test, p.splitBreakpoints(br.lo, br.hi))
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
		func(T sched.Rat) (*sched.Schedule, error) {
			return p.BuildSplitScratch(p.EvalSplit(T, nil), ctl.runs())
		},
		"split/jump")
}

// splitBreakpoints returns the splittable partition breakpoints 2 s_i
// strictly inside (lo, hi), ascending and deduplicated, sorted as the
// exact int64 keys 2 s_i <= 2 MaxTotalLoad (see pmtnBreakpoints).
func (p *Prep) splitBreakpoints(lo, hi sched.Rat) []sched.Rat {
	kLo, kHi := keyWindow(lo, hi, 1)
	keys := make([]int64, 0, p.C)
	for i := range p.In.Classes {
		if k := 2 * p.In.Classes[i].Setup; kLo < k && k < kHi {
			keys = append(keys, k)
		}
	}
	return keyRats(keys, 1)
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
	build func(sched.Rat) (*sched.Schedule, error), algo string) (*Result, error) {
	if err := br.checkpoint(); err != nil {
		return nil, err
	}
	ret := func(T sched.Rat) (*Result, error) {
		s, err := build(T)
		if err != nil {
			return nil, err
		}
		return br.annotate(&Result{Schedule: s, T: T, LowerBound: T, Algorithm: algo, Probes: br.probes}, true), nil
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
	// preemptive knapsack term, see DESIGN.md); fall back to a sound
	// conservative answer: build at hi, certify only lo.
	s, err := build(br.hi)
	if err != nil {
		return nil, err
	}
	return br.annotate(&Result{Schedule: s, T: br.hi, LowerBound: br.lo, Algorithm: algo + "/fallback", Probes: br.probes, Fallback: true}, true), nil
}

// SolveNonpSearch is the exact 3/2-approximation for the non-preemptive
// case (Theorem 8): OPT is integral, so an integer binary search over
// [T_min, 2 T_min] with the 3/2-dual test of Theorem 9 is exact and runs
// in O(n log T_min) = O(n log(n + Delta)).
func (p *Prep) SolveNonpSearch(ctl Ctl) (*Result, error) {
	if err := ctl.interrupted(); err != nil {
		return nil, err
	}
	if p.M >= int64(p.NJob) {
		s := p.oneJobPerMachine(sched.NonPreemptive, ctl.runs())
		return &Result{Schedule: s, T: s.T, LowerBound: s.T, Algorithm: "nonp/binsearch"}, nil
	}
	// Every serial probe runs through the reusable eval scratch, so a
	// warm re-solve's probes allocate nothing.  This is race-free even
	// under speculation (Ctl.Parallelism > 1): batches route through
	// bracket.batch — one shared sweep over the classes with its own
	// accumulators — so the scratch-using test only ever runs from the
	// solve's coordinating goroutine.  lastEv aliases the scratch's
	// current eval; it is consumed (built from, or reported on) before
	// the next probe overwrites it.
	sc := p.evalScratchFor(ctl)
	var lastEv *NonpEval
	serialTest := func(T sched.Rat) bool { lastEv = p.EvalNonpScratch(T, sc); return lastEv.OK }
	test := func(T sched.Rat) bool { return p.EvalNonpScratch(T, sc).OK }
	tmin := p.TMin(sched.NonPreemptive).Num()
	br := &bracket{lo: sched.R(tmin), hi: sched.R(2 * tmin), ctl: ctl}
	var bsc NonpBatchScratch
	br.batch = func(Ts []sched.Rat) []bool { return p.EvalNonpBatch(Ts, &bsc) }
	if br.probe(serialTest, sched.R(tmin)) {
		if err := br.checkpoint(); err != nil {
			return nil, err
		}
		s, err := p.buildNonpWith(ctl, lastEv)
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: s, T: sched.R(tmin), LowerBound: sched.R(tmin), Algorithm: "nonp/binsearch", Probes: br.probes}, nil
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
	if !warm && !br.probe(serialTest, sched.R(2*tmin)) {
		if br.err != nil {
			return nil, br.err
		}
		return nil, errInternal("non-preemptive dual rejected 2*T_min >= OPT (%s)", lastEv.Reason)
	}
	if k := int64(br.ctl.width()); k <= 1 {
		for hi-lo > 1 && br.err == nil {
			mid := lo + (hi-lo)/2
			if br.probe(test, sched.R(mid)) {
				hi = mid
			} else {
				lo = mid
			}
		}
	} else {
		// Speculative k-ary search: probe up to k evenly spaced interior
		// integers per round.  OPT is integral, so the search converges to
		// the unique minimal accepted integer — the same hi the serial
		// bisection finds — regardless of the probing pattern.
		for hi-lo > 1 && br.err == nil {
			w := hi - lo
			vals := make([]int64, 0, k)
			if w-1 <= k {
				for v := lo + 1; v < hi; v++ {
					vals = append(vals, v)
				}
			} else {
				last := int64(-1)
				for j := int64(1); j <= k; j++ {
					v := lo + j*w/(k+1)
					if v != last && v > lo && v < hi {
						vals = append(vals, v)
						last = v
					}
				}
			}
			Ts := make([]sched.Rat, len(vals))
			for i, v := range vals {
				Ts[i] = sched.R(v)
			}
			out := br.probeBatch(test, Ts)
			br.adopt(out)
			for i, pr := range out { // ascending
				if pr.ok {
					hi = vals[i]
					break
				}
				lo = vals[i]
			}
			if len(out) < len(Ts) {
				break // budget or cancellation cut the batch short
			}
		}
	}
	if err := br.checkpoint(); err != nil {
		return nil, err
	}
	// lo rejected => OPT >= lo+1 = hi: the result is a true 3/2-approximation.
	s, err := p.buildNonpWith(ctl, p.EvalNonpScratch(sched.R(hi), sc))
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, T: sched.R(hi), LowerBound: sched.R(hi), Algorithm: "nonp/binsearch", Probes: br.probes,
		SeedUsed: br.seeded, SeedLo: sched.R(lo), HasSeedLo: true}, nil
}

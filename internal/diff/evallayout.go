package diff

import (
	"fmt"
	"math/rand"
	"slices"

	"setupsched/internal/core"
	"setupsched/sched"
)

// evalLayoutLadder returns makespan guesses spanning every decision
// region of the non-preemptive dual test: below SPT, around the trivial
// bounds, interior points and non-integral rationals (the floor path).
// Deterministic in the seed so a reported violation reproduces.
func evalLayoutLadder(p *core.Prep, seed int64) []sched.Rat {
	tmin := p.TMin(sched.NonPreemptive)
	ladder := []sched.Rat{
		sched.R(1),
		sched.R(p.SPT - 1), sched.R(p.SPT), sched.R(p.SPT + 1),
		tmin, tmin.MulInt(2), sched.R(p.N),
		sched.RatOf(2*p.N+1, 3),
	}
	if tmin.Less(sched.R(p.N)) {
		ladder = append(ladder, sched.Mid(tmin, sched.R(p.N)))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 16; i++ {
		ladder = append(ladder, sched.RatOf(1+rng.Int63n(2*p.N), 1+rng.Int63n(4)))
	}
	return ladder
}

// CheckEvalLayout cross-checks the SoA fast paths of the non-preemptive
// dual test — the binary-search eval over sorted jobs and prefix sums
// and its zero-allocation scratch variant — against the reference
// per-job walk, field for field, over an
// evalLayoutLadder of guesses.  The contract is bit-identity: the SoA
// rewrite is a data-layout change, so every accept/reject decision,
// machine count, load bound and expensive-class set must match the walk
// exactly.  Returned strings are violations; empty means identical.
func CheckEvalLayout(in *sched.Instance, seed int64) []string {
	p := core.Prepare(in)
	ladder := evalLayoutLadder(p, seed)
	var out []string
	var sc core.NonpEvalScratch
	for _, T := range ladder {
		want := p.EvalNonpRef(T)
		if msg := diffNonpEval("EvalNonp", T, p.EvalNonp(T), want); msg != "" {
			out = append(out, msg)
		}
		if msg := diffNonpEval("EvalNonpScratch", T, p.EvalNonpScratch(T, &sc), want); msg != "" {
			out = append(out, msg)
		}
	}
	return out
}

func diffNonpEval(tag string, T sched.Rat, got, want *core.NonpEval) string {
	switch {
	case got.T != want.T || got.OK != want.OK || got.Reason != want.Reason ||
		got.MPrime != want.MPrime || got.L != want.L:
		return fmt.Sprintf("%s at T=%s: header %+v != walk %+v", tag, T, got, want)
	case !slices.Equal(got.Exp, want.Exp):
		return fmt.Sprintf("%s at T=%s: Exp %v != walk %v", tag, T, got.Exp, want.Exp)
	case !slices.Equal(got.Mi, want.Mi):
		return fmt.Sprintf("%s at T=%s: Mi %v != walk %v", tag, T, got.Mi, want.Mi)
	case !slices.Equal(got.XiPos, want.XiPos):
		return fmt.Sprintf("%s at T=%s: XiPos %v != walk %v", tag, T, got.XiPos, want.XiPos)
	}
	return ""
}

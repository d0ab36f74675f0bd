package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"setupsched/sched"
)

// ErrProbeLimit is returned when a search exceeds its configured probe
// budget before converging.
var ErrProbeLimit = errors.New("probe limit reached")

// Observer receives probe-level events from the dual-approximation
// searches.
//
// Event ordering contract: all events of one solve are emitted
// sequentially from the solve's goroutine, never concurrently, and each
// ProbeStarted(T) is followed by its ProbeFinished(T) before the next
// probe starts.  A search never probes the same guess twice.  An Observer
// shared by several concurrent solves (e.g. one metrics sink behind a
// server) must itself be safe for concurrent use.
type Observer interface {
	// ProbeStarted fires before a dual test is evaluated at guess T.
	ProbeStarted(T sched.Rat)
	// ProbeFinished fires after the dual test at T decided accept/reject.
	ProbeFinished(T sched.Rat, accepted bool)
	// SearchFinished fires once after a solve completes successfully.
	SearchFinished(algorithm string, probes int)
}

// BracketSeed warm-starts a dual search from a previously certified
// [reject, accept] pair.  Each side is an optimism-ordered candidate
// ladder: His typically holds the previous accepted guess itself (small
// deltas rarely move the threshold, so re-confirming it costs one probe)
// followed by the guess shifted up by the delta's added load (the
// provable upper bound on how far the threshold can move); Los mirrors
// this downward.  The seed is advisory: every candidate is validated by a
// real probe before it narrows the bracket, so a stale or wrong seed
// costs a bounded number of extra probes and can never change the
// search's answer — the exact searches converge to the unique threshold
// of the monotone dual test from any correctly narrowed bracket.  See
// stream.Session for the producer.
type BracketSeed struct {
	// Los are guesses expected to be rejected (certifying OPT > Lo),
	// probed in order while they lie strictly inside the bracket.
	Los []sched.Rat
	// His are guesses expected to be accepted, probed in order until one
	// confirms; a confirmed hi lets the search skip its trivial-upper-
	// bound probe and reports Result.SeedUsed.
	His []sched.Rat
}

// Ctl carries the per-solve control surface through the searches: a
// cancellation context, an optional probe observer, an optional probe
// budget, a warm-start seed and scratch memory.  The zero value means
// "run to completion, unobserved".
type Ctl struct {
	// Ctx cancels the search between probes; nil means never cancel.
	Ctx context.Context
	// Obs receives probe events; nil means no observation.
	Obs Observer
	// ProbeLimit aborts the search with ErrProbeLimit once this many
	// probes have run; zero or negative means unlimited.
	ProbeLimit int
	// Seed warm-starts the exact searches (Class Jumping, the integral
	// non-preemptive search) from a previously certified bracket; nil
	// means a cold start.  The eps-search ignores it: its certified pair
	// is a function of the full bisection trajectory, so seeding would
	// change the reported bound (see ALGORITHMS.md, "Warm-started
	// re-solves").
	Seed *BracketSeed
	// Scratch is the working memory of every schedule builder
	// (non-preemptive, preemptive, splittable and the 2-approximations)
	// and of the non-preemptive dual test.  Nil, what production callers
	// pass, makes each search borrow one scratch from ScratchPool for its
	// whole run and return it before it returns.  Tests set it to pin a
	// scratch; doing so is only sound when the caller serializes all
	// solves sharing it.  Output is identical either way, and no result
	// aliases the scratch: each build ends by copying its slots into one
	// exactly sized array.
	Scratch *BuildScratch
}

// BuildScratch aggregates the builders' and dual tests' reusable working
// memory (see Ctl.Scratch).  The zero value is ready for use; once warm,
// a re-solve's builds stop regrowing slot and working lists.
type BuildScratch struct {
	Nonp NonpScratch
	// Run backs the preemptive, splittable and 2-approximation builders:
	// their slot arena, run table, wrap sequence and working lists.  The
	// non-preemptive builder emits its slots into the same arena.
	Run RunScratch
	// Eval backs the non-preemptive dual test's per-probe arrays, so a
	// warm re-solve's probes allocate nothing.
	Eval NonpEvalScratch
}

// ScratchPool holds the scratches of finished solves for the next solve
// whose Ctl lends none, so cold solves reuse warm builder memory across
// instances and goroutines.  Tests that count allocations swap in a pool
// whose New hands out one already-grown scratch.
var ScratchPool = &sync.Pool{New: func() any { return new(BuildScratch) }}

// scratchSlack is how many times the items a build of the returning
// solve's instance needs a scratch may hold and still go back to
// ScratchPool.  A larger one is dropped, the way fmt drops oversized
// printer buffers, so one huge solve cannot pin its working memory under
// later small traffic.
const scratchSlack = 4

// borrow points c.Scratch at a scratch from ScratchPool unless c lends
// one, and returns what it borrowed, or nil.  A search calls it first,
// as defer p.release(ctl.borrow()).
func (c *Ctl) borrow() *BuildScratch {
	if c.Scratch != nil {
		return nil
	}
	c.Scratch = ScratchPool.Get().(*BuildScratch)
	return c.Scratch
}

// release returns a borrowed scratch to ScratchPool if it fits p.
func (p *Prep) release(sc *BuildScratch) {
	if sc != nil && p.fits(sc) {
		ScratchPool.Put(sc)
	}
}

// fits reports whether sc's largest lists, the slot arena, the
// non-preemptive item array and the eval arrays, each hold at most
// scratchSlack times the n + c + 4 min(m, n) items of a non-preemptive
// build of p, the largest list any build of p sizes.
func (p *Prep) fits(sc *BuildScratch) bool {
	return max(cap(sc.Run.arena), cap(sc.Nonp.b.items), cap(sc.Eval.mi)) <= scratchSlack*p.nonpItems()
}

// interrupted reports the context error, if any.  The deadline is also
// checked against the wall clock directly: probes are tight CPU-bound
// loops, and on a saturated (or single-core) machine the context's timer
// goroutine may not have been scheduled yet when the deadline passes.
func (c Ctl) interrupted() error {
	if c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		return err
	}
	if d, ok := c.Ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

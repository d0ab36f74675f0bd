package core

import (
	"fmt"
	"sync"
	"testing"

	"setupsched/sched"
	"setupsched/schedgen"
)

// allSearches returns every search algorithm of a variant.
func allSearches(v sched.Variant) map[string]func(p *Prep, ctl Ctl) (*Result, error) {
	out := map[string]func(p *Prep, ctl Ctl) (*Result, error){
		"eps": func(p *Prep, ctl Ctl) (*Result, error) { return p.SolveEps(ctl, v, 1e-3) },
	}
	switch v {
	case sched.Splittable:
		out["exact32"] = func(p *Prep, ctl Ctl) (*Result, error) { return p.SolveSplitJump(ctl) }
	case sched.Preemptive:
		out["exact32"] = func(p *Prep, ctl Ctl) (*Result, error) { return p.SolvePmtnJump(ctl) }
	default:
		out["exact32"] = func(p *Prep, ctl Ctl) (*Result, error) { return p.SolveNonpSearch(ctl) }
	}
	return out
}

// TestPrepConcurrentUse hammers one shared Prep from many goroutines mixing
// dual evaluations, builds and full searches.  Run under -race this is the
// concurrency-contract regression test for Prep.
func TestPrepConcurrentUse(t *testing.T) {
	in := schedgen.BigJobs(schedgen.Params{M: 8, Classes: 40, JobsPer: 5, MaxSetup: 80, MaxJob: 120, Seed: 7})
	prep := Prepare(in)
	T := prep.TMin(sched.Preemptive).MulInt(3).DivInt(2)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch g % 4 {
				case 0:
					if ev := prep.EvalSplit(T, nil); ev.OK {
						if _, err := prep.BuildSplit(ev); err != nil {
							errs <- err
							return
						}
					}
				case 1:
					if ev := prep.EvalPmtn(T, nil); ev.OK {
						if _, err := prep.BuildPmtn(ev); err != nil {
							errs <- err
							return
						}
					}
				case 2:
					if ev := prep.EvalNonp(T.MulInt(2)); ev.OK {
						if _, err := prep.BuildNonp(ev); err != nil {
							errs <- err
							return
						}
					}
				default:
					if _, err := prep.SolvePmtnJump(Ctl{}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// orderObserver records the probe event stream and notes every breach of
// the Observer contract: a ProbeStarted while another probe is open, or a
// ProbeFinished that does not close the open probe's guess.
type orderObserver struct {
	started    []sched.Rat
	finished   []sched.Rat
	open       bool
	violations []string
}

func (o *orderObserver) ProbeStarted(T sched.Rat) {
	if o.open {
		o.violations = append(o.violations, fmt.Sprintf("Started(%s) while Started(%s) is open", T, o.started[len(o.started)-1]))
	}
	o.open = true
	o.started = append(o.started, T)
}

func (o *orderObserver) ProbeFinished(T sched.Rat, ok bool) {
	if !o.open || !T.Equal(o.started[len(o.started)-1]) {
		o.violations = append(o.violations, fmt.Sprintf("Finished(%s) does not close the open probe", T))
	}
	o.open = false
	o.finished = append(o.finished, T)
}

func (o *orderObserver) SearchFinished(string, int) {}

// TestSerialObserverOrdering pins the Observer contract every search
// keeps: ProbeStarted(T) and ProbeFinished(T) strictly alternate with the
// same T, no guess is probed twice, and the event count equals the
// reported probe count.  Result.Trace and the span recorder rely on it.
func TestSerialObserverOrdering(t *testing.T) {
	// Three regimes: one where most duals accept the trivial bound (fast
	// paths), and two setup-heavy ones whose searches genuinely probe.
	regimes := []schedgen.Params{
		{M: 6, Classes: 20, JobsPer: 4, MaxSetup: 60, MaxJob: 90},
		{M: 32, Classes: 40, JobsPer: 3, MaxSetup: 500, MaxJob: 60},
		{M: 8, Classes: 12, JobsPer: 1, MaxSetup: 300, MaxJob: 300},
	}
	for _, fam := range schedgen.Families {
		for ri, params := range regimes {
			for seed := int64(0); seed < 2; seed++ {
				p := params
				p.Seed = seed
				prep := Prepare(fam.Make(p))
				for _, v := range sched.Variants {
					for name, run := range allSearches(v) {
						tag := fmt.Sprintf("%s/regime %d/seed %d/%s/%v", fam.Name, ri, seed, name, v)
						obs := &orderObserver{}
						res, err := run(prep, Ctl{Obs: Observers{obs}})
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						for _, msg := range obs.violations {
							t.Errorf("%s: %s", tag, msg)
						}
						if obs.open {
							t.Errorf("%s: last probe never finished", tag)
						}
						if len(obs.started) != res.Probes || len(obs.finished) != res.Probes {
							t.Errorf("%s: %d started / %d finished events for %d probes",
								tag, len(obs.started), len(obs.finished), res.Probes)
						}
						seen := map[sched.Rat]bool{}
						for _, T := range obs.started {
							if seen[T] {
								t.Errorf("%s: guess %s probed twice", tag, T)
							}
							seen[T] = true
						}
					}
				}
			}
		}
	}
}

// TestNarrowOnKeysRoundsNeverReprobe pins the round loop of
// SolvePmtnJump, which narrows on one breakpoint key list once per round:
// a later narrowOnKeys call on the bracket an earlier one left probes
// nothing, since no key lies strictly inside it, and no guess is probed
// twice (the Observer contract).  The keys 1..8 stand for the guesses
// k/3, and the dual test accepts from a/3 on, for every threshold a from
// the first key to past the last.
func TestNarrowOnKeysRoundsNeverReprobe(t *testing.T) {
	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for a := int64(1); a <= 9; a++ {
		threshold := sched.RatOf(a, 3)
		test := func(T sched.Rat) bool { return !T.Less(threshold) }
		obs := &orderObserver{}
		br := &bracket{lo: sched.R(0), hi: sched.R(3), ctl: Ctl{Obs: Observers{obs}}}
		br.narrowOnKeys(test, keys, 3)
		first := len(obs.started)
		br.narrowOnKeys(test, keys, 3)
		if again := obs.started[first:]; len(again) > 0 {
			t.Errorf("accept from %s: the second round probed %v", threshold, again)
		}
		seen := map[sched.Rat]bool{}
		for _, T := range obs.started {
			if seen[T] {
				t.Errorf("accept from %s: guess %s probed twice", threshold, T)
			}
			seen[T] = true
		}
		wantLo, wantHi := sched.RatOf(a-1, 3), threshold
		if !br.lo.Equal(wantLo) || !br.hi.Equal(wantHi) {
			t.Errorf("accept from %s: bracket (%s, %s], want (%s, %s]", threshold, br.lo, br.hi, wantLo, wantHi)
		}
	}
}

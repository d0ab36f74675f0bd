package main

import (
	"context"
	"fmt"
	"time"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// core-cold inputs: coreInstances probe-heavy instances of coreJobs
// nominal size, visited as op i -> instance i mod coreInstances, variant
// i mod 3.  coreInstances is coprime to 3, so one block of
// 3*coreInstances ops solves every instance under every variant once, and
// an instance comes back only after 63 others have been through the
// caches.
const (
	coreJobs      = 20000 // ≈11k jobs in ≈2.5k classes
	coreInstances = 64
	coreWarmReps  = 5
	minOps        = 1000 // nearest-rank p99 then has ≥10 samples beyond it
)

// coreShape is the setup-heavy ExpensiveSetups shape the committed
// core trajectory uses at size n (machine-rich, m just below the class
// count, setups ~1e9 and jobs ~1e7-1e8), so the dual searches genuinely
// probe.  It is kept here so the benchmark does not depend on the
// report code that builds the trajectory.
func coreShape(n int, seed int64) *sched.Instance {
	maxSetup := int64(2_000_000_000)
	if c := int64(1.6e18) / int64(n) / int64(n); c < maxSetup {
		maxSetup = c
	}
	maxSetup = max(maxSetup, 500)
	return schedgen.ExpensiveSetups(schedgen.Params{
		M: int64(n/10 + 1), Classes: max(n/8, 1), JobsPer: 8,
		MaxSetup: maxSetup, MaxJob: max(maxSetup/10, 60), Seed: seed,
	})
}

// checkCoreResult is core-cold's correctness check: the result passes
// setupsched.Verify and, unless the search took its documented fallback
// path, stays within 3/2 of its certified lower bound.
func checkCoreResult(in *sched.Instance, v sched.Variant, res *setupsched.Result) error {
	if err := setupsched.Verify(in, v, res); err != nil {
		return err
	}
	if !res.Fallback && res.LowerBound.MulInt(3).DivInt(2).Less(res.Makespan) {
		return fmt.Errorf("makespan %s exceeds 3/2 of certified bound %s", res.Makespan, res.LowerBound)
	}
	return nil
}

func runCoreCold(cfg config, rep *report) error {
	ctx := context.Background()
	ins := make([]*sched.Instance, coreInstances+3)
	for k := range ins {
		ins[k] = coreShape(coreJobs, derive(cfg.seed, 1, int64(k)))
	}
	warm, ins := ins[coreInstances:], ins[:coreInstances]
	rep.note("core-cold: %d instances of %d jobs / %d classes (first), m=%d", len(ins), ins[0].NumJobs(), ins[0].NumClasses(), ins[0].M)

	err := setUp(rep, coreWarmReps, func() error {
		for k, in := range warm {
			s, err := setupsched.NewSolver(in)
			if err != nil {
				return err
			}
			if _, err := s.Solve(ctx, sched.Variants[k%3]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	// op runs one closed-loop op; rec is nil on the untraced pass.  The
	// check runs off the clock.
	var rec *recorder
	var cpu time.Duration
	op := func(i int) time.Duration {
		in, v := ins[i%len(ins)], sched.Variants[i%3]
		id, root := int64(i), rec.id()
		c0 := cpuTime()
		start := time.Now()
		var s *setupsched.Solver
		var res *setupsched.Result
		var err error
		rec.timed("setupsched.NewSolver", id, root, func(int64) { s, err = setupsched.NewSolver(in) })
		if err == nil {
			rec.timed("setupsched.Solve", id, root, func(span int64) {
				res, err = s.Solve(ctx, v, setupsched.WithObserver(rec.observer(id, span)))
			})
		}
		end := time.Now()
		cpu += cpuTime() - c0
		rec.add(root, "op", id, 0, start, end)
		rep.attempted++
		rec.timed("setupsched.Verify", id, 0, func(int64) {
			if err == nil {
				err = checkCoreResult(in, v, res)
			}
		})
		if err != nil {
			rep.fail("op %d (%s): %v", i, v.Short(), err)
		}
		return end.Sub(start)
	}
	unit := 3 * len(ins)
	before := readMem()
	lat, onClock := closedLoop(0, unit, 1<<30, cfg.budget(), op)
	after := readMem()
	if !cfg.trace {
		rep.set("cpu_ms_per_op", ms(cpu)/float64(len(lat)), len(lat))
		rep.note("ops_per_s %.4f 1/s: median of per-block rates (whole pass %.4f, n=%d)",
			blockRate(lat, unit), float64(len(lat))/onClock.Seconds(), len(lat))
		noteLatency(rep, lat)
		return nil
	}
	setGoMetrics(rep, before, after, len(lat))
	rec = newRecorder()
	tlat, _ := closedLoop(0, unit, 1<<30, cfg.budget(), op)
	setOverhead(rep, lat, tlat)
	return reportSolverLayers(cfg, rep, rec, rec.index())
}

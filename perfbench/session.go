package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
	"setupsched/stream"
)

// session-churn inputs: churnSessions long-lived sessions, each fed its
// own schedgen churn trace.  m sits just below the class count, so the
// trivial bound is rejected and re-solves genuinely warm-start.  The op
// list is fixed: op i applies the next delta of session i mod
// churnSessions and solves it under variant (i / churnSessions) mod 3.
// churnDeltas per session is several times what a run consumes, so both
// sides of a comparison walk the same prefix of the same list.
const (
	churnSessions = 6
	churnDeltas   = 5000
	churnReps     = 3
	// churnRefEvery picks the deterministic bit-identity sample; it is
	// coprime to 3*churnSessions, so every session and variant is sampled.
	churnRefEvery = 23
)

func churnParams(seed int64, s int) schedgen.Params {
	return schedgen.Params{M: 1000, Classes: 1250, JobsPer: 8, MaxSetup: 500, MaxJob: 60,
		Seed: derive(seed, 2, int64(s))}
}

// sameResult is the session bit-identity contract: Makespan, Guess,
// LowerBound, Algorithm, Fallback and the Schedule equal a cold solve's.
func sameResult(got, want *setupsched.Result) error {
	switch {
	case !got.Makespan.Equal(want.Makespan):
		return fmt.Errorf("makespan %s, fresh solver %s", got.Makespan, want.Makespan)
	case !got.Guess.Equal(want.Guess):
		return fmt.Errorf("guess %s, fresh solver %s", got.Guess, want.Guess)
	case !got.LowerBound.Equal(want.LowerBound):
		return fmt.Errorf("lower bound %s, fresh solver %s", got.LowerBound, want.LowerBound)
	case got.Algorithm != want.Algorithm || got.Fallback != want.Fallback:
		return fmt.Errorf("algorithm %s/%v, fresh solver %s/%v", got.Algorithm, got.Fallback, want.Algorithm, want.Fallback)
	case !reflect.DeepEqual(got.Schedule, want.Schedule):
		return fmt.Errorf("schedule differs from the fresh solver's")
	}
	return nil
}

func runSessionChurn(cfg config, rep *report) error {
	ctx := context.Background()
	bases := make([]*sched.Instance, churnSessions)
	deltas := make([][]sched.Delta, churnSessions)
	for s := range bases {
		events := schedgen.Churn(churnParams(cfg.seed, s), churnDeltas)
		bases[s] = events[0].Base
		for _, ev := range events {
			if ev.Delta != nil {
				deltas[s] = append(deltas[s], *ev.Delta)
			}
		}
	}
	maxOps := churnSessions * len(deltas[0])
	for _, ds := range deltas {
		maxOps = min(maxOps, churnSessions*len(ds))
	}
	rep.note("session-churn: %d sessions, first has %d jobs / %d classes, m=%d; %d ops in the list",
		churnSessions, bases[0].NumJobs(), bases[0].NumClasses(), bases[0].M, maxOps)

	var sessions []*stream.Session
	err := setUp(rep, churnReps, func() error {
		sessions = sessions[:0]
		for _, b := range bases {
			sess, err := stream.NewSession(b)
			if err != nil {
				return err
			}
			for _, v := range sched.Variants {
				if _, err := sess.Solve(ctx, v); err != nil {
					return err
				}
			}
			sessions = append(sessions, sess)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("session set-up: %w", err)
	}

	// op runs one closed-loop op; rec is nil on the untraced pass.  The
	// checks run off the clock: the result must pass Session.Verify and,
	// on the sample, equal a fresh solver's result bit for bit.
	var rec *recorder
	var cpu time.Duration
	var warm, executed int
	check := func(i int, sess *stream.Session, v sched.Variant, res *stream.Result) error {
		id := int64(i)
		var err error
		rec.timed("stream.Verify", id, 0, func(int64) { err = sess.Verify(ctx, v, res) })
		if err != nil || i%churnRefEvery != 0 {
			return err
		}
		snap := sess.Instance()
		var solver *setupsched.Solver
		rec.timed("setupsched.NewSolver", id, 0, func(int64) { solver, err = setupsched.NewSolver(snap) })
		if err != nil {
			return err
		}
		ref, err := solver.Solve(ctx, v)
		if err != nil {
			return err
		}
		return sameResult(res.Result, ref)
	}
	op := func(i int) time.Duration {
		s := i % churnSessions
		sess, d, v := sessions[s], deltas[s][i/churnSessions], sched.Variants[(i/churnSessions)%3]
		id, root := int64(i), rec.id()
		c0 := cpuTime()
		start := time.Now()
		var res *stream.Result
		var err error
		rec.timed("stream.Apply", id, root, func(int64) { err = sess.Apply(ctx, d) })
		if err == nil {
			rec.timed("stream.Solve", id, root, func(span int64) {
				res, err = sess.Solve(ctx, v, stream.WithObserver(rec.observer(id, span)))
			})
		}
		end := time.Now()
		cpu += cpuTime() - c0
		rec.add(root, "op", id, 0, start, end)
		rep.attempted++
		if err == nil {
			err = check(i, sess, v, res)
		}
		if err != nil {
			rep.fail("op %d (%s): %v", i, v.Short(), err)
		} else if !res.Cached {
			executed++
			if res.Warm {
				warm++
			}
		}
		return end.Sub(start)
	}
	unit := 3 * churnSessions
	before := readMem()
	lat, onClock := closedLoop(0, unit, maxOps, cfg.budget(), op)
	after := readMem()
	if !cfg.trace {
		rep.set("cpu_ms_per_op", ms(cpu)/float64(len(lat)), len(lat))
		rep.note("ops_per_s %.4f 1/s: median of per-block rates (whole pass %.4f, n=%d)",
			blockRate(lat, 10*unit), float64(len(lat))/onClock.Seconds(), len(lat))
		noteLatency(rep, lat)
		return nil
	}
	setGoMetrics(rep, before, after, len(lat))

	rebuilds := func() (n uint64) {
		for _, s := range sessions {
			n += s.Stats().Rebuilds
		}
		return n
	}
	rebuilds0 := rebuilds()
	rec, warm, executed = newRecorder(), 0, 0
	tlat, _ := closedLoop(len(lat), unit, maxOps, cfg.budget(), op)
	setOverhead(rep, lat, tlat)
	if executed > 0 {
		rep.set("stream.warm_frac", float64(warm)/float64(executed), executed)
	}
	rep.set("stream.rebuilds", float64(rebuilds()-rebuilds0), len(tlat))
	ix := rec.index()
	apply, solve := ix.byName["stream.Apply"], ix.byName["stream.Solve"]
	rep.set("stream.apply_ms", median(durMS(apply)), len(apply))
	rep.set("stream.solve_ms", median(durMS(solve)), len(solve))
	return reportSolverLayers(cfg, rep, rec, ix)
}

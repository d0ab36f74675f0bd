package core_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"setupsched"
	. "setupsched/internal/core"
	"setupsched/sched"
	"setupsched/stream"
)

// pooledResult is a result of a solve that drew its builder memory from
// ScratchPool, with the instance it solved and the clone of its schedule
// taken when it returned.
type pooledResult struct {
	tag   string
	in    *sched.Instance
	run   setupsched.Run
	res   *setupsched.Result
	clone *sched.Schedule
}

// TestPooledScratchKeepsResults runs solves of different shapes at once,
// each borrowing its builder memory from ScratchPool: Solver.SolveAll
// fan-outs of width 4 over the arena instances and the core-cold and
// churn shapes, beside two sessions re-solving under deltas.  Once all
// are done, every result must still deep-equal the clone taken when it
// returned, so no later build wrote into it through a pooled scratch,
// and match the serial solve of its instance on a fresh scratch.  Run it
// under -race: two solves sharing a scratch are a data race.
func TestPooledScratchKeepsResults(t *testing.T) {
	ctx := context.Background()
	ins := append(ArenaInstances(), CoreColdInstance(20_000), ChurnInstance())
	var (
		mu   sync.Mutex
		kept []pooledResult
		wg   sync.WaitGroup
	)
	keep := func(tag string, in *sched.Instance, run setupsched.Run, res *setupsched.Result) {
		r := pooledResult{tag, in, run, res, CloneSchedule(res.Schedule)}
		mu.Lock()
		kept = append(kept, r)
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, in := range ins {
			s, err := setupsched.NewSolver(in)
			if err != nil {
				t.Errorf("instance %d: %v", k, err)
				return
			}
			rrs, err := s.SolveAll(ctx, setupsched.WithParallelism(4))
			if err != nil {
				t.Errorf("instance %d: %v", k, err)
				return
			}
			for _, rr := range rrs {
				if rr.Err != nil {
					t.Errorf("instance %d %s: %v", k, rr.Run, rr.Err)
					return
				}
				keep("SolveAll", in, rr.Run, rr.Result)
			}
		}
	}()
	deltas := []sched.Delta{
		{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{41, 7}},
		{Op: sched.DeltaRemoveJob, Class: 0, Job: 0},
		{Op: sched.DeltaSetSetup, Class: 2, Setup: 95},
		{Op: sched.DeltaAddClass, Setup: 12, Jobs: []int64{30, 2}},
	}
	for _, base := range []*sched.Instance{ChurnInstance(), ins[0]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := stream.NewSession(base)
			if err != nil {
				t.Error(err)
				return
			}
			for _, d := range deltas {
				if err := sess.Apply(ctx, d); err != nil {
					t.Errorf("%s: %v", d, err)
					return
				}
				in, _, err := sess.Snapshot(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				for _, run := range setupsched.PaperRuns() {
					res, err := sess.Solve(ctx, run.Variant, stream.WithAlgorithm(run.Algorithm))
					if err != nil {
						t.Errorf("%s %s: %v", d, run, err)
						return
					}
					keep("session", in, run, res.Result)
				}
			}
		}()
	}
	wg.Wait()

	for i, r := range kept {
		if !reflect.DeepEqual(r.res.Schedule, r.clone) {
			t.Fatalf("result %d (%s %s): schedule changed after it was returned", i, r.tag, r.run)
		}
		want, err := freshSolve(Prepare(r.in), r.run)
		if err != nil {
			t.Fatalf("result %d (%s %s) fresh: %v", i, r.tag, r.run, err)
		}
		if !reflect.DeepEqual(r.res.Schedule, want.Schedule) || r.res.Makespan != want.Makespan ||
			r.res.Guess != want.T || r.res.LowerBound != want.LowerBound {
			t.Fatalf("result %d (%s %s) differs from the serial solve on a fresh scratch", i, r.tag, r.run)
		}
	}
}

// freshSolve runs one of the paper's runs on p serially, on a scratch of
// its own.
func freshSolve(p *Prep, run setupsched.Run) (*Result, error) {
	return p.Solve(Ctl{Scratch: new(BuildScratch)}, run.Variant, run.Algorithm, setupsched.DefaultEpsilon)
}

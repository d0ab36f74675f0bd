package diff

import (
	"context"
	"testing"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// TestDriftRegimesSessionIdentity is the tier-1 incremental-vs-fresh
// bit-identity gate over generated drift traces: every regime, two size
// profiles, several seeds, every paper spec at every solve point.
func TestDriftRegimesSessionIdentity(t *testing.T) {
	profiles, err := ProfilesByNames("tiny,small")
	if err != nil {
		t.Fatal(err)
	}
	for _, regime := range schedgen.DriftRegimes {
		for _, profile := range profiles {
			t.Run(regime.Name+"/"+profile.Name, func(t *testing.T) {
				for seed := int64(0); seed < 3; seed++ {
					p := profile.Params
					p.Seed = seed
					events := regime.Make(p, 20)
					msgs, stats, err := CheckSessionTrace(context.Background(), events, 0)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					for _, m := range msgs {
						t.Errorf("seed %d: %s", seed, m)
					}
					if stats.Solves == 0 {
						t.Fatalf("seed %d: trace ran no solves", seed)
					}
				}
			})
		}
	}
}

// TestCatalogSessionIdentity runs the identity gate over the full
// adversarial family catalog: each family's instance becomes a session
// base, a canned delta burst is applied, and every spec is compared
// against a fresh solver before and after.
func TestCatalogSessionIdentity(t *testing.T) {
	canned := []sched.Delta{
		{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{5, 1}},
		{Op: sched.DeltaSetSetup, Class: 0, Setup: 17},
		{Op: sched.DeltaAddClass, Setup: 6, Jobs: []int64{9, 2, 2}},
		{Op: sched.DeltaRemoveJob, Class: 0, Job: 0},
		{Op: sched.DeltaSetMachines, M: 5},
		{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{3}},
	}
	for _, fam := range schedgen.Families {
		t.Run(fam.Name, func(t *testing.T) {
			for seed := int64(0); seed < 2; seed++ {
				in := fam.Make(schedgen.Params{
					M: 4, Classes: 10, JobsPer: 3, MaxSetup: 40, MaxJob: 60, Seed: seed,
				})
				events := []schedgen.TraceEvent{{Base: in}, {Solve: true}}
				for i := range canned {
					d := canned[i]
					events = append(events, schedgen.TraceEvent{Delta: &d}, schedgen.TraceEvent{Solve: true})
				}
				msgs, _, err := CheckSessionTrace(context.Background(), events, 0)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, m := range msgs {
					t.Errorf("seed %d: %s", seed, m)
				}
			}
		})
	}
}

// TestRunDriftSweep smokes the sweep driver the schedstress -drift soak
// uses.
func TestRunDriftSweep(t *testing.T) {
	profiles, err := ProfilesByNames("tiny")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunDrift(context.Background(), DriftConfig{
		Profiles: profiles, Seeds: 2, Steps: 12, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Traces != int64(len(schedgen.DriftRegimes))*2 {
		t.Fatalf("swept %d traces, want %d", sum.Traces, len(schedgen.DriftRegimes)*2)
	}
	if sum.Deltas == 0 || sum.Solves == 0 {
		t.Fatalf("empty sweep: %+v", sum)
	}
	for _, v := range sum.Violations {
		t.Error(v)
	}
}

// TestCheckSessionResult pins what the identity check compares: every
// field of the result but Probes and Trace, and for fallback results
// soundness only.
func TestCheckSessionResult(t *testing.T) {
	in := schedgen.Uniform(schedgen.Params{M: 3, Classes: 5, JobsPer: 3, MaxSetup: 20, MaxJob: 30, Seed: 1})
	solver, err := setupsched.NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.Solve(context.Background(), sched.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, edit func(r *setupsched.Result), ok bool) {
		t.Helper()
		got := *want
		edit(&got)
		if err := CheckSessionResult(in, sched.NonPreemptive, &got, want); (err == nil) != ok {
			t.Errorf("%s: CheckSessionResult = %v, want ok=%v", name, err, ok)
		}
	}
	check("identical", func(*setupsched.Result) {}, true)
	check("fewer probes", func(r *setupsched.Result) { r.Probes, r.Trace = 0, nil }, true)
	check("ratio", func(r *setupsched.Result) { r.Ratio = 0 }, false)
	check("algorithm", func(r *setupsched.Result) { r.Algorithm = "other" }, false)
	check("schedule", func(r *setupsched.Result) {
		sc := *r.Schedule
		sc.T = sched.Rat{}
		r.Schedule = &sc
	}, false)
	check("sound fallback", func(r *setupsched.Result) { r.Fallback, r.Ratio = true, 0 }, true)
	check("unsound fallback", func(r *setupsched.Result) {
		r.Fallback, r.Makespan = true, r.Makespan.AddInt(1)
	}, false)
}

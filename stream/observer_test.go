package stream

import (
	"context"
	"testing"

	"setupsched"
	"setupsched/sched"
)

// countingObserver records the event stream of session solves.
type countingObserver struct {
	started, finished int
	searches          int
	lastAlgorithm     string
	lastProbes        int
}

func (c *countingObserver) ProbeStarted(sched.Rat)        { c.started++ }
func (c *countingObserver) ProbeFinished(sched.Rat, bool) { c.finished++ }
func (c *countingObserver) SearchFinished(algo string, n int) {
	c.searches++
	c.lastAlgorithm = algo
	c.lastProbes = n
}

func TestSessionObserverSeesSolvesNotCacheHits(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession(testInstance(11))
	if err != nil {
		t.Fatal(err)
	}
	var obs countingObserver

	// Cold solve: the observer must see every probe plus one
	// SearchFinished carrying the result's own counts.
	r1, err := s.Solve(ctx, sched.NonPreemptive, WithObserver(&obs))
	if err != nil {
		t.Fatal(err)
	}
	if obs.finished != r1.Probes || obs.started != obs.finished {
		t.Fatalf("cold solve: started=%d finished=%d, result probes=%d",
			obs.started, obs.finished, r1.Probes)
	}
	if obs.searches != 1 || obs.lastAlgorithm != r1.Algorithm || obs.lastProbes != r1.Probes {
		t.Fatalf("SearchFinished: searches=%d algo=%q probes=%d, want 1/%q/%d",
			obs.searches, obs.lastAlgorithm, obs.lastProbes, r1.Algorithm, r1.Probes)
	}

	// Unchanged revision: answered from cache, no search, no events.
	before := obs.finished
	r2, err := s.Solve(ctx, sched.NonPreemptive, WithObserver(&obs))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second solve not cached")
	}
	if obs.finished != before || obs.searches != 1 {
		t.Fatal("cache hit emitted observer events")
	}

	// After a delta the solve executes (warm or cold) and the observer
	// sees exactly the probes it ran.
	if err := s.Apply(ctx, sched.Delta{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{17}}); err != nil {
		t.Fatal(err)
	}
	obs = countingObserver{}
	r3, err := s.Solve(ctx, sched.NonPreemptive, WithObserver(&obs))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("post-delta solve was cached")
	}
	if obs.finished == 0 || obs.searches != 1 {
		t.Fatalf("post-delta solve: finished=%d searches=%d", obs.finished, obs.searches)
	}
	if obs.lastProbes != r3.Probes {
		t.Fatalf("SearchFinished probes=%d, result probes=%d", obs.lastProbes, r3.Probes)
	}
}

func TestSessionMultipleObservers(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession(testInstance(12))
	if err != nil {
		t.Fatal(err)
	}
	var a, b countingObserver
	r, err := s.Solve(ctx, sched.Splittable, WithObserver(&a), WithObserver(&b), WithObserver(nil))
	if err != nil {
		t.Fatal(err)
	}
	if a.finished != r.Probes || b.finished != r.Probes {
		t.Fatalf("fan-out mismatch: a=%d b=%d probes=%d", a.finished, b.finished, r.Probes)
	}
	if a.searches != 1 || b.searches != 1 {
		t.Fatalf("fan-out SearchFinished: a=%d b=%d", a.searches, b.searches)
	}
}

// TestSessionObserverIdentityUnchanged guards the bit-identity contract:
// attaching an observer must not change the solve's answer.
func TestSessionObserverIdentityUnchanged(t *testing.T) {
	ctx := context.Background()
	in := testInstance(13)
	s, err := NewSession(in)
	if err != nil {
		t.Fatal(err)
	}
	var obs countingObserver
	got, err := s.Solve(ctx, sched.NonPreemptive, WithObserver(&obs))
	if err != nil {
		t.Fatal(err)
	}
	want := freshResult(t, in, sched.NonPreemptive, setupsched.WithAlgorithm(setupsched.Exact32))
	assertSame(t, "observed solve", got, want)
}

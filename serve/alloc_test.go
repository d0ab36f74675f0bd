package serve

import (
	"context"
	"testing"

	"setupsched/sched"
	"setupsched/schedgen"
)

// TestCacheHitAllocsDoNotScaleWithClasses pins the fingerprint bugfix: a
// cache hit fingerprints and collision-checks through the pooled
// canonical view instead of materializing the canonical deep copy, so
// hit-path allocations must not grow with the class count (the deep copy
// costs one Jobs clone per class — thousands of allocations on the big
// instance below).
func TestCacheHitAllocsDoNotScaleWithClasses(t *testing.T) {
	s := New(Config{})
	mk := func(classes int) *sched.Instance {
		return schedgen.Uniform(schedgen.Params{
			M: 4, Classes: classes, JobsPer: 3, MaxSetup: 20, MaxJob: 30, Seed: 5,
		})
	}
	hitAllocs := func(in *sched.Instance) float64 {
		req := &SolveRequest{Instance: in, Variant: "nonp"}
		if resp := s.solve(context.Background(), req, nil); resp.Error != "" {
			t.Fatalf("cold solve: %s", resp.Error)
		}
		var resp *SolveResponse
		n := testing.AllocsPerRun(20, func() {
			resp = s.solve(context.Background(), req, nil)
		})
		if resp == nil || resp.Error != "" || !resp.Cached {
			t.Fatalf("warm solve was not a clean cache hit: %+v", resp)
		}
		return n
	}
	small, big := hitAllocs(mk(64)), hitAllocs(mk(2048))
	if big > small+256 {
		t.Fatalf("cache-hit allocations scale with classes: %v at 64 classes, %v at 2048",
			small, big)
	}
}

// TestUntracedSolveAllocsUnchangedByTracing pins the "tracing off the
// hot path" guarantee: with no traceparent and slow-solve logging
// disabled, the full Solve path on a server that HAS the flight
// recorder enabled allocates exactly as much as on a server with it
// disabled — the tracing feature costs nothing until a request actually
// carries a sampled context.
//
// Each server's view pool hands out one view: race builds drop a random
// quarter of sync.Pool Puts, and a dropped view is reallocated and
// regrown on the next request, so counts through a real pool would
// depend on pool hits rather than on tracing.
func TestUntracedSolveAllocsUnchangedByTracing(t *testing.T) {
	in := schedgen.Uniform(schedgen.Params{
		M: 4, Classes: 128, JobsPer: 3, MaxSetup: 20, MaxJob: 30, Seed: 7,
	})
	solveAllocs := func(s *Server) float64 {
		view := new(sched.CanonicalView)
		s.views.New = func() any { return view }
		req := &SolveRequest{Instance: in, Variant: "nonp"}
		if resp := s.Solve(context.Background(), req); resp.Error != "" {
			t.Fatalf("cold solve: %s", resp.Error)
		}
		var resp *SolveResponse
		n := testing.AllocsPerRun(20, func() {
			resp = s.Solve(context.Background(), req)
		})
		if resp == nil || resp.Error != "" || !resp.Cached {
			t.Fatalf("warm solve was not a clean cache hit: %+v", resp)
		}
		if resp.TraceID != "" || resp.spanRoot != nil {
			t.Fatalf("untraced request grew trace state: %+v", resp)
		}
		return n
	}
	withFlight := solveAllocs(New(Config{}))                     // recorder on (default)
	noFlight := solveAllocs(New(Config{FlightRecorderSize: -1})) // recorder off
	if withFlight != noFlight {
		t.Fatalf("untraced solve allocations changed by the tracing feature: %v with flight recorder, %v without",
			withFlight, noFlight)
	}
}

// TestTracedSolveLandsInFlightRecorder is the positive control for the
// test above: the same request WITH a sampled traceparent records a
// wire tree and books a flight-recorder entry.
func TestTracedSolveLandsInFlightRecorder(t *testing.T) {
	s := New(Config{ShardID: "s0"})
	in := schedgen.Uniform(schedgen.Params{
		M: 2, Classes: 8, JobsPer: 2, MaxSetup: 9, MaxJob: 9, Seed: 3,
	})
	req := &SolveRequest{
		Instance:    in,
		Variant:     "nonp",
		TraceParent: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	resp := s.Solve(context.Background(), req)
	if resp.Error != "" {
		t.Fatalf("solve: %s", resp.Error)
	}
	if resp.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not stamped: %q", resp.TraceID)
	}
	got := s.Flight().Snapshot(resp.TraceID, 0, 0)
	if len(got) != 1 {
		t.Fatalf("flight recorder holds %d entries for the trace, want 1", len(got))
	}
	tr := got[0]
	if tr.Shard != "s0" || tr.Service != "s0" || tr.Route != "solve" || tr.Status != 200 {
		t.Fatalf("recorded trace metadata: %+v", tr)
	}
	root := tr.Root
	if root == nil || root.Name != "handler" || root.Parent != "00f067aa0ba902b7" {
		t.Fatalf("handler span malformed: %+v", root)
	}
	if root.Child("queue") == nil || root.Child("solve") == nil {
		t.Fatalf("handler span lacks queue/solve children: %+v", root.Children)
	}
	if solve := root.Child("solve"); solve.Parent != root.SpanID {
		t.Fatalf("solve span not parented under handler: %q vs %q", solve.Parent, root.SpanID)
	}
	// An unsampled context leaves the request untraced.
	req2 := &SolveRequest{
		Instance:    in,
		Variant:     "nonp",
		TraceParent: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
	}
	if resp2 := s.Solve(context.Background(), req2); resp2.TraceID != "" {
		t.Fatalf("unsampled request was traced: %q", resp2.TraceID)
	}
}

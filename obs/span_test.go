package obs

import (
	"encoding/json"
	"testing"
	"time"

	"setupsched/sched"
)

func TestSpanRecorderSerialSolve(t *testing.T) {
	r := NewSpanRecorder()
	done := r.StartPhase("prepare")
	done()
	for i, tc := range []struct {
		T        sched.Rat
		accepted bool
	}{
		{sched.R(8), true},
		{sched.R(4), false},
		{sched.RatOf(13, 2), true},
	} {
		r.ProbeStarted(tc.T)
		r.ProbeFinished(tc.T, tc.accepted)
		_ = i
	}
	r.SearchFinished("split-jump", 3)
	root := r.Root()

	if root.Name != "solve" || root.Algorithm != "split-jump" {
		t.Fatalf("root = %+v", root)
	}
	if root.Child("prepare") == nil {
		t.Fatal("missing prepare span")
	}
	search := root.Child("search")
	if search == nil {
		t.Fatal("missing search span")
	}
	if search.Probes != 3 || len(search.Children) != 3 {
		t.Fatalf("search: probes=%d children=%d", search.Probes, len(search.Children))
	}
	if search.Children[0].Outcome != "accept" || search.Children[1].Outcome != "reject" {
		t.Fatalf("probe outcomes: %q %q", search.Children[0].Outcome, search.Children[1].Outcome)
	}
	if search.Children[2].T != "13/2" {
		t.Fatalf("probe T = %q, want 13/2", search.Children[2].T)
	}
	if root.Child("build") == nil {
		t.Fatal("missing build span")
	}
	phases := PhaseDurations(root)
	for _, name := range []string{"prepare", "search", "build"} {
		if _, ok := phases[name]; !ok {
			t.Errorf("PhaseDurations lacks %s", name)
		}
	}
}

func TestSpanRecorderAbandonedSolve(t *testing.T) {
	// A canceled solve never reports SearchFinished; Root must still
	// close everything.
	r := NewSpanRecorder()
	r.ProbeStarted(sched.R(3))
	root := r.Root()
	if root.DurUS < 0 {
		t.Fatal("root not closed")
	}
	search := root.Child("search")
	if search == nil || len(search.Children) != 1 {
		t.Fatal("missing probe under search")
	}
}

func TestSpanJSONShape(t *testing.T) {
	r := NewSpanRecorder()
	r.ProbeStarted(sched.R(2))
	r.ProbeFinished(sched.R(2), true)
	r.SearchFinished("split-2approx", 1)
	data, err := json.Marshal(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	var round Span
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.Name != "solve" || round.Algorithm != "split-2approx" {
		t.Fatalf("round trip: %+v", round)
	}
	if round.Child("search") == nil || round.Child("search").Children[0].Outcome != "accept" {
		t.Fatalf("round trip lost probe detail: %s", data)
	}
}

func TestProbeCounterCounts(t *testing.T) {
	var probes, searches Counter
	pc := &ProbeCounter{C: &probes, Searches: &searches}
	pc.ProbeStarted(sched.R(1))
	pc.ProbeFinished(sched.R(1), true)
	pc.ProbeFinished(sched.R(2), false)
	pc.SearchFinished("x", 2)
	if probes.Load() != 2 || searches.Load() != 1 {
		t.Fatalf("probes=%d searches=%d", probes.Load(), searches.Load())
	}
}

func TestLogSlowSolveDoesNotPanic(t *testing.T) {
	r := NewSpanRecorder()
	r.ProbeStarted(sched.R(2))
	r.ProbeFinished(sched.R(2), true)
	r.SearchFinished("split-jump", 1)
	LogSlowSolve(nil, 50*time.Millisecond, "0af7651916cd43dd8448eb211c80319c", "deadbeef", "s", "split-jump", 1, r.Root())
	LogSlowSolve(nil, 50*time.Millisecond, "", "deadbeef", "s", "split-jump", 1, nil)
}

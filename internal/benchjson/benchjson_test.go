package benchjson

import (
	"encoding/json"
	"testing"
)

// TestBenchCoreShape runs a tiny measurement and checks the run carries
// every expected datapoint pair, validates, and survives a JSON
// round trip — the same path CI's bench-json smoke exercises.
func TestBenchCoreShape(t *testing.T) {
	run, err := BenchCore([]int{400}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := &BenchReport{}
	MergeRun(rep, *run)
	if err := ValidateBenchReport(rep); err != nil {
		t.Fatal(err)
	}

	names := map[string]bool{}
	for _, r := range run.Results {
		names[r.Name+"/"+r.Mode] = true
		// Every measured path must genuinely probe on the bench instance
		// shape, otherwise the datapoints measure nothing.
		if r.Probes < 2 {
			t.Errorf("%s n=%d %s: only %d probes; bench instance no longer exercises the search", r.Name, r.N, r.Mode, r.Probes)
		}
	}
	for _, want := range []string{
		"split/exact32/serial",
		"solveall/paper/serial", "solveall/paper/parallel",
		"session/splittable/cold", "session/splittable/warm",
		"session/preemptive/cold", "session/preemptive/warm",
		"session/nonpreemptive/cold", "session/nonpreemptive/warm",
	} {
		if !names[want] {
			t.Errorf("missing datapoint %s", want)
		}
	}
	if names["split/exact32/parallel"] {
		t.Error("single-solve path split/exact32 emitted a parallel row; it probes serially")
	}

	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(&back); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
}

// TestMergeRunKeysByEnvironment pins the env-keyed comparison contract: a
// run regenerated in the same environment replaces its predecessor, a run
// from a different environment is appended.
func TestMergeRunKeysByEnvironment(t *testing.T) {
	run, err := BenchCore([]int{200}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := &BenchReport{}
	MergeRun(rep, *run)
	MergeRun(rep, *run)
	if len(rep.Runs) != 1 {
		t.Fatalf("same-environment merge kept %d runs, want 1", len(rep.Runs))
	}
	other := *run
	other.GoMaxProcs = run.GoMaxProcs + 3
	MergeRun(rep, other)
	if len(rep.Runs) != 2 {
		t.Fatalf("different-environment merge kept %d runs, want 2", len(rep.Runs))
	}
	if err := ValidateBenchReport(rep); err != nil {
		t.Fatal(err)
	}
}

// TestValidateBenchReportRejects covers the validator's failure modes.
func TestValidateBenchReportRejects(t *testing.T) {
	good, err := BenchCore([]int{200}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*BenchReport)
	}{
		{"nil", nil},
		{"schema", func(r *BenchReport) { r.Schema = "bogus" }},
		{"no runs", func(r *BenchReport) { r.Runs = nil }},
		{"environment", func(r *BenchReport) { r.Runs[0].GoMaxProcs = 0 }},
		{"no results", func(r *BenchReport) { r.Runs[0].Results = nil }},
		{"bad mode", func(r *BenchReport) { r.Runs[0].Results[0].Mode = "warp" }},
		{"unpaired fan-out", func(r *BenchReport) { r.Runs[0].Results = dropMode(r.Runs[0].Results, "parallel") }},
		{"unpaired session", func(r *BenchReport) { r.Runs[0].Results = dropMode(r.Runs[0].Results, "warm") }},
		{"duplicate env", func(r *BenchReport) { r.Runs = append(r.Runs, r.Runs[0]) }},
	}
	for _, tc := range cases {
		var rep *BenchReport
		if tc.mutate != nil {
			rep = &BenchReport{}
			MergeRun(rep, *good)
			rep.Runs[0].Results = append([]BenchResult(nil), good.Results...)
			tc.mutate(rep)
		}
		if err := ValidateBenchReport(rep); err == nil {
			t.Errorf("%s: validator accepted a broken report", tc.name)
		}
	}
}

// dropMode returns the results without the rows of one mode.
func dropMode(rs []BenchResult, mode string) []BenchResult {
	var out []BenchResult
	for _, r := range rs {
		if r.Mode != mode {
			out = append(out, r)
		}
	}
	return out
}

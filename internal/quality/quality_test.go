package quality

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"setupsched/sched"
	"setupsched/schedgen"
)

// TestSweepGuaranteesAcrossCatalog is the tier-1 face of the quality
// harness: sweep every schedgen family through the library entry point
// cmd/schedquality uses and assert — by exact rational comparison, no
// float slack — that every measured ratio stays within the paper
// guarantee for its algorithm.
func TestSweepGuaranteesAcrossCatalog(t *testing.T) {
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	run, err := Sweep(context.Background(), Config{Seeds: seeds, Workers: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(schedgen.Families) * len(measured()); len(run.Results) != want {
		t.Fatalf("%d results for %d families x %d specs", len(run.Results), len(schedgen.Families), len(measured()))
	}

	one := sched.R(1)
	exactTotal := 0
	for _, fr := range run.Results {
		fr := fr
		t.Run(fr.Family+"/"+fr.Spec, func(t *testing.T) {
			if fr.Instances != int(seeds) {
				t.Fatalf("swept %d instances, want %d", fr.Instances, seeds)
			}
			if fr.Exact+fr.Bracket != fr.Instances {
				t.Fatalf("counts exact=%d bracket=%d don't add to %d", fr.Exact, fr.Bracket, fr.Instances)
			}
			if fr.Exact > 0 {
				if fr.WorstRatio.Less(one) {
					t.Errorf("worst ratio %s below 1: a schedule beat the reference optimum", fr.WorstRatio)
				}
				if fr.Guarantee.Less(fr.WorstRatio) {
					t.Errorf("worst measured ratio %s exceeds the paper guarantee %s", fr.WorstRatio, fr.Guarantee)
				}
			}
			if fr.Bracket > 0 && fr.WorstBound.Less(one) {
				t.Errorf("worst certified bound %s below 1", fr.WorstBound)
			}
		})
		exactTotal += fr.Exact
	}
	if exactTotal == 0 {
		t.Fatal("reference backend converged on no instance; the guarantee table is vacuous")
	}

	// The run must merge into a self-validating report, the same path the
	// CLI takes before writing BENCH_quality.json.
	rep := &Report{}
	MergeRun(rep, *run)
	if err := Validate(rep); err != nil {
		t.Fatalf("swept run fails its own validation: %v", err)
	}
}

// TestSweepDeterministicAcrossWorkers pins that a sweep's results, the
// float means included, do not depend on the worker count or on the order
// in which workers finish.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Seeds: 6}
	cfg.Workers = 1
	want, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 4; workers++ {
		cfg.Workers = workers
		got, err := Sweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("workers %d: %d results, workers 1: %d", workers, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
				t.Errorf("workers %d: %+v, workers 1: %+v", workers, got.Results[i], want.Results[i])
			}
		}
	}
}

// testRun builds a structurally valid run for validator and gate tests.
func testRun() Run {
	return Run{
		GoVersion: "go-test", GOOS: "linux", GOARCH: "amd64", GoMaxProcs: 1, NumCPU: 1,
		GeneratedUnix: 1, Seeds: 2, Epsilon: DefaultEpsilon,
		M: 4, Classes: 10, JobsPer: 3, MaxSetup: 40, MaxJob: 60,
		Results: []FamilyResult{
			{Family: "uniform", Spec: "nonp/2approx", Instances: 2, Exact: 2,
				Guarantee: sched.R(2), WorstRatio: sched.RatOf(3, 2), WorstFloat: 1.5, MeanFloat: 1.4},
			{Family: "uniform", Spec: "nonp/exact32", Instances: 2, Exact: 1, Bracket: 1,
				Guarantee: sched.RatOf(3, 2), WorstRatio: sched.RatOf(13, 10),
				WorstBound: sched.RatOf(7, 5), WorstFloat: 1.3, MeanFloat: 1.3},
		},
	}
}

func TestValidateCatchesCorruptReports(t *testing.T) {
	valid := func() *Report {
		rep := &Report{}
		MergeRun(rep, testRun())
		return rep
	}
	if err := Validate(valid()); err != nil {
		t.Fatalf("baseline report invalid: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func(*Report)
		want    string
	}{
		{"nil report", nil, "nil report"},
		{"wrong schema", func(r *Report) { r.Schema = "v0" }, "schema"},
		{"no runs", func(r *Report) { r.Runs = nil }, "no runs"},
		{"duplicate env", func(r *Report) { r.Runs = append(r.Runs, r.Runs[0]) }, "duplicate environment"},
		{"missing env fields", func(r *Report) { r.Runs[0].GoVersion = "" }, "environment fields"},
		{"missing params", func(r *Report) { r.Runs[0].Seeds = 0 }, "run parameters"},
		{"missing sizes", func(r *Report) { r.Runs[0].Classes = 0 }, "size parameters"},
		{"no results", func(r *Report) { r.Runs[0].Results = nil }, "no results"},
		{"unknown spec", func(r *Report) { r.Runs[0].Results[0].Spec = "nonp/magic" }, "unknown family or spec"},
		{"duplicate result", func(r *Report) {
			r.Runs[0].Results = append(r.Runs[0].Results, r.Runs[0].Results[0])
		}, "duplicate result"},
		{"count mismatch", func(r *Report) { r.Runs[0].Results[0].Exact = 1 }, "don't add"},
		{"missing guarantee", func(r *Report) { r.Runs[0].Results[0].Guarantee = sched.Rat{} }, "missing guarantee"},
		{"ratio below 1", func(r *Report) { r.Runs[0].Results[0].WorstRatio = sched.RatOf(9, 10) }, "below 1"},
		{"ratio above guarantee", func(r *Report) { r.Runs[0].Results[0].WorstRatio = sched.RatOf(5, 2) }, "exceeds the paper guarantee"},
		{"bound below 1", func(r *Report) { r.Runs[0].Results[1].WorstBound = sched.RatOf(1, 2) }, "below 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rep *Report
			if tc.corrupt != nil {
				rep = valid()
				tc.corrupt(rep)
			}
			err := Validate(rep)
			if err == nil {
				t.Fatal("corrupt report accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestMergeRunReplacesByEnvKey(t *testing.T) {
	rep := &Report{}
	MergeRun(rep, testRun())
	if rep.Schema != Schema || len(rep.Runs) != 1 {
		t.Fatalf("first merge: schema %q, %d runs", rep.Schema, len(rep.Runs))
	}

	updated := testRun()
	updated.Seeds = 9
	MergeRun(rep, updated)
	if len(rep.Runs) != 1 || rep.Runs[0].Seeds != 9 {
		t.Fatalf("same-env merge did not replace: %d runs, seeds %d", len(rep.Runs), rep.Runs[0].Seeds)
	}

	other := testRun()
	other.GoVersion = "go-other"
	MergeRun(rep, other)
	if len(rep.Runs) != 2 {
		t.Fatalf("new-env merge did not append: %d runs", len(rep.Runs))
	}
}

func TestCompareRunsGate(t *testing.T) {
	base := testRun()

	// Identical sweep: gate passes.
	same := testRun()
	if msgs := CompareRuns(&base, &same); len(msgs) != 0 {
		t.Fatalf("identical runs flagged: %v", msgs)
	}

	// A worse worst ratio is a regression.
	regressed := testRun()
	regressed.Results[0].WorstRatio = sched.RatOf(8, 5)
	msgs := CompareRuns(&base, &regressed)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "regressed 3/2 -> 8/5") {
		t.Fatalf("regression not flagged: %v", msgs)
	}

	// A better (or equal) worst ratio passes.
	improved := testRun()
	improved.Results[0].WorstRatio = sched.RatOf(7, 5)
	if msgs := CompareRuns(&base, &improved); len(msgs) != 0 {
		t.Fatalf("improvement flagged: %v", msgs)
	}

	// Convergence loss is flagged even without a ratio to compare.
	vanished := testRun()
	vanished.Results[1].Exact = 0
	vanished.Results[1].Bracket = 2
	vanished.Results[1].WorstRatio = sched.Rat{}
	if msgs := CompareRuns(&base, &vanished); len(msgs) != 1 || !strings.Contains(msgs[0], "no longer converges") {
		t.Fatalf("convergence loss not flagged: %v", msgs)
	}

	// Different sweep parameters are incomparable, not silently passed.
	differentParams := testRun()
	differentParams.MaxJob = 99
	if msgs := CompareRuns(&base, &differentParams); len(msgs) != 1 || !strings.Contains(msgs[0], "not comparable") {
		t.Fatalf("parameter mismatch not flagged: %v", msgs)
	}

	// More seeds than the baseline can only widen the worst case.
	moreSeeds := testRun()
	moreSeeds.Seeds = 50
	if msgs := CompareRuns(&base, &moreSeeds); len(msgs) != 1 || !strings.Contains(msgs[0], "more seeds") {
		t.Fatalf("seed superset not flagged: %v", msgs)
	}

	// A family only the current sweep has is new coverage, not a regression.
	newFamily := testRun()
	newFamily.Results = append(newFamily.Results, FamilyResult{
		Family: "zipf", Spec: "nonp/2approx", Instances: 2, Exact: 2,
		Guarantee: sched.R(2), WorstRatio: sched.RatOf(19, 10)})
	if msgs := CompareRuns(&base, &newFamily); len(msgs) != 0 {
		t.Fatalf("new family flagged: %v", msgs)
	}
}

// TestReportRoundTripsExactRationals pins the wire format: worst ratios
// survive JSON as exact "p/q" strings, so a committed report re-read by
// the gate compares the same rationals the sweep measured.
func TestReportRoundTripsExactRationals(t *testing.T) {
	rep := &Report{}
	MergeRun(rep, testRun())
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"worst_ratio":"3/2"`) {
		t.Fatalf("worst ratio not serialized as an exact rational: %s", buf)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if err := Validate(&back); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	if !back.Runs[0].Results[0].WorstRatio.Equal(sched.RatOf(3, 2)) {
		t.Fatalf("worst ratio changed across round trip: %s", back.Runs[0].Results[0].WorstRatio)
	}
}

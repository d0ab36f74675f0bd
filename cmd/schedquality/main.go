// Command schedquality measures the realized approximation quality of
// the paper's non-preemptive algorithms against the exact reference
// backend (the RefExact branch-and-bound) across the full schedgen
// catalog, and maintains the committed BENCH_quality.json report.
//
// Usage:
//
//	schedquality [-seeds 12] [-budget N] [-o BENCH_quality.json]
//	schedquality -validate BENCH_quality.json
//	schedquality -gate -baseline BENCH_quality.json [-seeds 4]
//
// The default mode sweeps every family, solving each instance's three
// approximation algorithms plus the RefExact reference in one SolveAll
// call, and prints (or with -o merges into the env-keyed report file)
// the per-family distributions of the measured makespan/OPT ratio.  The
// worst ratio per (family, algorithm) is an exact rational; instances
// where the reference's node budget runs out contribute a certified
// ratio upper bound instead (worst_bound).
//
// -validate checks an existing report: schema, structure, and that every
// recorded worst ratio respects the recorded paper guarantee by exact
// rational comparison.  -gate re-sweeps with the current binary and
// fails (exit 1) if any family's worst measured ratio regressed against
// the baseline report — the CI hook that catches approximation-quality
// regressions the performance benchmarks cannot see.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"setupsched/internal/diff"
	"setupsched/internal/quality"
	"setupsched/schedgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	seeds := flag.Int64("seeds", 12, "seeds per family")
	seedBase := flag.Int64("seedbase", 0, "first seed of the sweep")
	eps := flag.Float64("eps", diff.DefaultEpsilon, "accuracy of the eps-search spec")
	budget := flag.Int64("budget", 0, "node budget of the reference backend per instance (0 = backend default)")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel sweep workers")
	m := flag.Int64("m", 0, "machines (0 = default sweep profile)")
	classes := flag.Int("classes", 0, "classes per instance (0 = default sweep profile)")
	jobsPer := flag.Int("jobsper", 0, "expected jobs per class (0 = default sweep profile)")
	maxSetup := flag.Int64("maxsetup", 0, "setup magnitude (0 = default sweep profile)")
	maxJob := flag.Int64("maxjob", 0, "job magnitude (0 = default sweep profile)")
	out := flag.String("o", "", "merge the run into this env-keyed report file instead of stdout")
	validate := flag.String("validate", "", "validate an existing BENCH_quality.json report and exit")
	gate := flag.Bool("gate", false, "re-sweep and fail if any worst ratio regressed vs -baseline")
	baseline := flag.String("baseline", "BENCH_quality.json", "with -gate: baseline report to compare against")
	flag.Parse()

	if *validate != "" {
		return runValidate(*validate)
	}

	params := quality.DefaultParams()
	if *m > 0 {
		params.M = *m
	}
	if *classes > 0 {
		params.Classes = *classes
	}
	if *jobsPer > 0 {
		params.JobsPer = *jobsPer
	}
	if *maxSetup > 0 {
		params.MaxSetup = *maxSetup
	}
	if *maxJob > 0 {
		params.MaxJob = *maxJob
	}
	cfg := quality.Config{
		Params:     params,
		Seeds:      *seeds,
		SeedBase:   *seedBase,
		Epsilon:    *eps,
		NodeBudget: *budget,
		Workers:    *workers,
	}
	run, err := quality.Sweep(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedquality:", err)
		return 1
	}

	if *gate {
		return runGate(*baseline, run)
	}
	return emit(run, *out)
}

// emit merges the run into the env-keyed report at out (stdout if empty).
func emit(run *quality.Run, out string) int {
	rep := &quality.Report{}
	if out != "" {
		if prev, err := os.ReadFile(out); err == nil {
			var existing quality.Report
			// A stale or differently-versioned file is replaced wholesale.
			if json.Unmarshal(prev, &existing) == nil && existing.Schema == quality.Schema {
				rep = &existing
			}
		}
	}
	quality.MergeRun(rep, *run)
	if err := quality.Validate(rep); err != nil {
		fmt.Fprintln(os.Stderr, "schedquality: self-check failed:", err)
		return 1
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedquality:", err)
		return 1
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = os.Stdout.Write(buf)
	} else {
		err = os.WriteFile(out, buf, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedquality:", err)
		return 1
	}
	return 0
}

// runValidate parses and validates a report file.
func runValidate(path string) int {
	rep, err := readReport(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedquality: %s: %v\n", path, err)
		return 1
	}
	if err := quality.Validate(rep); err != nil {
		fmt.Fprintf(os.Stderr, "schedquality: %s: %v\n", path, err)
		return 1
	}
	nfam := len(schedgen.Families)
	fmt.Printf("%s: valid %s report (%d runs, %d families in catalog)\n", path, rep.Schema, len(rep.Runs), nfam)
	for i := range rep.Runs {
		r := &rep.Runs[i]
		fams := map[string]bool{}
		for _, fr := range r.Results {
			fams[fr.Family] = true
		}
		fmt.Printf("  %s: %d results over %d families, %d seeds each\n",
			r.EnvKey(), len(r.Results), len(fams), r.Seeds)
	}
	return 0
}

// runGate compares a fresh sweep against the committed baseline: the run
// with the matching environment key if present, the first run otherwise
// (ratios are deterministic in the sweep parameters, so cross-environment
// comparison is sound — only the parameters must match, which
// CompareRuns enforces).
func runGate(path string, current *quality.Run) int {
	rep, err := readReport(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedquality: %s: %v\n", path, err)
		return 1
	}
	if err := quality.Validate(rep); err != nil {
		fmt.Fprintf(os.Stderr, "schedquality: %s: %v\n", path, err)
		return 1
	}
	base := &rep.Runs[0]
	for i := range rep.Runs {
		if rep.Runs[i].EnvKey() == current.EnvKey() {
			base = &rep.Runs[i]
			break
		}
	}
	msgs := quality.CompareRuns(base, current)
	if len(msgs) > 0 {
		fmt.Fprintf(os.Stderr, "schedquality: quality gate FAILED against %s (%s):\n", path, base.EnvKey())
		for _, m := range msgs {
			fmt.Fprintln(os.Stderr, "  "+m)
		}
		return 1
	}
	fmt.Printf("quality gate passed: no worst-ratio regressions against %s (%d comparisons)\n",
		path, len(current.Results))
	return 0
}

func readReport(path string) (*quality.Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep quality.Report
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

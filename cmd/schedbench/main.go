// Command schedbench runs the experiment harness that reproduces the
// paper's Table 1: measured approximation ratios per algorithm, running
// time scaling against n, and a comparison against classical baselines.
//
// Usage:
//
//	schedbench [-instances 40] [-sizes 1000,10000,100000] [-reps 3] [-skip-scaling]
//	schedbench -json [-o BENCH_core.json] [-parallelism N]
//	schedbench -validate BENCH_core.json
//
// By default the command prints those tables as text.  With -json it
// instead measures each paper search serially, the
// SolveAll nine-run fan-out against its serial path, and the incremental
// session engine against stateless re-solving (warm re-solve after a
// delta vs cold NewSolver+Solve), and
// records the run into the machine-readable BENCH_core.json report
// tracking the repo's performance trajectory.  The report holds one run
// per environment (go version / OS / arch / GOMAXPROCS): regenerating
// into an existing file replaces the matching environment's run and
// keeps the others, so single-core and multi-core baselines coexist and
// comparisons never mix environments.  -validate checks an existing
// report's schema, for CI smoke tests and pre-commit sanity.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"setupsched/internal/benchjson"
	"setupsched/internal/expt"
)

func main() {
	instances := flag.Int("instances", 40, "instances per generator family for ratio/compare tables")
	sizesFlag := flag.String("sizes", "1000,10000,100000", "comma-separated job counts for the scaling table / -json datapoints")
	reps := flag.Int("reps", 3, "repetitions per timing measurement")
	skipScaling := flag.Bool("skip-scaling", false, "skip the (slower) scaling table")
	jsonMode := flag.Bool("json", false, "emit the machine-readable BENCH_core.json report instead of tables")
	out := flag.String("o", "", "with -json: write the report to this file instead of stdout")
	parallelism := flag.Int("parallelism", 0, "with -json: SolveAll fan-out width of the parallel datapoints (default GOMAXPROCS)")
	validate := flag.String("validate", "", "validate an existing BENCH_core.json report and exit")
	flag.Parse()

	if *validate != "" {
		os.Exit(runValidate(*validate))
	}

	var sizes []int
	for _, part := range strings.Split(*sizesFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "schedbench: bad size %q\n", part)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}

	if *jsonMode {
		os.Exit(runJSON(sizes, *reps, *parallelism, *out))
	}

	fmt.Println("## Measured approximation ratios (Table 1 reproduction)")
	fmt.Println()
	rows, err := expt.RatioTable(*instances)
	if err != nil {
		fail(err)
	}
	fmt.Println(expt.FormatRatioTable(rows))

	fmt.Println("## Comparison against classical baselines")
	fmt.Println()
	cmp, err := expt.CompareTable(*instances)
	if err != nil {
		fail(err)
	}
	fmt.Println(expt.FormatCompareTable(cmp))

	fmt.Println("## Variant crossover (value of preemption/splitting as m grows)")
	fmt.Println()
	cross, err := expt.Crossover([]int64{1, 2, 4, 8, 16, 32, 64, 128}, 2019)
	if err != nil {
		fail(err)
	}
	fmt.Println(expt.FormatCrossover(cross))

	if !*skipScaling {
		fmt.Println("## Running time scaling (near-linear claims of Table 1)")
		fmt.Println()
		sc, err := expt.ScalingTable(sizes, *reps)
		if err != nil {
			fail(err)
		}
		fmt.Println(expt.FormatScalingTable(sc))
	}
}

// runJSON measures the solve engines and writes the BENCH_core report,
// merging the run into an existing env-keyed report at -o if present.
func runJSON(sizes []int, reps, parallelism int, out string) int {
	run, err := benchjson.BenchCore(sizes, reps, parallelism)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		return 1
	}
	rep := &benchjson.BenchReport{}
	if out != "" {
		if prev, err := os.ReadFile(out); err == nil {
			var existing benchjson.BenchReport
			// A stale or pre-v2 file is replaced wholesale rather than
			// merged into.
			if json.Unmarshal(prev, &existing) == nil && existing.Schema == benchjson.BenchCoreSchema {
				rep = &existing
			}
		}
	}
	benchjson.MergeRun(rep, *run)
	if err := benchjson.ValidateBenchReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "schedbench: self-check failed:", err)
		return 1
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		return 1
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = os.Stdout.Write(buf)
	} else {
		err = os.WriteFile(out, buf, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		return 1
	}
	return 0
}

// runValidate parses and validates a report file.
func runValidate(path string) int {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		return 1
	}
	var rep benchjson.BenchReport
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		fmt.Fprintf(os.Stderr, "schedbench: %s: %v\n", path, err)
		return 1
	}
	if err := benchjson.ValidateBenchReport(&rep); err != nil {
		fmt.Fprintf(os.Stderr, "schedbench: %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("%s: valid %s report (%d runs)\n", path, rep.Schema, len(rep.Runs))
	for i := range rep.Runs {
		fmt.Printf("  %s: %d results (num_cpu=%d)\n", rep.Runs[i].EnvKey(), len(rep.Runs[i].Results), rep.Runs[i].NumCPU)
	}
	return 0
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "schedbench:", err)
	os.Exit(1)
}

// Command schedbench runs the experiment harness that reproduces the
// paper's Table 1: measured approximation ratios per algorithm, running
// time scaling against n, and a comparison against classical baselines.
//
// Usage:
//
//	schedbench [-instances 40] [-sizes 1000,10000,100000] [-reps 3] [-skip-scaling]
//
// It prints as text the measured ratios, the baseline comparison, the
// variant crossover and, unless -skip-scaling, the running-time scaling.
// The repo's performance record is the end-to-end benchmark declared in
// BENCHMARK.json (perfbench/) together with the go test -bench
// benchmarks; see README "Performance tracking".
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"setupsched/internal/expt"
)

func main() {
	instances := flag.Int("instances", 40, "instances per generator family for ratio/compare tables")
	sizesFlag := flag.String("sizes", "1000,10000,100000", "comma-separated job counts for the scaling table")
	reps := flag.Int("reps", 3, "repetitions per timing measurement")
	skipScaling := flag.Bool("skip-scaling", false, "skip the (slower) scaling table")
	flag.Parse()

	var sizes []int
	for _, part := range strings.Split(*sizesFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "schedbench: bad size %q\n", part)
			os.Exit(2)
		}
		sizes = append(sizes, v)
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "schedbench:", err)
	os.Exit(1)
}

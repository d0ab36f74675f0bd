// Command schedstress soaks the solvers with generated adversarial
// instances and differentially verifies every paper guarantee: each
// instance is solved by all nine algorithms through the public Solver API,
// every result is re-checked with setupsched.Verify, measured ratios are
// asserted against the per-variant guarantees, and — on instances small
// enough for exhaustive search — certified bounds and makespans are
// checked against true optima (plus baseline and cross-variant sanity).
//
// Usage:
//
//	schedstress [-families all] [-profiles all] [-seeds 20] [-seedbase 0]
//	            [-workers NumCPU] [-parallelism 1]
//	            [-duration 0] [-eps 1e-3] [-maxviol 20] [-progress 10s] [-v]
//	schedstress -drift [-regimes all] [-steps 24] ...
//
//	schedstress -families all -seeds 50          # one full verified sweep
//	schedstress -duration 10s                    # soak until the clock runs out
//	schedstress -families nearhalf,ratstress -v  # drill into two regimes
//	schedstress -parallelism 4                   # exercise the SolveAll fan-out
//	schedstress -drift -seeds 10                 # incremental-vs-fresh identity soak
//
// With -drift the soak switches to the streaming layer: schedgen drift
// traces (job churn, setup drift, machine scaling) are replayed through
// stream.Sessions and every solve point is checked bit-for-bit against a
// fresh cold solve (see internal/diff.CheckSessionTrace).
//
// During a stateless soak a one-line progress report (instances, solves,
// violations, and p50/p99 per-instance check latency from a shared
// histogram) is printed to stderr every -progress interval, and the final
// report includes the latency quantiles over the whole run.
//
// Every violation is printed with the (family-or-regime, profile, seed)
// triple that regenerates the offending instance or trace.  Exit status:
// 0 all checks passed, 1 violations found, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"setupsched/internal/diff"
	"setupsched/obs"
	"setupsched/schedgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	families := flag.String("families", "all", "comma-separated schedgen families, or 'all'")
	profiles := flag.String("profiles", "all", "comma-separated size profiles (tiny, small, medium), or 'all'")
	seeds := flag.Int64("seeds", 20, "seeds per (family, profile) pair and round")
	seedBase := flag.Int64("seedbase", 0, "first seed of the sweep")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel check workers")
	parallelism := flag.Int("parallelism", 1, "per-instance SolveAll fan-out width (each instance's nine algorithms solved concurrently)")
	duration := flag.Duration("duration", 0, "keep sweeping fresh seeds until this much time has passed (0 = one sweep)")
	eps := flag.Float64("eps", diff.DefaultEpsilon, "accuracy of the eps-search specs")
	exactBudget := flag.Int64("exactbudget", 0, "if > 0, run the branch-and-bound exact reference per instance with this node budget (true-ratio checks where it converges, certified OPT brackets where it does not)")
	maxViol := flag.Int("maxviol", 20, "stop after this many violations (0 = unlimited)")
	drift := flag.Bool("drift", false, "soak the streaming session layer on drift traces instead of stateless instances")
	regimes := flag.String("regimes", "all", "with -drift: comma-separated drift regimes, or 'all'")
	steps := flag.Int("steps", 24, "with -drift: deltas per generated trace")
	progressEvery := flag.Duration("progress", 10*time.Second, "periodic one-line progress report interval, stateless soak only (0 disables)")
	verbose := flag.Bool("v", false, "per-round progress output")
	flag.Parse()

	fams, err := schedgen.Select(*families)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedstress:", err)
		return 2
	}
	profs, err := diff.ProfilesByNames(*profiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedstress:", err)
		return 2
	}
	if *seeds <= 0 {
		fmt.Fprintln(os.Stderr, "schedstress: -seeds must be positive")
		return 2
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if *duration > 0 {
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	if *drift {
		regs, err := schedgen.SelectDrift(*regimes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedstress:", err)
			return 2
		}
		return runDrift(ctx, regs, profs, *seeds, *seedBase, *steps, *eps, *workers, *maxViol, *duration, *verbose)
	}

	total := &diff.Summary{MaxRatioVsLB: map[string]float64{}}
	start := time.Now()
	rounds := 0

	// Shared across all rounds: the per-instance check-latency histogram
	// and the running totals the progress reporter reads.
	hist := obs.NewHistogram(obs.DefaultLatencyBuckets()...)
	var liveInstances, liveSolves, liveViolations atomic.Int64
	if *progressEvery > 0 {
		ticker := time.NewTicker(*progressEvery)
		done := make(chan struct{})
		defer close(done)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-done:
					return
				case <-ticker.C:
					p50, _, p99 := hist.P50P90P99()
					fmt.Fprintf(os.Stderr,
						"schedstress: progress: %d instances, %d solves, %d violations, check p50 %.1fms p99 %.1fms (%.0fs elapsed)\n",
						liveInstances.Load(), liveSolves.Load(), liveViolations.Load(),
						p50*1e3, p99*1e3, time.Since(start).Seconds())
				}
			}
		}()
	}

	for {
		// The Progress hook reports per-round totals; offset by what the
		// earlier rounds accumulated so the live counters never reset.
		baseInstances, baseSolves := total.Instances, total.Solves
		baseViolations := int64(len(total.Violations))
		cfg := diff.Config{
			Families: fams, Profiles: profs,
			Seeds: *seeds, SeedBase: *seedBase + int64(rounds)*(*seeds),
			Epsilon: *eps, ExactNodeBudget: *exactBudget,
			Workers: *workers, MaxViolations: *maxViol, Parallelism: *parallelism,
			Observe: hist.ObserveDuration,
			Progress: func(instances, solves int64, violations int) {
				liveInstances.Store(baseInstances + instances)
				liveSolves.Store(baseSolves + solves)
				liveViolations.Store(baseViolations + int64(violations))
			},
		}
		sum, err := diff.Run(ctx, cfg)
		merge(total, sum)
		rounds++
		if *verbose {
			fmt.Printf("round %d: seeds [%d, %d), %d instances, %d solves, %d violations (%.1fs elapsed)\n",
				rounds, cfg.SeedBase, cfg.SeedBase+cfg.Seeds,
				sum.Instances, sum.Solves, len(sum.Violations), time.Since(start).Seconds())
		}
		// Only the soak deadline itself is a clean stop; any other error is
		// an infrastructure failure that must fail the run even if the
		// deadline has since expired.
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			report(total, rounds, time.Since(start))
			fmt.Fprintln(os.Stderr, "schedstress:", err)
			return 2
		}
		stop := *duration <= 0 || ctx.Err() != nil
		if *maxViol > 0 && len(total.Violations) >= *maxViol {
			stop = true
		}
		if stop {
			break
		}
	}

	report(total, rounds, time.Since(start))
	if n := hist.Count(); n > 0 {
		p50, p90, p99 := hist.P50P90P99()
		fmt.Printf("  instance check latency: p50 %.1fms p90 %.1fms p99 %.1fms max %.1fms (%d checks)\n",
			p50*1e3, p90*1e3, p99*1e3, hist.Max()*1e3, n)
	}
	if len(total.Violations) > 0 {
		return 1
	}
	return 0
}

// runDrift is the -drift soak loop: sweep drift traces until the clock
// (or the single sweep) runs out, mirroring the stateless soak's round
// structure so seeds never repeat across rounds.
func runDrift(ctx context.Context, regimes []schedgen.DriftRegime, profs []diff.Profile,
	seeds, seedBase int64, steps int, eps float64, workers, maxViol int,
	duration time.Duration, verbose bool) int {
	total := &diff.DriftSummary{}
	start := time.Now()
	rounds := 0
	for {
		cfg := diff.DriftConfig{
			Regimes: regimes, Profiles: profs,
			Seeds: seeds, SeedBase: seedBase + int64(rounds)*seeds,
			Steps: steps, Epsilon: eps, Workers: workers, MaxViolations: maxViol,
		}
		sum, err := diff.RunDrift(ctx, cfg)
		total.Traces += sum.Traces
		total.Deltas += sum.Deltas
		total.Solves += sum.Solves
		total.WarmHits += sum.WarmHits
		total.CacheHits += sum.CacheHits
		total.Rebuilds += sum.Rebuilds
		total.Violations = append(total.Violations, sum.Violations...)
		rounds++
		if verbose {
			fmt.Printf("drift round %d: seeds [%d, %d), %d traces, %d deltas, %d solves, %d violations (%.1fs elapsed)\n",
				rounds, cfg.SeedBase, cfg.SeedBase+cfg.Seeds,
				sum.Traces, sum.Deltas, sum.Solves, len(sum.Violations), time.Since(start).Seconds())
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			reportDrift(total, rounds, time.Since(start))
			fmt.Fprintln(os.Stderr, "schedstress:", err)
			return 2
		}
		stop := duration <= 0 || ctx.Err() != nil
		if maxViol > 0 && len(total.Violations) >= maxViol {
			stop = true
		}
		if stop {
			break
		}
	}
	reportDrift(total, rounds, time.Since(start))
	if len(total.Violations) > 0 {
		return 1
	}
	return 0
}

func reportDrift(sum *diff.DriftSummary, rounds int, elapsed time.Duration) {
	fmt.Printf("schedstress -drift: %d traces, %d deltas, %d session solves in %d round(s), %.1fs\n",
		sum.Traces, sum.Deltas, sum.Solves, rounds, elapsed.Seconds())
	fmt.Printf("  engine: %d warm hits, %d cache hits, %d prep rebuilds\n",
		sum.WarmHits, sum.CacheHits, sum.Rebuilds)
	if len(sum.Violations) == 0 {
		fmt.Println("  every solve point bit-identical to a fresh solve")
		return
	}
	fmt.Printf("  %d VIOLATIONS:\n", len(sum.Violations))
	for _, v := range sum.Violations {
		fmt.Printf("    %s\n", v)
	}
}

func merge(dst, src *diff.Summary) {
	dst.Instances += src.Instances
	dst.Solves += src.Solves
	dst.ExactNonp += src.ExactNonp
	dst.ExactSplit += src.ExactSplit
	dst.BBBrackets += src.BBBrackets
	dst.Fallbacks += src.Fallbacks
	for name, r := range src.MaxRatioVsLB {
		if r > dst.MaxRatioVsLB[name] {
			dst.MaxRatioVsLB[name] = r
		}
	}
	dst.Violations = append(dst.Violations, src.Violations...)
}

func report(sum *diff.Summary, rounds int, elapsed time.Duration) {
	fmt.Printf("schedstress: %d instances, %d solves in %d round(s), %.1fs\n",
		sum.Instances, sum.Solves, rounds, elapsed.Seconds())
	fmt.Printf("  exact references: %d non-preemptive, %d splittable, %d B&B brackets; %d fallback runs\n",
		sum.ExactNonp, sum.ExactSplit, sum.BBBrackets, sum.Fallbacks)

	names := make([]string, 0, len(sum.MaxRatioVsLB))
	for name := range sum.MaxRatioVsLB {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("  worst measured makespan / certified-bound ratios:")
	for _, name := range names {
		fmt.Printf("    %-14s %.6f\n", name, sum.MaxRatioVsLB[name])
	}

	if len(sum.Violations) == 0 {
		fmt.Println("  all guarantees held")
		return
	}
	fmt.Printf("  %d VIOLATIONS:\n", len(sum.Violations))
	for _, v := range sum.Violations {
		fmt.Printf("    %s\n", v)
	}
}

// Package expt is the experiment harness that regenerates the paper's
// evaluation artifacts.
//
// The paper is theoretical: its "evaluation" is Table 1 (approximation
// ratios and running times of all algorithms) and Figures 1-13 (schedule
// shapes produced by the algorithms).  This package reproduces both:
//
//   - RatioTable measures realized approximation ratios of every algorithm
//     against certified lower bounds and (on small instances) exact optima,
//     through the differential harness internal/diff, which checks the
//     exact Table 1 guarantees (setupsched.Run.Guarantee);
//   - ScalingTable measures running time against n to confirm the
//     near-linear claims;
//   - Figures re-creates the paper's figures from real algorithm runs on
//     hand-crafted instances with the same class structure.
//
// Every solve goes through the public Solver API; the rows of Table 1
// are setupsched.PaperRuns, named by setupsched.Run.String.
package expt

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"setupsched"
	"setupsched/internal/baseline"
	"setupsched/internal/diff"
	"setupsched/sched"
	"setupsched/schedgen"
)

// RatioRow is one row of the measured ratio table.
type RatioRow struct {
	Algo      string // spec name (setupsched.Run.String)
	Family    string
	Instances int
	// MaxVsLB and AvgVsLB compare against the run's certified lower bound.
	MaxVsLB, AvgVsLB float64
	// MaxVsOPT compares against the exact optimum where computable
	// (exact splittable / exact non-preemptive OPT on small instances);
	// zero when not available.
	MaxVsOPT float64
	// Guarantee is the run's exact Table 1 bound at the harness's eps.
	Guarantee sched.Rat
}

// RatioTable measures realized ratios over small random instances of every
// generator family.  Each instance goes through diff.CheckInstance, which
// checks every run against its exact guarantee, the exhaustive optima and
// the baselines; any violation fails the table.
func RatioTable(instancesPerFamily int) ([]RatioRow, error) {
	runs := setupsched.PaperRuns()
	var rows []RatioRow
	for _, fam := range schedgen.Families {
		famRows := make([]RatioRow, len(runs))
		for i, run := range runs {
			famRows[i] = RatioRow{Algo: run.String(), Family: fam.Name, Guarantee: run.Guarantee(diff.DefaultEpsilon)}
		}
		for seed := 0; seed < instancesPerFamily; seed++ {
			in := fam.Make(schedgen.Params{
				M:        int64(2 + seed%3),
				Classes:  2 + seed%3,
				JobsPer:  2,
				MaxSetup: 15,
				MaxJob:   20,
				Seed:     int64(seed),
			})
			rep, err := diff.CheckInstance(context.Background(), in, diff.DefaultEpsilon)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", fam.Name, seed, err)
			}
			if len(rep.Violations) > 0 {
				return nil, fmt.Errorf("%s seed %d: %s", fam.Name, seed, rep.Violations[0])
			}
			for i, run := range rep.Runs {
				row := &famRows[i]
				row.Instances++
				row.AvgVsLB += run.RatioVsLB
				row.MaxVsLB = max(row.MaxVsLB, run.RatioVsLB)
				// The preemptive optimum is sandwiched below OPT_nonp.
				var opt float64
				switch {
				case run.Run.Variant == sched.Splittable && rep.HasOptSplit:
					opt = rep.OptSplit.Float64()
				case run.Run.Variant != sched.Splittable && rep.OptNonp >= 0:
					opt = float64(rep.OptNonp)
				}
				if opt > 0 {
					row.MaxVsOPT = max(row.MaxVsOPT, run.Makespan.Float64()/opt)
				}
			}
		}
		for i := range famRows {
			famRows[i].AvgVsLB /= float64(famRows[i].Instances)
		}
		rows = append(rows, famRows...)
	}
	return rows, nil
}

// FormatRatioTable renders the rows as an aligned text table.
func FormatRatioTable(rows []RatioRow) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-16s %-11s %5s %10s %10s %10s %6s\n",
		"algorithm", "family", "#inst", "max(mk/LB)", "avg(mk/LB)", "max(mk/OPT)", "bound"))
	for _, r := range rows {
		opt := "-"
		if r.MaxVsOPT > 0 {
			opt = fmt.Sprintf("%.4f", r.MaxVsOPT)
		}
		sb.WriteString(fmt.Sprintf("%-16s %-11s %5d %10.4f %10.4f %10s %6.2f\n",
			r.Algo, r.Family, r.Instances, r.MaxVsLB, r.AvgVsLB, opt, r.Guarantee.Float64()))
	}
	return sb.String()
}

// ScalingRow is one running-time measurement.
type ScalingRow struct {
	Algo   string
	N      int     // number of jobs
	Micros float64 // wall time per solve in microseconds
	PerJob float64 // nanoseconds per job
}

// ScalingTable measures running times across instance sizes, reproducing
// the near-linear running-time column of Table 1.  Each size is solved on
// one reused Solver, so the timing covers search and build but not the
// one-time preparation.
func ScalingTable(sizes []int, reps int) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, run := range setupsched.PaperRuns() {
		for _, n := range sizes {
			classes := n / 8
			if classes < 1 {
				classes = 1
			}
			in := schedgen.Uniform(schedgen.Params{
				M: int64(n/50 + 1), Classes: classes, JobsPer: 8,
				MaxSetup: 1000, MaxJob: 1000, Seed: int64(n),
			})
			s, err := setupsched.NewSolver(in)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", run, n, err)
			}
			nj := in.NumJobs()
			start := time.Now()
			for r := 0; r < reps; r++ {
				if _, err := s.Solve(context.Background(), run.Variant,
					setupsched.WithAlgorithm(run.Algorithm), setupsched.WithEpsilon(diff.DefaultEpsilon)); err != nil {
					return nil, fmt.Errorf("%s n=%d: %w", run, n, err)
				}
			}
			el := time.Since(start).Seconds() / float64(reps)
			rows = append(rows, ScalingRow{
				Algo: run.String(), N: nj,
				Micros: el * 1e6,
				PerJob: el * 1e9 / float64(nj),
			})
		}
	}
	return rows, nil
}

// FormatScalingTable renders scaling rows plus a doubling-exponent estimate
// per algorithm (near 1.0 confirms near-linear behavior).
func FormatScalingTable(rows []ScalingRow) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-16s %9s %12s %10s\n", "algorithm", "n", "micros/op", "ns/job"))
	byAlgo := map[string][]ScalingRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byAlgo[r.Algo]; !ok {
			order = append(order, r.Algo)
		}
		byAlgo[r.Algo] = append(byAlgo[r.Algo], r)
		sb.WriteString(fmt.Sprintf("%-16s %9d %12.1f %10.2f\n", r.Algo, r.N, r.Micros, r.PerJob))
	}
	sb.WriteString("\nfitted growth exponents (time ~ n^e between the extreme sizes):\n")
	for _, a := range order {
		rs := byAlgo[a]
		sort.Slice(rs, func(i, j int) bool { return rs[i].N < rs[j].N })
		if len(rs) >= 2 {
			lo, hi := rs[0], rs[len(rs)-1]
			e := math.Log(hi.Micros/lo.Micros) / math.Log(float64(hi.N)/float64(lo.N))
			sb.WriteString(fmt.Sprintf("  %-16s e = %.2f\n", a, e))
		}
	}
	return sb.String()
}

// CompareRow pits the 3/2-algorithms against weaker baselines on the same
// instances (the "who wins" shape of Table 1).
type CompareRow struct {
	Family                  string
	Instances               int
	AvgJump, AvgTwo, AvgLPT float64 // avg makespan / lower bound
	AvgMP, AvgNextFit       float64
	JumpWins                int // jump strictly better than all baselines
}

// CompareTable compares nonpreemptive algorithms with classical baselines.
func CompareTable(instancesPerFamily int) ([]CompareRow, error) {
	ctx := context.Background()
	var rows []CompareRow
	for _, fam := range schedgen.Families {
		row := CompareRow{Family: fam.Name}
		for seed := 0; seed < instancesPerFamily; seed++ {
			in := compareInstance(fam, seed)
			solver, err := setupsched.NewSolver(in)
			if err != nil {
				return nil, err
			}
			lb := in.LowerBound(sched.NonPreemptive).Float64()
			r, err := solver.Solve(ctx, sched.NonPreemptive)
			if err != nil {
				return nil, err
			}
			jump := r.Makespan.Float64() / lb
			two, err := solver.Solve(ctx, sched.NonPreemptive, setupsched.WithAlgorithm(setupsched.TwoApprox))
			if err != nil {
				return nil, err
			}
			lpt := baseline.LPTBatches(in)
			mp := baseline.MonmaPottsSplit(in)
			nf := baseline.NextFitBatches(in)
			for name, s := range map[string]*sched.Schedule{"lpt": lpt, "mp": mp, "nextfit": nf} {
				if err := s.Validate(in); err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
			}
			twoR := two.Makespan.Float64() / lb
			lptR := lpt.Makespan().Float64() / lb
			mpR := mp.Makespan().Float64() / lb
			nfR := nf.Makespan().Float64() / lb
			row.Instances++
			row.AvgJump += jump
			row.AvgTwo += twoR
			row.AvgLPT += lptR
			row.AvgMP += mpR
			row.AvgNextFit += nfR
			if jump < twoR && jump < nfR && jump < mpR {
				row.JumpWins++
			}
		}
		n := float64(row.Instances)
		row.AvgJump /= n
		row.AvgTwo /= n
		row.AvgLPT /= n
		row.AvgMP /= n
		row.AvgNextFit /= n
		rows = append(rows, row)
	}
	return rows, nil
}

// compareInstance is the seed-th instance of the family CompareTable
// averages over.
func compareInstance(fam schedgen.Family, seed int) *sched.Instance {
	return fam.Make(schedgen.Params{
		M: 4, Classes: 12, JobsPer: 4,
		MaxSetup: 30, MaxJob: 40, Seed: int64(seed),
	})
}

// FormatCompareTable renders the baseline comparison.
func FormatCompareTable(rows []CompareRow) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-11s %5s %10s %10s %10s %10s %10s %9s\n",
		"family", "#inst", "3/2-alg", "2-approx", "LPT", "MP-split", "next-fit", "3/2 wins"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-11s %5d %10.4f %10.4f %10.4f %10.4f %10.4f %6d/%d\n",
			r.Family, r.Instances, r.AvgJump, r.AvgTwo, r.AvgLPT, r.AvgMP, r.AvgNextFit, r.JumpWins, r.Instances))
	}
	sb.WriteString("(columns are average makespan / trivial lower bound; smaller is better)\n")
	return sb.String()
}

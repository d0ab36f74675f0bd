package expt

import (
	"context"
	"fmt"
	"strings"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// CrossoverRow records the makespans of the three variants on the same
// instance as the machine count grows.  The paper's introduction motivates
// the variants by exactly this trade-off: splitting always helps
// (OPT_split <= OPT_pmtn <= OPT_nonp), and the gap widens with m until
// setups dominate.
type CrossoverRow struct {
	M                 int64
	Split, Pmtn, Nonp sched.Rat // makespans (3/2-algorithms)
	SetupShare        float64   // setup time share of the splittable schedule
}

// Crossover sweeps the machine count on a fixed workload.
func Crossover(ms []int64, seed int64) ([]CrossoverRow, error) {
	base := schedgen.Uniform(schedgen.Params{
		M: 1, Classes: 24, JobsPer: 6, MaxSetup: 120, MaxJob: 80, Seed: seed,
	})
	ctx := context.Background()
	var rows []CrossoverRow
	for _, m := range ms {
		in := base.Clone()
		in.M = m
		s, err := setupsched.NewSolver(in)
		if err != nil {
			return nil, fmt.Errorf("crossover m=%d: %w", m, err)
		}
		rs, err := s.Solve(ctx, sched.Splittable)
		if err != nil {
			return nil, fmt.Errorf("crossover m=%d split: %w", m, err)
		}
		rp, err := s.Solve(ctx, sched.Preemptive)
		if err != nil {
			return nil, fmt.Errorf("crossover m=%d pmtn: %w", m, err)
		}
		rn, err := s.Solve(ctx, sched.NonPreemptive)
		if err != nil {
			return nil, fmt.Errorf("crossover m=%d nonp: %w", m, err)
		}
		st := rs.Schedule.ComputeStats(in.NumClasses())
		rows = append(rows, CrossoverRow{
			M:          m,
			Split:      rs.Makespan,
			Pmtn:       rp.Makespan,
			Nonp:       rn.Makespan,
			SetupShare: st.SetupOverhead(),
		})
	}
	return rows, nil
}

// FormatCrossover renders the sweep.
func FormatCrossover(rows []CrossoverRow) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%6s %12s %12s %12s %12s\n",
		"m", "splittable", "preemptive", "nonpreempt", "setup-share"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%6d %12.1f %12.1f %12.1f %11.1f%%\n",
			r.M, r.Split.Float64(), r.Pmtn.Float64(), r.Nonp.Float64(), 100*r.SetupShare))
	}
	sb.WriteString("(same workload under the three job models; more machines widen the\n" +
		"preemption/splitting advantage until duplicated setups dominate)\n")
	return sb.String()
}

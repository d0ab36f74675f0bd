package expt

import (
	"fmt"
	"strings"
	"testing"

	"setupsched"
	"setupsched/sched"
)

// exact32 is the 3/2 guarantee the crossover checks derive from.
func exact32(v sched.Variant) sched.Rat {
	return setupsched.Run{Variant: v, Algorithm: setupsched.Exact32}.Guarantee(0)
}

// verifyCrossoverOrdering checks the sandwich: each makespan is within
// 3/2 of its own optimum and OPT_split <= OPT_pmtn <= OPT_nonp <= mk_nonp,
// so the splittable and preemptive makespans stay within 3/2 of the
// non-preemptive one.
func verifyCrossoverOrdering(rows []CrossoverRow) error {
	for _, r := range rows {
		if r.Nonp.Mul(exact32(sched.Splittable)).Less(r.Split) {
			return fmt.Errorf("m=%d: splittable makespan %s above 3/2 x nonpreemptive %s", r.M, r.Split, r.Nonp)
		}
		if r.Nonp.Mul(exact32(sched.Preemptive)).Less(r.Pmtn) {
			return fmt.Errorf("m=%d: preemptive makespan %s above 3/2 x nonpreemptive %s", r.M, r.Pmtn, r.Nonp)
		}
	}
	return nil
}

// nonDecreasingMachines checks that the splittable makespan never grows by
// more than its guarantee as m grows: OPT_split does not grow with m, so
// mk(m') <= 3/2 OPT(m') <= 3/2 OPT(m) <= 3/2 mk(m) for m' > m.
func nonDecreasingMachines(rows []CrossoverRow) error {
	for k := 1; k < len(rows); k++ {
		if rows[k-1].Split.Mul(exact32(sched.Splittable)).Less(rows[k].Split) {
			return fmt.Errorf("splittable makespan grew sharply from m=%d to m=%d",
				rows[k-1].M, rows[k].M)
		}
	}
	return nil
}

func TestCrossoverSweep(t *testing.T) {
	rows, err := Crossover([]int64{1, 2, 4, 8, 16, 64}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if err := verifyCrossoverOrdering(rows); err != nil {
		t.Error(err)
	}
	if err := nonDecreasingMachines(rows); err != nil {
		t.Error(err)
	}
	// With one machine every variant's optimum is N; the 3/2-algorithms
	// must stay within 3/2 of it.
	if r := rows[0]; r.Split.Mul(exact32(sched.NonPreemptive)).Less(r.Nonp) ||
		r.Nonp.Mul(exact32(sched.Splittable)).Less(r.Split) {
		t.Errorf("m=1: split %s and nonp %s differ by more than the guarantees allow", r.Split, r.Nonp)
	}
	// With many machines the splittable makespan must drop well below the
	// single-machine one.
	if last := rows[len(rows)-1]; rows[0].Split.DivInt(4).Less(last.Split) {
		t.Errorf("m=64 split %s did not scale down from m=1 %s", last.Split, rows[0].Split)
	}
	out := FormatCrossover(rows)
	if !strings.Contains(out, "setup-share") {
		t.Errorf("format broken:\n%s", out)
	}
}

package expt

import (
	"context"
	"strings"
	"testing"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

func TestRatioTableRespectsGuarantees(t *testing.T) {
	rows, err := RatioTable(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if want := len(schedgen.Families) * len(setupsched.PaperRuns()); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Instances != 12 {
			t.Errorf("%s on %s: %d instances", r.Algo, r.Family, r.Instances)
		}
	}
	out := FormatRatioTable(rows)
	if !strings.Contains(out, "split/exact32") || !strings.Contains(out, "max(mk/LB)") {
		t.Errorf("table formatting broken:\n%s", out)
	}
}

func TestScalingTableRuns(t *testing.T) {
	rows, err := ScalingTable([]int{200, 800}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(setupsched.PaperRuns()) {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatScalingTable(rows)
	if !strings.Contains(out, "fitted growth exponents") {
		t.Errorf("scaling format broken:\n%s", out)
	}
}

func TestCompareTableRuns(t *testing.T) {
	rows, err := CompareTable(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AvgJump <= 0 || r.AvgLPT <= 0 {
			t.Errorf("degenerate comparison row %+v", r)
		}
	}
	_ = FormatCompareTable(rows)
	// Every instance the 3/2 column averages stays within the exact
	// guarantee against its certified lower bound.
	g := setupsched.Run{Variant: sched.NonPreemptive, Algorithm: setupsched.Exact32}.Guarantee(0)
	for _, fam := range schedgen.Families {
		for seed := 0; seed < 6; seed++ {
			s, err := setupsched.NewSolver(compareInstance(fam, seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(context.Background(), sched.NonPreemptive)
			if err != nil {
				t.Fatal(err)
			}
			if res.LowerBound.Mul(g).Less(res.Makespan) && !res.Fallback {
				t.Errorf("family %s seed %d: makespan %s above %s x certified bound %s",
					fam.Name, seed, res.Makespan, g, res.LowerBound)
			}
		}
	}
}

func TestFiguresBuildAndValidate(t *testing.T) {
	figs, err := Figures()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig1a", "fig1b", "fig2", "fig3", "fig6", "fig7", "fig10"}
	if len(figs) != len(want) {
		t.Fatalf("figures = %d, want %d", len(figs), len(want))
	}
	for k, f := range figs {
		if f.ID != want[k] {
			t.Errorf("figure %d id = %s, want %s", k, f.ID, want[k])
		}
		if !strings.Contains(f.Art, "|") || len(f.Art) < 100 {
			t.Errorf("%s: suspicious art:\n%s", f.ID, f.Art)
		}
		if f.Title == "" || f.Notes == "" {
			t.Errorf("%s: missing title/notes", f.ID)
		}
	}
}

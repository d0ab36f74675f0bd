package setupsched

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"setupsched/internal/core"
	"setupsched/sched"
	"setupsched/schedgen"
)

func exampleInstance() *Instance {
	return &Instance{
		M: 3,
		Classes: []Class{
			{Setup: 4, Jobs: []int64{7, 2, 5}},
			{Setup: 1, Jobs: []int64{3, 3}},
			{Setup: 9, Jobs: []int64{6}},
		},
	}
}

// mustSolver builds a Solver or fails the test.
func mustSolver(t *testing.T, in *Instance) *Solver {
	t.Helper()
	s, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveAllVariantsAndAlgorithms(t *testing.T) {
	in := exampleInstance()
	s := mustSolver(t, in)
	for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
		for _, algo := range []Algorithm{Auto, TwoApprox, EpsilonSearch, Exact32} {
			res, err := s.Solve(context.Background(), v, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%v/%v: %v", v, algo, err)
			}
			if err := res.Schedule.Validate(in); err != nil {
				t.Fatalf("%v/%v: %v", v, algo, err)
			}
			limit := int64(3)
			if algo == TwoApprox {
				limit = 4
			}
			if res.Schedule.Makespan().Cmp(res.Guess.MulInt(limit).Half()) > 0 {
				t.Fatalf("%v/%v: makespan %s breaks the %d/2 * %s guarantee",
					v, algo, res.Makespan, limit, res.Guess)
			}
			if res.LowerBound.Sign() <= 0 || res.Makespan.Less(res.LowerBound) {
				t.Fatalf("%v/%v: inconsistent bounds mk=%s lb=%s", v, algo, res.Makespan, res.LowerBound)
			}
			if res.Ratio < 1.0 {
				t.Fatalf("%v/%v: ratio %f < 1", v, algo, res.Ratio)
			}
		}
	}
}

func TestSolveDefaultsToExact32(t *testing.T) {
	res, err := mustSolver(t, exampleInstance()).Solve(context.Background(), NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Algorithm, "binsearch") {
		t.Errorf("default algorithm = %q", res.Algorithm)
	}
	if g := (Run{NonPreemptive, Exact32}).Guarantee(0); g.Mul(res.LowerBound).Less(res.Makespan) {
		t.Errorf("exact 3/2 returned makespan %s above %s x certified bound %s", res.Makespan, g, res.LowerBound)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, err := NewSolver(nil); !errors.Is(err, ErrNilInstance) {
		t.Errorf("nil instance: %v", err)
	}
	if _, err := NewSolver(&Instance{M: 0}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestLowerBoundMatchesVariant(t *testing.T) {
	s := mustSolver(t, exampleInstance()) // N = 4+14+1+6+9+6 = 40, m=3; s_max = 9; max s+t = 15
	if lb := s.LowerBound(Splittable); !lb.Equal(Rat{}.AddInt(40).DivInt(3)) {
		t.Errorf("splittable LB = %s", lb)
	}
	if lb := s.LowerBound(NonPreemptive); !lb.Equal(Rat{}.AddInt(15)) {
		t.Errorf("nonpreemptive LB = %s", lb)
	}
}

func TestDualTestAcceptAndReject(t *testing.T) {
	in := exampleInstance()
	solver := mustSolver(t, in)
	ctx := context.Background()
	for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
		// N is always accepted.
		acc, s, err := solver.DualTest(ctx, v, Rat{}.AddInt(in.N()))
		if err != nil || !acc || s == nil {
			t.Fatalf("%v: DualTest(N) = (%v, %v, %v)", v, acc, s, err)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		// A tiny guess is always rejected.
		acc, s, err = solver.DualTest(ctx, v, Rat{}.AddInt(1))
		if err != nil || acc || s != nil {
			t.Fatalf("%v: DualTest(1) = (%v, %v, %v)", v, acc, s, err)
		}
	}
	// Guard rails.
	if _, _, err := solver.DualTest(ctx, Splittable, Rat{}); err == nil {
		t.Error("zero guess accepted")
	}
	bad := Rat{}.AddInt(1).DivInt(maxDualDen * 2)
	if _, _, err := solver.DualTest(ctx, Splittable, bad.AddInt(10)); err == nil {
		t.Error("huge denominator accepted")
	}
}

// TestPublicAPIRandomized drives the facade over every generator family
// and checks the documented guarantees end to end.
func TestPublicAPIRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 40; iter++ {
		fam := schedgen.Families[iter%len(schedgen.Families)]
		in := fam.Make(schedgen.Params{
			M:        int64(1 + rng.Intn(8)),
			Classes:  1 + rng.Intn(10),
			JobsPer:  1 + rng.Intn(6),
			MaxSetup: 1 + rng.Int63n(50),
			MaxJob:   1 + rng.Int63n(80),
			Seed:     rng.Int63(),
		})
		s := mustSolver(t, in)
		for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
			res, err := s.Solve(context.Background(), v)
			if err != nil {
				t.Fatalf("iter %d %s/%v: %v\n%+v", iter, fam.Name, v, err, in)
			}
			if err := res.Schedule.Validate(in); err != nil {
				t.Fatalf("iter %d %s/%v: %v", iter, fam.Name, v, err)
			}
			g := (Run{v, Exact32}).Guarantee(0)
			if g.Mul(res.LowerBound).Less(res.Makespan) && !res.Fallback {
				t.Fatalf("iter %d %s/%v: makespan %s above %s x certified bound %s (algo %s)",
					iter, fam.Name, v, res.Makespan, g, res.LowerBound, res.Algorithm)
			}
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	for a, want := range map[Algorithm]string{
		Auto: "auto", TwoApprox: "2-approximation",
		EpsilonSearch: "(3/2+eps)-approximation", Exact32: "3/2-approximation",
		RefExact: "refexact",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

// TestParseNamesRoundTrip pins that a name the library prints selects
// what printed it: both halves of every PaperRuns spec name and of the
// RefExact run's parse back to the run, so do the variant names
// Variant.Short prints, and RefExact's own name, which its results carry
// as Result.Algorithm, parses to RefExact rather than to Exact32.
func TestParseNamesRoundTrip(t *testing.T) {
	for _, run := range append(PaperRuns(), Run{Variant: NonPreemptive, Algorithm: RefExact}) {
		vName, aName, ok := strings.Cut(run.String(), "/")
		if !ok {
			t.Fatalf("%s: no variant/algorithm split", run)
		}
		for _, name := range []string{vName, run.Variant.Short()} {
			if v, err := ParseVariant(name); err != nil || v != run.Variant {
				t.Errorf("ParseVariant(%q) = %v, %v; want %v", name, v, err, run.Variant)
			}
		}
		if a, err := ParseAlgorithm(aName); err != nil || a != run.Algorithm {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", aName, a, err, run.Algorithm)
		}
	}
	if a, err := ParseAlgorithm(RefExact.String()); err != nil || a != RefExact {
		t.Errorf("ParseAlgorithm(%q) = %v, %v; want RefExact", RefExact.String(), a, err)
	}
	for _, bad := range []string{"", "exact33", "Split", "nonp/exact32"} {
		if _, err := ParseVariant(bad); err == nil {
			t.Errorf("ParseVariant(%q) accepted", bad)
		}
		if _, err := ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
	}
}

// TestPaperRunsGuarantees pins the one copy of the paper's Table 1: the
// nine PaperRuns rows carry unique spec names in the order of
// ALGORITHMS.md's table, and each row's guarantee is exactly 2, 3/2 or
// (3/2)(1 + core.EpsRat(eps)), the bound the eps-search certifies.
func TestPaperRunsGuarantees(t *testing.T) {
	doc, err := os.ReadFile("ALGORITHMS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "## The nine algorithms\n")
	if !ok {
		t.Fatal(`ALGORITHMS.md has no "The nine algorithms" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	var documented []string
	for _, line := range strings.Split(table, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 3 && strings.HasPrefix(strings.TrimSpace(cells[2]), "`") {
			documented = append(documented, strings.Trim(strings.TrimSpace(cells[2]), "`"))
		}
	}
	runs := PaperRuns()
	var names []string
	seen := map[string]bool{}
	for _, r := range runs {
		if seen[r.String()] {
			t.Errorf("duplicate spec name %s", r)
		}
		seen[r.String()] = true
		names = append(names, r.String())
	}
	if strings.Join(names, " ") != strings.Join(documented, " ") {
		t.Errorf("spec names %v, ALGORITHMS.md lists %v", names, documented)
	}

	for _, eps := range []float64{0, 1e-4, 1e-3, 0.5} {
		epsRat := core.EpsRat(eps)
		if eps == 0 {
			epsRat = core.EpsRat(DefaultEpsilon)
		}
		for _, r := range runs {
			want := sched.RatOf(3, 2)
			switch r.Algorithm {
			case TwoApprox:
				want = sched.R(2)
			case EpsilonSearch:
				want = want.Mul(epsRat.AddInt(1))
			}
			if got := r.Guarantee(eps); !got.Equal(want) {
				t.Errorf("%s eps=%v: guarantee %s, want %s", r, eps, got, want)
			}
		}
	}
}

func TestVerify(t *testing.T) {
	in := exampleInstance()
	res, err := mustSolver(t, in).Solve(context.Background(), Preemptive)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(in, Preemptive, res); err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
	// Wrong variant.
	if err := Verify(in, Splittable, res); err == nil {
		t.Error("wrong variant accepted")
	}
	// Tampered makespan claim.
	bad := *res
	bad.Makespan = bad.Makespan.AddInt(1)
	if err := Verify(in, Preemptive, &bad); err == nil {
		t.Error("tampered makespan accepted")
	}
	// Inflated lower bound claim.
	bad = *res
	bad.LowerBound = bad.Makespan.AddInt(5)
	if err := Verify(in, Preemptive, &bad); err == nil {
		t.Error("inflated lower bound accepted")
	}
	// Nil handling.
	if err := Verify(nil, Preemptive, res); err == nil {
		t.Error("nil instance accepted")
	}
	if err := Verify(in, Preemptive, nil); err == nil {
		t.Error("nil result accepted")
	}
}

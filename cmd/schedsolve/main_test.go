package main

import (
	"testing"

	"setupsched"
)

// TestParseVariant and TestParseAlgo pin the names the -variant and -algo
// flags accept, through the library parsers the command reads them with.
func TestParseVariant(t *testing.T) {
	cases := map[string]setupsched.Variant{
		"split": setupsched.Splittable, "splittable": setupsched.Splittable,
		"pmtn": setupsched.Preemptive, "preemptive": setupsched.Preemptive,
		"nonp": setupsched.NonPreemptive, "nonpreemptive": setupsched.NonPreemptive,
	}
	for in, want := range cases {
		got, err := setupsched.ParseVariant(in)
		if err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := setupsched.ParseVariant("bogus"); err == nil {
		t.Error("bogus variant accepted")
	}
}

func TestParseAlgo(t *testing.T) {
	cases := map[string]setupsched.Algorithm{
		"auto": setupsched.Auto, "2approx": setupsched.TwoApprox,
		"eps": setupsched.EpsilonSearch, "exact": setupsched.Exact32,
		"exact32": setupsched.Exact32, "refexact": setupsched.RefExact,
	}
	for in, want := range cases {
		got, err := setupsched.ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := setupsched.ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

package sched

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

func TestComputeStats(t *testing.T) {
	in := twoClassInstance() // class0: s=2 jobs 3,4; class1: s=1 job 5
	s := buildSimpleSchedule(in, NonPreemptive)
	st := s.ComputeStats(in.NumClasses())
	if !st.Makespan.Equal(R(9)) {
		t.Errorf("makespan %s", st.Makespan)
	}
	if st.Machines != 2 {
		t.Errorf("machines %d", st.Machines)
	}
	if !st.SetupTime.Equal(R(3)) || !st.WorkTime.Equal(R(12)) {
		t.Errorf("setup %s work %s", st.SetupTime, st.WorkTime)
	}
	if !st.IdleTime.Equal(R(3)) { // 2*9 - 3 - 12
		t.Errorf("idle %s", st.IdleTime)
	}
	if st.Setups != 2 || st.SetupsPerClass[0] != 1 || st.SetupsPerClass[1] != 1 {
		t.Errorf("setup counts %+v", st)
	}
	if u := st.Utilization(); u < 0.66 || u > 0.67 {
		t.Errorf("utilization %f", u)
	}
	if o := st.SetupOverhead(); o < 0.19 || o > 0.21 {
		t.Errorf("overhead %f", o)
	}
}

func TestStatsWithRuns(t *testing.T) {
	s := &Schedule{Variant: Splittable}
	b := NewMachineBuilder()
	b.Place(SlotSetup, 0, -1, R(2))
	b.Place(SlotJob, 0, 0, R(4))
	s.AddRun(10, b.Slots())
	st := s.ComputeStats(1)
	if st.Machines != 10 || st.Setups != 10 {
		t.Errorf("run accounting: %+v", st)
	}
	if !st.WorkTime.Equal(R(40)) || !st.SetupTime.Equal(R(20)) {
		t.Errorf("times: %+v", st)
	}
}

func TestRatJSONRoundTrip(t *testing.T) {
	for _, r := range []Rat{R(5), RatOf(7, 3), RatOf(-9, 4), {}} {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Rat
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !back.Equal(r) {
			t.Errorf("round trip %s -> %s", r, back)
		}
	}
	// Bare numbers are accepted.
	var r Rat
	if err := json.Unmarshal([]byte("42"), &r); err != nil || !r.Equal(R(42)) {
		t.Errorf("bare number: %s, %v", r, err)
	}
	if err := json.Unmarshal([]byte(`"1/0"`), &r); err == nil {
		t.Error("zero denominator accepted")
	}
	if err := json.Unmarshal([]byte(`"x"`), &r); err == nil {
		t.Error("garbage accepted")
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	in := twoClassInstance()
	for _, v := range Variants {
		s := buildSimpleSchedule(in, v)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Schedule
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if err := back.Validate(in); err != nil {
			t.Fatalf("%v: restored schedule invalid: %v", v, err)
		}
		if !back.Makespan().Equal(s.Makespan()) || back.Variant != s.Variant {
			t.Errorf("%v: round trip changed schedule", v)
		}
	}
	var bad Schedule
	if err := json.Unmarshal([]byte(`{"variant":"weird"}`), &bad); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestRatUnmarshalStrict(t *testing.T) {
	accept := map[string]Rat{
		`"3/4"`: RatOf(3, 4), `"-3/4"`: RatOf(-3, 4), `"6/4"`: RatOf(3, 2), `"3/1"`: R(3),
		`"0"`: {}, `"-7"`: R(-7), `7`: R(7), `-7`: R(-7), `0`: {},
		`"9223372036854775807"`: R(math.MaxInt64),
	}
	for in, want := range accept {
		var r Rat
		if err := json.Unmarshal([]byte(in), &r); err != nil || !r.Equal(want) {
			t.Errorf("%s: got %s, %v; want %s", in, r, err, want)
		}
	}
	for _, in := range []string{
		`"3 / 4"`, `"1/2garbage"`, `"1/2/3"`, `"0x10"`, `"1/-2"`, `"1/0"`,
		`" 3"`, `"3 "`, `"+3"`, `"1/+2"`, `"03"`, `"1/02"`, `"1/"`, `"/2"`, `""`, `"-"`,
		`"1.5"`, `"1e3"`, `"9223372036854775808"`, `"-9223372036854775808"`, `"-9223372036854775808/3"`,
		`1.5`, `1e3`, `null`, `true`, `[1]`,
	} {
		r := RatOf(5, 7)
		if err := json.Unmarshal([]byte(in), &r); err == nil {
			t.Errorf("%s: accepted as %s", in, r)
		}
	}
}

func TestRatAppendMatchesString(t *testing.T) {
	for _, r := range []Rat{{}, R(1), R(-1), RatOf(7, 3), RatOf(-9, 4), R(math.MaxInt64), RatOf(math.MaxInt64, math.MaxInt64-1), RatOf(math.MinInt64+1, 3)} {
		want := fmt.Sprintf("%d", r.Num())
		if r.Den() != 1 {
			want += fmt.Sprintf("/%d", r.Den())
		}
		if got := string(r.Append([]byte("x"))); got != "x"+want || r.String() != want {
			t.Errorf("Append %q, String %q, want %q", got, r.String(), want)
		}
		data, err := json.Marshal(r)
		if err != nil || string(data) != `"`+want+`"` {
			t.Errorf("MarshalJSON = %s, %v; want %q", data, err, want)
		}
	}
}

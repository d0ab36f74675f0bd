package wire

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"setupsched/sched"
)

func readInstance(body string) (*sched.Instance, bool) {
	var r Reader
	r.Reset([]byte(body))
	in := r.Instance()
	return in, r.End()
}

func TestInstanceSharesOneJobArray(t *testing.T) {
	in, ok := readInstance(`{"m":3,"classes":[{"setup":4,"jobs":[7,2,5]},{"jobs":[3,3],"setup":1},{"setup":2,"jobs":[9]}]}`)
	if !ok {
		t.Fatal("plain instance rejected")
	}
	want := &sched.Instance{M: 3, Classes: []sched.Class{
		{Setup: 4, Jobs: []int64{7, 2, 5}}, {Setup: 1, Jobs: []int64{3, 3}}, {Setup: 2, Jobs: []int64{9}},
	}}
	if !reflect.DeepEqual(in, want) {
		t.Fatalf("read %+v, want %+v", in, want)
	}
	base := unsafe.SliceData(in.Classes[0].Jobs)
	for k, off := range []int{0, 3, 5} {
		if got := unsafe.SliceData(in.Classes[k].Jobs); got != (*int64)(unsafe.Add(unsafe.Pointer(base), 8*off)) {
			t.Fatalf("class %d jobs do not sit at offset %d of one backing array", k, off)
		}
		if c := in.Classes[k].Jobs; cap(c) != len(c) {
			t.Fatalf("class %d jobs have spare capacity %d into the next class", k, cap(c)-len(c))
		}
	}
}

func TestInstanceAbsentAndEmptyAggregates(t *testing.T) {
	in, ok := readInstance(`{"m":1,"classes":[{"setup":1,"jobs":[]},{"setup":2}]}`)
	if !ok || in.Classes[0].Jobs == nil || len(in.Classes[0].Jobs) != 0 || in.Classes[1].Jobs != nil {
		t.Fatalf("empty jobs must be non-nil and absent jobs nil: %+v", in)
	}
	in, ok = readInstance(`{"m":1,"classes":[]}`)
	if !ok || in.Classes == nil || len(in.Classes) != 0 {
		t.Fatalf("empty classes must be non-nil: %+v", in)
	}
	in, ok = readInstance(`{"m":1}`)
	if !ok || in.Classes != nil {
		t.Fatalf("absent classes must be nil: %+v", in)
	}
}

func TestIntBounds(t *testing.T) {
	for body, want := range map[string]int64{
		"0": 0, "-1": -1, "123456789012345678": 123456789012345678, "-123456789012345678": -123456789012345678,
	} {
		var r Reader
		r.Reset([]byte(body))
		if got := r.Int(); got != want || !r.End() {
			t.Errorf("Int(%s) = %d, end %v", body, got, r.End())
		}
	}
	for _, body := range []string{"", "-", "-0", "00", "01", "1234567890123456789", "1.5", "1e3", "+1", "null", "1 2"} {
		var r Reader
		r.Reset([]byte(body))
		r.Int()
		if r.End() {
			t.Errorf("Int accepted %q", body)
		}
	}
}

// TestFloatTakesEveryJSONNumber: Float reads any JSON number token as
// strconv.ParseFloat does, and refuses what is not one, or is out of
// the float64 range, so that encoding/json reports it.
func TestFloatTakesEveryJSONNumber(t *testing.T) {
	for _, body := range []string{
		"0", "-0", "0.5", "-0.25", "1", "1e3", "1E+3", "2.5e-3", "0e0", "123456789012345678901234567890",
		"1.7976931348623157e308", "5e-324", "1e-400",
	} {
		want, err := strconv.ParseFloat(body, 64)
		if err != nil {
			t.Fatal(err)
		}
		var r Reader
		r.Reset([]byte(body))
		if got := r.Float(); !r.End() || got != want || math.Signbit(got) != math.Signbit(want) {
			t.Errorf("Float(%s) = %v, end %v; want %v", body, got, r.End(), want)
		}
	}
	for _, body := range []string{
		"", "-", "+1", ".5", "1.", "1.e3", "01", "-01", "1e", "1e+", "0x10", "1_0", "NaN", "Infinity", `"1"`, "null",
		"1e400", "-1e400", "1.5.5",
	} {
		var r Reader
		r.Reset([]byte(body))
		r.Float()
		if r.End() {
			t.Errorf("Float accepted %q", body)
		}
	}
}

// TestSkipScalar: every string, number and boolean form the reader
// takes is skipped; anything else fails.
func TestSkipScalar(t *testing.T) {
	for _, body := range []string{`"x"`, `""`, "true", "false", "0", "-7", "0.5", "1e400", "-2.5E-3"} {
		var r Reader
		r.Reset([]byte(body))
		if r.SkipScalar(); !r.End() {
			t.Errorf("SkipScalar rejected %s", body)
		}
	}
	for _, body := range []string{"null", "{}", "[]", `"\u0041"`, "tru", "01", "-", ""} {
		var r Reader
		r.Reset([]byte(body))
		if r.SkipScalar(); r.End() {
			t.Errorf("SkipScalar accepted %s", body)
		}
	}
}

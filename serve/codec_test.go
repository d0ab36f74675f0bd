package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"setupsched/internal/wire"
	"setupsched/internal/wire/wiretest"
	"setupsched/schedgen"
)

// FuzzDecodeRequest is the differential test of the shard's request
// decode: whenever the plain reader accepts a body, json.Unmarshal must
// accept it too with a deep-equal request, and decodeRequest as a whole
// must answer exactly as json.Unmarshal does — same value, same error.
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range wiretest.Bodies() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want SolveRequest
		wantErr := json.Unmarshal(data, &want)
		var rd wire.Reader
		var plain SolveRequest
		if plainRequest(&rd, data, &plain) {
			if wantErr != nil {
				t.Fatalf("plain reader accepted %q, json.Unmarshal: %v", data, wantErr)
			}
			if !reflect.DeepEqual(plain, want) {
				t.Fatalf("plain reader read %q as\n%+v\njson.Unmarshal as\n%+v", data, plain, want)
			}
		}
		var got SolveRequest
		err := decodeRequest(data, &got)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decodeRequest(%q) error %v, json.Unmarshal %v", data, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("decodeRequest(%q) error %q, json.Unmarshal %q", data, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decodeRequest(%q) =\n%+v\njson.Unmarshal\n%+v", data, got, want)
		}
	})
}

// TestPlainRequestTakesFamilyBodies pins the fast path: the bodies
// clients write, for every schedgen family and with every request field
// set (a fractional epsilon included), are read without reflection, and
// each is a request the shard answers without an error.
func TestPlainRequestTakesFamilyBodies(t *testing.T) {
	s := New(Config{ShardID: "s0"})
	var rd wire.Reader
	for _, b := range wiretest.Bodies()[:2*len(schedgen.Families)] {
		var req SolveRequest
		if !plainRequest(&rd, b, &req) {
			t.Errorf("plain reader rejected %s", b)
			continue
		}
		if resp := s.handle(context.Background(), &req, nil); resp.Error != "" {
			t.Errorf("%s: %s", b, resp.Error)
		}
	}
}

// TestDecodedRequestOwnsItsMemory: the body buffer is pooled, so the
// request decoded from it must not change when the buffer is reused.
func TestDecodedRequestOwnsItsMemory(t *testing.T) {
	body := []byte(`{"id":"abc","variant":"pmtn","instance":{"m":2,"classes":[{"setup":1,"jobs":[4,5]}]}}`)
	var req SolveRequest
	if err := decodeRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = '9'
	}
	if req.ID != "abc" || req.Variant != "pmtn" || req.Instance.M != 2 ||
		!reflect.DeepEqual(req.Instance.Classes[0].Jobs, []int64{4, 5}) {
		t.Fatalf("decoded request changed with its body buffer: %+v", req)
	}
}

// TestReadRequestSizedByArrivingBytes: the body buffer grows with the
// bytes that arrive, not to the size Content-Length claims, so a client
// that claims a huge body and then stalls holds only what it sent.
func TestReadRequestSizedByArrivingBytes(t *testing.T) {
	s := New(Config{ShardID: "s0"})
	const claimed = 30 << 20 // under the 32 MiB default MaxBodyBytes
	body := `{"variant":"nonp","instance":{"m":2,"classes":[{"setup":1,"jobs":[4,5]}]}}`
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	r.ContentLength = claimed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req SolveRequest
	err := s.readRequest(httptest.NewRecorder(), r, &req)
	runtime.ReadMemStats(&after)
	if err != nil || req.Instance == nil {
		t.Fatalf("readRequest: %v, %+v", err, req)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a %d-byte body that claims %d bytes allocated %d bytes", len(body), claimed, got)
	}
}

// encodeJSON is what the routes wrote before the append encoder.
func encodeJSON(t *testing.T, resp *SolveResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncoding compares appendResponse on a response from handle with
// encoding/json on the same response as Server.Solve returns it.
func checkEncoding(t *testing.T, name string, resp *SolveResponse) {
	t.Helper()
	exported := *resp
	exported.export()
	want := encodeJSON(t, &exported)
	got, err := appendResponse([]byte("prefix"), resp)
	if err != nil {
		t.Fatalf("%s: appendResponse: %v", name, err)
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s: appendResponse wrote\n%s\nencoding/json\n%s", name, got[len("prefix"):], want)
	}
}

// TestAppendResponseMatchesEncodingJSON requires the append encoder to
// write the bytes json.NewEncoder(w).Encode writes, over every schedgen
// family and variant, with schedule, trace, spans and trace id, on cold
// and cached solves and on error responses.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	s := New(Config{ShardID: "s0"})
	id := "tag <&> \u2028\u2029 \xff\xfe \u00e9 \x00\x1f\x7f \"q\" \\ \t\n"
	for fi, f := range schedgen.Families {
		in := f.Make(schedgen.Params{M: 5, Classes: 7, JobsPer: 4, MaxSetup: 40, MaxJob: 30, Seed: int64(fi + 1)})
		for _, v := range []string{"split", "pmtn", "nonp"} {
			for _, cached := range []bool{false, true} {
				req := &SolveRequest{
					ID: id, Instance: in, Variant: v, IncludeSchedule: true, IncludeTrace: true,
					IncludeSpans: true, TraceParent: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
				}
				resp := s.handle(context.Background(), req, nil)
				if resp.Error != "" || resp.Cached != cached || resp.schedule == nil {
					t.Fatalf("%s/%s: cached %v, error %q", f.Name, v, resp.Cached, resp.Error)
				}
				if !cached && resp.Probes > 0 && len(resp.probes) == 0 {
					t.Fatalf("%s/%s: cold solve kept no trace", f.Name, v)
				}
				checkEncoding(t, fmt.Sprintf("%s/%s cached=%v", f.Name, v, cached), resp)
			}
		}
	}
	for _, resp := range []*SolveResponse{
		{},
		errResponse(400, "bad request: "+id),
		{ID: id, Error: "decoding request: invalid character 'g' after top-level value"},
		{Variant: "preemptive", Warm: true, SessionRev: math.MaxUint64, Cached: true, ElapsedMS: 1e-7,
			MakespanFloat: 1e21, LowerBoundFloat: -0.5, Ratio: 1.0000000000000002, Probes: -3, Machines: math.MinInt64},
	} {
		checkEncoding(t, fmt.Sprintf("%+v", resp), resp)
	}
}

// TestAppendResponseRejectsNaN: encoding/json refuses NaN and infinite
// floats and writes nothing; so does the append encoder.
func TestAppendResponseRejectsNaN(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := &SolveResponse{Ratio: f, Error: "x"}
		if err := json.NewEncoder(&bytes.Buffer{}).Encode(resp); err == nil {
			t.Fatalf("encoding/json accepted %v", f)
		}
		if got, err := appendResponse([]byte("keep"), resp); err == nil || string(got) != "keep" {
			t.Fatalf("appendResponse(%v) = %q, %v; want the input back and an error", f, got, err)
		}
	}
}

// TestAppendStringAndFloatMatchEncodingJSON compares the scalar writers
// against encoding/json on edge cases and random inputs.
func TestAppendStringAndFloatMatchEncodingJSON(t *testing.T) {
	strs := []string{"", "plain", "<&>", "\u2028\u2029", "\xff", "\xe2\x80", "\u00e9\u20ac\U0001f600", "\x00\x1f\x7f", `"\`, "\b\f\n\r\t"}
	alphabet := []string{"a", "<", ">", "&", "\"", "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\xff", "\xe2", "\u00e9", "\U0001f600", " "}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		strs = append(strs, sb.String())
	}
	for _, s := range strs {
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789.125,
		5e-324, math.MaxFloat64, -1e-9, 2.5e-10, 1.0 / 3}
	for i := 0; i < 2000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			continue // NaN and infinities; see TestAppendResponseRejectsNaN
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json %s", f, got, want)
		}
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"setupsched/schedgen"
)

// checkParallelismIgnored posts, for every variant, the same body with and
// without a "parallelism" field set to par, and requires both to succeed
// with the same result, probe count and trace. Solves always probe
// serially; the retired field decodes as before (encoding/json ignores
// unknown fields) and changes nothing.
func checkParallelismIgnored(t *testing.T, ts *httptest.Server, par string) {
	t.Helper()
	// Setup-heavy enough that the searches genuinely probe.
	in, err := json.Marshal(schedgen.ExpensiveSetups(schedgen.Params{
		M: 32, Classes: 40, JobsPer: 3, MaxSetup: 500, MaxJob: 60, Seed: 11,
	}))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, *SolveResponse) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		return resp.StatusCode, &out
	}
	for _, variant := range []string{"split", "pmtn", "nonp"} {
		body := func(extra string) string {
			return fmt.Sprintf(`{"variant":%q,"include_trace":true,%s"instance":%s}`, variant, extra, in)
		}
		status, want := post(body(""))
		if status != http.StatusOK || want.Error != "" {
			t.Fatalf("%s without the field: status %d, error %q", variant, status, want.Error)
		}
		if want.Probes < 2 {
			t.Fatalf("%s: instance converged in %d probes; the search must genuinely probe", variant, want.Probes)
		}
		status, got := post(body(`"parallelism":` + par + `,`))
		if status != http.StatusOK || got.Error != "" {
			t.Fatalf("%s with parallelism %s: status %d, error %q", variant, par, status, got.Error)
		}
		if got.Makespan != want.Makespan || got.LowerBound != want.LowerBound ||
			got.Algorithm != want.Algorithm || got.Probes != want.Probes || !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Errorf("%s with parallelism %s: (%s, %s, %s, %d probes) != without the field (%s, %s, %s, %d probes)",
				variant, par, got.Makespan, got.LowerBound, got.Algorithm, got.Probes,
				want.Makespan, want.LowerBound, want.Algorithm, want.Probes)
		}
	}
}

// TestSolveParallelismKnob: a request asking for parallelism 4 gets the
// serial answer.
func TestSolveParallelismKnob(t *testing.T) {
	// The cache is off so every request runs its own search.
	ts := httptest.NewServer(New(Config{CacheSize: -1}))
	defer ts.Close()
	checkParallelismIgnored(t, ts, "4")
}

// TestSolveParallelismClamp: there is no server cap left to clamp to; a
// request asking for parallelism 64 gets the serial answer.
func TestSolveParallelismClamp(t *testing.T) {
	ts := httptest.NewServer(New(Config{CacheSize: -1}))
	defer ts.Close()
	checkParallelismIgnored(t, ts, "64")
}

// TestSolveParallelismInvalid: a negative parallelism is not a 400; the
// field is ignored and the request gets the serial answer.
func TestSolveParallelismInvalid(t *testing.T) {
	ts := httptest.NewServer(New(Config{CacheSize: -1}))
	defer ts.Close()
	checkParallelismIgnored(t, ts, "-2")
}

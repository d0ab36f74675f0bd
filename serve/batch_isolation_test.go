package serve

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"setupsched/sched"
)

// TestBatchIsolatesInvalidAndCanceledItems streams a batch where one item
// is structurally invalid and one is canceled by its own timeout_ms
// mid-solve.  Both failures must stay in-band and item-local: every
// response arrives in arrival order, the two bad items carry their own
// errors, and every other item is still solved and verifiable.
func TestBatchIsolatesInvalidAndCanceledItems(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 4}))
	defer ts.Close()

	const n = 12
	invalidAt, canceledAt := 3, 7
	lines := make([]string, n)
	reqs := make([]*SolveRequest, n)
	for i := 0; i < n; i++ {
		var req *SolveRequest
		switch i {
		case invalidAt:
			req = &SolveRequest{
				ID:       strconv.Itoa(i),
				Instance: &sched.Instance{M: 0}, // fails Validate
			}
		case canceledAt:
			// A solve whose search outlasts a 1ms budget (see
			// heavyInstance): the deadline reliably cancels it.
			req = &SolveRequest{
				ID:        strconv.Itoa(i),
				Instance:  heavyInstance(),
				Variant:   "pmtn",
				TimeoutMS: 1,
				NoCache:   true,
			}
		default:
			req = &SolveRequest{
				ID:              strconv.Itoa(i),
				Instance:        testInstance(int64(i)),
				Variant:         "nonp",
				IncludeSchedule: true,
				NoCache:         true,
			}
		}
		buf, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(buf)
		reqs[i] = req
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/solve/batch", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var got []*SolveResponse
	for sc.Scan() {
		var out SolveResponse
		if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
			t.Fatalf("response line %d: %v", len(got), err)
		}
		got = append(got, &out)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d responses for %d items", len(got), n)
	}

	for i, out := range got {
		if out.ID != strconv.Itoa(i) {
			t.Fatalf("position %d carries id %q: arrival order not preserved", i, out.ID)
		}
		switch i {
		case invalidAt:
			if out.Error == "" || !strings.Contains(out.Error, "machine") {
				t.Fatalf("invalid item error = %q, want a validation error", out.Error)
			}
		case canceledAt:
			if out.Error == "" {
				t.Fatal("canceled item returned no error")
			}
			if !strings.Contains(out.Error, "deadline") && !strings.Contains(out.Error, "cancel") {
				t.Fatalf("canceled item error = %q, want a cancellation error", out.Error)
			}
		default:
			v, _ := parseVariant(reqs[i].Variant)
			verifyResponse(t, reqs[i].Instance, v, out)
		}
	}

	m := scrapeMetrics(t, ts)
	if m["sched_solve_timeouts_total"] == 0 {
		t.Fatal("timeout not counted in /metrics")
	}
	if errs := m["sched_request_errors_total"]; errs < 2 {
		t.Fatalf("error counter %v, want >= 2", errs)
	}
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

func testInstance(seed int64) *sched.Instance {
	return schedgen.Uniform(schedgen.Params{
		M: 4, Classes: 6, JobsPer: 4, MaxSetup: 20, MaxJob: 30, Seed: seed,
	})
}

func permuteInstance(in *sched.Instance, rng *rand.Rand) *sched.Instance {
	out := in.Clone()
	rng.Shuffle(len(out.Classes), func(i, j int) {
		out.Classes[i], out.Classes[j] = out.Classes[j], out.Classes[i]
	})
	for i := range out.Classes {
		jobs := out.Classes[i].Jobs
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	}
	return out
}

// parseRat parses the wire encoding "p" or "p/q" produced by Rat.String.
func parseRat(t *testing.T, s string) sched.Rat {
	t.Helper()
	num, den := s, "1"
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, den = s[:i], s[i+1:]
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		t.Fatalf("bad rational %q: %v", s, err)
	}
	d, err := strconv.ParseInt(den, 10, 64)
	if err != nil {
		t.Fatalf("bad rational %q: %v", s, err)
	}
	return sched.RatOf(n, d)
}

// scheduleFromJSON rebuilds a sched.Schedule from its wire form so tests
// can re-run setupsched.Verify on the client side of the API.
func scheduleFromJSON(t *testing.T, sj *ScheduleJSON, variant sched.Variant) *sched.Schedule {
	t.Helper()
	s := &sched.Schedule{Variant: variant}
	for _, run := range sj.Runs {
		slots := make([]sched.Slot, len(run.Slots))
		for i, sl := range run.Slots {
			kind := sched.SlotJob
			if sl.Kind == "setup" {
				kind = sched.SlotSetup
			}
			slots[i] = sched.Slot{
				Kind: kind, Class: sl.Class, Job: sl.Job,
				Start: parseRat(t, sl.Start), End: parseRat(t, sl.End),
			}
		}
		s.AddRun(run.Count, slots)
	}
	return s
}

// verifyResponse re-checks a SolveResponse (with schedule) against the
// instance it was requested for, across the serialization boundary.
func verifyResponse(t *testing.T, in *sched.Instance, v sched.Variant, resp *SolveResponse) {
	t.Helper()
	if resp.Error != "" {
		t.Fatalf("solve error: %s", resp.Error)
	}
	if resp.Schedule == nil {
		t.Fatal("response missing schedule (include_schedule was set)")
	}
	res := &setupsched.Result{
		Schedule:   scheduleFromJSON(t, resp.Schedule, v),
		Makespan:   parseRat(t, resp.Makespan),
		LowerBound: parseRat(t, resp.LowerBound),
	}
	if err := setupsched.Verify(in, v, res); err != nil {
		t.Fatalf("returned result fails Verify: %v", err)
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, *SolveResponse) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, &out
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Status != "ok" {
		t.Fatalf("healthz body: %+v, err %v", body, err)
	}
}

func TestSolveEndpointAllVariants(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	in := testInstance(1)
	for _, variant := range []string{"split", "pmtn", "nonp"} {
		v, err := parseVariant(variant)
		if err != nil {
			t.Fatal(err)
		}
		hr, out := postJSON(t, ts, "/v1/solve", &SolveRequest{
			Instance: in, Variant: variant, IncludeSchedule: true,
		})
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (error %q)", variant, hr.StatusCode, out.Error)
		}
		verifyResponse(t, in, v, out)
		if out.Cached {
			t.Fatalf("%s: first solve reported cached", variant)
		}
		if len(out.Fingerprint) != 64 {
			t.Fatalf("%s: bad fingerprint %q", variant, out.Fingerprint)
		}
		if out.Ratio > 1.5000001 && !strings.Contains(out.Algorithm, "fallback") {
			t.Fatalf("%s: ratio %v exceeds 3/2 bound (%s)", variant, out.Ratio, out.Algorithm)
		}
	}
}

func TestSolveEndpointErrors(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	cases := []struct {
		name   string
		body   any
		status int
	}{
		{"missing instance", &SolveRequest{}, http.StatusBadRequest},
		{"bad variant", &SolveRequest{Instance: testInstance(2), Variant: "bogus"}, http.StatusBadRequest},
		{"bad algorithm", &SolveRequest{Instance: testInstance(2), Algorithm: "bogus"}, http.StatusBadRequest},
		{"invalid instance", &SolveRequest{Instance: &sched.Instance{M: 0}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		hr, out := postJSON(t, ts, "/v1/solve", c.body)
		if hr.StatusCode != c.status || out.Error == "" {
			t.Errorf("%s: status %d error %q, want status %d with error", c.name, hr.StatusCode, out.Error, c.status)
		}
	}

	// Malformed JSON is a 400.
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Wrong method is a 405 via the method-aware mux patterns.
	resp, err = ts.Client().Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: status %d, want 405", resp.StatusCode)
	}
}

func TestCacheHitOnPermutedInstance(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(42))
	in := testInstance(3)

	for _, variant := range []string{"split", "pmtn", "nonp"} {
		v, _ := parseVariant(variant)
		_, first := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in, Variant: variant})
		if first.Error != "" || first.Cached {
			t.Fatalf("%s: first solve: cached=%v err=%q", variant, first.Cached, first.Error)
		}
		for trial := 0; trial < 3; trial++ {
			p := permuteInstance(in, rng)
			_, out := postJSON(t, ts, "/v1/solve", &SolveRequest{
				Instance: p, Variant: variant, IncludeSchedule: true,
			})
			if !out.Cached {
				t.Fatalf("%s trial %d: permuted resolve was not served from cache", variant, trial)
			}
			if out.Makespan != first.Makespan {
				t.Fatalf("%s: cached makespan %s != original %s", variant, out.Makespan, first.Makespan)
			}
			if out.Fingerprint != first.Fingerprint {
				t.Fatalf("%s: fingerprint changed under permutation", variant)
			}
			// The remapped schedule must verify against the PERMUTED instance.
			verifyResponse(t, p, v, out)
		}
	}

	if hits := scrapeMetrics(t, ts)[`sched_cache_hits_total{cache="results"}`]; hits == 0 {
		t.Fatal("expected result-cache hits, got none")
	}
}

func TestCacheKeySeparatesOptions(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	in := testInstance(4)

	_, a := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in, Variant: "nonp", Algorithm: "exact"})
	_, b := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in, Variant: "split", Algorithm: "exact"})
	_, c := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in, Variant: "nonp", Algorithm: "2approx"})
	_, d := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in, Variant: "nonp", Algorithm: "eps", Epsilon: 0.25})
	_, e := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in, Variant: "nonp", Algorithm: "eps", Epsilon: 0.01})
	for name, out := range map[string]*SolveResponse{"variant": b, "algorithm": c, "eps .25": d, "eps .01": e} {
		if out.Error != "" {
			t.Fatalf("%s: %s", name, out.Error)
		}
		if out.Cached {
			t.Errorf("%s: differing options must not share a cache entry with %+v", name, a)
		}
	}

	// "auto" resolves to the exact 3/2 algorithm, so it shares the entry
	// populated by "exact".
	_, g := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in, Variant: "nonp", Algorithm: "auto"})
	if !g.Cached {
		t.Error("auto request did not reuse the exact-algorithm cache entry")
	}

	// NoCache must bypass both lookup and fill.
	_, f := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in, Variant: "nonp", Algorithm: "exact", NoCache: true})
	if f.Cached {
		t.Error("no_cache request was served from cache")
	}
}

// batchLines builds an NDJSON body; returns the lines and, per line, the
// instance and variant to verify against (nil instance for error lines).
func batchLines(t *testing.T, nBase int) ([]string, []*SolveRequest) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	variants := []string{"split", "pmtn", "nonp"}
	var lines []string
	var reqs []*SolveRequest
	add := func(r *SolveRequest) {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(buf))
		reqs = append(reqs, r)
	}
	for i := 0; i < nBase; i++ {
		in := testInstance(int64(1000 + i))
		v := variants[i%len(variants)]
		add(&SolveRequest{ID: fmt.Sprintf("i-%d", len(reqs)), Instance: in, Variant: v, IncludeSchedule: true})
		add(&SolveRequest{ID: fmt.Sprintf("i-%d", len(reqs)), Instance: permuteInstance(in, rng), Variant: v, IncludeSchedule: true})
	}
	return lines, reqs
}

func TestBatchEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 8}))
	defer ts.Close()

	lines, reqs := batchLines(t, 60) // 120 items across all three variants
	// Interleave a malformed line and an invalid instance mid-stream.
	badAt, invalidAt := 41, 83
	lines[badAt] = "{this is not json"
	reqs[badAt] = nil
	lines[invalidAt] = `{"id":"i-` + strconv.Itoa(invalidAt) + `","instance":{"m":0,"classes":[]}}`
	reqs[invalidAt] = nil

	body := strings.Join(lines, "\n") + "\n\n" // trailing blank line must be ignored
	resp, err := ts.Client().Post(ts.URL+"/v1/solve/batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var got []*SolveResponse
	for sc.Scan() {
		var out SolveResponse
		if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
			t.Fatalf("line %d: %v", len(got), err)
		}
		got = append(got, &out)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lines) {
		t.Fatalf("got %d responses for %d items", len(got), len(lines))
	}

	cached := 0
	for i, out := range got {
		if i == badAt || i == invalidAt {
			if out.Error == "" {
				t.Fatalf("item %d: expected an error response", i)
			}
			continue
		}
		req := reqs[i]
		if out.ID != req.ID {
			t.Fatalf("item %d: response id %q != request id %q (order not preserved)", i, out.ID, req.ID)
		}
		v, _ := parseVariant(req.Variant)
		verifyResponse(t, req.Instance, v, out)
		if out.Cached {
			cached++
		}
	}

	// Re-sending the whole batch must be served (near-)entirely from cache.
	resp2, err := ts.Client().Post(ts.URL+"/v1/solve/batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	sc2.Buffer(make([]byte, 0, 64<<10), 16<<20)
	rerunCached := 0
	n := 0
	for sc2.Scan() {
		var out SolveResponse
		if err := json.Unmarshal(sc2.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			rerunCached++
		}
		n++
	}
	if n != len(lines) {
		t.Fatalf("rerun: got %d responses for %d items", n, len(lines))
	}
	if rerunCached < len(lines)-2-10 {
		t.Fatalf("rerun: only %d/%d items served from cache", rerunCached, len(lines)-2)
	}

	m := scrapeMetrics(t, ts)
	if m[`sched_requests_total{kind="batch"}`] != 2 || m["sched_batch_items_total"] != float64(2*len(lines)) {
		t.Fatalf("batch counters: requests %v items %v", m[`sched_requests_total{kind="batch"}`], m["sched_batch_items_total"])
	}
	if errs := m["sched_request_errors_total"]; errs < 4 {
		t.Fatalf("error counter %v, want >= 4", errs)
	}
	if m[`sched_cache_hits_total{cache="results"}`] == 0 {
		t.Fatal("no result-cache hits")
	}
	if m["sched_solve_duration_seconds_count"] == 0 {
		t.Fatal("no solve latency observed")
	}
	_ = cached // first pass may or may not hit depending on scheduling
}

func TestBatchPreservesOrderUnderConcurrency(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 16, CacheSize: -1}))
	defer ts.Close()

	// Alternate heavy and trivial instances so completion order differs
	// wildly from arrival order.
	var lines []string
	for i := 0; i < 64; i++ {
		var in *sched.Instance
		if i%2 == 0 {
			in = schedgen.Uniform(schedgen.Params{M: 16, Classes: 400, JobsPer: 6, MaxSetup: 50, MaxJob: 100, Seed: int64(i)})
		} else {
			in = &sched.Instance{M: 1, Classes: []sched.Class{{Setup: 1, Jobs: []int64{1}}}}
		}
		buf, _ := json.Marshal(&SolveRequest{ID: strconv.Itoa(i), Instance: in})
		lines = append(lines, string(buf))
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/solve/batch", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	i := 0
	for sc.Scan() {
		var out SolveResponse
		if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Error != "" {
			t.Fatalf("item %d: %s", i, out.Error)
		}
		if out.ID != strconv.Itoa(i) {
			t.Fatalf("position %d got id %q", i, out.ID)
		}
		i++
	}
	if i != len(lines) {
		t.Fatalf("got %d responses for %d items", i, len(lines))
	}
}

// heavyInstance is shaped so that a preemptive solve spends well over a
// millisecond in search work that no probe speedup removes: it is the
// end-to-end benchmark's core-cold shape at nominal n = 2e5 (113k jobs
// in 25k classes on m just below the class count), whose trivial
// preemptive bound is rejected, so the O(n log n) breakpoint sort runs
// before the third probe.  A 1ms timeout has therefore expired at a
// between-probe or pre-build checkpoint however fast a single probe is.
func heavyInstance() *sched.Instance {
	return schedgen.ExpensiveSetups(schedgen.Params{
		M: 20001, Classes: 25000, JobsPer: 8, MaxSetup: 40_000_000, MaxJob: 4_000_000, Seed: 7,
	})
}

func TestSolveTimeoutReturns408(t *testing.T) {
	ts := httptest.NewServer(New(Config{CacheSize: -1}))
	defer ts.Close()

	hr, out := postJSON(t, ts, "/v1/solve", &SolveRequest{
		Instance: heavyInstance(), Variant: "pmtn", TimeoutMS: 1,
	})
	if hr.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d (error %q), want 408", hr.StatusCode, out.Error)
	}
	if out.Error == "" {
		t.Fatal("timeout response carries no error")
	}
	if scrapeMetrics(t, ts)["sched_solve_timeouts_total"] == 0 {
		t.Fatal("timeout not counted")
	}

	// The server-wide SolveTimeout must cap requests that ask for more.
	ts2 := httptest.NewServer(New(Config{CacheSize: -1, SolveTimeout: time.Millisecond}))
	defer ts2.Close()
	hr2, _ := postJSON(t, ts2, "/v1/solve", &SolveRequest{
		Instance: heavyInstance(), Variant: "pmtn", TimeoutMS: 60000,
	})
	if hr2.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("server-wide timeout: status %d, want 408", hr2.StatusCode)
	}
}

func TestSolveRejectsBadEpsilon(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	// Warm the cache entry a bad request would otherwise hit (cacheKey
	// normalizes invalid epsilon to the default): rejection must not
	// depend on cache state.
	if hr, out := postJSON(t, ts, "/v1/solve", &SolveRequest{
		Instance: testInstance(5), Algorithm: "eps",
	}); hr.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d error %q", hr.StatusCode, out.Error)
	}
	for _, eps := range []float64{-0.5, 1, 7} {
		hr, out := postJSON(t, ts, "/v1/solve", &SolveRequest{
			Instance: testInstance(5), Algorithm: "eps", Epsilon: eps,
		})
		if hr.StatusCode != http.StatusBadRequest || out.Error == "" {
			t.Errorf("eps=%v: status %d error %q, want 400 with error", eps, hr.StatusCode, out.Error)
		}
	}
	// Other algorithms always ignored epsilon; keep accepting it.
	if hr, out := postJSON(t, ts, "/v1/solve", &SolveRequest{
		Instance: testInstance(5), Algorithm: "exact", Epsilon: -3,
	}); hr.StatusCode != http.StatusOK {
		t.Errorf("exact with garbage epsilon: status %d error %q, want 200", hr.StatusCode, out.Error)
	}
}

func TestSolveContextClampsOverflow(t *testing.T) {
	s := New(Config{SolveTimeout: time.Second})
	ctx, cancel := s.solveContext(context.Background(), &SolveRequest{TimeoutMS: 1 << 62})
	defer cancel()
	d, ok := ctx.Deadline()
	if !ok || time.Until(d) > 2*time.Second {
		t.Fatalf("overflowing timeout_ms lifted the server-wide limit (deadline %v ok=%v)", d, ok)
	}
}

func TestProbeStatsAndTrace(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	in := testInstance(6)

	_, out := postJSON(t, ts, "/v1/solve", &SolveRequest{
		Instance: in, Variant: "nonp", IncludeTrace: true,
	})
	if out.Error != "" {
		t.Fatal(out.Error)
	}
	if out.Probes == 0 || len(out.Trace) != out.Probes {
		t.Fatalf("probes=%d trace len=%d, want equal and positive", out.Probes, len(out.Trace))
	}
	// The last accepted probe of the trace certifies the makespan bound.
	last := out.Trace[len(out.Trace)-1]
	if !last.Accepted {
		t.Fatalf("search ended on a rejected probe: %+v", out.Trace)
	}
	if probes := scrapeMetrics(t, ts)["sched_probes_total"]; probes < float64(out.Probes) {
		t.Fatalf("server probe counter %v < solve probes %d", probes, out.Probes)
	}
}

// TestPermutedColdSolvesAgree: with the result cache off every request
// solves, and six permutations of one instance agree on makespan and
// certified bound, because each solves the canonical form.
func TestPermutedColdSolvesAgree(t *testing.T) {
	ts := httptest.NewServer(New(Config{CacheSize: -1}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(11))
	in := testInstance(9)

	var first *SolveResponse
	for i := 0; i < 6; i++ {
		req := &SolveRequest{Instance: permuteInstance(in, rng), Variant: "nonp"}
		_, out := postJSON(t, ts, "/v1/solve", req)
		if out.Error != "" {
			t.Fatal(out.Error)
		}
		if first == nil {
			first = out
		} else if out.Makespan != first.Makespan || out.LowerBound != first.LowerBound {
			t.Fatalf("solve %d diverged: %s/%s vs %s/%s", i, out.Makespan, out.LowerBound, first.Makespan, first.LowerBound)
		}
	}
}

// TestConfigResolvesDefaults pins the configuration a server reports:
// zero fields take their defaults, the batch gate follows the worker
// count, and set fields — negative ones included — are kept.
func TestConfigResolvesDefaults(t *testing.T) {
	want := Config{
		Workers: 3, CacheSize: 4096, MaxConcurrentBatches: 6,
		SessionCapacity: 256, SessionTTL: 15 * time.Minute,
		MaxBodyBytes: 32 << 20, MaxLineBytes: 8 << 20,
	}
	if got := New(Config{Workers: 3}).Config(); got != want {
		t.Errorf("Config() =\n%+v\nwant\n%+v", got, want)
	}
	set := Config{
		Workers: 2, CacheSize: -1, MaxConcurrentBatches: -1, SessionCapacity: -1,
		SessionTTL: -1, MaxBodyBytes: 1 << 10, MaxLineBytes: 1 << 10, SolveTimeout: time.Second,
	}
	if got := New(set).Config(); got != set {
		t.Errorf("Config() =\n%+v\nwant\n%+v", got, set)
	}
}

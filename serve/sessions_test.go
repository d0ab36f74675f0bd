package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
	"setupsched/stream"
)

// sessionTestInstance needs a real search (trivial bound rejected) so
// warm starts are observable through the API.
func sessionTestInstance(seed int64) *sched.Instance {
	return schedgen.ExpensiveSetups(schedgen.Params{
		M: 26, Classes: 31, JobsPer: 8, MaxSetup: 500, MaxJob: 60, Seed: seed,
	})
}

func postSessionJSON(t *testing.T, client *http.Client, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestSessionLifecycle(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	client := srv.Client()
	in := sessionTestInstance(1)

	// Create.
	var info SessionInfo
	if code := postSessionJSON(t, client, srv.URL+"/v1/sessions", &SessionCreateRequest{Instance: in}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d (%s)", code, info.Error)
	}
	if info.SessionID == "" || info.Fingerprint == "" || info.Rev != 0 {
		t.Fatalf("create: bad info %+v", info)
	}
	base := srv.URL + "/v1/sessions/" + info.SessionID

	// First solve: cold.
	var r1 SolveResponse
	if code := postSessionJSON(t, client, base+"/solve", &SolveRequest{Variant: "nonp"}, &r1); code != http.StatusOK {
		t.Fatalf("solve: status %d (%s)", code, r1.Error)
	}
	if r1.Cached || r1.Warm {
		t.Fatalf("first solve: cached=%v warm=%v", r1.Cached, r1.Warm)
	}

	probesAfterCold := scrapeMetrics(t, srv)["sched_probes_total"]

	// Second solve: served from the session cache.
	var r2 SolveResponse
	postSessionJSON(t, client, base+"/solve", &SolveRequest{Variant: "nonp"}, &r2)
	if !r2.Cached || r2.Makespan != r1.Makespan {
		t.Fatalf("second solve: cached=%v makespan %s (want %s)", r2.Cached, r2.Makespan, r1.Makespan)
	}
	// A cache return runs no dual tests; the executed-probe counter must
	// not move (sched_probes_total counts executed probes only).
	if got := scrapeMetrics(t, srv)["sched_probes_total"]; got != probesAfterCold {
		t.Fatalf("cached solve moved sched_probes_total from %v to %v", probesAfterCold, got)
	}

	// Delta, then a warm re-solve that matches a fresh stateless solve.
	var dr SessionDeltaResponse
	code := postSessionJSON(t, client, base+"/delta", &SessionDeltaRequest{Deltas: []sched.Delta{
		{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{9, 4}},
	}}, &dr)
	if code != http.StatusOK || dr.Rev != 1 || dr.Applied != 1 {
		t.Fatalf("delta: status %d resp %+v", code, dr)
	}
	var r3 SolveResponse
	postSessionJSON(t, client, base+"/solve", &SolveRequest{Variant: "nonp"}, &r3)
	if r3.Cached {
		t.Fatal("post-delta solve served stale cache")
	}
	if !r3.Warm {
		t.Fatal("post-delta solve did not warm-start")
	}
	if r3.SessionRev != 1 {
		t.Fatalf("post-delta solve rev %d, want 1", r3.SessionRev)
	}
	// The warm session result must be bit-identical to a fresh
	// NewSolver solve of the post-delta instance.  (The stateless
	// /v1/solve endpoint is not the right reference: it solves the
	// canonical permutation for cache sharing, which may legitimately
	// land on a different — equally valid — schedule.)
	mirror := in.Clone()
	mirror.Classes[0].Jobs = append(mirror.Classes[0].Jobs, 9, 4)
	solver, err := setupsched.NewSolver(mirror)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := solver.Solve(context.Background(), sched.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Makespan.String() != r3.Makespan || fresh.LowerBound.String() != r3.LowerBound {
		t.Fatalf("session solve (mk=%s lb=%s) != fresh solve (mk=%s lb=%s)",
			r3.Makespan, r3.LowerBound, fresh.Makespan, fresh.LowerBound)
	}

	// Info endpoint reflects the delta.
	resp, err := client.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	var got SessionInfo
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.Rev != 1 || got.Jobs != in.NumJobs()+2 {
		t.Fatalf("info: %+v", got)
	}

	// The metrics report the session activity.
	m := scrapeMetrics(t, srv)
	for series, want := range map[string]float64{
		"sched_sessions_active":          1,
		"sched_sessions_created_total":   1,
		"sched_session_solves_total":     3,
		"sched_session_cache_hits_total": 1,
		"sched_session_warm_hits_total":  1,
		"sched_session_deltas_total":     1,
	} {
		if m[series] != want {
			t.Errorf("%s = %v, want %v", series, m[series], want)
		}
	}

	// Delete, then everything 404s.
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	var gone SolveResponse
	if code := postSessionJSON(t, client, base+"/solve", &SolveRequest{Variant: "nonp"}, &gone); code != http.StatusNotFound {
		t.Fatalf("solve after delete: status %d", code)
	}
}

// TestSessionSolveTraceAndNoCache drives two session solve options end
// to end.  include_trace answers one trace entry per probe on fresh,
// cached and warm solves alike.  no_cache, sent after a solve the
// session cached, runs the search again, cold, to the same answer.
func TestSessionSolveTraceAndNoCache(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	client := srv.Client()
	var info SessionInfo
	if code := postSessionJSON(t, client, srv.URL+"/v1/sessions", &SessionCreateRequest{Instance: sessionTestInstance(2)}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d (%s)", code, info.Error)
	}
	base := srv.URL + "/v1/sessions/" + info.SessionID
	solve := func(tag string, req *SolveRequest) SolveResponse {
		t.Helper()
		var r SolveResponse
		if code := postSessionJSON(t, client, base+"/solve", req, &r); code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tag, code, r.Error)
		}
		if req.IncludeTrace && (r.Probes == 0 || len(r.Trace) != r.Probes) {
			t.Fatalf("%s (cached=%v warm=%v): %d trace entries for %d probes",
				tag, r.Cached, r.Warm, len(r.Trace), r.Probes)
		}
		return r
	}
	traced := &SolveRequest{Variant: "nonp", IncludeTrace: true, IncludeSchedule: true}

	cold := solve("cold", traced)
	if cached := solve("cached", traced); !cached.Cached {
		t.Fatal("second solve was not cached")
	}
	nc := solve("no_cache", &SolveRequest{Variant: "nonp", IncludeSchedule: true, NoCache: true})
	if nc.Cached || nc.Warm {
		t.Fatalf("no_cache solve: cached=%v warm=%v", nc.Cached, nc.Warm)
	}
	if nc.Makespan != cold.Makespan || !reflect.DeepEqual(nc.Schedule, cold.Schedule) {
		t.Fatalf("no_cache solve (mk=%s) differs from the cold solve (mk=%s)", nc.Makespan, cold.Makespan)
	}

	if code := postSessionJSON(t, client, base+"/delta", &SessionDeltaRequest{Deltas: []sched.Delta{
		{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{9, 4}},
	}}, nil); code != http.StatusOK {
		t.Fatalf("delta: status %d", code)
	}
	if warm := solve("warm", traced); !warm.Warm {
		t.Fatal("post-delta solve did not warm-start")
	}
}

func TestSessionRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	client := srv.Client()

	var info SessionInfo
	if code := postSessionJSON(t, client, srv.URL+"/v1/sessions", &SessionCreateRequest{}, &info); code != http.StatusBadRequest {
		t.Fatalf("create without instance: status %d", code)
	}
	if code := postSessionJSON(t, client, srv.URL+"/v1/sessions",
		&SessionCreateRequest{Instance: &sched.Instance{M: 0}}, &info); code != http.StatusBadRequest {
		t.Fatalf("create with invalid instance: status %d", code)
	}

	postSessionJSON(t, client, srv.URL+"/v1/sessions", &SessionCreateRequest{Instance: sessionTestInstance(2)}, &info)
	base := srv.URL + "/v1/sessions/" + info.SessionID

	// A solve request carrying an instance is rejected: the session owns it.
	var sr SolveResponse
	if code := postSessionJSON(t, client, base+"/solve",
		&SolveRequest{Instance: sessionTestInstance(3), Variant: "nonp"}, &sr); code != http.StatusBadRequest {
		t.Fatalf("solve with instance: status %d", code)
	}
	if code := postSessionJSON(t, client, base+"/solve", &SolveRequest{Variant: "bogus"}, &sr); code != http.StatusBadRequest {
		t.Fatalf("solve with bad variant: status %d", code)
	}

	// A failing delta in a batch reports the applied prefix and 400.
	var dr SessionDeltaResponse
	code := postSessionJSON(t, client, base+"/delta", &SessionDeltaRequest{Deltas: []sched.Delta{
		{Op: sched.DeltaAddJobs, Class: 0, Jobs: []int64{5}},
		{Op: sched.DeltaRemoveClass, Class: 9999},
	}}, &dr)
	if code != http.StatusBadRequest || dr.Applied != 1 || dr.Rev != 1 {
		t.Fatalf("partial delta: status %d resp %+v", code, dr)
	}
	if !strings.Contains(dr.Error, "delta 1") {
		t.Fatalf("partial delta error %q does not name the failing index", dr.Error)
	}

	// Unknown session IDs 404 on every per-session route.
	bogus := srv.URL + "/v1/sessions/deadbeef"
	if code := postSessionJSON(t, client, bogus+"/delta", &SessionDeltaRequest{Deltas: []sched.Delta{{Op: sched.DeltaSetMachines, M: 1}}}, &dr); code != http.StatusNotFound {
		t.Fatalf("delta on unknown session: status %d", code)
	}
}

// TestSessionSolveParsesLikeSolve posts the same variant, algorithm and
// epsilon to /v1/solve and to a session's solve route: both answer with
// the same status and error, except that sessions answer refexact with
// 400.
func TestSessionSolveParsesLikeSolve(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	in := &sched.Instance{M: 3, Classes: []sched.Class{{Setup: 4, Jobs: []int64{7, 2, 5}}, {Setup: 1, Jobs: []int64{3, 3}}}}
	var info SessionInfo
	if code := postSessionJSON(t, srv.Client(), srv.URL+"/v1/sessions", &SessionCreateRequest{Instance: in}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d (%s)", code, info.Error)
	}
	for _, tc := range []struct {
		req            SolveRequest
		solve, session int
	}{
		{SolveRequest{Algorithm: "exact", Epsilon: -3}, http.StatusOK, http.StatusOK},
		{SolveRequest{Algorithm: "2approx", Epsilon: 7}, http.StatusOK, http.StatusOK},
		{SolveRequest{Algorithm: "eps", Epsilon: 0.01}, http.StatusOK, http.StatusOK},
		{SolveRequest{Algorithm: "eps", Epsilon: -0.5}, http.StatusBadRequest, http.StatusBadRequest},
		{SolveRequest{Algorithm: "eps", Epsilon: 1}, http.StatusBadRequest, http.StatusBadRequest},
		{SolveRequest{Variant: "bogus"}, http.StatusBadRequest, http.StatusBadRequest},
		{SolveRequest{Algorithm: "bogus"}, http.StatusBadRequest, http.StatusBadRequest},
		{SolveRequest{Algorithm: "refexact"}, http.StatusOK, http.StatusBadRequest},
	} {
		name := fmt.Sprintf("variant %q algorithm %q epsilon %v", tc.req.Variant, tc.req.Algorithm, tc.req.Epsilon)
		sessReq := tc.req
		hs, outS := postJSON(t, srv, "/v1/sessions/"+info.SessionID+"/solve", &sessReq)
		solveReq := tc.req
		solveReq.Instance = in
		h, out := postJSON(t, srv, "/v1/solve", &solveReq)
		if h.StatusCode != tc.solve || hs.StatusCode != tc.session {
			t.Errorf("%s: /v1/solve %d (%q), session %d (%q); want %d and %d",
				name, h.StatusCode, out.Error, hs.StatusCode, outS.Error, tc.solve, tc.session)
		}
		if tc.solve == tc.session && out.Error != outS.Error {
			t.Errorf("%s: /v1/solve error %q, session error %q", name, out.Error, outS.Error)
		}
	}
}

func TestSessionTTLAndLRUEviction(t *testing.T) {
	s := New(Config{SessionCapacity: 2, SessionTTL: time.Minute})
	now := time.Unix(1000, 0)
	s.sessions.now = func() time.Time { return now }

	mk := func(seed int64) string {
		t.Helper()
		sess, err := stream.NewSession(sessionTestInstance(seed))
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.sessions.create("", sess)
		if err != nil {
			t.Fatal(err)
		}
		return e.id
	}
	a, b := mk(1), mk(2)
	if got := s.sessions.get(a); got == nil {
		t.Fatal("session a missing")
	}
	// Capacity 2: a third session evicts the LRU (b: a was touched last).
	c := mk(3)
	if s.sessions.get(b) != nil {
		t.Fatal("LRU eviction kept the least recently used session")
	}
	if s.sessions.get(a) == nil || s.sessions.get(c) == nil {
		t.Fatal("LRU eviction dropped the wrong session")
	}

	// TTL: advance past the deadline; both remaining sessions expire.
	now = now.Add(2 * time.Minute)
	if s.sessions.get(a) != nil || s.sessions.get(c) != nil {
		t.Fatal("TTL did not expire idle sessions")
	}
	created := s.metrics.sessionsCreated.Load()
	evictedLRU := s.metrics.sessionsEvictedLRU.Load()
	evictedTTL := s.metrics.sessionsEvictedTTL.Load()
	if created != 3 || evictedLRU != 1 || evictedTTL != 2 {
		t.Fatalf("eviction counters: created=%d lru=%d ttl=%d", created, evictedLRU, evictedTTL)
	}
}

func TestBatchSaturationReturns429(t *testing.T) {
	// One worker, one concurrent batch: a second concurrent batch request
	// must be rejected with 429 + Retry-After, not queued.
	s := New(Config{Workers: 1, MaxConcurrentBatches: 1, SessionCapacity: -1})
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := srv.Client()

	// Occupy the single batch slot with a slow streaming request: the
	// request body stays open until we release it.
	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve/batch", pr)
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	line, _ := json.Marshal(&SolveRequest{Instance: testInstance(1), Variant: "nonp"})
	pw.Write(append(line, '\n'))

	// Wait until the first batch holds the gate.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(s.batchGate) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first batch request never acquired the gate")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := client.Post(srv.URL+"/v1/solve/batch", "application/x-ndjson",
		strings.NewReader(string(line)+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	pw.Close()
	wg.Wait()

	m := scrapeMetrics(t, srv)
	if got := m["sched_batch_rejected_total"]; got != 1 {
		t.Fatalf("rejected counter = %v, want 1", got)
	}
	if _, ok := m["sched_sessions_active"]; ok {
		t.Fatal("sessions enabled despite negative capacity")
	}
}

// Session bodies on a small instance, for the strict-parsing checks.
const (
	smallCreateBody = `{"instance":{"m":3,"classes":[{"setup":4,"jobs":[7,2,5]},{"setup":1,"jobs":[3,3]}]}}`
	addJobBody      = `{"deltas":[{"op":"add_jobs","class":0,"jobs":[6]}]}`
)

// withTrailing returns body followed by what no route accepts after a
// JSON value: trailing bytes, and a second value.
func withTrailing(body string) []string {
	return []string{body + " trailing", body + body}
}

// TestSessionBodiesRejectTrailingBytes: the session routes parse their
// bodies as strictly as /v1/solve, so a body with bytes after its value
// answers 400, creates no session and applies no delta.
func TestSessionBodiesRejectTrailingBytes(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	post := func(path, body string) int {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range withTrailing(smallCreateBody) {
		if code := post("/v1/sessions", body); code != http.StatusBadRequest {
			t.Errorf("create %q: status %d, want 400", body, code)
		}
	}
	if n := s.sessions.size(); n != 0 {
		t.Errorf("%d sessions created from rejected bodies", n)
	}
	var info SessionInfo
	if code := postSessionJSON(t, srv.Client(), srv.URL+"/v1/sessions", json.RawMessage(smallCreateBody), &info); code != http.StatusCreated {
		t.Fatalf("create: status %d (%s)", code, info.Error)
	}
	for _, body := range withTrailing(addJobBody) {
		if code := post("/v1/sessions/"+info.SessionID+"/delta", body); code != http.StatusBadRequest {
			t.Errorf("delta %q: status %d, want 400", body, code)
		}
	}
	shape, err := s.sessions.get(info.SessionID).sess.Describe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if shape.Rev != 0 {
		t.Fatalf("rejected delta bodies moved the session to rev %d", shape.Rev)
	}
}

// FuzzDeltaJSON posts fuzzed bodies to one live session's delta route
// through the real handler.  Every answer is 200 or 400; a body that
// json.Unmarshal rejects as a SessionDeltaRequest answers 400 and leaves
// the revision where it was; and the delta-maintained preparation passes
// SelfCheck after every request.
func FuzzDeltaJSON(f *testing.F) {
	seeds := append(withTrailing(addJobBody),
		addJobBody,
		`{"deltas":[{"op":"set_setup","class":1,"setup":2},{"op":"add_class","setup":3,"jobs":[4,1]},{"op":"set_machines","m":4}]}`,
		`{"deltas":[]}`,
		`{"deltas":[{"op":"remove_job","class":9,"job":0}]}`,
		`{"deltas":[{"op":"remove_job","class":0,"job":-1},{"op":"remove_class","class":2}]}`,
	)
	for _, body := range seeds {
		f.Add([]byte(body))
	}
	s := New(Config{})
	srv := httptest.NewServer(s)
	f.Cleanup(srv.Close)
	resp, err := srv.Client().Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(smallCreateBody))
	if err != nil {
		f.Fatal(err)
	}
	var info SessionInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		f.Fatalf("create: status %d, %v (%s)", resp.StatusCode, err, info.Error)
	}
	sess := s.sessions.get(info.SessionID).sess
	url := srv.URL + "/v1/sessions/" + info.SessionID + "/delta"
	rev := func(t *testing.T) uint64 {
		shape, err := sess.Describe(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return shape.Rev
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		before := rev(t)
		resp, err := srv.Client().Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 200 or 400", body, resp.StatusCode)
		}
		if json.Unmarshal(body, new(SessionDeltaRequest)) != nil {
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%q: json.Unmarshal rejects it, status %d", body, resp.StatusCode)
			}
			if after := rev(t); after != before {
				t.Fatalf("%q: rejected body moved the session from rev %d to %d", body, before, after)
			}
		}
		if err := sess.SelfCheck(); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
	})
}

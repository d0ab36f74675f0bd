package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"setupsched/obs"
)

// scrapeMetrics fetches GET /metrics and returns the parsed samples,
// failing the test on transport, status, content-type or format errors.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics: content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, body)
	}
	return samples
}

// TestMetricsEndpointExposition drives traffic through every subsystem
// and asserts GET /metrics is valid Prometheus text format with the
// exact counts of that traffic.
func TestMetricsEndpointExposition(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	in := testInstance(1)
	// Two identical solves: second one hits the result cache.
	for i := 0; i < 2; i++ {
		if _, resp := postJSON(t, ts, "/v1/solve", &SolveRequest{Instance: in}); resp.Error != "" {
			t.Fatalf("solve error: %s", resp.Error)
		}
	}
	// One session with a solve, to tick the session counters.
	var info SessionInfo
	{
		buf, _ := json.Marshal(&SessionCreateRequest{Instance: testInstance(2)})
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if info.Error != "" {
			t.Fatalf("session create: %s", info.Error)
		}
	}
	if _, resp := postJSON(t, ts, "/v1/sessions/"+info.SessionID+"/solve", &SolveRequest{}); resp.Error != "" {
		t.Fatalf("session solve: %s", resp.Error)
	}

	samples := scrapeMetrics(t, ts)

	expectCounter := func(series string, want float64) {
		t.Helper()
		got, ok := samples[series]
		if !ok {
			t.Fatalf("series %q missing from /metrics", series)
		}
		if got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	expectCounter(`sched_requests_total{kind="solve"}`, 2)
	expectCounter(`sched_cache_hits_total{cache="results"}`, 1)
	expectCounter(`sched_cache_misses_total{cache="results"}`, 1)
	expectCounter("sched_sessions_created_total", 1)
	expectCounter("sched_session_solves_total", 1)
	// Three successful solves: the cold one, its cache hit and the
	// session's.
	expectCounter("sched_solve_duration_seconds_count", 3)
	if samples["sched_probes_total"] <= 0 {
		t.Error("probe counter never moved")
	}

	// The sum and the gauges are present.
	for _, series := range []string{
		"sched_solve_duration_seconds_sum",
		`sched_cache_size{cache="results"}`,
		"sched_sessions_active",
		"sched_uptime_seconds",
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
	} {
		if _, ok := samples[series]; !ok {
			t.Errorf("series %q missing from /metrics", series)
		}
	}

	// Method filtering: POST is rejected.
	resp, err := ts.Client().Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}

// TestSolveIncludeSpans asserts the span tree rides the response when
// asked for, with the phases attributed and probe children matching the
// reported probe count.
func TestSolveIncludeSpans(t *testing.T) {
	s := New(Config{})
	resp := s.Solve(context.Background(), &SolveRequest{
		Instance: testInstance(4), IncludeSpans: true,
	})
	if resp.Error != "" {
		t.Fatalf("solve error: %s", resp.Error)
	}
	root := resp.Spans
	if root == nil {
		t.Fatal("include_spans set but response has no spans")
	}
	if root.Name != "solve" || root.Algorithm != resp.Algorithm {
		t.Fatalf("root span %q algorithm %q, want solve/%s", root.Name, root.Algorithm, resp.Algorithm)
	}
	search := root.Child("search")
	if root.Child("prepare") == nil || search == nil || root.Child("build") == nil {
		t.Fatalf("missing phase spans; got %d children", len(root.Children))
	}
	if search.Probes != resp.Probes || len(search.Children) != resp.Probes {
		t.Fatalf("search span probes=%d children=%d, want %d", search.Probes, len(search.Children), resp.Probes)
	}
	// The tree must round-trip through JSON (the wire format).
	buf, err := json.Marshal(resp.Spans)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Span
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "solve" || len(back.Children) != len(root.Children) {
		t.Fatal("span tree does not survive JSON round-trip")
	}

	// Without the flag the response must not carry spans.
	resp = s.Solve(context.Background(), &SolveRequest{Instance: testInstance(4)})
	if resp.Spans != nil {
		t.Fatal("spans attached without include_spans")
	}
}

// TestSessionSolveIncludeSpans covers the session path: warm and cached
// solves report spans consistent with their probe activity.
func TestSessionSolveIncludeSpans(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	buf, _ := json.Marshal(&SessionCreateRequest{Instance: testInstance(5)})
	raw, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	if err := json.NewDecoder(raw.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if info.Error != "" {
		t.Fatalf("session create: %s", info.Error)
	}

	solveURL := "/v1/sessions/" + info.SessionID + "/solve"
	_, first := postJSON(t, ts, solveURL, &SolveRequest{IncludeSpans: true})
	if first.Error != "" {
		t.Fatalf("session solve: %s", first.Error)
	}
	if first.Spans == nil || first.Spans.Child("search") == nil {
		t.Fatal("cold session solve missing search span")
	}
	if got := first.Spans.Child("search").Probes; got != first.Probes {
		t.Fatalf("span probes %d, want %d", got, first.Probes)
	}

	// Unchanged instance: the session answers from cache, so the span
	// tree records no search (no probes executed).
	_, second := postJSON(t, ts, solveURL, &SolveRequest{IncludeSpans: true})
	if second.Error != "" {
		t.Fatalf("cached session solve: %s", second.Error)
	}
	if !second.Cached {
		t.Fatal("expected cached session result")
	}
	if sp := second.Spans; sp != nil {
		if search := sp.Child("search"); search != nil && len(search.Children) != 0 {
			t.Fatalf("cached solve recorded %d probe spans", len(search.Children))
		}
	}
}

// TestSlowSolveLog asserts the structured slow-solve line fires past the
// threshold and carries phase attribution from the span tree.
func TestSlowSolveLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	lg := slog.New(slog.NewJSONHandler(lockedWriter{mu: &mu, w: &buf}, nil))
	s := New(Config{SlowSolveThreshold: time.Nanosecond, Logger: lg})

	resp := s.Solve(context.Background(), &SolveRequest{Instance: testInstance(6)})
	if resp.Error != "" {
		t.Fatalf("solve error: %s", resp.Error)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if out == "" {
		t.Fatal("no slow-solve line emitted at 1ns threshold")
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		t.Fatalf("slow-solve line is not JSON: %v\n%s", err, out)
	}
	if line["msg"] != "slow solve" {
		t.Fatalf("msg = %v", line["msg"])
	}
	for _, key := range []string{"fingerprint", "variant", "algorithm", "elapsed_ms", "probes", "prepare_ms", "search_ms", "build_ms"} {
		if _, ok := line[key]; !ok {
			t.Errorf("slow-solve line missing %q: %s", key, out)
		}
	}

	// Below threshold: silent.
	buf.Reset()
	s2 := New(Config{SlowSolveThreshold: time.Hour, Logger: lg})
	if resp := s2.Solve(context.Background(), &SolveRequest{Instance: testInstance(6)}); resp.Error != "" {
		t.Fatalf("solve error: %s", resp.Error)
	}
	mu.Lock()
	quiet := buf.Len() == 0
	mu.Unlock()
	if !quiet {
		t.Fatal("slow-solve line emitted below threshold")
	}
}

// TestSlowSolveLogTraced pins that the phase breakdown survives wire
// tracing: finishWire wraps the solve tree in the "handler" span, and
// the slow-solve line must still attribute prepare/search/build from
// the solve child, not read zeros off the wrapper.
func TestSlowSolveLogTraced(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	lg := slog.New(slog.NewJSONHandler(lockedWriter{mu: &mu, w: &buf}, nil))
	s := New(Config{SlowSolveThreshold: time.Nanosecond, Logger: lg})

	resp := s.Solve(context.Background(), &SolveRequest{
		Instance:     testInstance(9),
		IncludeSpans: true,
		TraceParent:  "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	})
	if resp.Error != "" {
		t.Fatalf("solve error: %s", resp.Error)
	}
	if resp.Spans == nil || resp.Spans.Name != "handler" {
		t.Fatalf("traced response root = %+v, want handler span", resp.Spans)
	}
	solve := resp.Spans.Child("solve")
	if solve == nil {
		t.Fatal("handler span has no solve child")
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var line map[string]any
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		t.Fatalf("slow-solve line is not JSON: %v\n%s", err, out)
	}
	if got, want := line["trace_id"], "4bf92f3577b34da6a3ce929d0e0e4736"; got != want {
		t.Errorf("trace_id = %v, want %v", got, want)
	}
	for _, phase := range []string{"prepare", "search", "build"} {
		want := 0.0
		if sp := solve.Child(phase); sp != nil {
			want = float64(sp.DurUS) / 1e3
		}
		if got := line[phase+"_ms"]; got != want {
			t.Errorf("%s_ms = %v, want %v (from span tree)\n%s", phase, got, want, out)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestConcurrentSolvesAndScrapes hammers the solve path while /metrics
// is scraped concurrently (run under -race), asserting every scrape
// stays well-formed and the counters end exact.
func TestConcurrentSolvesAndScrapes(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const workers, solvesPer = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < solvesPer; i++ {
				in := testInstance(int64(w*solvesPer + i))
				if resp := s.Solve(context.Background(), &SolveRequest{Instance: in}); resp.Error != "" {
					t.Errorf("solve: %s", resp.Error)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	var lastSolve uint64
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			samples := scrapeMetrics(t, ts)
			cur := uint64(samples["sched_probes_total"])
			if cur < lastSolve {
				t.Errorf("sched_probes_total went backwards: %d -> %d", lastSolve, cur)
				return
			}
			lastSolve = cur
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	samples := scrapeMetrics(t, ts)
	if got := samples["sched_solve_duration_seconds_count"]; got != workers*solvesPer {
		t.Fatalf("final solve count %v, want %d", got, workers*solvesPer)
	}
}

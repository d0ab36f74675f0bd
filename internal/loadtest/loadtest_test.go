package loadtest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"setupsched/internal/lb"
)

// TestMain installs the child-mode hook: when StartCluster re-execs
// this test binary with SCHEDLOAD_CHILD set, the process becomes a
// shard or lb instead of running the tests.
func TestMain(m *testing.M) {
	MaybeRunChild()
	os.Exit(m.Run())
}

// TestClusterWorkload is the end-to-end smoke: a real 2-shard fleet
// plus lb as separate OS processes, a short mixed workload, and the
// zero-misroute contract.
func TestClusterWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a multi-process cluster")
	}
	cluster, err := StartCluster(context.Background(), ClusterConfig{Shards: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	res, err := RunWorkload(context.Background(), cluster.LBURL, cluster.Shards, WorkloadConfig{
		Duration: 1500 * time.Millisecond, RPS: 40, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutingErrors != 0 {
		t.Fatalf("routing errors = %d, want 0", res.RoutingErrors)
	}
	total := res.Solve.Requests + res.Session.Requests
	if total < 20 {
		t.Fatalf("workload completed only %d requests", total)
	}
	if res.Solve.Errors != 0 || res.Session.Errors != 0 {
		t.Fatalf("request errors: solve=%d session=%d", res.Solve.Errors, res.Session.Errors)
	}
	if len(res.ShardHits) != 2 {
		t.Errorf("traffic hit %d/2 shards: %v", len(res.ShardHits), res.ShardHits)
	}
	if res.Solve.P50Ms <= 0 || res.Solve.P99Ms < res.Solve.P50Ms {
		t.Errorf("implausible solve latencies: %+v", res.Solve)
	}
}

// TestRunWorkloadNeedsBothClasses pins that a drive fails unless it
// completes at least one solve and one session request.  A one-shard
// fake fleet answers every request; with its solve or its session
// routes failing, RunWorkload must return an error, and with neither
// failing it must not.
func TestRunWorkloadNeedsBothClasses(t *testing.T) {
	for _, failing := range []string{"", "/v1/solve", "/v1/sessions"} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Sched-Shard", "s0")
			switch {
			case failing != "" && strings.HasPrefix(r.URL.Path, failing):
				http.Error(w, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
			case r.URL.Path == "/v1/sessions":
				w.Write([]byte(`{"session_id":"s0-1"}`))
			default:
				w.Write([]byte(`{}`))
			}
		}))
		_, err := RunWorkload(context.Background(), srv.URL, []lb.Shard{{ID: "s0", URL: srv.URL}}, WorkloadConfig{
			Duration: 300 * time.Millisecond, RPS: 200, Workers: 2,
		})
		srv.Close()
		if failing == "" && err != nil {
			t.Errorf("healthy fleet: %v", err)
		}
		if failing != "" && err == nil {
			t.Errorf("fleet failing %s: RunWorkload returned no error", failing)
		}
	}
}

// TestTraceReport drives traced solves through a real 2-shard fleet and
// asserts the joined attribution's invariants: every minted trace id
// appears in the flight recorder of exactly the ring-predicted shard,
// and the per-segment attribution sums to within 5% of each request's
// end-to-end latency.
func TestTraceReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a multi-process cluster")
	}
	cluster, err := StartCluster(context.Background(), ClusterConfig{Shards: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	rep, err := RunTraceReport(context.Background(), cluster.LBURL, cluster.Shards, TraceReportConfig{
		Requests: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.E2E.P50Ms <= 0 || rep.E2E.P99Ms < rep.E2E.P50Ms {
		t.Errorf("implausible e2e stats: %+v", rep.E2E)
	}
	if len(rep.Segments) != len(TraceSegments) {
		t.Fatalf("report has %d segments, want %d", len(rep.Segments), len(TraceSegments))
	}
	var sumP50 float64
	for _, seg := range rep.Segments {
		sumP50 += seg.P50Ms
	}
	// Percentiles don't add exactly, but the segment medians should land
	// in the same order of magnitude as the e2e median.
	if sumP50 <= 0 {
		t.Errorf("segment medians sum to zero; attribution empty: %+v", rep.Segments)
	}
	t.Logf("trace report: joined=%d/%d maxSumErr=%.2f%% e2e p50=%.2fms",
		rep.Joined, rep.Requests, rep.MaxSumErrPct, rep.E2E.P50Ms)
}

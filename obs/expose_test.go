package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("sched_requests_total", "Requests.").Add(5)
	r.Counter(`sched_cache_hits_total{cache="results"}`, "Cache hits.").Add(2)
	r.Counter(`sched_cache_hits_total{cache="other"}`, "Cache hits.").Add(3)
	r.Gauge("sched_sessions_active", "Active sessions.").Set(4)
	r.GaugeFunc("sched_cache_size", "Entries.", func() float64 { return 17 })
	h := r.Histogram("sched_solve_duration_seconds", "Latency.", DefaultLatencyBuckets()...)
	h.Observe(0.002)
	h.Observe(0.004)
	h.Observe(42) // overflow bucket
	return r
}

func TestWritePrometheusParsesAndMatches(t *testing.T) {
	r := buildTestRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	for name, want := range map[string]float64{
		"sched_requests_total":                    5,
		`sched_cache_hits_total{cache="results"}`: 2,
		`sched_cache_hits_total{cache="other"}`:   3,
		"sched_sessions_active":                   4,
		"sched_cache_size":                        17,
		"sched_solve_duration_seconds_count":      3,
	} {
		if got := samples[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := samples[`sched_solve_duration_seconds_bucket{le="+Inf"}`]; got != 3 {
		t.Errorf("+Inf bucket = %g, want 3", got)
	}
	if got := samples[`sched_solve_duration_seconds_bucket{le="0.005"}`]; got != 2 {
		t.Errorf("le=0.005 bucket = %g, want 2", got)
	}
}

func TestWritePrometheusRuntimeBlock(t *testing.T) {
	r := buildTestRegistry()
	r.EnableRuntimeMetrics()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition with runtime block does not parse: %v", err)
	}
	if samples["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %g, want >= 1", samples["go_goroutines"])
	}
	if samples["go_memstats_heap_alloc_bytes"] <= 0 {
		t.Errorf("heap alloc = %g, want > 0", samples["go_memstats_heap_alloc_bytes"])
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := buildTestRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("served exposition invalid: %v", err)
	}
}

func TestHandlerRejectsPost(t *testing.T) {
	r := buildTestRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for name, data := range map[string]string{
		"no type line":      "orphan_total 3\n",
		"bad value":         "# TYPE x_total counter\nx_total banana\n",
		"duplicate series":  "# TYPE x_total counter\nx_total 1\nx_total 2\n",
		"unbalanced labels": "# TYPE x_total counter\nx_total}{ 1\n",
		"histogram no inf":  "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram no sum":  "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"non-cumulative": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
	} {
		if err := ValidateExposition([]byte(data)); err == nil {
			t.Errorf("%s: accepted malformed exposition", name)
		}
	}
}

func TestParseExpositionAcceptsWellFormed(t *testing.T) {
	data := "# HELP x_total Things.\n# TYPE x_total counter\nx_total 3\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="0.5"} 1` + "\n" +
		`h_bucket{le="+Inf"} 2` + "\n" +
		"h_sum 1.25\nh_count 2\n"
	samples, err := ParseExposition([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if samples["x_total"] != 3 || samples["h_count"] != 2 {
		t.Fatalf("unexpected samples: %v", samples)
	}
}

package main

import (
	"fmt"
	"regexp"
)

// metricDef is one metric the benchmark reports.  End-to-end metrics
// (layer false) are what a user of the system sees and are printed by
// untraced runs; layer metrics come from the traced run.  moves records,
// before anything is measured, which end-to-end metric a change in the
// layer metric should move and on which workload.
type metricDef struct {
	name, unit, better string
	layer              bool
	what, moves        string
}

const (
	coreCold     = "core-cold"
	serveHits    = "serve-hits"
	sessionChurn = "session-churn"
)

// The end-to-end metrics are the ones a run reports with --trace 0 and
// later changes are gated on.  Each run also prints, with sample counts,
// the wall-clock figures a user sees — lat_p50_ms, lat_p90_ms,
// lat_p99_ms, ops_per_s and, on serve-hits, max_rps — which "moves"
// refers to as well; see noteLatency for why they are not reported.
var catalog = []metricDef{
	{"setup_s", "s", "lower", false,
		"CPU seconds of all threads building the system under test up to the first timed op, median of several set-ups; inputs excluded", ""},
	{"cpu_ms_per_op", "ms", "lower", false,
		"CPU time of all the process's threads per op, read around each op (serve-hits: around the saturated phase, client included)", ""},
	{"peak_rss_mb", "MB", "lower", false,
		"peak resident set of the workload's process (getrusage maxrss; serve-hits reads it before the ladder)", ""},

	{"loadgen.lag_p99_ms", "ms", "lower", true,
		"p99 of how late the open-loop generator sent against the due time",
		"whether lat_p99_ms on serve-hits can be trusted"},
	{"lb.self_ms", "ms", "lower", true,
		"lb handler span minus its upstream RoundTrips: body read, route decode, fingerprint, ring lookup, response copy",
		"cpu_ms_per_op, lat_p50_ms and max_rps on serve-hits; does not run elsewhere"},
	{"lb.hop_ms", "ms", "lower", true,
		"RoundTripper span in lb.Config.Client minus the shard handler span",
		"lat_p50_ms on serve-hits"},
	{"lb.retries", "count", "lower", true,
		"RoundTrips beyond the first per request",
		"lat_p99_ms and failures on serve-hits"},
	{"lb.misroutes", "count", "lower", true,
		"responses whose X-Sched-Shard echo differs from Proxy.Owner's prediction",
		"failures on serve-hits"},
	{"serve.handler_ms", "ms", "lower", true,
		"shard ServeHTTP span",
		"cpu_ms_per_op, lat_p50_ms and max_rps on serve-hits"},
	{"serve.decode_ms", "ms", "lower", true,
		"replayed JSON decode of a request body into serve.SolveRequest",
		"cpu_ms_per_op and max_rps on serve-hits"},
	{"serve.hit_ms", "ms", "lower", true,
		"replayed serve.Server.Solve on a warmed shard (canon, lookup, remap and verify)",
		"cpu_ms_per_op and lat_p50_ms on serve-hits"},
	{"serve.encode_ms", "ms", "lower", true,
		"replayed JSON encode of the returned SolveResponse",
		"cpu_ms_per_op and max_rps on serve-hits"},
	{"serve.resp_kb", "KiB", "lower", true,
		"encoded SolveResponse size",
		"cpu_ms_per_op and max_rps on serve-hits"},
	{"serve.other_ms", "ms", "lower", true,
		"serve.handler_ms minus (decode + hit + encode): the part no layer accounts for",
		"shows whether the parts add up"},
	{"serve.hit_frac", "ratio", "higher", true,
		"responses with cached:true over solve responses",
		"cpu_ms_per_op and max_rps on serve-hits"},
	{"sched.canon_ms", "ms", "lower", true,
		"replayed CanonicalView.Bind + Fingerprint (runs at the lb and again at the shard)",
		"cpu_ms_per_op and max_rps on serve-hits"},
	{"sched.remap_ms", "ms", "lower", true,
		"replayed CanonicalView.FromCanonical",
		"cpu_ms_per_op and lat_p50_ms on serve-hits"},
	{"setupsched.prepare_ms", "ms", "lower", true,
		"NewSolver (serve-hits: replayed on the canonical instance; session-churn: the bit-identity reference)",
		"cpu_ms_per_op and ops_per_s on core-cold (~10% of an op); on serve-hits only misses pay it"},
	{"setupsched.verify_ms", "ms", "lower", true,
		"Verify on the op's result (session-churn: Session.Verify)",
		"cpu_ms_per_op and lat_p50_ms on serve-hits, where every hit runs it; off the clock on core-cold"},
	{"core.probes", "count", "lower", true,
		"dual-test probes per solve (mean, an exact count)",
		"cpu_ms_per_op and ops_per_s on core-cold and session-churn"},
	{"core.probe_ms", "ms", "lower", true,
		"summed ProbeStarted-to-ProbeFinished time per solve",
		"cpu_ms_per_op and ops_per_s on core-cold"},
	{"core.search_ms", "ms", "lower", true,
		"first probe start to last probe finish",
		"cpu_ms_per_op and ops_per_s on core-cold"},
	{"core.build_ms", "ms", "lower", true,
		"last probe finish to solve return",
		"cpu_ms_per_op and ops_per_s on core-cold and session-churn (its largest share)"},
	{"stream.apply_ms", "ms", "lower", true,
		"Session.Apply of one delta",
		"session-churn only; no end-to-end change expected unless it grows tenfold"},
	{"stream.solve_ms", "ms", "lower", true,
		"Session.Solve",
		"cpu_ms_per_op, ops_per_s and lat_p50_ms on session-churn"},
	{"stream.warm_frac", "ratio", "higher", true,
		"warm solves over executed solves",
		"cpu_ms_per_op and ops_per_s on session-churn"},
	{"stream.rebuilds", "count", "lower", true,
		"sum of Session.Stats().Rebuilds over the traced pass",
		"cpu_ms_per_op and ops_per_s on session-churn"},
	{"go.alloc_kb_per_op", "KiB", "lower", true,
		"heap bytes the process allocates per op (untraced pass, off-clock checks included)",
		"cpu_ms_per_op, lat_p99_ms and peak_rss_mb on every workload"},
	{"go.gc_cycles", "count", "lower", true,
		"GC cycles during the untraced pass",
		"cpu_ms_per_op, lat_p99_ms and peak_rss_mb on every workload"},
	{"trace.overhead_frac", "ratio", "lower", true,
		"traced lat_p50_ms over untraced lat_p50_ms, minus 1",
		"none: measures the tracing overhead"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkCatalog enforces the metric-name and unit grammar and uniqueness.
func checkCatalog(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q: want a letter or digit, then at most 63 letters, digits, '_', '.', '-'", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher", d.name)
		}
		if seen[d.name] {
			return fmt.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

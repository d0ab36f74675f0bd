// Package obs is the observability substrate of the setupsched stack: a
// zero-allocation metrics core (atomic counters, gauges and fixed-bucket
// latency histograms), a dependency-free Prometheus text-format
// exposition, solve-lifecycle span tracing built on the solver's
// Observer seam, and structured slow-solve diagnostics.
//
// # Metrics core
//
// Counter, Gauge and Histogram are standalone atomic types whose zero
// values are NOT ready for use only in the Histogram case (use
// NewHistogram); Counter and Gauge work as plain struct fields.  All
// recording operations (Add, Set, Observe) are lock-free and perform no
// heap allocations, so they are safe on the innermost probe loop of a
// solve.  A Registry names metrics and renders them; the same Counter
// can feed a Registry and any ad-hoc reader at once.
//
//	reg := obs.NewRegistry()
//	solves := reg.Counter("sched_solves_total", "Completed solves.")
//	lat := reg.Histogram("sched_solve_duration_seconds",
//	    "Solve wall-clock latency.", obs.DefaultLatencyBuckets()...)
//	...
//	solves.Add(1)
//	lat.Observe(elapsed.Seconds())
//	reg.WritePrometheus(w) // or http.Handle("/metrics", reg.Handler())
//
// # Span tracing
//
// A SpanRecorder implements the solver's probe-level Observer interface
// and assembles a hierarchical trace of one solve — the three phases of
// the Deppert–Jansen near-linear algorithms: prepare (the O(n) pass),
// search (the dual-approximation probe sequence, one child span per
// probe) and build (schedule construction after the final accepted
// guess).  See SpanRecorder for the JSON shape and NewSpanRecorder for
// wiring.
//
// # Distributed tracing
//
// TraceContext carries a W3C traceparent-compatible identity (128-bit
// trace id, 64-bit span id, sampled flag) across process hops via
// InjectTrace / TraceFromHeader; IDSource mints ids deterministically
// from a seed (tests) or the crypto-seeded process default (NewTrace,
// ChildOf).  SpanRecorder.Trace binds a local solve tree under a remote
// parent span, so the schedlb root, the shard's wire spans, and the
// prepare/search/build tree form one tree keyed by the shared trace id.
// FlightRecorder keeps a bounded ring of completed request traces (last
// N plus everything over a slow threshold) and serves them at
// GET /v1/debug/traces for after-the-fact latency attribution.
//
// # Diagnostics
//
// LogSlowSolve emits one structured log/slog line for a solve that
// exceeded a latency threshold, with the phase breakdown attributed from
// a recorded span tree; serve wires it behind Config.SlowSolveThreshold.
package obs

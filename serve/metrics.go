package serve

import (
	"time"

	"setupsched/obs"
)

// serverMetrics is the Server's observability core: every counter the
// server records lives in one per-Server obs.Registry, which backs the
// Prometheus exposition at GET /metrics.  Two servers in one process
// never collide because the registry is per-Server, not process-global.
//
// Metric catalog (all prefixed sched_):
//
//	sched_requests_total{kind}        solve | batch | session requests
//	sched_batch_items_total           NDJSON lines dispatched to the pool
//	sched_request_errors_total        responses carrying an error
//	sched_batch_rejected_total        429s from the saturated batch gate
//	sched_probes_total                dual-test evaluations run
//	sched_solve_timeouts_total        solves aborted by timeout/cancel
//	sched_solve_duration_seconds      latency histogram (success only)
//	sched_cache_*_total{cache}        result-cache hit/miss/eviction
//	sched_cache_size{cache}           current result-cache occupancy
//	sched_sessions_active             live incremental sessions
//	sched_sessions_created_total      session churn …
//	sched_sessions_deleted_total
//	sched_sessions_evicted_total{reason}  lru | ttl
//	sched_session_deltas_total        applied deltas
//	sched_session_solves_total        session solves answered
//	sched_session_cache_hits_total    … from the unchanged-revision cache
//	sched_session_warm_hits_total     … via a validated warm start
//	sched_sessions_exported_total     snapshots exported (drain/flush)
//	sched_sessions_imported_total     snapshots imported (migration/restore)
//	sched_shard_info{shard}           constant 1, shard identity label
//	sched_build_info{...}             constant 1, go version / gomaxprocs /
//	                                  shard labels (obs.RegisterBuildInfo)
//	sched_traces_recorded_total       request traces booked into the
//	                                  flight recorder
//	sched_traces_dropped_total        flight-recorder ring entries
//	                                  overwritten before being read
//	sched_draining                    1 while draining for migration
//	sched_uptime_seconds              process uptime of this Server
//	go_*                              runtime block (goroutines, heap, GC)
type serverMetrics struct {
	start time.Time
	reg   *obs.Registry

	solveRequests   *obs.Counter
	batchRequests   *obs.Counter
	sessionRequests *obs.Counter
	batchItems      *obs.Counter
	errors          *obs.Counter
	rejected        *obs.Counter

	probes   *obs.Counter
	timeouts *obs.Counter

	latency *obs.Histogram

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter

	sessionsCreated    *obs.Counter
	sessionsDeleted    *obs.Counter
	sessionsEvictedLRU *obs.Counter
	sessionsEvictedTTL *obs.Counter
	sessionDeltas      *obs.Counter
	sessionSolves      *obs.Counter
	sessionCacheHits   *obs.Counter
	sessionWarmHits    *obs.Counter
	sessionsExported   *obs.Counter
	sessionsImported   *obs.Counter

	tracesRecorded *obs.Counter
	tracesDropped  *obs.Counter
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		start: time.Now(),
		reg:   reg,

		solveRequests:   reg.Counter(`sched_requests_total{kind="solve"}`, "Requests by kind."),
		batchRequests:   reg.Counter(`sched_requests_total{kind="batch"}`, "Requests by kind."),
		sessionRequests: reg.Counter(`sched_requests_total{kind="session"}`, "Requests by kind."),
		batchItems:      reg.Counter("sched_batch_items_total", "NDJSON batch lines dispatched to the worker pool."),
		errors:          reg.Counter("sched_request_errors_total", "Responses that carried an error."),
		rejected:        reg.Counter("sched_batch_rejected_total", "Batch requests rejected with 429 (pool saturated)."),

		probes:   reg.Counter("sched_probes_total", "Dual-test probe evaluations run by the searches."),
		timeouts: reg.Counter("sched_solve_timeouts_total", "Solves aborted by timeout or client cancellation."),

		latency: reg.Histogram("sched_solve_duration_seconds",
			"Wall-clock latency of successful solves (stateless and session).",
			obs.DefaultLatencyBuckets()...),

		cacheHits:      reg.Counter(`sched_cache_hits_total{cache="results"}`, "Cache hits by cache."),
		cacheMisses:    reg.Counter(`sched_cache_misses_total{cache="results"}`, "Cache misses by cache."),
		cacheEvictions: reg.Counter(`sched_cache_evictions_total{cache="results"}`, "Cache evictions by cache."),

		sessionsCreated:    reg.Counter("sched_sessions_created_total", "Incremental sessions created."),
		sessionsDeleted:    reg.Counter("sched_sessions_deleted_total", "Incremental sessions deleted by clients."),
		sessionsEvictedLRU: reg.Counter(`sched_sessions_evicted_total{reason="lru"}`, "Sessions evicted, by reason."),
		sessionsEvictedTTL: reg.Counter(`sched_sessions_evicted_total{reason="ttl"}`, "Sessions evicted, by reason."),
		sessionDeltas:      reg.Counter("sched_session_deltas_total", "Deltas applied to sessions."),
		sessionSolves:      reg.Counter("sched_session_solves_total", "Session solves answered."),
		sessionCacheHits:   reg.Counter("sched_session_cache_hits_total", "Session solves answered from the unchanged-revision cache."),
		sessionWarmHits:    reg.Counter("sched_session_warm_hits_total", "Session solves that validated a warm-start seed."),
		sessionsExported:   reg.Counter("sched_sessions_exported_total", "Session snapshots exported by drain/shutdown flush."),
		sessionsImported:   reg.Counter("sched_sessions_imported_total", "Session snapshots imported (migration or restart restore)."),

		tracesRecorded: reg.Counter("sched_traces_recorded_total", "Request traces booked into the flight recorder."),
		tracesDropped:  reg.Counter("sched_traces_dropped_total", "Flight-recorder ring entries overwritten before being read."),
	}
	reg.GaugeFunc("sched_uptime_seconds", "Uptime of this Server.",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.EnableRuntimeMetrics()
	return m
}

// registerDerived adds the gauge-func series that read live state off
// the server's subsystems; called once the result cache and session
// store exist.
func (m *serverMetrics) registerDerived(s *Server) {
	if s.cache != nil {
		m.reg.GaugeFunc(`sched_cache_size{cache="results"}`, "Current LRU occupancy by cache.",
			func() float64 { return float64(s.cache.size()) })
	}
	if s.sessions != nil {
		m.reg.GaugeFunc("sched_sessions_active", "Live incremental solve sessions.",
			func() float64 { return float64(s.sessions.size()) })
	}
	if s.cfg.ShardID != "" {
		// Constant info series: the shard's identity as a label, so fleet
		// dashboards can join per-shard scrapes without relabeling.
		m.reg.GaugeFunc(`sched_shard_info{shard="`+s.cfg.ShardID+`"}`,
			"Shard identity of this process (constant 1).",
			func() float64 { return 1 })
	}
	obs.RegisterBuildInfo(m.reg, s.cfg.ShardID)
	m.reg.GaugeFunc("sched_draining", "1 while this shard is draining for migration, else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})
}

// observe records one successful solve's latency.
func (m *serverMetrics) observe(d time.Duration) { m.latency.ObserveDuration(d) }

// Registry exposes the server's metric registry, so embedders can mount
// additional series next to the built-in catalog or scrape it directly
// without going through HTTP.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

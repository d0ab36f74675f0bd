package serve

import (
	"runtime"
	"time"

	"setupsched/obs"
)

// This file defines the /v1/stats JSON view.  Since the obs rework the
// server keeps no separate stats bookkeeping: every number below is a
// snapshot over the serverMetrics registry (metrics.go), so /v1/stats
// and GET /metrics can never disagree.  The JSON shape predates the
// registry and is kept backward-compatible (see the golden schema test).

// StatsResponse is the JSON body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ShardID is this process's identity in a distributed deployment
	// (Config.ShardID); omitted in single-box mode.
	ShardID string `json:"shard_id,omitempty"`
	// Draining reports the shard is migrating its sessions away and
	// refusing new ones (see the drain endpoint).
	Draining  bool         `json:"draining"`
	Requests  RequestStats `json:"requests"`
	Search    SearchStats  `json:"search"`
	Cache     CacheStats   `json:"cache"`
	Solvers   CacheStats   `json:"solvers"`
	Sessions  SessionStats `json:"sessions"`
	LatencyMS LatencyStats `json:"latency_ms"`
	Runtime   RuntimeStats `json:"runtime"`
}

// RuntimeStats reports the server process's goroutine posture, for sizing
// the worker pools against the actual hardware.
type RuntimeStats struct {
	// Goroutines is the live goroutine count at stats time (includes all
	// in-flight solves).
	Goroutines int `json:"goroutines"`
	// MaxProcs is runtime.GOMAXPROCS(0), the scheduler's CPU budget.
	MaxProcs int `json:"gomaxprocs"`
}

// RequestStats counts requests by kind.
type RequestStats struct {
	Solve      uint64 `json:"solve"`
	Batch      uint64 `json:"batch"`
	BatchItems uint64 `json:"batch_items"`
	// Session counts requests to any /v1/sessions endpoint.
	Session uint64 `json:"session"`
	Errors  uint64 `json:"errors"`
	// Rejected counts requests turned away with 429 because the batch
	// worker pool was saturated.
	Rejected uint64 `json:"rejected"`
}

// SessionStats reports the incremental solve session subsystem: store
// occupancy, eviction pressure, and how the session engine answered its
// solves (cache return for an unchanged instance, warm-started search,
// or cold).
type SessionStats struct {
	Enabled    bool    `json:"enabled"`
	Active     int     `json:"active"`
	Capacity   int     `json:"capacity"`
	TTLSeconds float64 `json:"ttl_seconds"`
	Created    uint64  `json:"created"`
	Deleted    uint64  `json:"deleted"`
	EvictedLRU uint64  `json:"evicted_lru"`
	EvictedTTL uint64  `json:"evicted_ttl"`
	Deltas     uint64  `json:"deltas"`
	Solves     uint64  `json:"solves"`
	CacheHits  uint64  `json:"cache_hits"`
	WarmHits   uint64  `json:"warm_hits"`
	// Exported/Imported count session snapshots moved by the migration
	// machinery (drain endpoint, shutdown flush, restart restore).
	Exported uint64 `json:"exported"`
	Imported uint64 `json:"imported"`
}

// SearchStats reports probe-level search activity: every dual-test
// evaluation run by the searches (cache hits run none) and the number of
// solves aborted by timeout or client cancellation.
type SearchStats struct {
	Probes   uint64 `json:"probes"`
	Timeouts uint64 `json:"timeouts"`
}

// CacheStats reports result-cache occupancy and effectiveness.
type CacheStats struct {
	Enabled   bool    `json:"enabled"`
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// LatencyStats summarizes solve latencies.  Quantiles are extracted from
// the sched_solve_duration_seconds histogram (fixed buckets, linear
// interpolation), converted to milliseconds.
type LatencyStats struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// buildStats assembles the /v1/stats response from the metrics registry
// and the subsystems' live occupancy.
func (s *Server) buildStats() *StatsResponse {
	m := s.metrics
	resp := &StatsResponse{
		UptimeSeconds: time.Since(m.start).Seconds(),
		ShardID:       s.cfg.ShardID,
		Draining:      s.Draining(),
		Requests: RequestStats{
			Solve:      m.solveRequests.Load(),
			Batch:      m.batchRequests.Load(),
			BatchItems: m.batchItems.Load(),
			Session:    m.sessionRequests.Load(),
			Errors:     m.errors.Load(),
			Rejected:   m.rejected.Load(),
		},
		Search: SearchStats{
			Probes:   m.probes.Load(),
			Timeouts: m.timeouts.Load(),
		},
		Runtime: RuntimeStats{
			Goroutines: runtime.NumGoroutine(),
			MaxProcs:   runtime.GOMAXPROCS(0),
		},
	}
	if s.cache != nil {
		size, capacity := s.cache.size()
		resp.Cache = cacheStats(size, capacity, m.cacheHits, m.cacheMisses, m.cacheEvictions)
	}
	if s.solvers != nil {
		size, capacity := s.solvers.size()
		resp.Solvers = cacheStats(size, capacity, m.solverHits, m.solverMisses, m.solverEvictions)
	}
	if s.sessions != nil {
		active, capacity, ttl := s.sessions.size()
		resp.Sessions = SessionStats{
			Enabled: true, Active: active, Capacity: capacity,
			TTLSeconds: ttl.Seconds(),
			Created:    m.sessionsCreated.Load(),
			Deleted:    m.sessionsDeleted.Load(),
			EvictedLRU: m.sessionsEvictedLRU.Load(),
			EvictedTTL: m.sessionsEvictedTTL.Load(),
			Deltas:     m.sessionDeltas.Load(),
			Solves:     m.sessionSolves.Load(),
			CacheHits:  m.sessionCacheHits.Load(),
			WarmHits:   m.sessionWarmHits.Load(),
			Exported:   m.sessionsExported.Load(),
			Imported:   m.sessionsImported.Load(),
		}
	}
	p50 := m.latency.Quantile(0.50)
	p99 := m.latency.Quantile(0.99)
	resp.LatencyMS = LatencyStats{
		Count: int(m.latency.Count()),
		P50:   p50 * 1e3,
		P99:   p99 * 1e3,
		Max:   m.latency.Max() * 1e3,
	}
	return resp
}

func cacheStats(size, capacity int, hits, misses, evictions *obs.Counter) CacheStats {
	h, mi := hits.Load(), misses.Load()
	cs := CacheStats{
		Enabled: true, Size: size, Capacity: capacity,
		Hits: h, Misses: mi, Evictions: evictions.Load(),
	}
	if h+mi > 0 {
		cs.HitRate = float64(h) / float64(h+mi)
	}
	return cs
}

// Package serve exposes the setupsched solvers as a long-running HTTP/JSON
// service with a permutation-invariant result cache.
//
// Endpoints:
//
//	POST   /v1/solve               solve one instance (JSON in, JSON out)
//	POST   /v1/solve/batch         solve an NDJSON stream of instances on a
//	                               bounded worker pool; results stream back
//	                               in arrival order (429 + Retry-After when
//	                               the pool is saturated)
//	POST   /v1/sessions            open an incremental solve session
//	GET    /v1/sessions/{id}       session shape and revision
//	POST   /v1/sessions/{id}/delta apply instance deltas (job churn, setup
//	                               drift, machine scaling)
//	POST   /v1/sessions/{id}/solve solve the session's current instance,
//	                               reusing preparation and warm-start state
//	DELETE /v1/sessions/{id}       close a session
//	GET    /healthz                liveness probe (503 while draining)
//	GET    /metrics                Prometheus text exposition of every
//	                               counter, gauge and latency histogram
//	POST   /v1/admin/drain         flip into draining mode and stream a
//	                               session snapshot export (migration)
//	POST   /v1/admin/sessions/import  bulk re-create sessions from a
//	                               snapshot stream
//
// A Server can run standalone (the single-box configuration) or as one
// shard of a distributed deployment behind the schedlb front tier: set
// Config.ShardID so responses carry the X-Sched-Shard routing proof.
// Consistent-hash routing, topology and migration live in package
// setupsched/shard and the schedlb/schedload commands; the admin
// endpoints above are this server's side of the migration protocol (see
// admin.go).
//
// Sessions wrap stream.Session: the instance lives server-side, deltas
// patch the solver preparation instead of rebuilding it, and re-solves
// warm-start from the previous certified bracket while staying
// bit-identical to a cold solve of the current instance.  Sessions are
// evicted after SessionTTL idle time or, past SessionCapacity, least
// recently used first.  A session's solves are serialized by the session
// itself; different sessions solve concurrently.
//
// Repeated traffic is served from an LRU cache keyed by
// (instance fingerprint, variant, algorithm, epsilon).  The fingerprint is
// computed on the instance's canonical form (sched.CanonicalView), so any
// permutation of classes or of jobs within a class hits the same entry;
// cached schedules are stored in canonical index space and translated back
// into each request's indexing on the way out.  Every response — cached or
// freshly solved — is re-checked with setupsched.Verify before it is
// returned, so a cache can never weaken the approximation guarantee.
//
// A result-cache miss prepares a fresh setupsched.Solver for the
// canonical instance: the preparation pass is near-linear and too small
// to measure beside the search, so it is not cached.  Solves run under
// the request's context tightened by the server's SolveTimeout and the
// request's timeout_ms: client disconnects and deadline hits abort the
// search mid-probe (HTTP 408) and are counted in /metrics along with
// every dual-test probe the searches run.
package serve

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"setupsched"
	"setupsched/obs"
	"setupsched/sched"
)

// Config configures a Server.  The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// Workers bounds the per-request worker pool of /v1/solve/batch.
	// Default: runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize is the LRU result-cache capacity in entries.
	// Default 4096; negative disables caching.
	CacheSize int
	// SolveTimeout bounds each solve (per batch item on the NDJSON
	// path).  Zero means no server-side limit; requests may still set a
	// tighter timeout_ms of their own.
	SolveTimeout time.Duration
	// MaxConcurrentBatches bounds how many /v1/solve/batch requests may
	// run at once; a saturated pool answers 429 with Retry-After instead
	// of queueing unboundedly (each batch request runs its own pool of
	// Workers goroutines, so the total batch-solve goroutine bound is
	// Workers * MaxConcurrentBatches).  Default 2*Workers; negative means
	// unlimited (the pre-429 behavior).
	MaxConcurrentBatches int
	// SessionCapacity is how many live incremental solve sessions the
	// server retains; inserting past it evicts the least recently used.
	// Default 256; negative disables the session endpoints.
	SessionCapacity int
	// SessionTTL evicts sessions idle longer than this (refreshed on
	// every touch).  Default 15 minutes; negative means no TTL.
	SessionTTL time.Duration
	// MaxBodyBytes caps a /v1/solve request body.  Default 32 MiB.
	MaxBodyBytes int64
	// MaxLineBytes caps one NDJSON line of /v1/solve/batch.  Default 8 MiB.
	MaxLineBytes int
	// ShardID names this process in a distributed deployment.  When set,
	// every response carries it in the X-Sched-Shard header (the routing
	// proof the schedlb front tier and the load-test harness check),
	// /healthz reports it, and the metrics registry gains a
	// sched_shard_info{shard="..."} series.  Empty means single-box mode
	// with none of the above.
	ShardID string
	// SlowSolveThreshold, when positive, makes every solve record a span
	// tree and emits one structured log line (obs.LogSlowSolve: phase
	// breakdown, trace id, fingerprint, probe count) for solves slower
	// than this.  It doubles as the flight recorder's slow-ring
	// threshold.  Zero disables slow-solve logging.
	SlowSolveThreshold time.Duration
	// Logger receives the slow-solve lines; nil means slog.Default().
	Logger *slog.Logger
	// FlightRecorderSize caps the always-on flight recorder's ring of
	// recently completed request traces, served at GET /v1/debug/traces.
	// Zero means obs.DefaultFlightCapacity; negative disables the
	// recorder and the endpoint.
	FlightRecorderSize int
	// TraceIDs overrides the span-id source for this server's wire spans
	// (seed it for deterministic tests).  Nil uses the process-global
	// crypto-seeded source.
	TraceIDs *obs.IDSource
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 8 << 20
	}
	if c.MaxConcurrentBatches == 0 {
		c.MaxConcurrentBatches = 2 * c.Workers
	}
	if c.SessionCapacity == 0 {
		c.SessionCapacity = 256
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	return c
}

// Server is the HTTP solve service.  Create one with New; it is safe for
// concurrent use by any number of requests.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *resultCache  // nil when result caching is disabled
	sessions *sessionStore // nil when sessions are disabled
	// batchGate bounds concurrent batch requests; nil means unlimited.
	batchGate chan struct{}
	metrics   *serverMetrics
	// probeObs is the one shared probe-counting observer attached to
	// every solve.  Boxing it into the Observer interface once here —
	// instead of per request — keeps the hot path allocation-neutral
	// (see the alloc regression test in the root package).
	probeObs setupsched.Observer
	logger   *slog.Logger
	// flight retains completed request traces for GET /v1/debug/traces;
	// nil when Config.FlightRecorderSize is negative.
	flight *obs.FlightRecorder
	// views recycles canonical views across requests: a view's sort
	// permutations, arenas and encoding buffer are reused, so
	// fingerprinting a steady-state request stream allocates nothing
	// proportional to the instance.  Views are borrowed for the duration
	// of one solve only.
	views sync.Pool
	// draining flips one-way when the shard is told to leave the
	// topology: health turns 503 and session creates are refused (see
	// admin.go for the migration protocol).
	draining atomic.Bool
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		mux:     http.NewServeMux(),
		metrics: newServerMetrics(),
	}
	s.probeObs = &obs.ProbeCounter{C: s.metrics.probes}
	s.views.New = func() any { return new(sched.CanonicalView) }
	s.logger = s.cfg.Logger
	if s.logger == nil {
		s.logger = slog.Default()
	}
	m := s.metrics
	s.cache = newResultCache(s.cfg.CacheSize, m.cacheHits, m.cacheMisses, m.cacheEvictions)
	s.sessions = newSessionStore(s.cfg.SessionCapacity, s.cfg.SessionTTL,
		m.sessionsCreated, m.sessionsDeleted, m.sessionsEvictedLRU, m.sessionsEvictedTTL)
	m.registerDerived(s)
	if s.cfg.MaxConcurrentBatches > 0 {
		s.batchGate = make(chan struct{}, s.cfg.MaxConcurrentBatches)
	}
	if s.cfg.FlightRecorderSize >= 0 {
		s.flight = obs.NewFlightRecorder(s.cfg.FlightRecorderSize, 0, s.cfg.SlowSolveThreshold)
		s.flight.SetCounters(m.tracesRecorded, m.tracesDropped)
		s.mux.Handle("GET /v1/debug/traces", s.flight.Handler())
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleBatch)
	if s.sessions != nil {
		s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
		s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
		s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
		s.mux.HandleFunc("POST /v1/sessions/{id}/delta", s.handleSessionDelta)
		s.mux.HandleFunc("POST /v1/sessions/{id}/solve", s.handleSessionSolve)
		s.mux.HandleFunc("POST /v1/admin/sessions/import", s.handleImport)
	}
	s.mux.HandleFunc("POST /v1/admin/drain", s.handleDrain)
	return s
}

// Config returns the configuration the server runs with: the one New
// was given, with zero Workers, CacheSize, MaxConcurrentBatches,
// SessionCapacity, SessionTTL, MaxBodyBytes and MaxLineBytes resolved to
// their defaults.
func (s *Server) Config() Config { return s.cfg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ShardID != "" {
		// The shard identity rides every response so the front tier and
		// the load-test harness can prove routing correctness end to end.
		w.Header().Set(ShardHeader, s.cfg.ShardID)
	}
	s.mux.ServeHTTP(w, r)
}

// ShardHeader is the response header carrying the answering shard's id
// (Config.ShardID) in distributed deployments.
const ShardHeader = "X-Sched-Shard"

// SolveRequest is the JSON body of POST /v1/solve and of each NDJSON line
// of POST /v1/solve/batch.
type SolveRequest struct {
	// ID is an opaque client tag echoed back in the response; batch
	// clients use it to correlate streamed results.
	ID string `json:"id,omitempty"`
	// Instance is the scheduling instance, in the same format as the
	// schedsolve CLI: {"m": 3, "classes": [{"setup": 4, "jobs": [7, 2]}]}.
	Instance *sched.Instance `json:"instance"`
	// Variant is "split", "pmtn" or "nonp" (default "nonp").
	Variant string `json:"variant,omitempty"`
	// Algorithm is "auto", "2approx", "eps", "exact32" (or "exact") or
	// "refexact" (default "auto"); see setupsched.ParseAlgorithm.
	Algorithm string `json:"algorithm,omitempty"`
	// Epsilon is the accuracy for Algorithm "eps" (default 1e-4).
	Epsilon float64 `json:"epsilon,omitempty"`
	// TimeoutMS bounds this solve in milliseconds; it can only tighten
	// the server's configured SolveTimeout, never extend it.  Zero means
	// no per-request limit.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludeSchedule adds the full schedule to the response.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
	// IncludeTrace adds the search's probe trace to the response.
	IncludeTrace bool `json:"include_trace,omitempty"`
	// IncludeSpans adds the solve's span tree to the response: phase-
	// attributed timings (prepare/search/build) with one probe span per
	// dual test.  A cache hit prepares and searches nothing, so its tree
	// is the root span alone.
	IncludeSpans bool `json:"include_spans,omitempty"`
	// NoCache bypasses the result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// TraceParent propagates a W3C trace context into this solve.  The
	// HTTP handlers fill it from the traceparent request header; on the
	// NDJSON batch route schedlb injects it per line (headers are
	// per-request, lines fan out to different owners).  A valid sampled
	// value makes the solve record a full wire-span tree (handler/queue
	// plus prepare/search/build), stamp trace_id into the response, and
	// land in the flight recorder; anything else leaves the request
	// untraced.
	TraceParent string `json:"traceparent,omitempty"`

	// arrival is when the request hit the process (HTTP arrival, or the
	// batch line's enqueue time) — the start of the traced queue span.
	// Zero means "now" (no measurable queue wait).
	arrival time.Time
	// route labels the flight-recorder entry; empty means "solve".
	route string
}

// SolveResponse is the JSON result of one solve.  Exact rationals are
// reported as "p" or "p/q" strings alongside float approximations.
type SolveResponse struct {
	ID              string  `json:"id,omitempty"`
	Variant         string  `json:"variant,omitempty"`
	Algorithm       string  `json:"algorithm,omitempty"`
	Makespan        string  `json:"makespan,omitempty"`
	MakespanFloat   float64 `json:"makespan_float,omitempty"`
	LowerBound      string  `json:"lower_bound,omitempty"`
	LowerBoundFloat float64 `json:"lower_bound_float,omitempty"`
	Ratio           float64 `json:"ratio,omitempty"`
	Probes          int     `json:"probes,omitempty"`
	Machines        int64   `json:"machines,omitempty"`
	Setups          int64   `json:"setups,omitempty"`
	Fingerprint     string  `json:"fingerprint,omitempty"`
	Cached          bool    `json:"cached"`
	// Warm reports a session solve that reused the previous certified
	// bracket (bit-identical to a cold solve, just fewer probes); always
	// false outside the session endpoints.
	Warm bool `json:"warm,omitempty"`
	// SessionRev is the session revision the result is valid for; only
	// set by the session endpoints.
	SessionRev uint64 `json:"session_rev,omitempty"`
	// TraceID is the distributed trace id of a traced request — the join
	// key into /v1/debug/traces on every tier it crossed.
	TraceID   string        `json:"trace_id,omitempty"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Schedule  *ScheduleJSON `json:"schedule,omitempty"`
	Trace     []ProbeJSON   `json:"trace,omitempty"`
	// Spans is the solve's span tree (request include_spans): phase-
	// attributed timings in microseconds since the solve began.
	Spans *obs.Span `json:"spans,omitempty"`
	Error string    `json:"error,omitempty"`

	// status is the HTTP status /v1/solve responds with; zero means OK.
	// Batch items carry errors in-band, so the field stays internal.
	status int
	// spanRoot retains the recorded tree even when the client did not ask
	// for spans, so the slow-solve log can attribute phases.
	spanRoot *obs.Span
	// schedule and probes are what Schedule and Trace are built from:
	// the routes append them to the response body directly (see
	// appendResponse), and only Server.Solve fills the exported forms.
	schedule *sched.Schedule
	probes   []setupsched.Probe
}

// ProbeJSON is one dual-test evaluation of the search (wire form of
// setupsched.Probe): the makespan guess T and the accept/reject decision.
type ProbeJSON struct {
	T        string `json:"t"`
	Accepted bool   `json:"accepted"`
}

func traceJSON(trace []setupsched.Probe) []ProbeJSON {
	if len(trace) == 0 {
		return nil
	}
	out := make([]ProbeJSON, len(trace))
	for i, p := range trace {
		out[i] = ProbeJSON{T: p.T.String(), Accepted: p.Accepted}
	}
	return out
}

// errResponse builds an error response carrying its HTTP status.
func errResponse(status int, msg string) *SolveResponse {
	return &SolveResponse{Error: msg, status: status}
}

// ScheduleJSON is the wire form of a sched.Schedule.
type ScheduleJSON struct {
	Variant  string    `json:"variant"`
	Makespan string    `json:"makespan"`
	Runs     []RunJSON `json:"runs"`
}

// RunJSON is one machine run: Count identical machines with these slots.
type RunJSON struct {
	Count int64      `json:"count"`
	Slots []SlotJSON `json:"slots"`
}

// SlotJSON is one machine occupation; times are exact rational strings.
type SlotJSON struct {
	Kind  string `json:"kind"` // "setup" or "job"
	Class int    `json:"class"`
	Job   int    `json:"job"` // -1 for setups
	Start string `json:"start"`
	End   string `json:"end"`
}

// scheduleJSON builds the wire form of sc, whose makespan the caller
// passes: a response's makespan, which Verify has compared with the
// same slots.
func scheduleJSON(sc *sched.Schedule, makespan string) *ScheduleJSON {
	out := &ScheduleJSON{
		Variant:  sc.Variant.Short(),
		Makespan: makespan,
		Runs:     make([]RunJSON, len(sc.Runs)),
	}
	for i := range sc.Runs {
		run := RunJSON{Count: sc.Runs[i].Count, Slots: make([]SlotJSON, len(sc.Runs[i].Slots))}
		for j, sl := range sc.Runs[i].Slots {
			kind := "job"
			if sl.Kind == sched.SlotSetup {
				kind = "setup"
			}
			run.Slots[j] = SlotJSON{
				Kind: kind, Class: sl.Class, Job: sl.Job,
				Start: sl.Start.String(), End: sl.End.String(),
			}
		}
		out.Runs[i] = run
	}
	return out
}

// parseVariant and parseAlgo read a request's names with the library
// parsers; an omitted name takes the request default, nonp or auto.
func parseVariant(s string) (sched.Variant, error) {
	return setupsched.ParseVariant(cmp.Or(s, "nonp"))
}

func parseAlgo(s string) (setupsched.Algorithm, error) {
	return setupsched.ParseAlgorithm(cmp.Or(s, "auto"))
}

func cacheKey(fp string, v sched.Variant, a setupsched.Algorithm, eps float64) string {
	if a == setupsched.Auto {
		a = setupsched.Exact32
	}
	if a != setupsched.EpsilonSearch {
		eps = 0
	} else if eps <= 0 {
		eps = setupsched.DefaultEpsilon
	}
	return fp + "|" + v.Short() + "|" + strconv.Itoa(int(a)) + "|" +
		strconv.FormatFloat(eps, 'g', -1, 64)
}

// solveContext derives the context one solve runs under: the request
// context (client disconnect), tightened by the server's SolveTimeout
// and the request's own timeout_ms, whichever is smaller.
func (s *Server) solveContext(ctx context.Context, req *SolveRequest) (context.Context, context.CancelFunc) {
	d := s.cfg.SolveTimeout
	if req.TimeoutMS > 0 {
		rd := time.Duration(req.TimeoutMS) * time.Millisecond
		// An absurd timeout_ms overflows to <= 0; a request may only
		// tighten the server-wide limit, never lift it.
		if rd > 0 && (d <= 0 || rd < d) {
			d = rd
		}
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// Solve handles one request against the caches and the solvers, as
// /v1/solve and /v1/solve/batch do, and is exported for direct embedding
// and benchmarks.  The context cancels the solve (client disconnect,
// per-request or server-wide timeout).  The returned response never
// aliases cache memory.  Errors are reported inside the response (Error
// field) so batch streams can carry per-item failures.
func (s *Server) Solve(ctx context.Context, req *SolveRequest) *SolveResponse {
	resp := s.handle(ctx, req, nil)
	resp.export()
	return resp
}

// export builds the exported Schedule and Trace from the schedule and
// probes the response keeps.
func (resp *SolveResponse) export() {
	if resp.schedule != nil {
		resp.Schedule = scheduleJSON(resp.schedule, resp.Makespan)
	}
	resp.Trace = traceJSON(resp.probes)
	resp.schedule, resp.probes = nil, nil
}

// handle is the envelope of every solve route: the wire span and span
// recorder, the elapsed time, the flight record, and the error, latency
// and slow-solve bookkeeping around one solve.  It solves against the
// session e, or statelessly when e is nil, and builds no exported
// Schedule or Trace: the routes append the response body from the
// schedule and probes the response keeps.
func (s *Server) handle(ctx context.Context, req *SolveRequest, e *sessionEntry) *SolveResponse {
	started := time.Now()
	wt, traced := s.startWire(req)
	rec := s.spanRecorder(req, traced)
	if traced {
		rec.Trace(s.childOf(wt.handler), wt.handler.SpanID)
	}
	var resp *SolveResponse
	if e != nil {
		resp = s.sessionSolve(ctx, e, req, rec)
	} else {
		resp = s.solve(ctx, req, rec)
	}
	elapsed := time.Since(started)
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	resp.ID = req.ID
	if rec != nil {
		resp.spanRoot = rec.Root()
		if req.IncludeSpans {
			resp.Spans = resp.spanRoot
		}
	}
	if traced {
		s.finishWire(wt, req, cmp.Or(req.route, "solve"), started, elapsed, resp)
	}
	if resp.Error != "" {
		s.metrics.errors.Inc()
	} else {
		s.metrics.observe(elapsed)
		s.maybeLogSlow(elapsed, resp, e)
	}
	return resp
}

// spanRecorder returns a fresh recorder when this request needs one:
// the request is traced, the client asked for spans, or slow-solve
// logging needs the phase breakdown of every solve.  Nil otherwise —
// the hot path then carries only the shared allocation-free probe
// counter.
func (s *Server) spanRecorder(req *SolveRequest, traced bool) *obs.SpanRecorder {
	if traced || req.IncludeSpans || s.cfg.SlowSolveThreshold > 0 {
		return obs.NewSpanRecorder()
	}
	return nil
}

// maybeLogSlow emits the structured slow-solve line when the configured
// threshold is exceeded.  Session solves carry no fingerprint in the
// response; their line is labelled with the session id.
func (s *Server) maybeLogSlow(elapsed time.Duration, resp *SolveResponse, e *sessionEntry) {
	if s.cfg.SlowSolveThreshold <= 0 || elapsed < s.cfg.SlowSolveThreshold {
		return
	}
	fp := resp.Fingerprint
	if e != nil {
		fp = e.id
	}
	// On traced requests finishWire has wrapped the solve tree in the
	// "handler" wire span; the phase breakdown lives one level down.
	root := resp.spanRoot
	if root != nil && root.Name == "handler" {
		root = root.Child("solve")
	}
	obs.LogSlowSolve(s.logger, elapsed, resp.TraceID, fp, resp.Variant, resp.Algorithm, resp.Probes, root)
}

// parseSolve reads a request's variant, algorithm and epsilon, the same
// way on every solve route.  An explicit epsilon outside (0, 1) is an
// error only for the eps-search, the one algorithm that reads it.  The
// stateless route checks it before the cache lookup, so a bad request is
// rejected identically on hot and cold caches (cacheKey normalizes
// epsilon and would otherwise serve a cached 200).
func parseSolve(req *SolveRequest) (sched.Variant, setupsched.Algorithm, *SolveResponse) {
	v, err := parseVariant(req.Variant)
	if err != nil {
		return 0, 0, errResponse(http.StatusBadRequest, err.Error())
	}
	algo, err := parseAlgo(req.Algorithm)
	if err != nil {
		return 0, 0, errResponse(http.StatusBadRequest, err.Error())
	}
	if algo == setupsched.EpsilonSearch && req.Epsilon != 0 &&
		(req.Epsilon <= 0 || req.Epsilon >= 1) {
		return 0, 0, errResponse(http.StatusBadRequest,
			(&setupsched.EpsilonRangeError{Epsilon: req.Epsilon}).Error())
	}
	return v, algo, nil
}

func (s *Server) solve(ctx context.Context, req *SolveRequest, rec *obs.SpanRecorder) *SolveResponse {
	v, algo, bad := parseSolve(req)
	if bad != nil {
		return bad
	}
	if req.Instance == nil {
		return errResponse(http.StatusBadRequest, "missing instance")
	}
	if err := req.Instance.Validate(); err != nil {
		return errResponse(http.StatusBadRequest, err.Error())
	}

	// Fingerprint through a pooled canonical view: the hot path (and in
	// particular every cache hit) never materializes the canonical deep
	// copy that Canonicalize builds — the view answers the fingerprint,
	// the collision check and the schedule remap out of reusable buffers.
	view := s.views.Get().(*sched.CanonicalView)
	defer func() { view.Unbind(); s.views.Put(view) }()
	view.Bind(req.Instance)
	fp := view.Fingerprint()
	key := cacheKey(fp, v, algo, req.Epsilon)
	useCache := s.cache != nil && !req.NoCache

	if useCache {
		if e := s.cache.get(key, view.MatchesCanonical); e != nil {
			res := *e.result
			res.Schedule = view.FromCanonical(e.result.Schedule)
			if err := setupsched.Verify(req.Instance, v, &res); err == nil {
				return s.respond(req, v, fp, &res, true)
			}
			// A cached result that no longer verifies is poison: drop it
			// and fall through to a cold solve.
			s.cache.remove(key)
		}
	}

	// A miss pays for the canonical deep copy after all: the solver takes
	// an instance, and the result cache keeps it beyond this request's
	// lifetime, which the borrowed view cannot provide.
	canonIn := view.CanonicalInstance()

	// Solve the canonical form, so the result can be cached for every
	// permutation; the schedule is translated back into the request's
	// indexing below.
	var stopPrepare func()
	if rec != nil {
		stopPrepare = rec.StartPhase("prepare")
	}
	solver, err := setupsched.NewSolver(canonIn)
	if stopPrepare != nil {
		stopPrepare()
	}
	if err != nil {
		return errResponse(http.StatusInternalServerError, "internal error: preparing solver: "+err.Error())
	}
	opts := []setupsched.Option{
		setupsched.WithAlgorithm(algo),
		setupsched.WithObserver(s.probeObs),
	}
	if rec != nil {
		opts = append(opts, setupsched.WithObserver(rec))
	}
	// Epsilon only configures the eps-search; other algorithms ignored it
	// before the Solver API and must keep doing so.
	if algo == setupsched.EpsilonSearch && req.Epsilon != 0 {
		opts = append(opts, setupsched.WithEpsilon(req.Epsilon))
	}
	sctx, cancel := s.solveContext(ctx, req)
	defer cancel()
	canonRes, err := solver.Solve(sctx, v, opts...)
	if err != nil {
		return s.solveError(err)
	}
	res := *canonRes
	res.Schedule = view.FromCanonical(canonRes.Schedule)
	if err := setupsched.Verify(req.Instance, v, &res); err != nil {
		return errResponse(http.StatusInternalServerError,
			"internal error: solver produced an invalid schedule: "+err.Error())
	}
	if useCache {
		// Strip the probe trace before caching: it describes the search
		// that just ran (a cache hit runs none), and retaining dozens of
		// rationals per entry would bloat the LRU for data almost no
		// response serves.
		cached := *canonRes
		cached.Trace = nil
		s.cache.put(&cacheEntry{key: key, canon: canonIn, result: &cached})
	}
	return s.respond(req, v, fp, &res, false)
}

// solveError maps a Solver error to a response with the right HTTP
// status: 400 for anything wrong with the request, 408 for a timeout or
// client cancellation, 422 for an exhausted exact node budget, 500 for
// internal faults.
func (s *Server) solveError(err error) *SolveResponse {
	var vErr *setupsched.ValidationError
	var eErr *setupsched.EpsilonRangeError
	switch {
	case errors.Is(err, setupsched.ErrCanceled):
		s.metrics.timeouts.Inc()
		return errResponse(http.StatusRequestTimeout, err.Error())
	case errors.As(err, &eErr), errors.As(err, &vErr), errors.Is(err, setupsched.ErrNilInstance),
		errors.Is(err, setupsched.ErrExactUnsupported), errors.Is(err, setupsched.ErrExactTooLarge):
		return errResponse(http.StatusBadRequest, err.Error())
	case errors.Is(err, setupsched.ErrExactBudget):
		// A valid request the reference backend could not finish within its
		// node budget: the client's instance is too adversarial, not the
		// server's fault.
		return errResponse(http.StatusUnprocessableEntity, err.Error())
	default:
		return errResponse(http.StatusInternalServerError, "internal error: "+err.Error())
	}
}

func (s *Server) respond(req *SolveRequest, v sched.Variant, fp string, res *setupsched.Result, cached bool) *SolveResponse {
	resp := &SolveResponse{
		Variant:         v.Short(),
		Algorithm:       res.Algorithm,
		Makespan:        res.Makespan.String(),
		MakespanFloat:   res.Makespan.Float64(),
		LowerBound:      res.LowerBound.String(),
		LowerBoundFloat: res.LowerBound.Float64(),
		Ratio:           res.Ratio,
		Probes:          res.Probes,
		Machines:        res.Schedule.MachineCount(),
		Setups:          res.Schedule.SetupCount(),
		Fingerprint:     fp,
		Cached:          cached,
	}
	if req.IncludeSchedule {
		resp.schedule = res.Schedule
	}
	if req.IncludeTrace {
		resp.probes = res.Trace
	}
	return resp
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
	}
	if s.cfg.ShardID != "" {
		body["shard_id"] = s.cfg.ShardID
	}
	status := http.StatusOK
	if s.Draining() {
		// 503 takes the shard out of front-tier health aggregation while
		// it migrates its sessions away; see admin.go.
		body["status"] = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	s.metrics.solveRequests.Inc()
	s.serveSolve(w, r, arrival, nil)
}

// serveSolve answers one solve request body: statelessly, or against the
// session e when it is non-nil.
func (s *Server) serveSolve(w http.ResponseWriter, r *http.Request, arrival time.Time, e *sessionEntry) {
	var req SolveRequest
	if err := s.readRequest(w, r, &req); err != nil {
		s.metrics.errors.Inc()
		writeResponse(w, http.StatusBadRequest, &SolveResponse{Error: "decoding request: " + err.Error()})
		return
	}
	if req.TraceParent == "" {
		req.TraceParent = r.Header.Get(obs.TraceParentHeader)
	}
	req.arrival = arrival
	if e != nil {
		req.route = "session"
	}
	resp := s.handle(r.Context(), &req, e)
	writeResponse(w, cmp.Or(resp.status, http.StatusOK), resp)
}

// batchItem carries one NDJSON line through the worker pool together with
// the channel its response must be delivered on.  The line buffer is
// borrowed from lineBufPool; the worker that decodes it returns it.
type batchItem struct {
	line *[]byte
	out  chan *SolveResponse
	// enq is when the line was read off the stream; the gap until a
	// worker picks the item up is the traced queue span.
	enq time.Time
}

// lineBufPool recycles the per-line copy a batch reader must take before
// the scanner overwrites its window: steady-state batch decoding reuses
// a small set of buffers instead of allocating one per item.
var lineBufPool = sync.Pool{New: func() any { return new([]byte) }}

// handleBatch streams solves: it reads NDJSON SolveRequests, dispatches
// them to a pool of cfg.Workers goroutines, and writes NDJSON
// SolveResponses back in arrival order (each item's single-slot channel is
// enqueued on `order` before the item is handed to the pool, so the writer
// drains responses in exactly the order lines arrived, while up to
// Workers solves proceed concurrently).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.batchRequests.Inc()
	// Admission control: a saturated batch pool answers 429 immediately
	// instead of queueing unboundedly — each admitted request spawns its
	// own Workers goroutines, so without the gate a burst of batch
	// requests multiplies the pool without limit.
	if s.batchGate != nil {
		select {
		case s.batchGate <- struct{}{}:
			defer func() { <-s.batchGate }()
		default:
			s.metrics.rejected.Inc()
			w.Header().Set("Retry-After", "1")
			writeResponse(w, http.StatusTooManyRequests,
				&SolveResponse{Error: "batch worker pool saturated; retry later"})
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Interleaving reads of the request body with response writes needs
	// explicit opt-in on HTTP/1 (the server otherwise discards the unread
	// body at the first write).  HTTP/2 is full duplex already, so an
	// "unsupported" error here is fine to ignore.
	_ = http.NewResponseController(w).EnableFullDuplex()

	jobs := make(chan batchItem)
	order := make(chan chan *SolveResponse, 4*s.cfg.Workers)
	// A request-level traceparent header traces every line that does not
	// carry its own per-line context (schedlb injects per-line).
	hdrTrace := r.Header.Get(obs.TraceParentHeader)
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			for it := range jobs {
				var req SolveRequest
				err := decodeRequest(*it.line, &req)
				lineBufPool.Put(it.line)
				if err != nil {
					s.metrics.errors.Inc()
					it.out <- &SolveResponse{Error: "decoding request: " + err.Error()}
					continue
				}
				if req.TraceParent == "" {
					req.TraceParent = hdrTrace
				}
				req.arrival = it.enq
				req.route = "batch-item"
				// The request context cancels in-flight solves when the
				// client disconnects mid-stream.
				it.out <- s.handle(r.Context(), &req, nil)
			}
		}()
	}

	go func() {
		defer close(jobs)
		defer close(order)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 64<<10), s.cfg.MaxLineBytes)
		for sc.Scan() {
			line := sc.Bytes()
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			s.metrics.batchItems.Inc()
			buf := lineBufPool.Get().(*[]byte)
			*buf = append((*buf)[:0], line...)
			it := batchItem{line: buf, out: make(chan *SolveResponse, 1), enq: time.Now()}
			order <- it.out
			jobs <- it
		}
		if err := sc.Err(); err != nil {
			s.metrics.errors.Inc()
			ch := make(chan *SolveResponse, 1)
			ch <- &SolveResponse{Error: "reading batch: " + err.Error()}
			order <- ch
		}
	}()

	bp := respPool.Get().(*[]byte)
	defer putBuf(&respPool, bp)
	flusher, _ := w.(http.Flusher)
	for ch := range order {
		resp := <-ch
		// Encoding and write errors (client gone) are deliberately
		// ignored: the loop must keep draining so the reader and workers
		// can exit.
		line, _ := appendResponse((*bp)[:0], resp)
		w.Write(line)
		*bp = line
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

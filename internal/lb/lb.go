// Package lb is the stateless front tier of a sharded schedserve
// deployment: a consistent-hash router that spreads solve and session
// traffic over a fixed set of schedserve shards.
//
// The proxy holds no scheduling state of its own — any number of lb
// processes can front the same shard set and route identically, because
// the shard.Ring is a pure function of the (shard id, vnode count)
// topology.  Two routing keys cover the whole API surface:
//
//   - /v1/solve and /v1/solve/batch items route by the instance's
//     canonical fingerprint (sched.Instance.Fingerprint), so
//     permutations of one instance land on the same shard and its
//     result cache;
//   - /v1/sessions/* routes by session id.  The proxy generates the id
//     at create time (the create body is rewritten to pin it), which
//     breaks the chicken-and-egg between "shard assigns ids" and
//     "routing needs the id before a shard is chosen".
//
// Batch requests are fanned out: the NDJSON stream is split per owning
// shard, each shard solves its sub-batch concurrently, and the response
// lines are merged back in the order the items arrived.  Requests that
// are idempotent (solves, reads) are retried once on transport failure;
// mutating session requests never are.
//
// Every proxied response carries the owning shard's X-Sched-Shard echo.
// The proxy compares the echo against its own prediction and counts
// mismatches in schedlb_misroutes_total — the load-test harness asserts
// this series stays at zero, which is the end-to-end proof that ring
// routing and shard identity agree.
package lb

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"setupsched/internal/wire"
	"setupsched/obs"
	"setupsched/sched"
	"setupsched/shard"
)

// Shard names one schedserve backend: its ring identity and base URL.
// The ID must equal the backend's -shard-id so the X-Sched-Shard echo
// verifies routing.
type Shard struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Config configures a Proxy.
type Config struct {
	// Shards is the backend topology.  At least one is required.
	Shards []Shard
	// Replicas is the ring's virtual-node count per shard; 0 means
	// shard.DefaultReplicas.  All lb processes fronting one shard set
	// must agree on it.
	Replicas int
	// Client issues backend requests; nil gets a default with a 60 s
	// timeout.
	Client *http.Client
	// MaxBodyBytes caps a request body read for routing.  Default 32 MiB
	// (matching serve.Config).
	MaxBodyBytes int64
	// Logger receives routing diagnostics; nil means slog.Default().
	Logger *slog.Logger
	// FlightRecorderSize caps the flight recorder's ring of recently
	// completed request traces, served at GET /v1/debug/traces.  Zero
	// means obs.DefaultFlightCapacity; negative disables both.
	FlightRecorderSize int
	// SlowTraceThreshold additionally retains every trace slower than
	// this in the recorder's slow ring; zero disables the slow ring.
	SlowTraceThreshold time.Duration
	// TraceIDs overrides the trace/span id source (seed it for
	// deterministic tests).  Nil uses the process-global crypto-seeded
	// source.
	TraceIDs *obs.IDSource
}

// Proxy is the routing handler.  Build one with New; it serves the same
// /v1 surface as a single schedserve plus its own /healthz and
// /metrics.
type Proxy struct {
	cfg    Config
	ring   *shard.Ring
	shards map[string]Shard
	mux    *http.ServeMux
	client *http.Client
	logger *slog.Logger

	metrics *lbMetrics
	// flight retains completed request traces for GET /v1/debug/traces;
	// nil when Config.FlightRecorderSize is negative.
	flight *obs.FlightRecorder
}

// lbMetrics is the proxy's own observability: all series are prefixed
// schedlb_ so a fleet scrape distinguishes front tier from shards.
type lbMetrics struct {
	reg *obs.Registry

	solves    *obs.Counter
	batches   *obs.Counter
	items     *obs.Counter
	sessions  *obs.Counter
	errors    *obs.Counter
	retries   *obs.Counter
	misroutes *obs.Counter
	up        map[string]*obs.Gauge
	// misroutesBy counts echo mismatches per ring-predicted shard, so a
	// fleet dashboard can see WHICH shard's identity disagrees with the
	// topology (the aggregate counter above keeps its meaning).
	misroutesBy map[string]*obs.Counter

	tracesRecorded *obs.Counter
	tracesDropped  *obs.Counter
}

func newLBMetrics(shards []Shard) *lbMetrics {
	reg := obs.NewRegistry()
	m := &lbMetrics{
		reg:       reg,
		solves:    reg.Counter(`schedlb_requests_total{route="solve"}`, "Proxied requests by route."),
		batches:   reg.Counter(`schedlb_requests_total{route="batch"}`, "Proxied requests by route."),
		sessions:  reg.Counter(`schedlb_requests_total{route="session"}`, "Proxied requests by route."),
		items:     reg.Counter("schedlb_batch_items_total", "Batch NDJSON items fanned out to shards."),
		errors:    reg.Counter("schedlb_request_errors_total", "Requests that failed at the proxy or the shard."),
		retries:   reg.Counter("schedlb_retries_total", "Idempotent requests retried after a transport failure."),
		misroutes: reg.Counter("schedlb_misroutes_total", "Responses whose X-Sched-Shard echo contradicted the ring."),
		up:        make(map[string]*obs.Gauge, len(shards)),

		misroutesBy: make(map[string]*obs.Counter, len(shards)),

		tracesRecorded: reg.Counter("schedlb_traces_recorded_total", "Request traces booked into the flight recorder."),
		tracesDropped:  reg.Counter("schedlb_traces_dropped_total", "Flight-recorder ring entries overwritten before being read."),
	}
	for _, s := range shards {
		m.up[s.ID] = reg.Gauge(`schedlb_shard_up{shard="`+s.ID+`"}`,
			"1 if the shard's last health probe succeeded, else 0.")
		m.misroutesBy[s.ID] = reg.Counter(`schedlb_shard_misroutes_total{shard="`+s.ID+`"}`,
			"Echo mismatches by the ring-predicted owner shard.")
	}
	reg.GaugeFunc("schedlb_shards", "Number of shards in the routing topology.",
		func() float64 { return float64(len(shards)) })
	obs.RegisterBuildInfo(reg, "")
	reg.EnableRuntimeMetrics()
	return m
}

// New builds a Proxy over the given topology.
func New(cfg Config) (*Proxy, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("lb: no shards configured")
	}
	ids := make([]string, len(cfg.Shards))
	byID := make(map[string]Shard, len(cfg.Shards))
	for i, s := range cfg.Shards {
		if s.ID == "" || s.URL == "" {
			return nil, fmt.Errorf("lb: shard %d needs both id and url", i)
		}
		if _, dup := byID[s.ID]; dup {
			return nil, fmt.Errorf("lb: duplicate shard id %q", s.ID)
		}
		ids[i] = s.ID
		byID[s.ID] = s
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = shard.DefaultReplicas
	}
	ring := shard.NewRing(replicas, ids...)
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	p := &Proxy{
		cfg:     cfg,
		ring:    ring,
		shards:  byID,
		mux:     http.NewServeMux(),
		client:  client,
		logger:  logger,
		metrics: newLBMetrics(cfg.Shards),
	}
	if cfg.FlightRecorderSize >= 0 {
		p.flight = obs.NewFlightRecorder(cfg.FlightRecorderSize, 0, cfg.SlowTraceThreshold)
		p.flight.SetCounters(p.metrics.tracesRecorded, p.metrics.tracesDropped)
		p.mux.Handle("GET /v1/debug/traces", p.flight.Handler())
	}
	p.mux.HandleFunc("GET /healthz", p.handleHealthz)
	p.mux.Handle("GET /metrics", p.metrics.reg.Handler())
	p.mux.HandleFunc("POST /v1/solve", p.handleSolve)
	p.mux.HandleFunc("POST /v1/solve/batch", p.handleBatch)
	p.mux.HandleFunc("POST /v1/sessions", p.handleSessionCreate)
	p.mux.HandleFunc("GET /v1/sessions/{id}", p.handleSession)
	p.mux.HandleFunc("DELETE /v1/sessions/{id}", p.handleSession)
	p.mux.HandleFunc("POST /v1/sessions/{id}/delta", p.handleSession)
	p.mux.HandleFunc("POST /v1/sessions/{id}/solve", p.handleSession)
	return p, nil
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// Registry exposes the proxy's metric registry for embedding tests.
func (p *Proxy) Registry() *obs.Registry { return p.metrics.reg }

// Owner returns the shard that owns a routing key — exported so the
// load-test harness predicts placements with the proxy's own ring.
func (p *Proxy) Owner(key string) Shard { return p.shards[p.ring.Owner(key)] }

// routeInstance's pooled state: a body reader and the canonical view
// that fingerprints the instance it reads.
var (
	readerPool = sync.Pool{New: func() any { return new(wire.Reader) }}
	viewPool   = sync.Pool{New: func() any { return new(sched.CanonicalView) }}
)

// routeInstance extracts the routing fingerprint from a solve body.  A
// body in the plain form (see package wire) is read without reflection;
// any other body goes to json.Unmarshal, which decides what it means or
// why it is invalid.  Either way the instance is fingerprinted through a
// pooled view.
func routeInstance(body []byte) (string, error) {
	rd := readerPool.Get().(*wire.Reader)
	in, ok := plainInstance(rd, body)
	rd.Reset(nil) // the pooled reader must not pin the body
	readerPool.Put(rd)
	if !ok {
		var req struct {
			Instance *sched.Instance `json:"instance"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("parsing request body: %w", err)
		}
		in = req.Instance
	}
	if in == nil {
		return "", fmt.Errorf("missing instance")
	}
	view := viewPool.Get().(*sched.CanonicalView)
	defer func() { view.Unbind(); viewPool.Put(view) }()
	view.Bind(in)
	return view.Fingerprint(), nil
}

// plainInstance reads the instance of a plain-form solve body.  Keys
// other than "instance" are skipped when their values are strings,
// numbers or booleans; it reports false on anything else, and on a case
// variant of "instance", which json.Unmarshal would bind.
func plainInstance(rd *wire.Reader, body []byte) (*sched.Instance, bool) {
	rd.Reset(body)
	rd.Begin('{')
	var in *sched.Instance
	for i := 0; rd.More('}', i); i++ {
		key := rd.Key()
		switch {
		case string(key) == "instance" && in == nil:
			in = rd.Instance()
		case strings.EqualFold(string(key), "instance"):
			return nil, false // repeated, or a case variant
		default:
			rd.SkipScalar()
		}
	}
	return in, rd.End()
}

// forward proxies one buffered request to the key's owning shard and
// copies the response through.  Idempotent requests are retried once on
// transport failure (the shard never saw them, or saw them and the
// answer is re-derivable).  The trace's route phase is closed here (the
// ring decision just happened) and the hop rides under a fresh upstream
// span whose context propagates to the shard.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, key, path string, body []byte, idempotent bool, t *lbTrace) {
	owner := p.Owner(key)
	t.routed(owner.ID)
	hopCtx, hopDone := t.upstream(owner.ID)
	resp, err := p.send(r.Context(), owner, r.Method, path, r.Header.Get("Content-Type"), body, idempotent, hopCtx)
	hopDone()
	if err != nil {
		p.metrics.errors.Inc()
		writeError(w, http.StatusBadGateway, fmt.Sprintf("shard %s: %v", owner.ID, err))
		t.finish(http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	p.checkEcho(owner, resp)
	copyResponse(w, resp)
	t.finish(resp.StatusCode)
}

// send issues one backend request, retrying once on transport error if
// allowed.  A valid tc rides along as the traceparent header.
func (p *Proxy) send(ctx context.Context, owner Shard, method, path, contentType string, body []byte, idempotent bool, tc obs.TraceContext) (*http.Response, error) {
	attempt := func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, method, owner.URL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		obs.InjectTrace(req.Header, tc)
		return p.client.Do(req)
	}
	resp, err := attempt()
	if err != nil && idempotent && ctx.Err() == nil {
		p.metrics.retries.Inc()
		p.logger.Warn("retrying after transport failure", "shard", owner.ID, "path", path, "err", err)
		resp, err = attempt()
	}
	return resp, err
}

// checkEcho verifies the shard's identity echo against the routing
// decision.  A mismatch means the topology the proxy routes with is not
// the topology that is actually deployed.
func (p *Proxy) checkEcho(owner Shard, resp *http.Response) {
	if echo := resp.Header.Get("X-Sched-Shard"); echo != "" && echo != owner.ID {
		p.metrics.misroutes.Inc()
		if c := p.metrics.misroutesBy[owner.ID]; c != nil {
			c.Inc()
		}
		p.logger.Error("misroute: shard echo contradicts ring", "want", owner.ID, "got", echo)
	}
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "X-Sched-Shard", "Retry-After", "X-Sched-Draining"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (p *Proxy) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes))
	if err != nil {
		p.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return nil, false
	}
	return body, true
}

func (p *Proxy) handleSolve(w http.ResponseWriter, r *http.Request) {
	p.metrics.solves.Inc()
	t := p.beginTrace(r, "solve")
	body, ok := p.readBody(w, r)
	if !ok {
		t.finish(http.StatusBadRequest)
		return
	}
	key, err := routeInstance(body)
	if err != nil {
		p.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		t.finish(http.StatusBadRequest)
		return
	}
	p.forward(w, r, key, "/v1/solve", body, true, t)
}

// handleSessionCreate rewrites the create body to pin a session id (when
// the client did not pick one) and routes by it.  Creates retry on
// transport failure: re-creating the same id answers 409, which the
// retry maps back to success semantics on the shard side.
func (p *Proxy) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	p.metrics.sessions.Inc()
	t := p.beginTrace(r, "session")
	body, ok := p.readBody(w, r)
	if !ok {
		t.finish(http.StatusBadRequest)
		return
	}
	var req map[string]json.RawMessage
	if err := json.Unmarshal(body, &req); err != nil {
		p.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing request body: %v", err))
		t.finish(http.StatusBadRequest)
		return
	}
	var id string
	if raw, ok := req["session_id"]; ok {
		if err := json.Unmarshal(raw, &id); err != nil {
			p.metrics.errors.Inc()
			writeError(w, http.StatusBadRequest, "session_id must be a string")
			t.finish(http.StatusBadRequest)
			return
		}
	}
	if id == "" {
		id = newSessionID()
		req["session_id"], _ = json.Marshal(id)
		if body, ok = marshalBody(w, req); !ok {
			p.metrics.errors.Inc()
			t.finish(http.StatusInternalServerError)
			return
		}
	}
	p.forward(w, r, id, "/v1/sessions", body, true, t)
}

func marshalBody(w http.ResponseWriter, req map[string]json.RawMessage) ([]byte, bool) {
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil, false
	}
	return body, true
}

// handleSession routes every per-session endpoint by the id path
// segment.  Only reads are idempotent: a delta applied twice is a
// different instance, and a session solve can mutate warm state.
func (p *Proxy) handleSession(w http.ResponseWriter, r *http.Request) {
	p.metrics.sessions.Inc()
	t := p.beginTrace(r, "session")
	id := r.PathValue("id")
	body, ok := p.readBody(w, r)
	if !ok {
		t.finish(http.StatusBadRequest)
		return
	}
	p.forward(w, r, id, r.URL.Path, body, r.Method == http.MethodGet, t)
}

// newSessionID mirrors serve's id generator: 128 random bits, hex.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("lb: reading random session id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// shardHealth is one backend's slice of the aggregated health report.
type shardHealth struct {
	Status string `json:"status"`
	Code   int    `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`
}

// handleHealthz probes every shard concurrently and aggregates: 200 iff
// every shard answered 200.  Draining shards (503) mark the fleet
// degraded, which is exactly what a rolling migration wants front tiers
// to see.
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type probe struct {
		id string
		h  shardHealth
	}
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	results := make(chan probe, len(p.shards))
	var wg sync.WaitGroup
	for id, sh := range p.shards {
		wg.Add(1)
		go func(id string, sh Shard) {
			defer wg.Done()
			results <- probe{id, p.probeShard(ctx, sh)}
		}(id, sh)
	}
	wg.Wait()
	close(results)

	shards := make(map[string]shardHealth, len(p.shards))
	var failed []string
	for pr := range results {
		shards[pr.id] = pr.h
		if pr.h.Status == "ok" {
			p.metrics.up[pr.id].Set(1)
		} else {
			p.metrics.up[pr.id].Set(0)
			failed = append(failed, pr.id)
		}
	}
	sort.Strings(failed)
	healthy := len(p.shards) - len(failed)
	status, code := "ok", http.StatusOK
	if len(failed) > 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status": status, "healthy": healthy, "shards": shards,
	}
	if len(failed) > 0 {
		// Name the failing shards up front so an operator (or pager) does
		// not have to diff the per-shard map against the topology.
		body["failed"] = failed
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

func (p *Proxy) probeShard(ctx context.Context, sh Shard) shardHealth {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.URL+"/healthz", nil)
	if err != nil {
		return shardHealth{Status: "error", Error: err.Error()}
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return shardHealth{Status: "unreachable", Error: err.Error()}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	switch resp.StatusCode {
	case http.StatusOK:
		return shardHealth{Status: "ok", Code: resp.StatusCode}
	case http.StatusServiceUnavailable:
		return shardHealth{Status: "draining", Code: resp.StatusCode}
	default:
		return shardHealth{Status: "error", Code: resp.StatusCode}
	}
}

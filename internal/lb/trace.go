package lb

import (
	"net/http"
	"sync"
	"time"

	"setupsched/obs"
)

// Distributed tracing at the front tier.  The proxy opens one root span
// per proxied request: a "route" child brackets body parsing and the
// ring decision, and one "upstream" child per backend hop measures the
// proxied call (on the batch route, one upstream span per owning shard
// with one "item" child per NDJSON line).  The context rides to the
// shard as a W3C traceparent — the request header on solve/session
// routes, a per-line "traceparent" JSON field on the batch route — so
// the shard's handler/queue/prepare/search/build tree hangs under the
// matching upstream (or item) span and the whole request shares one
// trace id.  Completed roots land in the proxy's flight recorder
// (GET /v1/debug/traces), keyed by that id: `schedload -trace-report`
// joins them against the shard-side recorders for end-to-end latency
// attribution.
//
// A request arriving with its own valid sampled traceparent keeps the
// caller's trace id (the lb root becomes a child of the caller's span);
// anything else gets a fresh sampled root.

// lbTrace accumulates one request's span tree.  The batch route appends
// upstream spans from per-shard goroutines, hence the mutex.
type lbTrace struct {
	p     *Proxy
	ctx   obs.TraceContext // the root span's identity
	start time.Time
	route string

	mu        sync.Mutex
	root      *obs.Span
	routeSpan *obs.Span
}

// beginTrace opens the root span for one proxied request.
func (p *Proxy) beginTrace(r *http.Request, route string) *lbTrace {
	start := time.Now()
	var tc obs.TraceContext
	var parent string
	if in, ok := obs.TraceFromHeader(r.Header); ok && in.Sampled {
		// The caller already traces this request: keep its trace id and
		// hang the lb root under the caller's span.
		tc = p.childOf(in)
		parent = in.SpanID.String()
	} else if p.cfg.TraceIDs != nil {
		tc = p.cfg.TraceIDs.NewTrace()
	} else {
		tc = obs.NewTrace()
	}
	root := &obs.Span{
		Name:    route,
		TraceID: tc.TraceID.String(),
		SpanID:  tc.SpanID.String(),
		Parent:  parent,
	}
	t := &lbTrace{p: p, ctx: tc, start: start, route: route, root: root}
	rc := p.childOf(tc)
	t.routeSpan = &obs.Span{Name: "route", SpanID: rc.SpanID.String(), Parent: root.SpanID}
	root.Children = append(root.Children, t.routeSpan)
	return t
}

// TraceID returns the request's trace id (hex).
func (t *lbTrace) TraceID() string { return t.ctx.TraceID.String() }

// routed closes the route phase and records the ring decision.
func (t *lbTrace) routed(shardID string) {
	t.mu.Lock()
	t.routeSpan.DurUS = time.Since(t.start).Microseconds()
	t.root.Shard = shardID
	t.mu.Unlock()
}

// upstream opens the hop span for one backend call and mints the
// context the hop propagates: the span under which the shard's handler
// tree will hang.  close() ends the span.
func (t *lbTrace) upstream(shardID string) (tc obs.TraceContext, close func()) {
	tc = t.p.childOf(t.ctx)
	sp := &obs.Span{
		Name:    "upstream",
		StartUS: time.Since(t.start).Microseconds(),
		SpanID:  tc.SpanID.String(),
		Parent:  t.root.SpanID,
		Shard:   shardID,
	}
	t.mu.Lock()
	t.root.Children = append(t.root.Children, sp)
	t.mu.Unlock()
	return tc, func() {
		t.mu.Lock()
		sp.DurUS = time.Since(t.start).Microseconds() - sp.StartUS
		t.mu.Unlock()
	}
}

// item books one batch line under an upstream hop and mints the
// per-line context injected into that line's JSON.  The item span
// inherits the hop's window when it closes (per-item timing is not
// observable at the proxy; the shard-side handler span refines it).
func (t *lbTrace) item(hopCtx obs.TraceContext, shardID string, index int) obs.TraceContext {
	tc := t.p.childOf(hopCtx)
	sp := &obs.Span{
		Name:   "item",
		SpanID: tc.SpanID.String(),
		Parent: hopCtx.SpanID.String(),
		Shard:  shardID,
	}
	t.mu.Lock()
	for _, c := range t.root.Children {
		if c.SpanID == sp.Parent {
			sp.StartUS = c.StartUS
			c.Children = append(c.Children, sp)
			break
		}
	}
	t.mu.Unlock()
	return tc
}

// finish closes the root span and books the trace into the proxy's
// flight recorder.
func (t *lbTrace) finish(status int) {
	t.mu.Lock()
	t.root.DurUS = time.Since(t.start).Microseconds()
	// Item spans take their hop's duration (see item).
	for _, hop := range t.root.Children {
		if hop.Name != "upstream" {
			continue
		}
		for _, it := range hop.Children {
			if it.Name == "item" && it.DurUS == 0 {
				it.DurUS = hop.DurUS
			}
		}
	}
	root := t.root
	shard := root.Shard
	t.mu.Unlock()
	if t.p.flight != nil {
		t.p.flight.Record(obs.RecordedTrace{
			TraceID: root.TraceID,
			Service: "schedlb",
			Route:   t.route,
			Shard:   shard,
			Status:  status,
			DurUS:   root.DurUS,
			Root:    root,
		})
	}
}

// childOf mints a child context from the configured id source (tests)
// or the process-global one.
func (p *Proxy) childOf(tc obs.TraceContext) obs.TraceContext {
	if p.cfg.TraceIDs != nil {
		return p.cfg.TraceIDs.Child(tc)
	}
	return obs.ChildOf(tc)
}

// Flight exposes the proxy's flight recorder (nil when disabled).
func (p *Proxy) Flight() *obs.FlightRecorder { return p.flight }

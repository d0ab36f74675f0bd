package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"setupsched/internal/lb"
	"setupsched/serve"
)

// spanCtx is what the traced lb wrapper hands its RoundTripper through
// the request context.
type spanCtx struct{ op, parent int64 }

type spanCtxKey struct{}

// tracer switches the fleet's wrappers between pass-through and
// recording; nil means pass-through.
type tracer struct{ rec atomic.Pointer[recorder] }

func headerInt(r *http.Request, name string) int64 {
	n, _ := strconv.ParseInt(r.Header.Get(name), 10, 64)
	return n
}

// wrapShard records each shard ServeHTTP as a span under the RoundTrip
// that carried it.
func (t *tracer) wrapShard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		id := rec.id()
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add(id, "serve.ServeHTTP", headerInt(r, opHeader), headerInt(r, parentHeader), start, time.Now())
	})
}

// wrapLB records the lb's ServeHTTP under the client request and passes
// its span to the RoundTripper through the request context.
func (t *tracer) wrapLB(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		op := headerInt(r, opHeader)
		id := rec.id()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanCtx{op, id})))
		rec.add(id, "lb.ServeHTTP", op, headerInt(r, parentHeader), start, time.Now())
	})
}

// roundTripper is the lb's upstream transport: each RoundTrip (until the
// response headers arrive) is a span under the lb handler, and it tells
// the shard wrapper which span it runs under.
type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := rt.t.rec.Load()
	sc, ok := req.Context().Value(spanCtxKey{}).(spanCtx)
	if rec == nil || !ok {
		return rt.base.RoundTrip(req)
	}
	id := rec.id()
	out := req.Clone(req.Context())
	out.Header.Set(opHeader, strconv.FormatInt(sc.op, 10))
	out.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := rt.base.RoundTrip(out)
	rec.add(id, "lb.RoundTrip", sc.op, sc.parent, start, time.Now())
	return resp, err
}

// fleet is the system under test: two serve.Server shards and an
// lb.Proxy, each on its own loopback listener, plus the client the load
// generator drives with.
type fleet struct {
	shards  map[string]*serve.Server
	servers []*http.Server
	proxy   *lb.Proxy
	url     string
	client  *http.Client
	lbTrans *http.Transport
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func startFleet(t *tracer, conns int) (*fleet, error) {
	f := &fleet{shards: map[string]*serve.Server{}}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	var topo []lb.Shard
	for i := 0; i < serveShards; i++ {
		id := fmt.Sprintf("s%d", i)
		s := serve.New(serve.Config{ShardID: id, Logger: quiet})
		var h http.Handler = s
		if t != nil {
			h = t.wrapShard(s)
		}
		srv, url, err := listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards[id] = s
		f.servers = append(f.servers, srv)
		topo = append(topo, lb.Shard{ID: id, URL: url})
	}
	f.lbTrans = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = f.lbTrans
	if t != nil {
		rt = roundTripper{t: t, base: f.lbTrans}
	}
	p, err := lb.New(lb.Config{Shards: topo, Client: &http.Client{Transport: rt, Timeout: 60 * time.Second}, Logger: quiet})
	if err != nil {
		f.close()
		return nil, err
	}
	f.proxy = p
	var h http.Handler = p
	if t != nil {
		h = t.wrapLB(p)
	}
	srv, url, err := listen(h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, srv)
	f.url = url + "/v1/solve"
	f.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	return f, nil
}

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.lbTrans != nil {
		f.lbTrans.CloseIdleConnections()
	}
}

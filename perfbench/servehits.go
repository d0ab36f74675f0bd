package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	"setupsched"
	"setupsched/sched"
	"setupsched/serve"
)

// serve-hits traffic: every request carries a ≈550-job probe-heavy
// instance with include_schedule and a uniformly drawn variant.
// serveMissFrac of the requests carry a never-seen instance (a cold
// solve plus a cache write); the rest draw from hotBodies pre-encoded
// random permutations of hotInstances instances, whose 3*hotInstances
// results fit the shards' result caches and are cached during set-up.
const (
	serveJobs     = 1000 // coreShape size: ≈560 jobs in 125 classes
	hotInstances  = 64
	hotBodies     = 1024
	serveMissFrac = 0.1
	serveShards   = 2
	serveReps     = 3

	// lightRate is the fixed rate lat_p50_ms and lat_p99_ms are read at,
	// well below what two connections sustain.
	lightRate = 150.0
	// A ladder rung passes when its p99 meets latencyLimit and its backlog
	// does not grow: the median lag of its last quarter exceeds that of
	// its first quarter by at most backlogLimit.  On a 2-vCPU VM with CPU
	// steal a running thread stalls for 5-20 ms about once a second, so
	// the limit sits well above what such stalls cost.
	latencyLimit = 100 * time.Millisecond
	backlogLimit = 10 * time.Millisecond
	// The ladder's rates are ladderBase*ladderStep^k for k < ladderRungs:
	// rungs 5% apart, closer than any bound, searched by bisection
	// (ladderSteps rungs).  A rung runs for rungDur and at least
	// minOps requests; a failing rung is run once more and fails only if
	// both runs fail, so one host stall cannot cut the search short.
	ladderBase  = 80.0
	ladderStep  = 1.05
	ladderSteps = 6
	ladderRungs = 1<<ladderSteps - 1
	rungDur     = time.Second
	// lightShare of an untraced run's budget goes to the light phase.
	lightShare = 0.3
	// cpu_ms_per_op and the printed ops_per_s are read off satRequests
	// requests sent back to back on every connection; ops_per_s is the
	// median rate of blocks of satBlock.
	satRequests = 4000
	satBlock    = 500
	// abortLag stops a phase whose backlog has run away; an overloaded
	// rung otherwise just runs at capacity until its requests are done.
	abortLag = 2 * time.Second

	// checkEvery picks the deterministic sample whose full schedules are
	// re-validated against the request's own instance; replaySample is
	// how many hot bodies the traced run replays through the layers.
	checkEvery   = 16
	replaySample = 200

	opHeader     = "X-Bench-Op"
	parentHeader = "X-Bench-Parent"
)

// body is one pre-encoded request.
type body struct {
	data []byte
	in   *sched.Instance // the instance as sent; nil for a miss, whose checks decode data
	v    sched.Variant
	key  int    // index of its expected result; -1 for a miss
	fp   string // routing fingerprint, computed before timing
}

// expected is the library's answer on the canonical instance, which is
// what a shard solves (permutation-equivalent requests share one entry).
type expected struct {
	canon *sched.Instance
	res   *setupsched.Result
}

// serveInputs is everything a serve-hits run sends, built from the seed
// before any timing starts.
type serveInputs struct {
	bodies []body // hot bodies, then the miss bodies in send order
	seq    []int  // request j sends bodies[seq[j]]
	exp    []expected
}

func permuted(in *sched.Instance, rng *rand.Rand) *sched.Instance {
	out := &sched.Instance{M: in.M, Classes: make([]sched.Class, len(in.Classes))}
	for k, i := range rng.Perm(len(in.Classes)) {
		jobs := in.Classes[i].Jobs
		cl := sched.Class{Setup: in.Classes[i].Setup, Jobs: make([]int64, len(jobs))}
		for a, b := range rng.Perm(len(jobs)) {
			cl.Jobs[a] = jobs[b]
		}
		out.Classes[k] = cl
	}
	return out
}

func encodeBody(in *sched.Instance, v sched.Variant, key int) (body, error) {
	data, err := json.Marshal(&serve.SolveRequest{Instance: in, Variant: v.Short(), IncludeSchedule: true})
	return body{data: data, in: in, v: v, key: key, fp: in.Fingerprint()}, err
}

// solveCanonical computes the expected answer for one instance/variant.
func solveCanonical(in *sched.Instance, v sched.Variant) (expected, error) {
	var view sched.CanonicalView
	view.Bind(in)
	canon := view.CanonicalInstance()
	s, err := setupsched.NewSolver(canon)
	if err != nil {
		return expected{}, err
	}
	res, err := s.Solve(context.Background(), v)
	return expected{canon: canon, res: res}, err
}

// buildServeInputs makes n requests.  Hot body b permutes hot instance
// b mod hotInstances under variant (b / hotInstances) mod 3, so the
// first 3*hotInstances bodies cover every cached result once.
func buildServeInputs(seed int64, n int) (*serveInputs, error) {
	si := &serveInputs{}
	hot := make([]*sched.Instance, hotInstances)
	for h := range hot {
		hot[h] = coreShape(serveJobs, derive(seed, 3, int64(h)))
		for _, v := range sched.Variants {
			e, err := solveCanonical(hot[h], v)
			if err != nil {
				return nil, err
			}
			si.exp = append(si.exp, e)
		}
	}
	rng := rand.New(rand.NewSource(derive(seed, 4, 0)))
	for b := 0; b < hotBodies; b++ {
		h, vi := b%hotInstances, (b/hotInstances)%3
		bd, err := encodeBody(permuted(hot[h], rng), sched.Variants[vi], 3*h+vi)
		if err != nil {
			return nil, err
		}
		si.bodies = append(si.bodies, bd)
	}
	for j := 0; j < n; j++ {
		if rng.Float64() >= serveMissFrac {
			si.seq = append(si.seq, rng.Intn(hotBodies))
			continue
		}
		in := coreShape(serveJobs, derive(seed, 5, int64(j)))
		bd, err := encodeBody(in, sched.Variants[rng.Intn(3)], -1)
		if err != nil {
			return nil, err
		}
		bd.in = nil // most misses are never sent; keep only the encoding
		si.seq = append(si.seq, len(si.bodies))
		si.bodies = append(si.bodies, bd)
	}
	return si, nil
}

// expectedFor returns the library's answer for a body and the instance
// it was sent with.  A miss is decoded and solved on first use, off the
// clock, and not retained: it is never sent again.
func (si *serveInputs) expectedFor(b *body) (expected, *sched.Instance, error) {
	if b.key >= 0 {
		return si.exp[b.key], b.in, nil
	}
	var req serve.SolveRequest
	if err := json.Unmarshal(b.data, &req); err != nil {
		return expected{}, nil, err
	}
	e, err := solveCanonical(req.Instance, b.v)
	return e, req.Instance, err
}

// reply is what the load generator keeps of one response: enough to
// check it off the clock without holding every ≈50 KB schedule.
type reply struct {
	err    error
	status int
	shard  string
	head   []byte // the JSON object without its schedule
	full   []byte // whole body, on the checkEvery sample only
}

var scheduleKey = []byte(`,"schedule":`)

// sender issues the requests of one phase; bufs holds one read buffer
// per generator worker.
type sender struct {
	f       *fleet
	si      *serveInputs
	first   int
	replies []reply
	bufs    []bytes.Buffer
	rec     *recorder // non-nil on the traced pass
}

// send issues request first+i of the sequence from worker w.
func (s *sender) send(w, i int) {
	j := s.first + i
	b := &s.si.bodies[s.si.seq[j]]
	req, err := http.NewRequest(http.MethodPost, s.f.url, bytes.NewReader(b.data))
	if err != nil {
		s.replies[i] = reply{err: err}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	var start time.Time
	if s.rec != nil {
		id = s.rec.id()
		req.Header.Set(opHeader, strconv.Itoa(j))
		req.Header.Set(parentHeader, strconv.FormatInt(id, 10))
		start = time.Now()
	}
	resp, err := s.f.client.Do(req)
	if err != nil {
		s.replies[i] = reply{err: err}
		return
	}
	buf := &s.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if s.rec != nil {
		s.rec.add(id, "client", int64(j), 0, start, time.Now())
	}
	s.replies[i] = newReply(resp, buf.Bytes(), err, j%checkEvery == 0)
}

// newReply keeps the head of a response body — the JSON object cut
// before its schedule — and, on the sample, a copy of the whole body.
func newReply(resp *http.Response, data []byte, err error, sample bool) reply {
	r := reply{err: err, status: resp.StatusCode, shard: resp.Header.Get(serve.ShardHeader)}
	if k := bytes.Index(data, scheduleKey); k >= 0 {
		r.head = append(append(make([]byte, 0, k+1), data[:k]...), '}')
	} else {
		r.head = bytes.Clone(data)
	}
	if sample {
		r.full = bytes.Clone(data)
	}
	return r
}

// phase is one open-loop run over requests [first, first+len(samples))
// of the sequence.
type phase struct {
	first   int
	samples []sample
	replies []reply
}

func (f *fleet) runPhase(si *serveInputs, first int, due []time.Duration, abort time.Duration, workers int, rec *recorder) phase {
	s := &sender{f: f, si: si, first: first, replies: make([]reply, len(due)), bufs: make([]bytes.Buffer, workers), rec: rec}
	samples := openLoop(due, workers, abort, s.send)
	return phase{first: first, samples: samples, replies: s.replies}
}

// completionRate is the median over blocks of block consecutive
// completions of each block's completions per second.
func completionRate(samples []sample, block int) float64 {
	var done []time.Duration
	for _, s := range samples {
		if s.ok {
			done = append(done, s.done)
		}
	}
	slices.Sort(done)
	var rates []float64
	prev := time.Duration(0)
	for i := block; i <= len(done); i += block {
		rates = append(rates, float64(block)/(done[i-1]-prev).Seconds())
		prev = done[i-1]
	}
	return median(rates)
}

// latencies returns the sent requests' latencies and lags in ms.
func (p phase) latencies() (lat, lag []float64) {
	for _, s := range p.samples {
		if s.ok {
			lat = append(lat, ms(s.latency()))
			lag = append(lag, ms(s.lag()))
		}
	}
	return lat, lag
}

// rungPasses decides one ladder rung: every request was sent and
// answered correctly, the p99 latency meets latencyLimit, and the
// backlog did not grow.
func rungPasses(p phase, pc phaseCheck) (pass bool, p99, growth float64) {
	if pc.sent < len(p.samples) || pc.failed > 0 {
		return false, math.Inf(1), math.Inf(1)
	}
	lat, lag := p.latencies()
	p99, _ = nearestRank(lat, 99)
	q := len(lag) / 4
	growth = median(lag[len(lag)-q:]) - median(lag[:q])
	return p99 <= ms(latencyLimit) && growth <= ms(backlogLimit), p99, growth
}

// ladder bisects the rate grid for the highest rung that passes; each
// rung run sends the next requests of the sequence at its rate.
func (f *fleet) ladder(si *serveInputs, cursor *int, workers int, rep *report) float64 {
	run := func(k int) bool {
		n := rungRequests(k)
		p := f.runPhase(si, *cursor, uniformDue(n, ladderRate(k)), abortLag, workers, nil)
		*cursor += n
		pc := si.check(p, f, rep)
		pass, p99, growth := rungPasses(p, pc)
		rep.note("ladder rung %2d: %7.1f rps, sent %d/%d, failed %d, p99 %.3f ms, backlog growth %.3f ms, pass=%v",
			k, ladderRate(k), pc.sent, n, pc.failed, p99, growth, pass)
		return pass
	}
	lo, hi := -1, ladderRungs
	for hi-lo > 1 {
		k := (lo + hi) / 2
		if run(k) || run(k) {
			lo = k
		} else {
			hi = k
		}
	}
	if lo < 0 {
		return 0
	}
	return ladderRate(lo)
}

func rungRequests(k int) int { return max(minOps, int(ladderRate(k)*rungDur.Seconds())) }

// ladderMaxRequests bounds what one ladder sends: the all-pass path
// visits the highest rung at every step, and a rung runs at most twice.
func ladderMaxRequests() int {
	n, lo, hi := 0, -1, ladderRungs
	for hi-lo > 1 {
		lo = (lo + hi) / 2
		n += 2 * rungRequests(lo)
	}
	return n
}

func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

func runServeHits(cfg config, rep *report) error {
	ctx := context.Background()
	conns := min(2, runtime.NumCPU())
	lightDur := cfg.budget()
	if !cfg.trace {
		lightDur = time.Duration(float64(lightDur) * lightShare)
	}
	nLight := max(minOps, int(lightRate*lightDur.Seconds()))
	n := 2 * nLight
	if !cfg.trace {
		n = nLight + satRequests + ladderMaxRequests()
	}
	si, err := buildServeInputs(cfg.seed, n)
	if err != nil {
		return fmt.Errorf("building inputs: %w", err)
	}
	rep.note("serve-hits: %d hot instances of %d jobs in %d bodies, %d requests prepared (%d never-seen), %d connections",
		hotInstances, si.bodies[0].in.NumJobs(), hotBodies, n, len(si.bodies)-hotBodies, conns)

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	var f *fleet
	err = setUp(rep, serveReps, func() error {
		if f != nil {
			f.close()
		}
		nf, err := startFleet(tr, conns)
		if err != nil {
			return err
		}
		f = nf
		for b := 0; b < 3*hotInstances; b++ {
			resp, err := f.client.Post(f.url, "application/json", bytes.NewReader(si.bodies[b].data))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("warm-up request %d: status %d", b, resp.StatusCode)
			}
		}
		return nil
	})
	if f != nil {
		defer f.close()
	}
	if err != nil {
		return fmt.Errorf("fleet set-up: %w", err)
	}

	before := readMem()
	light := f.runPhase(si, 0, uniformDue(nLight, lightRate), abortLag, conns, nil)
	after := readMem()
	cursor := nLight
	lightCheck := si.check(light, f, rep)
	lat, lag := light.latencies()
	lagP99, _ := nearestRank(lag, 99)
	rep.note("light phase: %.0f rps, %d sent, %d cached, lag p50 %.3f ms p99 %.3f ms", lightRate, lightCheck.sent, lightCheck.cached, median(lag), lagP99)
	if !cfg.trace {
		noteLatency(rep, lat)
		c0 := cpuTime()
		sat := f.runPhase(si, cursor, make([]time.Duration, satRequests), time.Hour, conns, nil)
		rep.set("cpu_ms_per_op", ms(cpuTime()-c0)/satRequests, satRequests)
		cursor += satRequests
		satCheck := si.check(sat, f, rep)
		rep.note("ops_per_s %.4f 1/s: both connections saturated, median of blocks of %d (n=%d)",
			completionRate(sat.samples, satBlock), satBlock, satCheck.sent)
		// The ladder's request count depends on the rates it visits, so
		// the peak resident set is read before it: up to here every run
		// has sent the same requests.
		rep.set("peak_rss_mb", peakRSSMB(), 1)
		maxRPS := f.ladder(si, &cursor, conns, rep)
		rep.note("max_rps %.1f rps (p99 limit %v, backlog growth limit %v, %d connections)",
			maxRPS, latencyLimit, backlogLimit, conns)
		return nil
	}
	setGoMetrics(rep, before, after, lightCheck.sent)
	rep.set("loadgen.lag_p99_ms", lagP99, len(lag))

	rec := newRecorder()
	tr.rec.Store(rec)
	traced := f.runPhase(si, cursor, uniformDue(nLight, lightRate), abortLag, conns, rec)
	tr.rec.Store(nil)
	tracedCheck := si.check(traced, f, rep)
	tlat, _ := traced.latencies()
	setOverhead(rep, lat, tlat)
	ok := lightCheck.sent - lightCheck.failed + tracedCheck.sent - tracedCheck.failed
	if ok > 0 {
		rep.set("serve.hit_frac", float64(lightCheck.cached+tracedCheck.cached)/float64(ok), ok)
	}
	rep.set("lb.misroutes", float64(lightCheck.misroutes+tracedCheck.misroutes), lightCheck.sent+tracedCheck.sent)

	f.replay(ctx, si, rec, rep)
	return reportServeLayers(cfg, rep, rec)
}

// reportServeLayers turns serve-hits' spans into the lb, serve, sched,
// setupsched and core layer metrics.
func reportServeLayers(cfg config, rep *report, rec *recorder) error {
	ix := rec.index()
	lbSpans := ix.byName["lb.ServeHTTP"]
	rep.set("lb.self_ms", median(ix.selfMS(lbSpans)), len(lbSpans))
	var retries int
	for _, sp := range lbSpans {
		retries += max(0, len(ix.children[sp.ID])-1)
	}
	rep.set("lb.retries", float64(retries), len(lbSpans))
	rts := ix.byName["lb.RoundTrip"]
	var hops []float64
	for _, rt := range rts {
		d := rt.dur()
		for _, c := range ix.children[rt.ID] {
			d -= c.dur()
		}
		hops = append(hops, float64(d)/1e6)
	}
	rep.set("lb.hop_ms", median(hops), len(hops))
	handler := ix.byName["serve.ServeHTTP"]
	rep.set("serve.handler_ms", median(durMS(handler)), len(handler))
	p50 := func(name string) float64 { return median(durMS(ix.byName[name])) }
	for metric, span := range map[string]string{
		"serve.decode_ms": "serve.decode", "serve.hit_ms": "serve.Solve", "serve.encode_ms": "serve.encode",
		"sched.canon_ms": "sched.canon", "sched.remap_ms": "sched.remap",
	} {
		rep.set(metric, p50(span), len(ix.byName[span]))
	}
	other := p50("serve.ServeHTTP") - p50("serve.decode") - p50("serve.Solve") - p50("serve.encode")
	rep.set("serve.other_ms", other, len(handler))
	return reportSolverLayers(cfg, rep, rec, ix)
}

// replay re-runs a deterministic sample of hot requests through the
// public calls inside the shard handler, off the clock, on the warmed
// shard that owns each one: decode, Server.Solve (a cache hit), encode,
// and the sched and setupsched steps a hit is made of.  It also prepares
// and cold-solves the canonical instance, as a miss would.
func (f *fleet) replay(ctx context.Context, si *serveInputs, rec *recorder, rep *report) {
	var view sched.CanonicalView
	var kb []float64
	for k := 0; k < replaySample; k++ {
		bi := k * hotBodies / replaySample
		b := &si.bodies[bi]
		op := int64(-1 - bi)
		rep.attempted++
		var req serve.SolveRequest
		var err error
		rec.timed("serve.decode", op, 0, func(int64) { err = json.NewDecoder(bytes.NewReader(b.data)).Decode(&req) })
		if err != nil {
			rep.fail("replay %d: decode: %v", bi, err)
			continue
		}
		shard := f.shards[f.proxy.Owner(b.fp).ID]
		start := time.Now()
		resp := shard.Solve(ctx, &req)
		end := time.Now()
		if resp.Error != "" {
			rep.fail("replay %d: Server.Solve on the owner shard: %s", bi, resp.Error)
			continue
		}
		if !resp.Cached {
			// Not a hit after all (evicted): its time is no hit's.
			rep.note("replay %d missed the result cache", bi)
			continue
		}
		rec.add(rec.id(), "serve.Solve", op, 0, start, end)
		var buf bytes.Buffer
		rec.timed("serve.encode", op, 0, func(int64) { err = json.NewEncoder(&buf).Encode(resp) })
		if err != nil {
			rep.fail("replay %d: encode: %v", bi, err)
			continue
		}
		kb = append(kb, float64(buf.Len())/1024)
		rec.timed("sched.canon", op, 0, func(int64) { view.Bind(b.in); _ = view.Fingerprint() })
		e := si.exp[b.key]
		res := *e.res
		rec.timed("sched.remap", op, 0, func(int64) { res.Schedule = view.FromCanonical(e.res.Schedule) })
		rec.timed("setupsched.Verify", op, 0, func(int64) { err = setupsched.Verify(b.in, b.v, &res) })
		view.Unbind()
		if err != nil {
			rep.fail("replay %d: Verify of the remapped result: %v", bi, err)
			continue
		}
		var solver *setupsched.Solver
		rec.timed("setupsched.NewSolver", op, 0, func(int64) { solver, err = setupsched.NewSolver(e.canon) })
		if err == nil {
			rec.timed("setupsched.Solve", op, 0, func(id int64) {
				_, err = solver.Solve(ctx, b.v, setupsched.WithObserver(rec.observer(op, id)))
			})
		}
		if err != nil {
			rep.fail("replay %d: cold solve: %v", bi, err)
		}
	}
	rep.set("serve.resp_kb", median(kb), len(kb))
}

package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"setupsched/internal/lb"
	"setupsched/sched"
	"setupsched/schedgen"
	"setupsched/shard"
)

// WorkloadConfig shapes the driven traffic.
type WorkloadConfig struct {
	// Duration bounds the drive (default 5s).
	Duration time.Duration
	// RPS is the target operation rate; the ticker paces operation
	// starts (default 50).  A stateless solve is one request; a session
	// operation is a four-request lifecycle (create, delta, solve,
	// delete), so the achieved request rate runs above the operation
	// target in proportion to SessionFraction.
	RPS int
	// Workers is the number of concurrent request loops (default 8).
	Workers int
	// SessionFraction is the share of operations that exercise the
	// session lifecycle instead of a stateless solve (default 0.25).
	SessionFraction float64
	// Instances is the instance pool size; a pool much smaller than the
	// request count makes shard result caches matter (default 64).
	Instances int
	// Seed makes the op sequence reproducible (default 1).
	Seed int64
	// Replicas must match the lb's ring vnode count for owner
	// prediction (0 = library default).
	Replicas int
}

func (c *WorkloadConfig) withDefaults() WorkloadConfig {
	out := *c
	if out.Duration <= 0 {
		out.Duration = 5 * time.Second
	}
	if out.RPS <= 0 {
		out.RPS = 50
	}
	if out.Workers <= 0 {
		out.Workers = 8
	}
	if out.SessionFraction < 0 || out.SessionFraction > 1 {
		out.SessionFraction = 0.25
	} else if out.SessionFraction == 0 {
		out.SessionFraction = 0.25
	}
	if out.Instances <= 0 {
		out.Instances = 64
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// OpStats aggregates one operation class: its requests, how many of
// them failed, and exact latency percentiles in milliseconds (nearest
// rank over every request).
type OpStats struct {
	Requests int
	Errors   int
	P50Ms    float64
	P99Ms    float64
}

// WorkloadResult is one drive's outcome.  AchievedRPS counts requests,
// not operations (see WorkloadConfig.RPS).
type WorkloadResult struct {
	AchievedRPS   float64
	Solve         OpStats
	Session       OpStats
	RoutingErrors int
	ShardHits     map[string]int
}

// collector gathers per-request observations behind one lock.
type collector struct {
	mu            sync.Mutex
	solveMs       []float64
	sessionMs     []float64
	solveErrs     int
	sessionErrs   int
	routingErrors []string
	shardHits     map[string]int
}

func (c *collector) observe(session bool, ms float64, errored bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if session {
		c.sessionMs = append(c.sessionMs, ms)
		if errored {
			c.sessionErrs++
		}
	} else {
		c.solveMs = append(c.solveMs, ms)
		if errored {
			c.solveErrs++
		}
	}
}

func (c *collector) misroute(desc string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routingErrors = append(c.routingErrors, desc)
}

func (c *collector) hit(shardID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shardHits == nil {
		c.shardHits = make(map[string]int)
	}
	c.shardHits[shardID]++
}

// percentile returns the exact q-quantile of the sorted sample (nearest
// rank); harness sample counts are small enough to keep every point.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func opStats(ms []float64, errs int) OpStats {
	sort.Float64s(ms)
	return OpStats{Requests: len(ms), Errors: errs, P50Ms: percentile(ms, 0.50), P99Ms: percentile(ms, 0.99)}
}

// workloadInstance builds the i-th pool instance: small enough that a
// solve is a few hundred microseconds, varied enough that fingerprints
// spread over the ring.
func workloadInstance(i int) *sched.Instance {
	return schedgen.Uniform(schedgen.Params{
		M: int64(2 + i%5), Classes: 3 + i%4, JobsPer: 3 + i%3,
		MaxSetup: 40, MaxJob: 60, Seed: int64(1000 + i),
	})
}

// RunWorkload drives the mixed workload against baseURL (normally the
// lb) and verifies every response's X-Sched-Shard echo against the
// harness's own ring over the shard ids, counting each mismatch as a
// routing error.  Shards lists the deployed topology; pass the
// cluster's.  It fails unless the drive completed at least one solve
// and at least one session request, so a fleet that drops an operation
// class cannot pass as a measured one.
func RunWorkload(ctx context.Context, baseURL string, shards []lb.Shard, cfg WorkloadConfig) (*WorkloadResult, error) {
	cfg = cfg.withDefaults()
	ids := make([]string, len(shards))
	for i, s := range shards {
		ids[i] = s.ID
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = shard.DefaultReplicas
	}
	ring := shard.NewRing(replicas, ids...)

	instances := make([]*sched.Instance, cfg.Instances)
	bodies := make([][]byte, cfg.Instances)
	owners := make([]string, cfg.Instances)
	for i := range instances {
		instances[i] = workloadInstance(i)
		body, err := json.Marshal(map[string]any{"instance": instances[i]})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
		owners[i] = ring.Owner(instances[i].Fingerprint())
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	client := &http.Client{Timeout: 30 * time.Second}
	col := &collector{}

	// The ticker paces request starts; a slow fleet makes workers fall
	// behind rather than the harness over-issuing (closed-loop with a
	// target rate, the usual load-test compromise on one box).
	interval := time.Second / time.Duration(cfg.RPS)
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				if rng.Float64() < cfg.SessionFraction {
					driveSession(ctx, client, baseURL, ring, rng, instances, col)
				} else {
					i := rng.Intn(len(bodies))
					driveSolve(ctx, client, baseURL, owners[i], bodies[i], col)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &WorkloadResult{
		Solve:         opStats(col.solveMs, col.solveErrs),
		Session:       opStats(col.sessionMs, col.sessionErrs),
		RoutingErrors: len(col.routingErrors),
		ShardHits:     col.shardHits,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.AchievedRPS = float64(res.Solve.Requests+res.Session.Requests) / sec
	}
	for _, desc := range col.routingErrors[:min(3, len(col.routingErrors))] {
		fmt.Printf("loadtest: routing error: %s\n", desc)
	}
	solved, sessioned := res.Solve.Requests-res.Solve.Errors, res.Session.Requests-res.Session.Errors
	if solved < 1 || sessioned < 1 {
		return res, fmt.Errorf("loadtest: %d-shard workload completed %d solve and %d session requests, want at least one of each", len(shards), solved, sessioned)
	}
	return res, nil
}

// checkEcho verifies a response's shard echo against the predicted
// owner and records the hit.
func checkEcho(col *collector, resp *http.Response, want, what string) {
	got := resp.Header.Get("X-Sched-Shard")
	if got != "" {
		col.hit(got)
	}
	if got != want {
		col.misroute(fmt.Sprintf("%s answered by %q, ring owner is %q", what, got, want))
	}
}

func driveSolve(ctx context.Context, client *http.Client, baseURL, owner string, body []byte, col *collector) {
	start := time.Now()
	resp, err := postCtx(ctx, client, baseURL+"/v1/solve", body)
	ms := float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		if ctx.Err() == nil {
			col.observe(false, ms, true)
		}
		return
	}
	defer resp.Body.Close()
	var out struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	col.observe(false, ms, resp.StatusCode != http.StatusOK || out.Error != "")
	checkEcho(col, resp, owner, "solve")
}

// driveSession runs one full session lifecycle — create, delta, warm
// solve, delete — through the proxy, each leg latency-tracked and each
// leg's echo verified against the id's ring owner.
func driveSession(ctx context.Context, client *http.Client, baseURL string, ring *shard.Ring, rng *rand.Rand, instances []*sched.Instance, col *collector) {
	in := instances[rng.Intn(len(instances))]
	body, _ := json.Marshal(map[string]any{"instance": in})

	start := time.Now()
	resp, err := postCtx(ctx, client, baseURL+"/v1/sessions", body)
	ms := float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		if ctx.Err() == nil {
			col.observe(true, ms, true)
		}
		return
	}
	var info struct {
		SessionID string `json:"session_id"`
		Error     string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	created := resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated
	col.observe(true, ms, !created || info.Error != "" || info.SessionID == "")
	if !created || info.SessionID == "" {
		return
	}
	owner := ring.Owner(info.SessionID)
	checkEcho(col, resp, owner, "session create")

	steps := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/sessions/" + info.SessionID + "/delta",
			mustJSON(map[string]any{"deltas": []map[string]any{{"op": "set_machines", "m": 2 + rng.Intn(6)}}})},
		{http.MethodPost, "/v1/sessions/" + info.SessionID + "/solve", []byte("{}")},
		{http.MethodDelete, "/v1/sessions/" + info.SessionID, nil},
	}
	for _, st := range steps {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, st.method, baseURL+st.path, bytes.NewReader(st.body))
		if err != nil {
			col.observe(true, 0, true)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		ms := float64(time.Since(start).Microseconds()) / 1e3
		if err != nil {
			if ctx.Err() == nil {
				col.observe(true, ms, true)
			}
			return
		}
		var out struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		col.observe(true, ms, resp.StatusCode/100 != 2 || out.Error != "")
		checkEcho(col, resp, owner, st.method+" "+st.path)
	}
}

func postCtx(ctx context.Context, client *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return client.Do(req)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

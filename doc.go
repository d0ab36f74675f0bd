// Package setupsched implements near-linear approximation algorithms for
// makespan scheduling with batch setup times on identical parallel
// machines, reproducing
//
//	Max A. Deppert and Klaus Jansen.
//	"Near-Linear Approximation Algorithms for Scheduling Problems with
//	Batch Setup Times".  SPAA 2019.  https://arxiv.org/abs/1810.01223
//
// # Problem
//
// n jobs are partitioned into c classes; machine u must run a setup s_i
// before processing jobs of class i whenever it starts class i or switches
// to it from another class.  Setups are never preempted.  The objective is
// to minimize the makespan.  Three flavors are supported:
//
//   - Splittable (P|split,setup=s_i|Cmax): jobs may be preempted and
//     processed on several machines in parallel.
//   - Preemptive (P|pmtn,setup=s_i|Cmax): jobs may be preempted but run on
//     at most one machine at a time.
//   - NonPreemptive (P|setup=s_i|Cmax): jobs run in one piece.
//
// # Algorithms
//
// For every flavor the package provides, matching the paper:
//
//   - a 2-approximation in O(n)                              (Theorem 1)
//   - a (3/2+eps)-approximation in O(n log 1/eps)            (Theorem 2)
//   - an exact 3/2-approximation:
//     splittable    in O(n + c log(c+m))  via Class Jumping  (Theorem 3)
//     preemptive    in O(n log n)         via Class Jumping  (Theorem 6)
//     non-preemptive in O(n log(n+Delta)) via binary search  (Theorem 8)
//
// All makespan decisions use exact rational arithmetic with 128-bit
// intermediate products, so the stated approximation ratios are hard
// guarantees, not floating-point approximations.  Every Result carries a
// certified lower bound on OPT derived from rejected dual guesses.
//
// # Quick start
//
//	in := &setupsched.Instance{
//		M: 3,
//		Classes: []setupsched.Class{
//			{Setup: 4, Jobs: []int64{7, 2, 5}},
//			{Setup: 1, Jobs: []int64{3, 3}},
//		},
//	}
//	solver, err := setupsched.NewSolver(in)
//	if err != nil { ... }
//	res, err := solver.Solve(ctx, setupsched.NonPreemptive)
//	if err != nil { ... }
//	fmt.Println(res.Makespan, res.LowerBound, res.Ratio)
//
// # Solver API
//
// A Solver is created once per instance and reused: NewSolver validates
// the instance and runs the O(n) preparation that every algorithm and
// every dual test shares, so repeated solves — across variants,
// algorithms, or a stream of probe requests — skip it.  All methods are
// context-first and safe for concurrent use:
//
//	solver, err := setupsched.NewSolver(in)
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, err := solver.Solve(ctx, setupsched.Preemptive,
//		setupsched.WithAlgorithm(setupsched.EpsilonSearch),
//		setupsched.WithEpsilon(1e-6),
//		setupsched.WithProbeLimit(64),
//		setupsched.WithObserver(myMetrics))
//
// A canceled or expired context aborts the search between probes with an
// error matching both ErrCanceled and the context's own error; no
// partial schedule is returned.  The searches are sequences of dual-test
// evaluations ("probes") at makespan guesses T; an Observer registered
// with WithObserver sees every probe live, and Result.Trace records the
// full sequence after the fact.
//
// Errors are typed: ErrNilInstance, *ValidationError (bad instance),
// *EpsilonRangeError (epsilon outside (0, 1)), ErrCanceled (context),
// ErrProbeLimit (budget from WithProbeLimit exhausted).
//
// # Concurrency and parallelism
//
// A Solver is immutable after NewSolver and safe for concurrent use: any
// number of goroutines may call Solve, SolveAll, DualTest and LowerBound
// on one Solver simultaneously, all sharing the one prepared instance.
// Every search probes serially, one guess at a time, as in the paper.
// SolveAll solves many (variant, algorithm) combinations — by default the
// paper's nine, see PaperRuns and WithRuns — off the one shared
// preparation, with WithParallelism(n) bounding the number of concurrent
// runs and results reported in deterministic (requested) order.
//
// Observer event ordering: one solve emits its events sequentially from
// its own goroutine, never concurrently, and each ProbeStarted(T) is
// followed by its ProbeFinished(T) before the next probe starts.  An
// Observer shared by several concurrent solves (one metrics sink behind
// a server, or any Observer passed to SolveAll) must be safe for
// concurrent use.  Result.Trace holds one entry per probe, in execution
// order.
//
// The whole tree runs race-clean (go test -race ./..., enforced in CI),
// and internal/diff cross-checks that the SolveAll fan-out returns
// bit-identical results to serial solves over the full schedgen catalog.
//
// # Observability
//
// Package setupsched/obs builds on the Observer seam: an obs.ProbeCounter
// feeds probe events into an atomic counter with zero allocations per
// probe, and an obs.SpanRecorder assembles a solve-lifecycle span tree —
// prepare (the shared O(n) preprocessing), search (one child per dual
// test, recording the guess T and its accept/reject outcome) and build
// (schedule construction) — mirroring the phase structure of the paper's
// algorithms.  Both satisfy Observer directly; neither changes answers.
// The same package provides the metrics core (counters, gauges,
// fixed-bucket histograms) and the Prometheus text exposition behind
// serve's GET /metrics.  See the README's "Observability" section and
// ALGORITHMS.md for the span-name-to-paper-phase map.
//
// See ALGORITHMS.md for the paper-to-code map of all nine algorithms and
// the search machinery the parallel engine plugs into.
//
// # Incremental sessions
//
// A Solver is immutable by design; absorbing instance mutation is the
// job of package setupsched/stream.  A stream.Session wraps a private
// mutable instance, applies deltas (sched.Delta: job churn, setup drift,
// class add/remove, machine scaling) by patching the shared preparation
// in O(|delta|) instead of re-running the O(n) pass, and re-solves
// warm: the exact searches are seeded with the previous certified
// [reject, accept] bracket — the previous threshold probed first, the
// delta-shifted bound second — so a stream of small edits re-certifies
// in O(1)-ish probes per change.  The contract is bit-identity: at
// every revision a session solve returns exactly what a fresh
// NewSolver + Solve of the current instance returns (probe counts and
// traces excepted — warm solves run fewer probes).  The eps-search
// always re-solves cold, because its certified pair is a function of
// the full bisection trajectory; warm solves that land on a documented
// bounded-round fallback are discarded and re-run cold for the same
// reason.  internal/diff replays generated drift traces through
// sessions and fresh solvers side by side to enforce all of this
// (tier-1, schedstress -drift, FuzzSessionDeltas).
//
// # Serving
//
// Package setupsched/serve exposes the solvers as a long-running HTTP/JSON
// service (run with cmd/schedserve): single and streaming-batch solve
// endpoints backed by a bounded worker pool, plus an LRU result cache
// keyed by sched.Instance.Fingerprint, a canonical-form hash invariant
// under permutation of classes and of jobs within a class.  Cached
// results are re-checked with Verify before they are served.  The
// service keeps one prepared Solver per fingerprint, honors per-request
// timeouts and client-disconnect cancellation, and reports probe-level
// search metrics plus the process's goroutine posture on /v1/stats.  Stateful delta traffic goes through the /v1/sessions
// endpoints, which keep stream.Sessions alive server-side under TTL and
// LRU eviction; a saturated batch worker pool answers 429 with
// Retry-After instead of queueing unboundedly.
//
// # Scaling out
//
// One serve process is the unit of deployment; package setupsched/shard
// and cmd/schedlb compose k of them into one horizontally scaled
// service.  shard provides the pluggable Store interface behind serve's
// result, solver and session state (in-memory today, external
// tomorrow) and a consistent-hash Ring (1024 virtual nodes per shard)
// that routes stateless solves by canonical instance fingerprint and
// session traffic by session id.  schedlb is the stateless front tier:
// it pins session ids at create time, fans /v1/solve/batch lines
// across owning shards merging responses in arrival order, retries
// idempotent requests once on connection failure, and verifies every
// response's X-Sched-Shard echo against its own ring (misroutes are
// counted; the contract is zero).  Topology changes migrate sessions
// by drain + snapshot import with solves bit-identical to fresh solves
// of the moved instances.  cmd/schedload is the multi-process
// load-test harness proving the contract and recording the latency/RPS
// trajectory in BENCH_serve.json.
//
// # Testing
//
// Package setupsched/schedgen generates deterministic, seed-reproducible
// adversarial instances, one self-describing family per structural regime
// of the paper's analysis (cheap/expensive setups, single-job classes,
// jobs at the T/2 threshold, heavy-tailed class sizes, all-setup and
// no-setup extremes, rational-ratio stress, machine-count sweeps).  On
// top of it, the differential harness internal/diff solves every family
// with all nine paper algorithms, re-checks each result with Verify,
// asserts the measured ratios against the per-variant guarantees, and
// cross-checks certified bounds and makespans against exhaustive optima
// (internal/exact) on small instances and against baseline and
// cross-variant bounds otherwise.  cmd/schedstress exposes the harness as
// a soak CLI; native fuzz targets (FuzzFingerprintCanonicalRoundTrip,
// FuzzVerifySchedule) guard the canonicalization and verification trust
// boundaries.
//
// See the examples/ directory for runnable end-to-end scenarios, README.md
// ("Architecture", "Performance tracking") for the system inventory and
// reproduction notes, and ALGORITHMS.md for the paper-to-code map.
package setupsched

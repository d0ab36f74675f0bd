// Command schedload is the multi-process load-test harness for the
// sharded schedserve deployment.  One invocation spawns a fleet per
// requested shard count — k schedserve processes behind one schedlb —
// drives a mixed solve/session workload through the proxy at a target
// request rate, verifies every response's X-Sched-Shard echo against
// the consistent-hash ring (zero tolerance), and logs one latency line
// per fleet.  It exits non-zero on any routing error, and when a fleet
// completes no solve or no session request.
//
// Usage:
//
//	schedload [-shards 1,3] [-duration 5s] [-rps 50] [-workers 8] \
//	          [-session-frac 0.25] [-instances 64] [-seed 1] \
//	          [-serve-bin path] [-lb-bin path] \
//	          [-trace-report] [-trace-requests 120]
//
// -trace-report switches the harness into tracing mode: it mints one
// sampled W3C trace context per solve, joins the lb-side and shard-side
// flight recorders (GET /v1/debug/traces) by trace id, and prints a
// per-segment latency attribution table — lb routing, network hop,
// shard queue, prepare, search, build — with nearest-rank p50/p99 per
// segment.  A trace landing off its ring-predicted shard, or segments
// summing more than 5% away from the measured end-to-end latency, is
// fatal.
//
// With -serve-bin/-lb-bin the fleet runs those real binaries (CI builds
// them first); without, schedload re-execs itself in child mode, so
// `go run ./cmd/schedload` needs nothing prebuilt.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"setupsched/internal/loadtest"
)

func main() {
	loadtest.MaybeRunChild()

	shardsFlag := flag.String("shards", "1,3", "comma-separated shard counts to measure (each spawns its own fleet)")
	duration := flag.Duration("duration", 5*time.Second, "workload duration per shard count")
	rps := flag.Int("rps", 50, "target request rate for the mixed workload")
	workers := flag.Int("workers", 8, "concurrent request workers")
	sessionFrac := flag.Float64("session-frac", 0.25, "fraction of operations that run a session lifecycle")
	instances := flag.Int("instances", 64, "instance pool size")
	seed := flag.Int64("seed", 1, "workload op-sequence seed")
	serveBin := flag.String("serve-bin", "", "path to a real schedserve binary (default: re-exec self)")
	lbBin := flag.String("lb-bin", "", "path to a real schedlb binary (default: re-exec self)")
	traceReport := flag.Bool("trace-report", false, "drive traced solves and print the per-segment latency attribution instead of the workload")
	traceRequests := flag.Int("trace-requests", 120, "traced solves per fleet in -trace-report mode")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "schedload: unexpected arguments:", flag.Args())
		os.Exit(2)
	}

	var counts []int
	for _, part := range strings.Split(*shardsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			log.Fatalf("schedload: bad -shards entry %q", part)
		}
		counts = append(counts, n)
	}

	ctx := context.Background()
	if *traceReport {
		for _, k := range counts {
			if err := runTraceReport(ctx, k, *serveBin, *lbBin, *traceRequests, *seed); err != nil {
				log.Fatalf("schedload: %d shards: %v", k, err)
			}
		}
		return
	}
	totalRouting := 0
	for _, k := range counts {
		res, err := measure(ctx, loadtest.ClusterConfig{
			Shards: k, ServeBin: *serveBin, LBBin: *lbBin, Logf: log.Printf,
		}, loadtest.WorkloadConfig{
			Duration: *duration, RPS: *rps, Workers: *workers,
			SessionFraction: *sessionFrac, Instances: *instances, Seed: *seed,
		})
		if err != nil {
			log.Fatalf("schedload: %d shards: %v", k, err)
		}
		log.Printf("shards=%d: %.1f req/s achieved (target %d), solve p50=%.2fms p99=%.2fms, session p50=%.2fms p99=%.2fms, routing errors=%d, spread=%v",
			k, res.AchievedRPS, *rps, res.Solve.P50Ms, res.Solve.P99Ms,
			res.Session.P50Ms, res.Session.P99Ms, res.RoutingErrors, res.ShardHits)
		totalRouting += res.RoutingErrors
	}
	if totalRouting > 0 {
		log.Fatalf("schedload: %d routing errors (want zero) — ring and fleet disagree", totalRouting)
	}
}

// runTraceReport spawns one fleet, drives the traced solves, joins the
// lb-side and shard-side flight recorders by trace id, and prints the
// per-segment latency attribution table.  A placement error (a trace
// off its ring-predicted shard) or a segment sum off the end-to-end
// latency by more than 5% is fatal.
func runTraceReport(ctx context.Context, shards int, serveBin, lbBin string, requests int, seed int64) error {
	cluster, err := loadtest.StartCluster(ctx, loadtest.ClusterConfig{
		Shards: shards, ServeBin: serveBin, LBBin: lbBin, Logf: log.Printf,
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()
	rep, err := loadtest.RunTraceReport(ctx, cluster.LBURL, cluster.Shards, loadtest.TraceReportConfig{
		Requests: requests, Seed: uint64(seed),
	})
	if err != nil {
		return err
	}
	fmt.Printf("trace report (%d shards): %d requests, %d joined, %d placement errors, max segment-sum error %.2f%%\n",
		rep.Shards, rep.Requests, rep.Joined, len(rep.PlacementErrors), rep.MaxSumErrPct)
	fmt.Printf("%-12s %10s %10s %10s\n", "segment", "p50 ms", "p99 ms", "max ms")
	for _, seg := range rep.Segments {
		fmt.Printf("%-12s %10.3f %10.3f %10.3f\n", seg.Name, seg.P50Ms, seg.P99Ms, seg.MaxMs)
	}
	fmt.Printf("%-12s %10.3f %10.3f %10.3f\n", rep.E2E.Name, rep.E2E.P50Ms, rep.E2E.P99Ms, rep.E2E.MaxMs)
	return rep.Check()
}

func measure(ctx context.Context, cc loadtest.ClusterConfig, wc loadtest.WorkloadConfig) (*loadtest.WorkloadResult, error) {
	cluster, err := loadtest.StartCluster(ctx, cc)
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	return loadtest.RunWorkload(ctx, cluster.LBURL, cluster.Shards, wc)
}

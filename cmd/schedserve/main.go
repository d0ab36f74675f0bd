// Command schedserve runs the setupsched HTTP solve service.
//
// Usage:
//
//	schedserve [-addr :8080] [-workers N] [-cache N] [-timeout 0] \
//	           [-max-batches N] [-max-sessions N] [-session-ttl D] \
//	           [-shard-id ID] [-session-snapshot FILE] \
//	           [-pprof] [-slow-solve 0] [-flight N]
//
// The sizing flags default to 0, which takes serve.Config's default.
// The startup log line echoes the configuration the server runs with,
// defaults resolved (max-batches=0 prints as 2*workers).
//
// Endpoints (see package setupsched/serve for the wire formats):
//
//	POST   /v1/solve               solve one instance
//	POST   /v1/solve/batch         solve an NDJSON stream of instances
//	                               (429 + Retry-After when saturated)
//	POST   /v1/sessions            open an incremental solve session
//	GET    /v1/sessions/{id}       session shape and revision
//	POST   /v1/sessions/{id}/delta apply instance deltas
//	POST   /v1/sessions/{id}/solve warm re-solve of the session instance
//	DELETE /v1/sessions/{id}       close a session
//	POST   /v1/admin/drain         flip into draining mode and stream a
//	                               session snapshot export (NDJSON)
//	POST   /v1/admin/sessions/import
//	                               bulk re-create sessions from a
//	                               snapshot stream
//	GET    /healthz                liveness probe (503 while draining)
//	GET    /metrics                Prometheus text exposition: counters,
//	                               cache/session hits, latency histogram
//	GET    /v1/debug/traces        flight recorder: recently completed
//	                               request traces (?trace_id=, ?min_ms=)
//	GET    /debug/pprof/...        runtime profiles (only with -pprof)
//
// With -slow-solve DURATION every solve slower than the threshold emits
// one structured log line (trace id, fingerprint, algorithm, probe
// count, and the prepare/search/build phase breakdown from the solve's
// span tree) and the trace is pinned in the flight recorder's slow ring.
//
// A request carrying a sampled W3C traceparent — the header, or the
// per-line "traceparent" field on the batch route — gets a distributed
// trace: the response carries trace_id, and the completed handler/queue/
// solve span tree lands in the flight recorder at /v1/debug/traces
// (ring size -flight, negative disables).  Untraced requests pay
// nothing.
//
// In a sharded deployment (see cmd/schedlb) set -shard-id so responses
// carry the X-Sched-Shard identity echo the front tier verifies routing
// against.  -session-snapshot FILE makes shard restarts lossless for
// session state: on SIGTERM the process drains in-flight requests, then
// exports every live session to FILE (atomic tmp+rename); on start, if
// FILE exists, its sessions are imported under their original ids and
// revisions and the file is removed.
//
// Example (stateless solve, then a session with a delta):
//
//	schedserve -addr :8080 &
//	curl -s localhost:8080/v1/solve -d '{
//	  "variant": "nonp",
//	  "instance": {"m": 3, "classes": [{"setup": 4, "jobs": [7, 2, 5]},
//	                                   {"setup": 1, "jobs": [3, 3]}]}
//	}'
//	SID=$(curl -s localhost:8080/v1/sessions -d '{
//	  "instance": {"m": 3, "classes": [{"setup": 4, "jobs": [7, 2, 5]}]}
//	}' | jq -r .session_id)
//	curl -s localhost:8080/v1/sessions/$SID/delta -d '{
//	  "deltas": [{"op": "add_jobs", "class": 0, "jobs": [6]}]}'
//	curl -s localhost:8080/v1/sessions/$SID/solve -d '{"variant": "nonp"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"setupsched/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "result cache capacity in entries (0 = serve's default, negative disables)")
	timeout := flag.Duration("timeout", 0, "per-solve timeout (0 disables; requests may set a tighter timeout_ms)")
	maxBatches := flag.Int("max-batches", 0, "concurrent batch requests before 429 (0 = 2*workers, negative = unlimited)")
	maxSessions := flag.Int("max-sessions", 0, "live incremental solve sessions retained, LRU-evicted past this (0 = serve's default, negative disables sessions)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle session eviction deadline (0 = serve's default, negative disables the TTL)")
	shardID := flag.String("shard-id", "", "shard identity echoed in X-Sched-Shard responses (sharded deployments)")
	snapshotFile := flag.String("session-snapshot", "", "session snapshot file: import+remove on start, export on shutdown")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	slowSolve := flag.Duration("slow-solve", 0, "log a structured slow-solve line for solves slower than this (0 disables)")
	flight := flag.Int("flight", 0, "flight-recorder ring size for completed request traces (0 = default, negative disables)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "schedserve: unexpected arguments:", flag.Args())
		os.Exit(2)
	}

	server := serve.New(serve.Config{
		Workers:              *workers,
		CacheSize:            *cacheSize,
		SolveTimeout:         *timeout,
		MaxConcurrentBatches: *maxBatches,
		SessionCapacity:      *maxSessions,
		SessionTTL:           *sessionTTL,
		SlowSolveThreshold:   *slowSolve,
		ShardID:              *shardID,
		FlightRecorderSize:   *flight,
	})
	if *snapshotFile != "" {
		if err := importSnapshot(server, *snapshotFile); err != nil {
			log.Fatalf("schedserve: session snapshot import: %v", err)
		}
	}
	var handler http.Handler = server
	if *pprofFlag {
		// The serve mux knows nothing about pprof; wrap it so the debug
		// endpoints stay strictly opt-in.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		cfg := server.Config()
		log.Printf("schedserve: listening on %s (workers=%d, cache=%d, timeout=%v, max-batches=%d, max-sessions=%d, session-ttl=%v)",
			*addr, cfg.Workers, cfg.CacheSize, cfg.SolveTimeout, cfg.MaxConcurrentBatches, cfg.SessionCapacity, cfg.SessionTTL)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("schedserve: %v", err)
		}
	case <-ctx.Done():
		log.Print("schedserve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("schedserve: shutdown: %v", err)
		}
		// In-flight requests have drained; the session registry is
		// quiescent, so export after Shutdown, not before.
		if *snapshotFile != "" {
			if err := exportSnapshot(server, *snapshotFile); err != nil {
				log.Printf("schedserve: session snapshot export: %v", err)
			}
		}
	}
}

// importSnapshot restores sessions from a previous run's export and
// removes the file so a crash before the next export can't resurrect
// stale sessions twice.
func importSnapshot(server *serve.Server, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	n, impErr := server.ImportSessions(context.Background(), f)
	f.Close()
	if impErr != nil {
		return impErr
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	log.Printf("schedserve: imported %d sessions from %s", n, path)
	return nil
}

// exportSnapshot writes the live sessions atomically (tmp + rename) so
// a crash mid-export never leaves a truncated snapshot for the next
// start to trip over.
func exportSnapshot(server *serve.Server, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	n, expErr := server.ExportSessions(context.Background(), f)
	if err := f.Close(); expErr == nil {
		expErr = err
	}
	if expErr != nil {
		os.Remove(tmp)
		return expErr
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	log.Printf("schedserve: exported %d sessions to %s", n, path)
	return nil
}

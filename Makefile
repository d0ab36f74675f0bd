GO ?= go

.PHONY: all build test test-race vet loc bench bench-smoke perfbench-smoke fuzz-smoke stress-smoke stream-smoke metrics-smoke loadtest-smoke trace-smoke quality-smoke quality-json serve clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Shared Solvers serve concurrent requests; the race detector must stay
# clean over the whole tree.
test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Size of the program: non-blank lines of the non-test Go files outside
# perfbench/ and perfbench's .bench_build/ cache, then the same count
# without the lines that are only a // comment.
loc:
	@files=$$(find . \( -path ./perfbench -o -name .bench_build \) -prune -o -name '*.go' ! -name '*_test.go' -print); \
	all=$$(cat $$files | grep -cv '^[[:space:]]*$$'); \
	code=$$(cat $$files | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'); \
	echo "$$all non-blank lines, $$code without // comment lines"

# Root benchmarks reproduce the paper's Table 1 / figure measurements;
# ./serve benchmarks track the serving layer's hot path (cache hit vs
# cold solve).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./serve

# One iteration of every serving-path and Solver-API benchmark: catches
# regressions (a benchmark that no longer compiles or panics) in CI
# without paying for full measurement runs.
bench-smoke:
	$(GO) test -bench='SolveCold|SolveHit|Fingerprint|HTTPSolve' -benchtime=1x -run=^$$ ./serve
	$(GO) test -bench='SolverReuse|SolverOneShotPerCall|DualTest|Parallel_' -benchtime=1x -run=^$$ .
	$(GO) test -bench='Session_' -benchtime=1x -run=^$$ ./stream
	$(GO) test -bench='EvalNonp|Jump|Build|Probe' -benchtime=1x -run=^$$ ./internal/core

# One short untraced run of the end-to-end benchmark (BENCHMARK.json,
# see README "Performance tracking") per workload.  Each run checks every
# output itself — Verify, makespan within 3/2 of the certified bound,
# session answers bit-identical to a fresh solver, each serve-hits HTTP
# answer against the library's makespan and the ring owner, sampled
# schedules validated against the request's own instance — and the
# target fails unless its result line reports "correct":true.
perfbench-smoke:
	@set -e; for w in core-cold serve-hits session-churn; do \
		line=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$line"; \
		case "$$line" in *'"correct":true'*) ;; *) echo "perfbench-smoke: $$w failed" >&2; exit 1;; esac; \
	done
	@echo "perfbench-smoke: ok"

# Short fuzz sessions on the canonicalization/verification trust
# boundaries, the incremental session engine, the solve-request
# decoders of both serving tiers, the session delta route and Batch
# Wrapping against its Rat oracle.  The native fuzzer allows one -fuzz
# target per invocation.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFingerprintCanonicalRoundTrip -fuzztime=$(FUZZTIME) ./sched
	$(GO) test -run='^$$' -fuzz=FuzzVerifySchedule -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzSessionDeltas -fuzztime=$(FUZZTIME) ./stream
	$(GO) test -run='^$$' -fuzz=FuzzExactSandwich -fuzztime=$(FUZZTIME) ./internal/exact
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./serve
	$(GO) test -run='^$$' -fuzz=FuzzDeltaJSON -fuzztime=$(FUZZTIME) ./serve
	$(GO) test -run='^$$' -fuzz=FuzzRouteInstance -fuzztime=$(FUZZTIME) ./internal/lb
	$(GO) test -run='^$$' -fuzz=FuzzWrap -fuzztime=$(FUZZTIME) ./internal/wrap
	$(GO) test -run='^$$' -fuzz=FuzzSortKeys -fuzztime=$(FUZZTIME) ./internal/core

# A short differential soak: every schedgen family through all nine
# algorithms with guarantee checking (see cmd/schedstress).
stress-smoke:
	$(GO) run ./cmd/schedstress -families all -seeds 10 -duration 10s

# The streaming session layer's smoke: race-checked session tests plus a
# drift-trace soak asserting incremental-vs-fresh bit-identity.
stream-smoke:
	$(GO) test -race ./stream
	$(GO) run ./cmd/schedstress -drift -seeds 10

# End-to-end observability smoke: start schedserve, run one solve, scrape
# GET /metrics, and validate the exposition syntax with the obs package's
# own parser (TestValidateExpositionFile reads the scrape file).
METRICS_ADDR ?= 127.0.0.1:19131
metrics-smoke:
	$(GO) build -o .metrics-smoke-serve ./cmd/schedserve
	@set -e; \
	./.metrics-smoke-serve -addr $(METRICS_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -f .metrics-smoke-serve .metrics-smoke-scrape' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://$(METRICS_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -sf http://$(METRICS_ADDR)/v1/solve -d '{"instance":{"m":3,"classes":[{"setup":4,"jobs":[7,2,5]},{"setup":1,"jobs":[3,3]}]}}' >/dev/null; \
	curl -sf http://$(METRICS_ADDR)/metrics > .metrics-smoke-scrape; \
	grep -q '^sched_requests_total{kind="solve"} 1' .metrics-smoke-scrape; \
	grep -q '^sched_solve_duration_seconds_count 1' .metrics-smoke-scrape; \
	SCHED_METRICS_FILE=$$PWD/.metrics-smoke-scrape $(GO) test -count=1 -run TestValidateExpositionFile ./obs; \
	echo "metrics-smoke: ok"

# Distributed-serving smoke: build the real schedserve and schedlb
# binaries, launch a 3-shard fleet (plus a 1-shard baseline) behind the
# proxy, drive a short mixed solve/session workload, and fail on any
# routing error or on a fleet that completes no solve or no session
# request (schedload exits nonzero on either).
LOADTEST_DURATION ?= 5s
LOADTEST_RPS ?= 40
loadtest-smoke:
	mkdir -p bin
	$(GO) build -o bin/schedserve ./cmd/schedserve
	$(GO) build -o bin/schedlb ./cmd/schedlb
	$(GO) run ./cmd/schedload -shards 1,3 -duration $(LOADTEST_DURATION) \
		-rps $(LOADTEST_RPS) -serve-bin bin/schedserve -lb-bin bin/schedlb
	@echo "loadtest-smoke: ok"

# Distributed-tracing smoke: build the real schedserve and schedlb
# binaries, launch a 2-shard fleet behind the proxy, drive traced solves
# (one sampled W3C trace context each), then join both tiers' flight
# recorders (GET /v1/debug/traces) by trace id.  Fails unless every
# trace joined, landed on exactly its ring-predicted shard, and its
# per-segment attribution sums to within 5% of the measured end-to-end
# latency.
TRACE_REQUESTS ?= 120
trace-smoke:
	mkdir -p bin
	$(GO) build -o bin/schedserve ./cmd/schedserve
	$(GO) build -o bin/schedlb ./cmd/schedlb
	$(GO) run ./cmd/schedload -shards 2 -trace-report -trace-requests $(TRACE_REQUESTS) \
		-serve-bin bin/schedserve -lb-bin bin/schedlb
	@echo "trace-smoke: ok"

# Approximation-quality smoke: validate the committed BENCH_quality.json
# (schema + every recorded worst ratio within its paper guarantee, exact
# rational compare), then re-sweep a seed subset with the current binary
# and fail if any family's worst measured ratio regressed against the
# committed baseline (see cmd/schedquality).
QUALITY_SEEDS ?= 4
quality-smoke:
	$(GO) run ./cmd/schedquality -validate BENCH_quality.json
	$(GO) run ./cmd/schedquality -gate -baseline BENCH_quality.json -seeds $(QUALITY_SEEDS)
	@echo "quality-smoke: ok"

# Regenerate the committed approximation-quality baseline (full seed
# sweep; see README "Approximation quality").
quality-json:
	$(GO) run ./cmd/schedquality -seeds 12 -workers 8 -o BENCH_quality.json
	$(GO) run ./cmd/schedquality -validate BENCH_quality.json

serve:
	$(GO) run ./cmd/schedserve

clean:
	$(GO) clean ./...

# Build/test entry points. `make verify` is the tier-1 gate; `make race`
# is the concurrency tier covering the parallel scheduler and the shared
# stores under the Go race detector.

GO ?= go

.PHONY: build test verify race golden fmt-check pfvet pfvet-sarif fuzz-smoke bench-build bench-morsel bench-morsel-smoke bench-service bench-store service-smoke store-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

verify: build test

# gofmt cleanliness gate: fails listing the offending files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Project-specific static analysis (cmd/pfvet). Per-package checks
# (shared-vector mutation, kernel determinism, context polling in row
# loops, by-value sync state, map-order determinism) plus the
# interprocedural suite (lock ordering and lock-across-I/O, columnar
# ownership on publish paths, goroutine lifecycle/drain discipline,
# service-boundary error classification).
# `go run ./cmd/pfvet -rules lockorder,errclass` runs a subset locally.
pfvet:
	$(GO) run ./cmd/pfvet

# Same analysis, also writing a SARIF 2.1.0 log for CI annotation. The
# file is written even when the tree is clean (uploaders want a log per
# run), and the exit status still fails the build on findings.
pfvet-sarif:
	$(GO) run ./cmd/pfvet -sarif pfvet.sarif

# Short native-fuzzing smoke over the parser, lexer, and document loader:
# runs each target briefly so CI catches shallow panics; long exploratory
# runs stay manual (go test -fuzz=... -fuzztime=5m).
fuzz-smoke:
	$(GO) test ./internal/xquery -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/xquery -fuzz FuzzLex -fuzztime 10s
	$(GO) test ./internal/xenc -fuzz FuzzLoadDocument -fuzztime 10s
	$(GO) test ./internal/service -fuzz FuzzNormalizeQuery -fuzztime 10s

# Race tier: the packages with query-time shared state — the scheduler
# (internal/engine), the column vectors (internal/bat), the string
# pools + fragment registry (internal/xenc), and the concurrent service
# layer (internal/service + the MIL TCP server it embeds).
race:
	$(GO) test -race ./internal/engine/... ./internal/bat/... ./internal/xenc/... ./internal/service/... ./internal/mil/... ./internal/pfstore/...

# Full-repo race run (slower; includes the differential suites).
race-all:
	$(GO) test -race ./...

# Regenerate the pinned XMark query outputs after an intentional change.
golden:
	$(GO) test ./internal/engine -run TestXMarkGolden -update

# The end-to-end benchmark (perfbench/, run by perfbench/run.sh) is a
# separate module compiled against the engine, physical, service and
# store APIs; vet and build it so an API break fails here rather than
# only in the benchmark pipeline.
bench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null .

# Intra-operator morsel parallelism sweep vs the single-worker physical
# executor; writes BENCH_morsel.json with per-query morsel counts.
# -gomaxprocs 0 keeps the host's setting; raise it explicitly when the
# environment pins GOMAXPROCS below the core count.
bench-morsel:
	$(GO) run ./cmd/xmarkbench -report morsel -sfs 0.1 -gomaxprocs 0 -worker-sweep 2,4,8 -v

# CI smoke: a tiny instance at two workers — catches parallel-path
# regressions (mismatches fail the query cells) without nightly budgets.
bench-morsel-smoke:
	$(GO) run ./cmd/xmarkbench -report morsel -sfs 0.01 -worker-sweep 2 -repeat 2 -morsel-out BENCH_morsel_smoke.json

# Service load benchmark: N clients of mixed point/heavy XMark traffic
# against an in-process service; writes BENCH_service.json with per-class
# throughput and p50/p95/p99 latency. On single-CPU hosts the report is
# cpu_caveat-stamped — the numbers there are time-slicing, not capacity.
bench-service:
	$(GO) run ./cmd/pfload -launch -gen xmark.xml=0.01 -clients 16 -duration 10s -v

# CI smoke for the service path: a real pfserver process (HTTP + TCP),
# pfload driving it briefly, /stats scraped, completions asserted, and a
# graceful TERM shutdown checked.
service-smoke:
	./scripts/service_smoke.sh

# Persistence benchmark: cold shred of auction.xml vs pfstore save +
# reopen, with a differential query check; writes BENCH_store.json
# (cpu_caveat-stamped on single-CPU hosts).
bench-store:
	$(GO) run ./cmd/xmarkbench -report store -sfs 0.1 -v

# CI smoke for the store path: persist a collection through one pfserver,
# restart over the same catalog directory, and assert the second process
# answers collection queries without ever seeing the source XML.
store-smoke:
	./scripts/store_smoke.sh

# Standard developer targets. `make verify` is the tier-1 gate plus
# vet and the race detector — run it before sending a change.

GO ?= go

.PHONY: build test vet staticcheck race perfbench-check verify stress bench bench-all test-short test-cluster test-chaos smoke-service smoke-pipeline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck is optional locally (CI installs it): skip with a notice
# when the binary is not on PATH.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# perfbench/ is a separate module (it runs BENCHMARK.json), so `go
# build ./...` never compiles it: vet and self-test it here, so a change
# to an API it imports cannot pass unnoticed. Offline, like perfbench/run.sh.
PERFBENCH_ENV = GOWORK=off GOFLAGS=-mod=mod GOPROXY=off

perfbench-check:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet . && $(PERFBENCH_ENV) $(GO) test .

verify: build vet staticcheck race perfbench-check

# Flake hunt: the packages that run sockets, worker subprocesses and
# fault injection, twenty times each under the race detector. A flaky
# test shows up as a failure; nothing is retried.
stress:
	$(GO) test -race -count=20 -timeout 1500s ./internal/mr ./internal/cluster ./internal/chaos

# Map-path benchmarks, published as BENCH_4.json (the baseline/default
# sub-benchmark pairs become speedup + allocation-reduction rows), the
# skew-partitioning benchmarks as BENCH_5.json (hash vs range vs
# split max/mean partition bytes via custom ReportMetric units), and
# the shuffle data-plane benchmarks as BENCH_7.json (raw vs sendfile
# vs compressed throughput with bytes-on-wire per op).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMapBufferSpill|BenchmarkMapPathE2E|BenchmarkMergeIter' -benchmem ./internal/mr/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_4.json
	$(GO) test -run '^$$' -bench 'BenchmarkSkewPartition' -benchmem ./internal/experiments/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_5.json
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineHandoff' -benchmem ./internal/experiments/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_6.json
	$(GO) test -run '^$$' -bench 'BenchmarkShuffleDataPlane' -benchmem ./internal/mr/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_7.json

# Every benchmark in the repository, human-readable.
bench-all:
	$(GO) test -bench=. -benchmem -run XXX ./...

# Everything except the subprocess-spawning cluster integration tests
# (they gate themselves on testing.Short).
test-short:
	$(GO) test -race -short ./...

# Cluster integration: subprocess workers, worker-kill recovery,
# byte-identical output vs the in-process engine.
test-cluster:
	$(GO) test -race -timeout 600s ./internal/cluster/

# Chaos soak: seeded deterministic fault injection over the in-process
# engine and the cluster runtime.
# A failure prints its seed; replay one with
# `go test ./internal/chaos/ -run Soak -chaos-seed N`.
test-chaos:
	$(GO) test -race -timeout 600s ./internal/chaos/

# Service smoke: a real antserve daemon with two antwork workers,
# driven by antctl over the HTTP API — one job per tenant, quota
# enforcement, SIGTERM drain, clean shutdown.
smoke-service:
	./scripts/service_smoke.sh

# Pipeline smoke: submit the iterative-PageRank dag pipeline through
# antctl against a real antserve daemon with two workers.
smoke-pipeline:
	./scripts/pipeline_smoke.sh

# Convenience targets; CI (.github/workflows/ci.yml) runs the same
# gates.

GOBIN := $(shell go env GOPATH)/bin

.PHONY: all build test race lint phasevet fmt fuzz chaos soak soak-server install-phasevet obs obs-sizecheck obs-overhead obs-soak tune tune-sizecheck tune-overhead

all: build test lint

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/core/... ./internal/apps/... ./internal/tables/... \
		./internal/epoch/... .

# lint = everything CI gates on besides the test suite.
lint: fmt phasevet
	go vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Run the analyzer suite (phasevet + atomicvet + detvet) through go vet
# so _test.go files are covered too and object facts flow between
# packages via the .vetx files.
phasevet:
	go build -o /tmp/phasevet-vettool ./cmd/phasevet
	go vet -vettool=/tmp/phasevet-vettool ./...

install-phasevet:
	go build -o $(GOBIN)/phasevet ./cmd/phasevet

fuzz:
	go test -fuzz=FuzzWordTableOps -fuzztime=30s ./internal/core
	go test -fuzz=FuzzGrowTable -fuzztime=30s ./internal/core
	go test -fuzz=FuzzCtrlScan -fuzztime=30s ./internal/core
	go test -fuzz=FuzzCompactTableOps -fuzztime=30s ./internal/core
	go test -tags chaos -fuzz=FuzzGrowTableChaos -fuzztime=30s ./internal/core
	go test -fuzz=FuzzFrame -fuzztime=30s ./internal/epoch

# chaos = the fault-injected determinism gate CI blocks on: the whole
# test suite plus the detres oracle grid with injection armed.
chaos:
	go test -tags chaos ./...

# soak = a longer fault-injected oracle run with fresh seeds per round
# (non-blocking in CI; run locally when touching probe or migration
# paths).
soak:
	go run -tags chaos ./cmd/phload -chaos -soak 2m

# soak-server = mixed concurrent traffic with per-request deadlines
# against a self-hosted phserver over TCP loopback, twice: once at
# comfortable load, once deliberately overloaded (tiny queue + slow
# epochs) to prove degradation stays graceful — explicit shed statuses,
# bounded queue, clean drain. Non-blocking in CI; run locally when
# touching internal/epoch or the wire path.
soak-server:
	go run ./cmd/phload -server -soak 30s -deadline 5ms -clients 4
	go run ./cmd/phload -server -soak 30s -deadline 25ms -clients 4 \
		-maxbatch 64 -queue 128 -flushdelay 2ms

# obs = the phasestats telemetry gate CI blocks on: the whole test
# suite with instrumentation live (counter/histogram/span assertions,
# the detres op-count determinism grid) plus the zero-cost-off proofs
# below.
obs: obs-sizecheck
	go test -tags obs ./...

# obs-sizecheck = prove the untagged build carries no telemetry: the
# obs.Record* hooks must be dead-code-eliminated from a binary built
# without the tag (and present with it, so the check cannot pass
# vacuously).
obs-sizecheck:
	@go build -o /tmp/phbench-noobs ./cmd/phbench
	@if go tool nm /tmp/phbench-noobs | grep 'internal/obs\.Record' >/dev/null; then \
		echo "obs-sizecheck: untagged phbench still contains obs.Record* symbols"; exit 1; fi
	@go build -tags obs -o /tmp/phbench-obs ./cmd/phbench
	@if ! go tool nm /tmp/phbench-obs | grep 'internal/obs\.Record' >/dev/null; then \
		echo "obs-sizecheck: -tags obs phbench has no obs.Record* symbols (positive control failed)"; exit 1; fi
	@echo "obs-sizecheck: ok (no Record* symbols without the tag, present with it)"

# obs-overhead = the hot-loop overhead gate, now pointed at the
# always-on counter core (the obs-tag hooks const-fold away untagged;
# the core's striped counters do not, so the core is what the 1% bound
# must hold for). Kept as an alias so existing docs and muscle memory
# keep working.
obs-overhead: tune-overhead

# tune = the counter-core size check below plus the default-shard test
# in a default and a nostats build: core.NewShardedTable(n, 0) must
# build the same layout whatever the worker count, the build tags or an
# earlier skewed bulk call.
tune: tune-sizecheck
	go test -run DefaultShards ./internal/core
	go test -tags nostats -run DefaultShards ./internal/core

# tune-sizecheck = prove the always-on counter core is really the only
# always-on piece, and that -tags nostats removes even that: the
# striped sink array (obs.coreSinks) must be absent from a nostats
# build of phbench and present in the default build (the positive
# control, so the check cannot pass vacuously). Function symbols are
# useless here — the core hooks inline — so the check keys on the
# data symbol.
tune-sizecheck:
	@go build -tags nostats -o /tmp/phbench-nostats ./cmd/phbench
	@if go tool nm /tmp/phbench-nostats | grep 'internal/obs\.coreSinks' >/dev/null; then \
		echo "tune-sizecheck: -tags nostats phbench still contains the counter core (obs.coreSinks)"; exit 1; fi
	@go build -o /tmp/phbench-core ./cmd/phbench
	@if ! go tool nm /tmp/phbench-core | grep 'internal/obs\.coreSinks' >/dev/null; then \
		echo "tune-sizecheck: default phbench has no obs.coreSinks symbol (positive control failed)"; exit 1; fi
	@echo "tune-sizecheck: ok (counter core absent under -tags nostats, present by default)"

# tune-overhead = the 1% bound on the always-on counter core: the same
# 2^20-key uniform insert benchmark, built twice from the same tree —
# once with -tags nostats (hooks compiled out: the A baseline) and once
# untagged (striped core live: the B run) — and diffed. Self-contained
# on purpose: an A/B inside one run cannot rot the way a committed
# baseline from other hardware can. The gate is -geomean: individual
# rows swing several percent both ways with scheduler noise even on
# quiet hardware, but those swings cancel in the geomean, so only a
# cost paid systematically by every row trips the 1% bound. CI blocks
# on it.
COREBENCH := -run xxx -bench 'InsertAll$$' -benchmem -count=5 -cpu 1 ./internal/core

tune-overhead:
	go test -tags nostats $(COREBENCH) | go run ./cmd/benchjson > /tmp/BENCH_core_nostats.json
	go test $(COREBENCH) | go run ./cmd/benchjson > /tmp/BENCH_core_live.json
	go run ./cmd/benchjson -diff -fail -geomean -threshold 1 /tmp/BENCH_core_nostats.json /tmp/BENCH_core_live.json

# obs-soak = a chaos soak with live telemetry: watch
# http://localhost:6060/debug/phasestats while it runs, or pull a
# profile from /debug/pprof. See README "Observability" for the
# go tool trace walkthrough.
obs-soak:
	go run -tags 'chaos obs' ./cmd/phload -chaos -soak 2m -obs localhost:6060

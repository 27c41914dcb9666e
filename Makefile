# Tier-1 verification plus the fast developer loop.
#
#   make check   # the pre-commit gate: vet + short tests + race on the fast
#                # packages + a 10s fuzz smoke of each fuzz target + vet
#                # and tests of the perfbench module (CI's check job)
#   make test    # plain tier-1 tests (what the seed ran; includes the
#                # quick-budget simulations and the golden-figure pin)
#   make short   # go test -short ./... — structural tests only, < 60 s
#   make race    # full test suite under the race detector
#   make fuzz    # 10s per fuzz target (go test -fuzz takes one at a time)
#   make bench   # hot-path micro-benchmarks: Step and trace store (repo
#                # root), run-cache and checkpoint sweeps (internal/exp),
#                # scheduler and packet alloc; set BENCH_COUNT=10 for
#                # benchstat samples. The repo benchmark is
#                # `sh perfbench/run.sh` (see BENCHMARK.json).
#   make golden  # regenerate testdata/golden after an intentional change
#
# `make short` skips the long simulations (testing.Short()); run `make test`
# before shipping anything that could move simulated numbers — the golden
# test in internal/exp pins quick-mode figure output byte-for-byte.

GO ?= go

# Packages with concurrency of their own: the experiment harness fan-out,
# the persistent run cache (shared-directory stores under concurrent
# readers/writers) and the public facade. internal/network rides along so
# the parallel harness exercises the activity-driven core (active list +
# fast-forward) under the race detector; internal/checkpoint so the
# fork-equivalence conformance suite (parallel subtests sharing traces)
# runs raced too. Everything else is single-threaded simulation.
RACE_FAST = ./internal/sim ./internal/stats ./internal/runcache ./noc ./internal/network ./internal/checkpoint

# Repetitions for `make bench`; benchstat wants >= 10 samples.
BENCH_COUNT ?= 1

.PHONY: check vet build test short race race-fast fuzz perfbench-check bench golden

check: vet build short race-fast fuzz perfbench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# The race detector slows the experiment suite ~10x; the default 10m
# per-package test timeout is not enough on small machines.
race:
	$(GO) test -race -timeout 60m ./...

# Race coverage for `make check`: short mode over the packages where
# goroutines actually meet (the parallel harness runs tinyBudget sims).
race-fast:
	$(GO) test -race -short $(RACE_FAST) ./internal/exp

# -fuzzminimizetime: short smoke runs must spend their budget fuzzing, not
# minimizing the first interesting inputs (the default is 60s per find,
# which starves a 10s run down to a handful of execs).
fuzz:
	$(GO) test ./internal/routing -run xxx -fuzz FuzzRoute -fuzztime 10s
	$(GO) test ./internal/topology -run xxx -fuzz FuzzTopologyCoords -fuzztime 10s
	$(GO) test ./internal/checkpoint -run xxx -fuzz FuzzCheckpointDecode -fuzztime 10s -fuzzminimizetime=10x
	$(GO) test ./internal/checkpoint -run xxx -fuzz FuzzSnapshotRoundTrip -fuzztime 10s -fuzzminimizetime=10x
	$(GO) test ./internal/traffic/tracestore -run xxx -fuzz FuzzTraceDecode -fuzztime 10s -fuzzminimizetime=10x

# perfbench is its own module, so ./... never builds it; this catches facade
# changes that would break the benchmark.
perfbench-check:
	GOWORK=off $(GO) -C perfbench vet ./...
	GOWORK=off $(GO) -C perfbench test ./...

# benchstat-friendly: `make bench BENCH_COUNT=10 > old.txt`, change code,
# `make bench BENCH_COUNT=10 > new.txt`, `benchstat old.txt new.txt`.
bench:
	$(GO) test . -run xxx -bench 'BenchmarkStep(LowLoad|Saturation)' -benchmem -count=$(BENCH_COUNT)
	$(GO) test . -run xxx -bench 'BenchmarkTrace(CaptureCold|DecodeWarm)' -benchmem -count=$(BENCH_COUNT)
	$(GO) test ./internal/exp -run xxx -bench 'BenchmarkRunAll(Cold|Warm)Cache|BenchmarkSweep(Straight|Checkpointed)' -benchmem -count=$(BENCH_COUNT)
	$(GO) test ./internal/sim -run xxx -bench BenchmarkSchedulerPushPop -benchmem -count=$(BENCH_COUNT)
	$(GO) test ./internal/flow -run xxx -bench BenchmarkPacketAlloc -benchmem -count=$(BENCH_COUNT)

golden:
	$(GO) test ./internal/exp -run TestGoldenFigures -update

GO ?= go
# BENCHTIME=1x gives a fast smoke pass; raise it (e.g. 3s) for stable
# numbers worth comparing with benchstat.
BENCHTIME ?= 1x

.PHONY: all build test race vet fmt check bench benchdiff

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The deterministic runner's contract includes being race-detector-clean
# at any worker count; the equivalence harness pins Workers=4 so this
# exercises real goroutine interleaving even on a single-CPU machine.
# The second pass races the sim's cross-shard record hand-off and its
# per-shard sealer scratches at GOMAXPROCS 1 and 4; the third races
# crypt's memo table of verified frames; the fourth races a deployment
# whose shard count Shards 0 resolves to one shard at GOMAXPROCS 1 and
# to two at 2; the fifth reruns the pinned schedules with every shard
# junking its host scratch after each callback (the scratchpoison tag).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -cpu 1,4 -run 'ShardMerge|Arrival|Immutability|Pool|SendTo|FaultPlan|IdleShards|SharedScratch' ./internal/sim/
	$(GO) test -race -count=1 -cpu 1,4 -run 'Shared|Memo|Tamper' ./internal/crypt/
	$(GO) test -race -count=1 -cpu 1,2 -run 'DeployAutoShards' ./internal/core/
	$(GO) test -race -tags scratchpoison -count=1 -cpu 1,4 -run 'TestGoldenSchedule|TestShardSmokeInvariance|TestDeployAutoShardsMatchesOneShard|TestLabGoldenSchedule' ./internal/core/ ./internal/transport/

# bench runs the paper's benchmark harness (bench_test.go, one
# benchmark per figure/claim) and archives the result twice: the raw
# text (BENCH_baseline.txt) is what benchstat consumes for A/B
# comparisons, and BENCH_baseline.json is the same data machine-readable
# and byte-stable for diffing across commits. Before overwriting, the
# fresh run is diffed against the previous baseline; a regression past
# the threshold is reported but (leading "-") does not stop the refresh.
bench:
	$(GO) test -run NONE -bench . -benchmem -benchtime $(BENCHTIME) . > BENCH_fresh.txt && cat BENCH_fresh.txt
	-$(GO) run ./cmd/benchjson -diff BENCH_baseline.json < BENCH_fresh.txt
	mv BENCH_fresh.txt BENCH_baseline.txt
	$(GO) run ./cmd/benchjson < BENCH_baseline.txt > BENCH_baseline.json

# benchdiff runs a fresh benchmark pass and fails (exit 1) if ns/op or
# allocs/op regressed more than 10% against the archived baseline,
# without touching the baseline files. At BENCHTIME=1x only allocs/op is
# trustworthy; use a seconds-based BENCHTIME for timing comparisons.
benchdiff:
	$(GO) test -run NONE -bench . -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson -diff BENCH_baseline.json

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: build vet fmt test

# Local mirror of .github/workflows/ci.yml. `make ci` is the one-shot
# pre-push gate; the individual targets exist for tighter loops.

GO ?= go

.PHONY: all build vet test test-count2 lint sarif race bixdebug \
	scaling fuzz bench-smoke ci cover bench-baseline bench-compare

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is a separate module (bitmapindex/bench) outside the root ./...
# pattern; it compiles against the internal APIs, so it is tested here too.
test:
	$(GO) test ./...
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Every test twice in one process: a test that reads process-wide state
# it does not own (the telemetry registry, pprof labels, a memoizing
# loader) passes once and fails on the repeat.
test-count2:
	$(GO) test -count=2 ./...

# Full suite (all seven analyzers, including the interprocedural hotalloc
# walk and the lockorder/poolhygiene concurrency checks) exactly as CI
# runs it: any finding fails. Per-analyzer wall time goes to stderr.
lint:
	$(GO) run ./cmd/bixlint -timings ./...

sarif:
	$(GO) run ./cmd/bixlint -format sarif ./... > bixlint.sarif
	@echo wrote bixlint.sarif

race:
	$(GO) test -race ./...

bixdebug:
	$(GO) test -tags bixdebug ./internal/invariant ./internal/bitvec ./internal/wah ./internal/roaring ./internal/core ./internal/mutable
	$(GO) test -race -tags bixdebug ./internal/invariant ./internal/bitvec ./internal/wah ./internal/roaring ./internal/reorder ./internal/core ./internal/cost ./internal/engine ./internal/buffer ./internal/telemetry ./internal/mutable ./internal/storage ./internal/catalog ./internal/flight ./internal/workload ./cmd/bixstore

# Fuzz smoke: every fuzz target for ten seconds each. CI runs this target,
# so the list of fuzzers lives only here.
fuzz:
	$(GO) test -fuzz=FuzzPayloadRoundTrip -fuzztime=10s ./internal/bitvec
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/wah
	$(GO) test -fuzz=FuzzOpsVsDecompressed -fuzztime=10s ./internal/wah
	$(GO) test -fuzz=FuzzOpsVsDense -fuzztime=10s ./internal/roaring
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/roaring
	$(GO) test -fuzz=FuzzDecodeVector -fuzztime=10s ./internal/roaring
	$(GO) test -fuzz=FuzzEvalAgreement -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzBaseDecompose -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzInflateVector -fuzztime=10s ./internal/storage
	$(GO) test -fuzz=FuzzOpenMeta -fuzztime=10s ./internal/storage
	$(GO) test -fuzz=FuzzProfileDecode -fuzztime=10s ./internal/workload
	$(GO) test -fuzz=FuzzDecodeTable -fuzztime=10s ./internal/catalog
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=10s ./cmd/bixstore
	$(GO) test -fuzz=FuzzServedOracle -fuzztime=10s ./cmd/bixstore

# Benchmark smoke: every Go benchmark once, so they keep compiling and
# running (BenchmarkReadFile, BenchmarkTableCount, ...). It times nothing
# worth reading; run a benchmark with -benchtime and -count for numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Whole-tree statement coverage; open with `go tool cover -html=coverage.out`.
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

scaling:
	$(GO) run ./cmd/bixbench -scaling -rows 262144 -segbits 14 -workers 1,2 -json /tmp/bixbench-scaling.json

# Regenerate the checked-in benchmark baseline. Run after an intentional
# behavior change (count metrics moved) and commit the result; count and
# rate metrics are exact functions of (rows, seed), so the file is
# reproducible anywhere, while its time metrics are machine-specific and
# only compared within the loose 35% noise allowance.
bench-baseline:
	$(GO) run ./cmd/bixbench -suite core -rows 65536 -seed 1 -json BENCH_core.json
	$(GO) run ./cmd/bixbench -suite compression -rows 65536 -seed 1 -json BENCH_compression.json
	$(GO) run ./cmd/bixbench -suite advisor -rows 65536 -seed 1 -json BENCH_advisor.json

# Run the suite fresh and diff it against the checked-in baseline. Exits
# non-zero on any regression past the per-kind noise thresholds.
bench-compare:
	$(GO) run ./cmd/bixbench -suite core -rows 65536 -seed 1 -json /tmp/bixbench-new.json
	$(GO) run ./cmd/bixbench -compare BENCH_core.json /tmp/bixbench-new.json
	$(GO) run ./cmd/bixbench -suite compression -rows 65536 -seed 1 -json /tmp/bixbench-compression-new.json
	$(GO) run ./cmd/bixbench -compare BENCH_compression.json /tmp/bixbench-compression-new.json
	$(GO) run ./cmd/bixbench -suite advisor -rows 65536 -seed 1 -json /tmp/bixbench-advisor-new.json
	$(GO) run ./cmd/bixbench -compare BENCH_advisor.json /tmp/bixbench-advisor-new.json

# The full gate, in CI's order: build, vet, race-enabled tests, repeated
# tests, lint, then the bixdebug assertions.
ci: build vet race test-count2 lint bixdebug

#!/usr/bin/env bash
# Builds bixstore and the benchmark from this checkout, then runs the
# benchmark with the given flags. Run it from the repository root:
#
#   bash bench/run.sh -workload disk -seed 1 -seconds 10 -trace 0
#   bash bench/run.sh -seed 1                  # all four workloads
#
# Everything the build and the run write stays under .bench_build/: the Go
# build cache, temporary build files, the binaries and the generated inputs.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bixstore || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a bitmapindex checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/bin"

go build -o "$out/bin/bixstore" ./cmd/bixstore
go -C bench build -o "$out/bin/bench" .
exec "$out/bin/bench" -bixstore "$out/bin/bixstore" -work "$out/work" "$@"

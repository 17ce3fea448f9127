#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout, then run it with the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything the build and the run write stays under bench/out/ in the
# checkout, which carries its own .gitignore: the Go build cache, the
# binaries, and (through TMPDIR, which os.TempDir() honours) the
# benchmark's scratch directories next to the run records.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/grainserved ]; then
    echo "bench/run.sh: run from the root of a full checkout (go.mod and cmd/grainserved not found)" >&2
    exit 2
fi

build="$PWD/bench/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local TMPDIR="$build/tmp"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"

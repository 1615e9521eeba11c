#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash fistbench/run.sh --workload analyze --seed 7 --seconds 20 --trace 0
#   bash fistbench/run.sh steady --runs 10
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and each run's scratch directory
# (removed when the run ends). Nothing is fetched: the benchmark needs only
# the standard library and the repository's own module.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/fistbench" && go build -o "$build/fistbench" .)
exec "$build/fistbench" "$@"

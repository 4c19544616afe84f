#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload uniform3d --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all live under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"

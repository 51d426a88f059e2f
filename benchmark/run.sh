#!/bin/sh
# Builds the benchmark inside the checkout and runs it with the arguments
# given: the command BENCHMARK.json names. Everything the Go toolchain writes
# (build cache, temporary files, the binary) goes under .bench_build, and the
# benchmark's own output under .bench_out, so nothing outside the checkout is
# touched. Run it from the repository root.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/surfer-benchmark" .)
exec "$build/surfer-benchmark" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write stays under the checkout:
# the Go build cache and temp files in .bench_build/, cluster data in
# .bench_build/run-*, result files in bench/out/.
#
#   bash bench/run.sh --workload stat-cold --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare a.jsonl b.jsonl
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/origami-bench" .
exec "$build/origami-bench" "$@"

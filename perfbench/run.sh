#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload xmark-suite --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary, span
# files and temporary catalogs all live under .bench_build/ in the
# current directory, so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export XDG_CONFIG_HOME="$build/config" # keeps the go command's own files in the checkout too

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -workdir "$build/perfbench-runs" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash benchmark/run.sh --workload join-warm --seed 1 --seconds 15 --trace 0
# Everything the build writes (binary, Go build cache, temp files, the go
# command's telemetry counters) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
go build -C benchmark -o "$build/3dpro-bench" .
exec "$build/3dpro-bench" "$@"

#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash benchmark/run.sh --workload catalogue --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The compiler cache, the binary and every
# scratch file the benchmark writes stay under $CARGO_TARGET_DIR (default
# .bench_build). Without the repository around it the build fails, and the
# script exits non-zero without printing a result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/tmp"
build="$(cd "$build" && pwd)"

# The go command's cache, temp files, GOPATH and config directory (where it
# keeps telemetry counters) all live in the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go -C benchmark build -o "$build/bluegs-bench" .
exec "$build/bluegs-bench" -workdir "$build" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the go command
# leaves behind (build cache, telemetry counters, the binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$here" -o "$build/oasis-bench" .
exec "$build/oasis-bench" "$@"

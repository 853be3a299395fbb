#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a Go module of
# its own that imports the repository's packages through a replace
# directive) and runs it from the repository root. Everything the Go
# toolchain and the benchmark write — build cache, binaries, temp files,
# span dumps — goes under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
work="$PWD/.bench_build"
mkdir -p "$work/gocache" "$work/tmp" "$work/bin"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" # module cache, go env file, toolchain telemetry
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C benchmark -o "$work/bin/benchmark" .
exec "$work/bin/benchmark" "$@"

#!/usr/bin/env bash
# run.sh — build drivobench from source and run it from the checkout
# root. Everything the build writes (Go build cache, the binary) goes
# under .bench_build in the checkout; span files go to bench/out.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/drivobench" .)
exec "$build/drivobench" "$@"

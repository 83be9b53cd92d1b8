#!/usr/bin/env bash
# run.sh — the command BENCHMARK.json names. Builds the load generator
# from source into .bench_build/ at the root of the checkout (build
# cache included, so nothing outside the checkout is written) and
# replaces itself with it, passing every argument through.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/rmladder" .
exec "$build/rmladder" -out "$root/bench/out" "$@"

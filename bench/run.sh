#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the repository root
# and runs it from there, so neither the build nor the run writes outside
# the checkout. BENCHMARK.json names this script as the command.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$out/hermes-bench" .
exec "$out/hermes-bench" "$@"

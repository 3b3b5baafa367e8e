#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command BENCHMARK.json
# names. Run from the repository root; arguments go to the program.
#
# Everything the go tool writes — build cache, module cache, scratch files,
# binaries — goes under benchmark/out, so a run touches nothing outside the
# checkout.
set -euo pipefail
out=$PWD/benchmark/out
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$out/bin/dlht-benchmark" .
exec "$out/bin/dlht-benchmark" "$@"

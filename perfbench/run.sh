#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed on (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload offload-bimodal --seed 7 --seconds 10 --trace 0
#
# The build cache, the binary, traces and profiles stay in .bench_build
# inside the checkout. The build is offline: the benchmark module
# depends only on the repository module next to it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

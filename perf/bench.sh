#!/usr/bin/env bash
# Builds the benchmark from the repository root it is run in and executes
# it with the given flags. Everything it writes (build cache, binary,
# generated traces, profiles) stays under .bench_build in that root.
#
#   bash perf/bench.sh -out run.json             # all four workloads
#   bash perf/bench.sh -workload fleet-ingest -trace 1
#   bash perf/bench.sh -compare a.json b.json
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
# The module needs nothing from the network: esm is the repository itself.
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perf" build -o "$build/perf" . >&2
exec "$build/perf" "$@"

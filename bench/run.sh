#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh                                   # benchmark of record
#   bash bench/run.sh --workload fleet-clean --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare OLD.json NEW.json
#
# Build outputs — the Go build cache, and the go command's config and
# local telemetry (XDG_CONFIG_HOME) — stay in .bench_build/ under the
# current directory, and nothing is fetched from the network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/cache" "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"

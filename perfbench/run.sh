#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload city --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# spans) stays under .bench_build at the root of the checkout. A failed
# build exits non-zero without printing a result.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$bench")/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C "$bench" build -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out/spans" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload short-reads --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, spill
# files and trace files all stay under .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOENV=off
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$bench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the stbench benchmark from the checkout's sources and runs it.
#
#   bash stbench/run.sh --workload paper-suite --seed 1 --seconds 15 --trace 0
#   bash stbench/run.sh compare OLD.jsonl NEW.jsonl
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$here" && go build -o "$build/stbench" .)
exec "$build/stbench" "$@"

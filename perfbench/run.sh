#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (--workload, --seed, --seconds, --trace). Run from the root of a
# checkout: the Go build cache and all outputs stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
mkdir -p "$build/tmp"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"

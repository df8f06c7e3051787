#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given:
#
#   bash bench/run.sh --workload suite_pairs --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the current directory, which must be the root
# of the repository. In a directory without the repository's go.mod the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
go build -o "$build/qtrbench" ./bench
exec "$build/qtrbench" "$@"

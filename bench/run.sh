#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every byte it
# writes inside the checkout: the binary, Go's build cache, module cache
# and temp files go under .bench_build/, the program's own temp data too.
#
#   bash bench/run.sh run --workload sparql_cold --seed 1 --seconds 10 --trace 0
#
# Equivalent to `go run ./bench …`, which uses the user's build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOTMPDIR="$PWD/.bench_build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/alexbench ./bench
exec .bench_build/alexbench "$@"

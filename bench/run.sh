#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything it writes (Go build cache, binary, grid storage, WALs, span
# dumps) stays under .bench_build/ in the current directory, which must
# be the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
# The module has no dependencies, so GOPATH is only named to keep the go
# command from looking for one under $HOME.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/ipa-bench-e2e" ./bench
exec "$build/ipa-bench-e2e" -basedir "$build" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh [flags].
#
# Everything the Go toolchain writes (build cache, module cache, scratch
# files, telemetry) is kept under .bench_build/ in the current directory, so
# a run reads and writes nothing outside its checkout.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

go build -C "$src" -o "$out/shield-benchmark" .
exec "$out/shield-benchmark" "$@"

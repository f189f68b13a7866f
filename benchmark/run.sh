#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash benchmark/run.sh --workload serve-live --seed 1 --seconds 12 --trace 0
#
# Run from the root of a checkout. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$root/benchmark" && go build -o "$out/frugal-benchmark" .) >&2
exec "$out/frugal-benchmark" "$@"

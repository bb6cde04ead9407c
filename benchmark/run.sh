#!/usr/bin/env bash
# Builds the benchmark and cmd/phserver from this checkout's sources, then
# runs one workload. Run it from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write (Go build cache, binaries, trace
# files) goes under .bench_build/ in the root; nothing is fetched.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C benchmark -o "$build/bin/benchmark" .
go build -C benchmark -o "$build/bin/phserver" phasehash/cmd/phserver
exec "$build/bin/benchmark" -root "$root" -phserver "$build/bin/phserver" -out "$build" "$@"

#!/bin/sh
# Builds churnbench from the checkout it is run in and runs it with the
# given flags, e.g.
#
#	sh cmd/churnbench/run.sh --workload synth-batch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and
# everything the benchmark writes stay under .bench_build/.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
go build -buildvcs=false -o "$build/churnbench" ./cmd/churnbench
exec "$build/churnbench" "$@"

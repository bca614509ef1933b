#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every file the build and the run
# write (Go caches, snapshots, logs, traces) lands under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" HOME="$build"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Build beside the binary and rename, so a binary another run is still
# executing is never overwritten in place.
(cd "$root/perfbench" && go build -o "$build/perfbench.$$" .)
mv -f "$build/perfbench.$$" "$build/perfbench"
exec "$build/perfbench" -root "$root" "$@"

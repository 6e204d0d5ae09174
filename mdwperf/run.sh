#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash mdwperf/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it writes stays under
# .bench_build/: the Go build cache, the binary, and each run's scratch
# directory. It never downloads anything: the module needs only the
# repository itself and the standard library.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/mdwperf/go.mod" ]]; then
	echo "mdwperf: run from the repository root (no go.mod here)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$root/mdwperf" && go build -o "$build/mdwperf" .)
exec "$build/mdwperf" "$@"

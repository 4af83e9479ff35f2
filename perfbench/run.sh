#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a mural checkout. The Go build cache, the binary
# and the benchmark's scratch databases and span files all stay under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d mural ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a mural checkout" >&2
	exit 2
fi
root=$(pwd)
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp" TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"

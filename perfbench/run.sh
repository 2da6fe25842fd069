#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload live|bulk|study|ingest-query --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout (binary, Go build cache, scratch stores, reports). The build
# needs the repository's own go.mod one directory up; without it the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments; run from the checkout's root:
#
#   bash perfbench/run.sh --workload ai-nsys-lgs --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/,
# including the go command's own configuration and telemetry directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache" \
	XDG_CONFIG_HOME="$root/.bench_build/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through, e.g.
#
#   bash perf/run.sh --workload sim-exact --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, outputs and traces all stay under
# .bench_build/ in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -C perf -o "$out/icrperf" .
exec "$out/icrperf" "$@"

#!/bin/sh
# bench.sh — run the simulator benchmark suite and emit a machine-readable
# BENCH_<date>.json (ns/op, allocs/op, instr/s per benchmark) so perf
# regressions are visible PR-over-PR.
#
# Usage:
#   scripts/bench.sh                   # full run -> BENCH_<today>.json
#   scripts/bench.sh -o out.json       # choose the output path
#   scripts/bench.sh -baseline b.json  # embed a prior run + speedup ratios
#   BENCHTIME=1x scripts/bench.sh      # smoke mode (CI): one iteration each
#
# Two suites run:
#   1. the per-package microbenchmarks (internal/sim BenchmarkSimulate*,
#      internal/core BenchmarkCoreAccess, internal/cpu BenchmarkCPURun,
#      plus the root-package micro benches) at BENCHTIME (default 1s);
#   2. the root-package figure benchmarks (BenchmarkFig*, plus the
#      adaptive and two-tier shootouts) at one iteration each — every
#      figure driver is a full sweep, so a single iteration is already a
#      meaningful (and expensive) sample.
set -eu

GO="${GO:-go}"
BENCHTIME="${BENCHTIME:-1s}"
cd "$(dirname "$0")/.."

OUT=""
BASELINE=""
while [ $# -gt 0 ]; do
    case "$1" in
    -o) OUT="$2"; shift 2 ;;
    -baseline) BASELINE="$2"; shift 2 ;;
    *) echo "usage: $0 [-o FILE] [-baseline FILE]" >&2; exit 2 ;;
    esac
done
[ -n "$OUT" ] || OUT="BENCH_$(date +%Y-%m-%d).json"

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT INT TERM

echo "==> micro benchmarks (benchtime=$BENCHTIME)"
$GO test -run=NONE -bench='BenchmarkSimulate|BenchmarkSampled|BenchmarkCoreAccess|BenchmarkCPURun' \
    -benchmem -benchtime="$BENCHTIME" \
    ./internal/sim ./internal/core ./internal/cpu | tee -a "$RAW"

echo "==> root micro benchmarks (benchtime=$BENCHTIME)"
$GO test -run=NONE -bench='BenchmarkSECDED|BenchmarkParity|BenchmarkICRCache|BenchmarkWorkload|BenchmarkEndToEnd' \
    -benchmem -benchtime="$BENCHTIME" . | tee -a "$RAW"

echo "==> figure benchmarks (benchtime=1x)"
$GO test -run=NONE -bench='BenchmarkFig|BenchmarkAdaptiveShootout|BenchmarkTwoTierShootout' -benchmem -benchtime=1x . | tee -a "$RAW"

if [ -n "$BASELINE" ]; then
    $GO run ./cmd/benchjson -baseline "$BASELINE" -o "$OUT" <"$RAW"
else
    $GO run ./cmd/benchjson -o "$OUT" <"$RAW"
fi
$GO run ./cmd/benchjson -check "$OUT"

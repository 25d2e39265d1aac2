#!/bin/sh
# results.sh — regenerate the committed evaluation, each results/*.csv with
# the icrbench command that recorded it:
#
#   scripts/results.sh OUT [SVG]
#
# writes every CSV into OUT (and, with SVG, every figure into SVG) and the
# tables to stdout. Every experiment runs at the default budget except
# adaptive, recorded at 480k instructions (EXPERIMENTS.md). This is the
# one list of recorded commands: `make evaluate`, `make figures` and the
# CI `results` stage all run it.
set -eu

GO="${GO:-go}"
out=$1
svg=${2:-}
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
$GO build -C "$(dirname "$0")/.." -o "$bin/icrbench" ./cmd/icrbench

icrbench() {
    if [ -n "$svg" ]; then
        "$bin/icrbench" -out "$out" -svg "$svg" "$@"
    else
        "$bin/icrbench" -out "$out" "$@"
    fi
}

icrbench -fig "$("$bin/icrbench" -list | grep -vx adaptive | paste -sd, -)"
icrbench -fig adaptive -instructions 480000

#!/bin/sh
# ci.sh — the full tier-1 verification pipeline in one command:
#
#   build -> vet -> icrvet -> test -> bench -> race -> smoke -> shards -> adaptive -> twotier -> steal
#
# Each stage is announced and the script stops at the first failure, so CI
# logs read top-to-bottom. Everything is standard-library Go: no network
# beyond loopback (the smoke stage drives icrd over 127.0.0.1), no
# external tools beyond the go toolchain and curl.
set -eu

GO="${GO:-go}"
cd "$(dirname "$0")/.."

stage() {
    echo "==> $*"
}

stage build
$GO build ./...

stage vet
$GO vet ./...

# icrvet emits its findings twice: human-readable for the log and as a
# versioned JSON artifact (archived by CI next to the bench baselines).
# The stage also enforces a wall-clock budget: the analyzer runs on every
# push, so a regression that drags whole-module type-checking past 30s
# fails the build rather than slowly taxing everyone.
stage icrvet
ICRVET_OUT="${ICRVET_OUT:-icrvet.json}"
ICRVET_BUDGET="${ICRVET_BUDGET:-30}"
icrvet_start=$(date +%s)
$GO run ./cmd/icrvet -json ./... >"$ICRVET_OUT"
icrvet_elapsed=$(($(date +%s) - icrvet_start))
echo "icrvet: clean, report in $ICRVET_OUT (${icrvet_elapsed}s)"
if [ "$icrvet_elapsed" -gt "$ICRVET_BUDGET" ]; then
    echo "icrvet: took ${icrvet_elapsed}s, budget is ${ICRVET_BUDGET}s" >&2
    exit 1
fi

stage test
$GO test ./...

# One iteration of every benchmark, converted to BENCH JSON, validated
# against the schema, and gated against the newest committed BENCH_*.json
# baseline: allocs/op may not grow past the tolerance (allocations are
# deterministic) and instr/s may not collapse below the floor fraction
# (single-iteration timings are noisy, so only order-of-magnitude
# regressions — e.g. the sim arena pool silently breaking — trip it).
stage bench
BENCH_TMP=$(mktemp)
BENCHTIME=1x ./scripts/bench.sh -o "$BENCH_TMP"
BENCH_BASE=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
if [ -n "$BENCH_BASE" ]; then
    $GO run ./cmd/benchjson -check "$BENCH_TMP" -against "$BENCH_BASE"
else
    echo "bench: no committed BENCH_*.json baseline to gate against" >&2
    exit 1
fi
rm -f "$BENCH_TMP"

stage race
# Explicit timeout: the detector is a 10-20x slowdown on the heavier
# packages (experiments, sim) and this may run on a single-core host.
$GO test -race -timeout 30m ./internal/runner ./internal/experiments ./internal/sim \
    ./internal/store ./internal/serve ./internal/cliflag \
    ./cmd/...

# End-to-end smoke test of the serving layer: build icrd, start it on a
# random port with a persistent store, run the same tiny experiment twice
# (the second must be served from cache, not re-simulated), drain it with
# SIGTERM, then restart on the same store and confirm the result survives
# on disk. Exercises the whole stack the unit tests cover piecewise.
stage smoke
SMOKE_DIR=$(mktemp -d)
SMOKE_PID=
smoke_cleanup() {
    [ -n "$SMOKE_PID" ] && kill "$SMOKE_PID" 2>/dev/null
    rm -rf "$SMOKE_DIR"
}
trap smoke_cleanup EXIT INT TERM

fail() {
    echo "smoke: $*" >&2
    echo "--- icrd stderr ---" >&2
    cat "$SMOKE_DIR/icrd.err" >&2 2>/dev/null
    exit 1
}

# Start icrd and scrape "listening on <addr>" from stdout.
smoke_start() {
    : >"$SMOKE_DIR/icrd.out"
    "$SMOKE_DIR/icrd" -addr localhost:0 -store "$SMOKE_DIR/results" \
        -parallel 2 >"$SMOKE_DIR/icrd.out" 2>"$SMOKE_DIR/icrd.err" &
    SMOKE_PID=$!
    i=0
    while ! grep -q '^listening on ' "$SMOKE_DIR/icrd.out" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "server did not start"
        kill -0 "$SMOKE_PID" 2>/dev/null || fail "server exited early"
        sleep 0.1
    done
    SMOKE_ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/icrd.out")
}

# POST the run and echo the "source" field of the response.
smoke_post() {
    resp=$(curl -sS -X POST -d \
        '{"benchmark":"vpr","scheme":"ICR-P-PS(S)","instructions":20000,"seed":1}' \
        "http://$SMOKE_ADDR/v1/runs") || fail "POST /v1/runs failed"
    src=$(printf '%s' "$resp" | sed -n 's/.*"source":"\([a-z]*\)".*/\1/p')
    [ -n "$src" ] || fail "no source in response: $resp"
    echo "$src"
}

# SIGTERM must drain cleanly: exit status 0.
smoke_stop() {
    kill -TERM "$SMOKE_PID"
    if ! wait "$SMOKE_PID"; then
        SMOKE_PID=
        fail "SIGTERM drain exited non-zero"
    fi
    SMOKE_PID=
}

$GO build -o "$SMOKE_DIR/icrd" ./cmd/icrd
smoke_start
src=$(smoke_post)
[ "$src" = "simulated" ] || fail "first run source = $src, want simulated"
src=$(smoke_post)
[ "$src" = "simulated" ] && fail "second run was re-simulated, not cached"
smoke_stop

# Restart on the same store: the result must be served from disk.
smoke_start
src=$(smoke_post)
[ "$src" = "disk" ] || fail "post-restart source = $src, want disk"
smoke_stop
trap - EXIT INT TERM
smoke_cleanup

# End-to-end shard-fleet test: the same figure sweep run against a local
# disk store and then through a front end whose -store is a 3-shard icrd
# fleet — with one shard SIGKILLed mid-sweep — must produce byte-identical
# JSON: content addressing means a dead shard can only cost duplicate
# work, never wrong results. Before the sweep, a 10k-request icrload smoke
# exercises the raw /store/v1/ path against the healthy fleet and its
# artifact must pass -check, as must the committed LOAD_*.json baseline.
stage shards
SH_DIR=$(mktemp -d)
SH_S1_PID=
SH_S2_PID=
SH_S3_PID=
SH_FRONT_PID=
shards_cleanup() {
    for p in "$SH_S1_PID" "$SH_S2_PID" "$SH_S3_PID" "$SH_FRONT_PID"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null
    done
    rm -rf "$SH_DIR"
}
trap shards_cleanup EXIT INT TERM

shfail() {
    echo "shards: $*" >&2
    for f in s1.err s2.err s3.err front.err; do
        echo "--- $f ---" >&2
        cat "$SH_DIR/$f" >&2 2>/dev/null
    done
    exit 1
}

# Start an icrd (name, then flags), scrape its address into SH_ADDR and
# its pid into SH_PID.
shards_start_icrd() {
    sh_name=$1
    shift
    : >"$SH_DIR/$sh_name.out"
    "$SH_DIR/icrd" -addr localhost:0 -parallel 4 "$@" \
        >"$SH_DIR/$sh_name.out" 2>"$SH_DIR/$sh_name.err" &
    SH_PID=$!
    i=0
    while ! grep -q '^listening on ' "$SH_DIR/$sh_name.out" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && shfail "$sh_name did not start"
        kill -0 "$SH_PID" 2>/dev/null || shfail "$sh_name exited early"
        sleep 0.1
    done
    SH_ADDR=$(sed -n 's/^listening on //p' "$SH_DIR/$sh_name.out")
}

$GO build -o "$SH_DIR/icrd" ./cmd/icrd
$GO build -o "$SH_DIR/icrload" ./cmd/icrload

SH_FIG='fig2'
SH_BODY='{"instructions":2000000,"seed":1}'

# Single-node baseline on a local disk store.
shards_start_icrd base -store "disk:$SH_DIR/base"
SH_FRONT_PID=$SH_PID
curl -sS -X POST -d "$SH_BODY" "http://$SH_ADDR/v1/figures/$SH_FIG" \
    >"$SH_DIR/single.json" || shfail "single-node figure failed"
kill -TERM "$SH_FRONT_PID"
wait "$SH_FRONT_PID" || shfail "baseline icrd drain exited non-zero"
SH_FRONT_PID=

# The 3-shard fleet.
shards_start_icrd s1 -store "disk:$SH_DIR/s1"
SH_S1_PID=$SH_PID
SH_S1_ADDR=$SH_ADDR
shards_start_icrd s2 -store "disk:$SH_DIR/s2"
SH_S2_PID=$SH_PID
SH_S2_ADDR=$SH_ADDR
shards_start_icrd s3 -store "disk:$SH_DIR/s3"
SH_S3_PID=$SH_PID
SH_S3_ADDR=$SH_ADDR
SH_RING="shards:$SH_S1_ADDR,$SH_S2_ADDR,$SH_S3_ADDR"

# 10k-request icrload smoke against the healthy fleet, schema-checked.
"$SH_DIR/icrload" -store "$SH_RING" -clients 50 -requests 10000 -keys 256 \
    -out "$SH_DIR/load.json" 2>>"$SH_DIR/front.err" \
    || shfail "icrload smoke failed"
"$SH_DIR/icrload" -check "$SH_DIR/load.json" || shfail "icrload smoke artifact failed -check"
LOAD_BASE=$(ls LOAD_*.json 2>/dev/null | sort | tail -1)
if [ -n "$LOAD_BASE" ]; then
    "$SH_DIR/icrload" -check "$LOAD_BASE" || shfail "committed $LOAD_BASE failed -check"
else
    echo "shards: no committed LOAD_*.json baseline to validate" >&2
    exit 1
fi

# The same sweep through a front end backed by the fleet, with one shard
# SIGKILLed mid-sweep.
shards_start_icrd front -store "$SH_RING"
SH_FRONT_PID=$SH_PID
curl -sS -X POST -d "$SH_BODY" "http://$SH_ADDR/v1/figures/$SH_FIG" \
    >"$SH_DIR/fleet.json" &
SH_CURL_PID=$!
sleep 1
kill -9 "$SH_S2_PID" 2>/dev/null || shfail "shard s2 was not running mid-sweep"
SH_S2_PID=
wait "$SH_CURL_PID" || shfail "fleet figure request failed"

grep -q '"error"' "$SH_DIR/fleet.json" && shfail "fleet sweep errored: $(cat "$SH_DIR/fleet.json")"
cmp -s "$SH_DIR/single.json" "$SH_DIR/fleet.json" \
    || shfail "fleet figure JSON differs from single-node run"

# Drain the front and the surviving shards cleanly.
for p in "$SH_FRONT_PID" "$SH_S1_PID" "$SH_S3_PID"; do
    kill -TERM "$p"
    wait "$p" || shfail "drain exited non-zero (pid $p)"
done
SH_FRONT_PID=
SH_S1_PID=
SH_S3_PID=
trap - EXIT INT TERM
shards_cleanup

# End-to-end adaptive determinism test: the ICR-ADAPT shootout (runs whose
# replication knobs retune mid-flight) at a small budget, run single-node
# against a local disk store and then through a front end backed by a
# 3-shard fleet, must produce byte-identical JSON. Controller state lives
# entirely inside each simulation, so distribution, memoization, and shard
# placement must be invisible in the results.
stage adaptive
AD_DIR=$(mktemp -d)
AD_S1_PID=
AD_S2_PID=
AD_S3_PID=
AD_FRONT_PID=
adaptive_cleanup() {
    for p in "$AD_S1_PID" "$AD_S2_PID" "$AD_S3_PID" "$AD_FRONT_PID"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null
    done
    rm -rf "$AD_DIR"
}
trap adaptive_cleanup EXIT INT TERM

adfail() {
    echo "adaptive: $*" >&2
    for f in s1.err s2.err s3.err front.err; do
        echo "--- $f ---" >&2
        cat "$AD_DIR/$f" >&2 2>/dev/null
    done
    exit 1
}

adaptive_start_icrd() {
    ad_name=$1
    shift
    : >"$AD_DIR/$ad_name.out"
    "$AD_DIR/icrd" -addr localhost:0 -parallel 4 "$@" \
        >"$AD_DIR/$ad_name.out" 2>"$AD_DIR/$ad_name.err" &
    AD_PID=$!
    i=0
    while ! grep -q '^listening on ' "$AD_DIR/$ad_name.out" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && adfail "$ad_name did not start"
        kill -0 "$AD_PID" 2>/dev/null || adfail "$ad_name exited early"
        sleep 0.1
    done
    AD_ADDR=$(sed -n 's/^listening on //p' "$AD_DIR/$ad_name.out")
}

$GO build -o "$AD_DIR/icrd" ./cmd/icrd

# 200k instructions crosses flux's first (jittered) phase boundary, so the
# sweep exercises mid-run retuning, not just the start rung.
AD_BODY='{"instructions":200000,"seed":1}'

adaptive_start_icrd base -store "disk:$AD_DIR/base"
AD_FRONT_PID=$AD_PID
curl -sS -X POST -d "$AD_BODY" "http://$AD_ADDR/v1/figures/adaptive" \
    >"$AD_DIR/single.json" || adfail "single-node adaptive figure failed"
kill -TERM "$AD_FRONT_PID"
wait "$AD_FRONT_PID" || adfail "baseline icrd drain exited non-zero"
AD_FRONT_PID=

adaptive_start_icrd s1 -store "disk:$AD_DIR/s1"
AD_S1_PID=$AD_PID
AD_S1_ADDR=$AD_ADDR
adaptive_start_icrd s2 -store "disk:$AD_DIR/s2"
AD_S2_PID=$AD_PID
AD_S2_ADDR=$AD_ADDR
adaptive_start_icrd s3 -store "disk:$AD_DIR/s3"
AD_S3_PID=$AD_PID
AD_S3_ADDR=$AD_ADDR

adaptive_start_icrd front -store "shards:$AD_S1_ADDR,$AD_S2_ADDR,$AD_S3_ADDR"
AD_FRONT_PID=$AD_PID
curl -sS -X POST -d "$AD_BODY" "http://$AD_ADDR/v1/figures/adaptive" \
    >"$AD_DIR/fleet.json" || adfail "fleet adaptive figure failed"

grep -q '"error"' "$AD_DIR/fleet.json" && adfail "fleet sweep errored: $(cat "$AD_DIR/fleet.json")"
cmp -s "$AD_DIR/single.json" "$AD_DIR/fleet.json" \
    || adfail "adaptive fleet JSON differs from single-node run"

for p in "$AD_FRONT_PID" "$AD_S1_PID" "$AD_S2_PID" "$AD_S3_PID"; do
    kill -TERM "$p"
    wait "$p" || adfail "drain exited non-zero (pid $p)"
done
AD_FRONT_PID=
AD_S1_PID=
AD_S2_PID=
AD_S3_PID=
trap - EXIT INT TERM
adaptive_cleanup

# End-to-end two-tier determinism test: the twotier shootout (faults
# injected at both tiers, cross-tier replica traffic, memory-tier energy
# pricing) at a small budget, run single-node against a local disk store
# and then through a front end backed by a 3-shard fleet, must produce
# byte-identical JSON. The protected tier lives entirely inside each
# simulation, so sharding and memoization must be invisible in the
# results — including the schema-4 TwoTier report blocks round-tripping
# through the store and the wire codec.
stage twotier
TT_DIR=$(mktemp -d)
TT_S1_PID=
TT_S2_PID=
TT_S3_PID=
TT_FRONT_PID=
twotier_cleanup() {
    for p in "$TT_S1_PID" "$TT_S2_PID" "$TT_S3_PID" "$TT_FRONT_PID"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null
    done
    rm -rf "$TT_DIR"
}
trap twotier_cleanup EXIT INT TERM

ttfail() {
    echo "twotier: $*" >&2
    for f in s1.err s2.err s3.err front.err; do
        echo "--- $f ---" >&2
        cat "$TT_DIR/$f" >&2 2>/dev/null
    done
    exit 1
}

twotier_start_icrd() {
    tt_name=$1
    shift
    : >"$TT_DIR/$tt_name.out"
    "$TT_DIR/icrd" -addr localhost:0 -parallel 4 "$@" \
        >"$TT_DIR/$tt_name.out" 2>"$TT_DIR/$tt_name.err" &
    TT_PID=$!
    i=0
    while ! grep -q '^listening on ' "$TT_DIR/$tt_name.out" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && ttfail "$tt_name did not start"
        kill -0 "$TT_PID" 2>/dev/null || ttfail "$tt_name exited early"
        sleep 0.1
    done
    TT_ADDR=$(sed -n 's/^listening on //p' "$TT_DIR/$tt_name.out")
}

$GO build -o "$TT_DIR/icrd" ./cmd/icrd

TT_BODY='{"instructions":100000,"seed":1}'

twotier_start_icrd base -store "disk:$TT_DIR/base"
TT_FRONT_PID=$TT_PID
curl -sS -X POST -d "$TT_BODY" "http://$TT_ADDR/v1/figures/twotier" \
    >"$TT_DIR/single.json" || ttfail "single-node twotier figure failed"
kill -TERM "$TT_FRONT_PID"
wait "$TT_FRONT_PID" || ttfail "baseline icrd drain exited non-zero"
TT_FRONT_PID=

twotier_start_icrd s1 -store "disk:$TT_DIR/s1"
TT_S1_PID=$TT_PID
TT_S1_ADDR=$TT_ADDR
twotier_start_icrd s2 -store "disk:$TT_DIR/s2"
TT_S2_PID=$TT_PID
TT_S2_ADDR=$TT_ADDR
twotier_start_icrd s3 -store "disk:$TT_DIR/s3"
TT_S3_PID=$TT_PID
TT_S3_ADDR=$TT_ADDR

twotier_start_icrd front -store "shards:$TT_S1_ADDR,$TT_S2_ADDR,$TT_S3_ADDR"
TT_FRONT_PID=$TT_PID
curl -sS -X POST -d "$TT_BODY" "http://$TT_ADDR/v1/figures/twotier" \
    >"$TT_DIR/fleet.json" || ttfail "fleet twotier figure failed"

grep -q '"error"' "$TT_DIR/fleet.json" && ttfail "fleet sweep errored: $(cat "$TT_DIR/fleet.json")"
cmp -s "$TT_DIR/single.json" "$TT_DIR/fleet.json" \
    || ttfail "twotier fleet JSON differs from single-node run"

for p in "$TT_FRONT_PID" "$TT_S1_PID" "$TT_S2_PID" "$TT_S3_PID"; do
    kill -TERM "$p"
    wait "$p" || ttfail "drain exited non-zero (pid $p)"
done
TT_FRONT_PID=
TT_S1_PID=
TT_S2_PID=
TT_S3_PID=
trap - EXIT INT TERM
twotier_cleanup

# End-to-end work-stealing test: one figure sweep POSTed to two icrd
# nodes that share one disk shard through their -store, with one node
# SIGKILLed mid-sweep, must leave the survivor with JSON byte-identical to
# a single-node run. Exercises fleet claims with the real binaries over
# loopback HTTP: a node whose claim answers "wait" gives its slot back
# and takes an unclaimed key, the dead node's claims lapse after one
# claim TTL and the survivor takes them over, and every survivor drains
# cleanly on SIGTERM.
stage steal
ST_DIR=$(mktemp -d)
ST_SHARD_PID=
ST_N1_PID=
ST_N2_PID=
steal_cleanup() {
    for p in "$ST_SHARD_PID" "$ST_N1_PID" "$ST_N2_PID"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null
    done
    rm -rf "$ST_DIR"
}
trap steal_cleanup EXIT INT TERM

stfail() {
    echo "steal: $*" >&2
    for f in base.err shard.err n1.err n2.err; do
        echo "--- $f ---" >&2
        cat "$ST_DIR/$f" >&2 2>/dev/null
    done
    exit 1
}

# Start an icrd (name, then flags), scrape its address into ST_ADDR and
# its pid into ST_PID.
steal_start_icrd() {
    st_name=$1
    shift
    : >"$ST_DIR/$st_name.out"
    "$ST_DIR/icrd" -addr localhost:0 -parallel 2 "$@" \
        >"$ST_DIR/$st_name.out" 2>"$ST_DIR/$st_name.err" &
    ST_PID=$!
    i=0
    while ! grep -q '^listening on ' "$ST_DIR/$st_name.out" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && stfail "$st_name did not start"
        kill -0 "$ST_PID" 2>/dev/null || stfail "$st_name exited early"
        sleep 0.1
    done
    ST_ADDR=$(sed -n 's/^listening on //p' "$ST_DIR/$st_name.out")
}

ST_FIG='fig2'
ST_BODY='{"instructions":2000000,"seed":1}'

$GO build -o "$ST_DIR/icrd" ./cmd/icrd

# Single-node baseline on a local disk store.
steal_start_icrd base -store "disk:$ST_DIR/base"
ST_N1_PID=$ST_PID
curl -sS -X POST -d "$ST_BODY" "http://$ST_ADDR/v1/figures/$ST_FIG" \
    >"$ST_DIR/single.json" || stfail "single-node figure failed"
kill -TERM "$ST_N1_PID"
wait "$ST_N1_PID" || stfail "baseline icrd drain exited non-zero"
ST_N1_PID=

# One disk shard and two simulating nodes sharing it.
steal_start_icrd shard -store "disk:$ST_DIR/shard"
ST_SHARD_PID=$ST_PID
ST_RING="shards:$ST_ADDR"
steal_start_icrd n1 -store "$ST_RING"
ST_N1_PID=$ST_PID
ST_N1_ADDR=$ST_ADDR
steal_start_icrd n2 -store "$ST_RING"
ST_N2_PID=$ST_PID
ST_N2_ADDR=$ST_ADDR

# The same sweep POSTed to both nodes; n2 is SIGKILLed mid-sweep, and its
# request dies with it.
curl -sS -X POST -d "$ST_BODY" "http://$ST_N1_ADDR/v1/figures/$ST_FIG" \
    >"$ST_DIR/n1.json" &
ST_CURL1_PID=$!
curl -sS -X POST -d "$ST_BODY" "http://$ST_N2_ADDR/v1/figures/$ST_FIG" \
    >"$ST_DIR/n2.json" 2>/dev/null &
ST_CURL2_PID=$!
sleep 1
kill -9 "$ST_N2_PID" 2>/dev/null || stfail "node n2 was not running mid-sweep"
ST_N2_PID=
wait "$ST_CURL2_PID" || true
wait "$ST_CURL1_PID" || stfail "survivor figure request failed"

grep -q '"error"' "$ST_DIR/n1.json" && stfail "survivor sweep errored: $(cat "$ST_DIR/n1.json")"
cmp -s "$ST_DIR/single.json" "$ST_DIR/n1.json" \
    || stfail "survivor figure JSON differs from single-node run"

# Every survivor drains cleanly.
for p in "$ST_N1_PID" "$ST_SHARD_PID"; do
    kill -TERM "$p"
    wait "$p" || stfail "drain exited non-zero (pid $p)"
done
ST_N1_PID=
ST_SHARD_PID=
trap - EXIT INT TERM
steal_cleanup

stage ok

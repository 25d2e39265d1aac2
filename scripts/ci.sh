#!/bin/sh
# ci.sh — the full tier-1 verification pipeline in one command:
#
#   build -> vet -> icrvet -> test -> perf -> results -> race -> smoke -> shards -> adaptive -> twotier -> steal
#
# Each stage is announced and the script stops at the first failure, so CI
# logs read top-to-bottom. Everything is standard-library Go: no network
# beyond loopback (the icrd stages drive icrd over 127.0.0.1), no
# external tools beyond the go toolchain, make and curl.
set -eu

GO="${GO:-go}"
cd "$(dirname "$0")/.."

# Scratch space, one directory per stage, and every icrd started: the one
# exit trap kills whatever is still running and removes the directory.
# Drained icrds stay in PIDS, so a failed kill must not stop the trap.
CI_DIR=$(mktemp -d)
PIDS=
trap 'for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$CI_DIR"' EXIT
trap 'exit 1' INT TERM

stage() {
    echo "==> $*"
    STAGE=$1
    DIR="$CI_DIR/$STAGE"
    mkdir -p "$DIR"
}

# fail MSG: report MSG under the stage name, dump the stderr of every icrd
# the stage started, and stop.
fail() {
    echo "$STAGE: $*" >&2
    for f in "$DIR"/*.err; do
        [ -e "$f" ] || continue
        echo "--- ${f##*/} ---" >&2
        cat "$f" >&2
    done
    exit 1
}

# icrd_start NAME FLAGS...: start an icrd on a random loopback port, wait
# for its "listening on <addr>" line, and set ADDR and PID.
icrd_start() {
    name=$1
    shift
    : >"$DIR/$name.out"
    "$CI_DIR/icrd" -addr localhost:0 "$@" >"$DIR/$name.out" 2>"$DIR/$name.err" &
    PID=$!
    PIDS="$PIDS $PID"
    i=0
    while ! grep -q '^listening on ' "$DIR/$name.out" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "$name did not start"
        kill -0 "$PID" 2>/dev/null || fail "$name exited early"
        sleep 0.1
    done
    ADDR=$(sed -n 's/^listening on //p' "$DIR/$name.out")
}

# icrd_stop PID...: SIGTERM each icrd; each must drain cleanly, exit 0.
icrd_stop() {
    for p in "$@"; do
        kill -TERM "$p"
        wait "$p" || fail "drain exited non-zero (pid $p)"
    done
}

# single_node FIG BODY FLAGS...: POST the sweep to one icrd on a local disk
# store; its JSON goes to single.json.
single_node() {
    fig=$1
    body=$2
    shift 2
    icrd_start base -store "disk:$DIR/base" "$@"
    curl -sS -X POST -d "$body" "http://$ADDR/v1/figures/$fig" \
        >"$DIR/single.json" || fail "single-node figure failed"
    icrd_stop "$PID"
}

# fleet_matches FIG BODY [kill [HOOK]]: the same sweep run single-node and
# then through a front end whose -store is a 3-shard icrd fleet must give
# byte-identical JSON. With "kill", shard s2 is SIGKILLed a second into the
# fleet sweep. HOOK, when given, runs against the healthy fleet (RING) before
# the front end starts.
fleet_matches() {
    fig=$1
    body=$2
    mode=${3:-}
    single_node "$fig" "$body" -parallel 4
    icrd_start s1 -parallel 4 -store "disk:$DIR/s1"
    s1=$PID
    RING="shards:$ADDR"
    icrd_start s2 -parallel 4 -store "disk:$DIR/s2"
    s2=$PID
    RING="$RING,$ADDR"
    icrd_start s3 -parallel 4 -store "disk:$DIR/s3"
    s3=$PID
    RING="$RING,$ADDR"
    [ $# -gt 3 ] && "$4"
    icrd_start front -parallel 4 -store "$RING"
    front=$PID
    curl -sS -X POST -d "$body" "http://$ADDR/v1/figures/$fig" >"$DIR/fleet.json" &
    curl_pid=$!
    live="$front $s1 $s2 $s3"
    if [ "$mode" = kill ]; then
        sleep 1
        kill -9 "$s2" 2>/dev/null || fail "shard s2 was not running mid-sweep"
        live="$front $s1 $s3"
    fi
    wait "$curl_pid" || fail "fleet figure request failed"
    grep -q '"error"' "$DIR/fleet.json" && fail "fleet sweep errored: $(cat "$DIR/fleet.json")"
    cmp -s "$DIR/single.json" "$DIR/fleet.json" \
        || fail "$fig fleet JSON differs from single-node run"
    icrd_stop $live
}

stage build
$GO build ./...

stage vet
$GO vet ./...

# The stage first requires gofmt-clean sources (fixtures under testdata
# included), then runs icrvet over the whole module. It also enforces a
# wall-clock budget: the analyzer runs on every push, so a regression that
# drags whole-module type-checking past 30s fails the build rather than
# slowly taxing everyone.
stage icrvet
unformatted=$("$($GO env GOROOT)/bin/gofmt" -l .)
[ -z "$unformatted" ] || fail "gofmt -l lists unformatted files: $unformatted"
ICRVET_BUDGET="${ICRVET_BUDGET:-30}"
icrvet_start=$(date +%s)
$GO run ./cmd/icrvet
icrvet_elapsed=$(($(date +%s) - icrvet_start))
echo "icrvet: clean (${icrvet_elapsed}s)"
if [ "$icrvet_elapsed" -gt "$ICRVET_BUDGET" ]; then
    echo "icrvet: took ${icrvet_elapsed}s, budget is ${ICRVET_BUDGET}s" >&2
    exit 1
fi

stage test
$GO test ./...
# One iteration of each core benchmark, so their committed-count checks
# (b.Fatalf on a run that commits the wrong number) run, not just compile.
$GO test -run='^$' -bench=. -benchtime=1x ./internal/cpu
# The draw-ahead lifecycle test, repeated: its cancelled cases must stop
# where they cancel however the host schedules the context's watcher.
$GO test -count=20 -run '^TestAheadLifecycle$' ./internal/sim

# The perf module's own tests (its workload list against BENCHMARK.json,
# the exact-IPC reference, the open-loop generator), which the root
# module's go test ./... does not reach, then one short run of every perf
# workload: each checks its outputs against the reference digests and must
# report "correct":true. There is no timing gate here; paired perf runs
# against the BENCHMARK.json bounds judge speed.
stage perf
$GO test -C perf ./...
for w in sim-exact sim-sampled sweep-cold serve-zipf; do
    bash perf/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 >"$DIR/$w.json" \
        || fail "$w exited non-zero: $(tail -1 "$DIR/$w.json")"
    tail -1 "$DIR/$w.json" | grep -q '"correct":true' \
        || fail "$w is not correct: $(tail -1 "$DIR/$w.json")"
    echo "perf: $w correct"
done
# With one P the pipelining gate never opens, so this sampled run draws
# every detailed and warming instruction inline.
GOMAXPROCS=1 bash perf/run.sh --workload sim-sampled --seed 1 --seconds 1 --trace 0 >"$DIR/sim-sampled-1p.json" \
    || fail "sim-sampled under GOMAXPROCS=1 exited non-zero: $(tail -1 "$DIR/sim-sampled-1p.json")"
tail -1 "$DIR/sim-sampled-1p.json" | grep -q '"correct":true' \
    || fail "sim-sampled under GOMAXPROCS=1 is not correct: $(tail -1 "$DIR/sim-sampled-1p.json")"
echo "perf: sim-sampled correct under GOMAXPROCS=1"

# Committed results cannot drift: regenerate every results/*.csv with the
# command that recorded it and require each to match byte for byte.
stage results
GO="$GO" ./scripts/results.sh "$DIR/out" >"$DIR/tables.txt" || fail "regeneration failed"
drift=
for f in results/*.csv; do
    twin="$DIR/out/${f##*/}"
    if [ ! -e "$twin" ]; then
        drift="$drift $f(not regenerated)"
    elif ! cmp -s "$f" "$twin"; then
        drift="$drift $f"
    fi
done
[ -z "$drift" ] || fail "committed results differ from their regeneration:$drift"
echo "results: $(ls results/*.csv | wc -l) CSVs reproduce byte for byte"
# EXPERIMENTS.md's tables cannot drift either: each fenced block whose
# first word is a table's id must equal that table of results.sh's stdout
# less its timing line, and every table must have a block.
drift=$(awk '
    FNR == NR {
        if ($0 == "") { id = ""; next }
        if (/^  \[[0-9.]+s, [0-9]+ sims, /) next
        if (id == "") { id = $1; ids[++n] = id }
        table[id] = table[id] $0 "\n"
        next
    }
    /^```/ {
        if (open && bid in table) {
            seen[bid] = 1
            if (block != table[bid]) printf " %s", bid
        }
        open = !open; block = ""; bid = ""; next
    }
    open { if (block == "") bid = $1; block = block $0 "\n" }
    END { for (i = 1; i <= n; i++) if (!(ids[i] in seen)) printf " %s(no block)", ids[i] }
' "$DIR/tables.txt" EXPERIMENTS.md)
[ -z "$drift" ] || fail "EXPERIMENTS.md tables differ from their regeneration:$drift"
echo "results: EXPERIMENTS.md's tables match their regeneration"

stage race
make race GO="$GO"

$GO build -o "$CI_DIR/icrd" ./cmd/icrd
$GO build -o "$CI_DIR/icrload" ./cmd/icrload

# End-to-end smoke test of the serving layer: start icrd with a persistent
# store, run the same tiny experiment twice (the second must be served
# from cache, not re-simulated), drain it with SIGTERM, then restart on the
# same store and confirm the result survives on disk. Exercises the whole
# stack the unit tests cover piecewise.
stage smoke

# POST the run and echo the "source" field of the response.
smoke_post() {
    resp=$(curl -sS -X POST -d \
        '{"benchmark":"vpr","scheme":"ICR-P-PS(S)","instructions":20000,"seed":1}' \
        "http://$ADDR/v1/runs") || fail "POST /v1/runs failed"
    src=$(printf '%s' "$resp" | sed -n 's/.*"source":"\([a-z]*\)".*/\1/p')
    [ -n "$src" ] || fail "no source in response: $resp"
    echo "$src"
}

icrd_start icrd -store "$DIR/results" -parallel 2
src=$(smoke_post)
[ "$src" = "simulated" ] || fail "first run source = $src, want simulated"
src=$(smoke_post)
[ "$src" = "simulated" ] && fail "second run was re-simulated, not cached"

# smoke_status BODY CODE: POST BODY and require HTTP status CODE. A body
# with every spec string and the fault fields runs; a run the simulator
# cannot run and an unknown benchmark are 400s, not 500s.
smoke_status() {
    code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST -d "$1"         "http://$ADDR/v1/runs") || fail "POST /v1/runs failed"
    [ "$code" = "$2" ] || fail "POST /v1/runs $1: status $code, want $2"
}
smoke_status '{"benchmark":"gzip","scheme":"ICR-P-PS(S)","instructions":20000,"seed":1,'\
'"sample":"period=5000","adapt":"predictor=ehc,epoch=2000",'\
'"twotier":"protect=ecc,replicate=true,prob=1e-4,faultseed=3",'\
'"fault_model":"column","fault_prob":0.001,"fault_seed":7}' 200
smoke_status '{"benchmark":"vpr","scheme":"BaseP","fault_prob":2}' 400
smoke_status '{"benchmark":"nosuch","scheme":"BaseP"}' 400
icrd_stop "$PID"

# Restart on the same store: the result must be served from disk.
icrd_start icrd -store "$DIR/results" -parallel 2
src=$(smoke_post)
[ "$src" = "disk" ] || fail "post-restart source = $src, want disk"
icrd_stop "$PID"

# End-to-end shard-fleet test: fig2 through a 3-shard fleet with one shard
# SIGKILLed mid-sweep must match the single-node run: content addressing
# means a dead shard can only cost duplicate work, never wrong results.
# Before the sweep, a 10k-request icrload smoke exercises the raw
# /store/v1/ path against the healthy fleet and its artifact must pass
# -check, as must the committed LOAD_*.json baseline.
stage shards

load_smoke() {
    "$CI_DIR/icrload" -store "$RING" -clients 50 -requests 10000 -keys 256 \
        -out "$DIR/load.json" 2>>"$DIR/front.err" \
        || fail "icrload smoke failed"
    "$CI_DIR/icrload" -check "$DIR/load.json" || fail "icrload smoke artifact failed -check"
    load_base=$(ls LOAD_*.json 2>/dev/null | sort | tail -1)
    [ -n "$load_base" ] || fail "no committed LOAD_*.json baseline to validate"
    "$CI_DIR/icrload" -check "$load_base" || fail "committed $load_base failed -check"
}

fleet_matches fig2 '{"instructions":2000000,"seed":1}' kill load_smoke

# End-to-end adaptive determinism test: the ICR-ADAPT shootout (runs whose
# replication knobs retune mid-flight) at a small budget. Controller state
# lives entirely inside each simulation, so distribution, memoization, and
# shard placement must be invisible in the results. 200k instructions
# crosses flux's first (jittered) phase boundary, so the sweep exercises
# mid-run retuning, not just the start rung.
stage adaptive
fleet_matches adaptive '{"instructions":200000,"seed":1}'

# End-to-end two-tier determinism test: the twotier shootout (faults
# injected at both tiers, cross-tier replica traffic, memory-tier energy
# pricing) at a small budget. The protected tier lives entirely inside each
# simulation, so sharding and memoization must be invisible in the
# results — including the TwoTier report blocks round-tripping through the
# store and the wire codec.
stage twotier
fleet_matches twotier '{"instructions":100000,"seed":1}'

# End-to-end work-stealing test: one figure sweep POSTed to two icrd
# nodes that share one disk shard through their -store, with one node
# SIGKILLed mid-sweep, must leave the survivor with JSON byte-identical to
# a single-node run. Exercises fleet claims with the real binaries over
# loopback HTTP: a node whose claim answers "wait" gives its slot back
# and takes an unclaimed key, the dead node's claims lapse after one
# claim TTL and the survivor takes them over, and every survivor drains
# cleanly on SIGTERM.
stage steal
ST_BODY='{"instructions":2000000,"seed":1}'
single_node fig2 "$ST_BODY" -parallel 2

# One disk shard and two simulating nodes sharing it.
icrd_start shard -parallel 2 -store "disk:$DIR/shard"
shard=$PID
RING="shards:$ADDR"
icrd_start n1 -parallel 2 -store "$RING"
n1=$PID
N1_ADDR=$ADDR
icrd_start n2 -parallel 2 -store "$RING"
n2=$PID

# The same sweep POSTed to both nodes; n2 is SIGKILLed mid-sweep, and its
# request dies with it.
curl -sS -X POST -d "$ST_BODY" "http://$N1_ADDR/v1/figures/fig2" >"$DIR/n1.json" &
curl1=$!
curl -sS -X POST -d "$ST_BODY" "http://$ADDR/v1/figures/fig2" >"$DIR/n2.json" 2>/dev/null &
curl2=$!
sleep 1
kill -9 "$n2" 2>/dev/null || fail "node n2 was not running mid-sweep"
wait "$curl2" || true
wait "$curl1" || fail "survivor figure request failed"

grep -q '"error"' "$DIR/n1.json" && fail "survivor sweep errored: $(cat "$DIR/n1.json")"
cmp -s "$DIR/single.json" "$DIR/n1.json" \
    || fail "survivor figure JSON differs from single-node run"

# Every survivor drains cleanly.
icrd_stop "$n1" "$shard"

stage ok

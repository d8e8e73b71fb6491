#!/usr/bin/env bash
# Prove the campaign service serves byte-exact campaigns under
# concurrency, that one preparation serves every request on a program,
# and that its caches survive a daemon restart.
#
# First, a flag bound: `--cache-budget 17592186044416` (2^44 MiB,
# whose byte count overflows 64 bits) must exit 2 without creating a
# socket, rather than start a daemon with caching silently off.
#
# Leg 1 — concurrent warm cache:
#   Starts a dfi-serve daemon with --workers 4, submits the three
#   golden smoke campaigns *concurrently* (cold round), then again
#   sequentially (warm round), and requires:
#
#   1. every cold response to report `cache_hit: false` and every
#      warm response `cache_hit: true` with `cache_source: memory`
#      (the second request adopted the cached golden run +
#      checkpoint store instead of re-simulating);
#   2. the client-written telemetry of BOTH rounds to be
#      `dfi-diff --exact`-equal AND byte-equal to the checked-in
#      baselines under results/golden/ — a served campaign, warm or
#      cold, concurrent or not, must be indistinguishable from a
#      local dfi-campaign run;
#   3. a second daemon started on the same socket to refuse to
#      replace the live one;
#   4. a sweep — `--component l1d --seed 8` on the marss-x86 program
#      the warm round just used — to report `cache_hit: true` with
#      `cache_source: memory` (prepared state is keyed by what
#      prepare() reads, not by structure or seed) and to be
#      byte-equal to a local dfi-campaign run of the same flags;
#   5. `--stats` to report `trace_builds`, `trace_bytes`, `refines`
#      and `refined_bytes` above 0: the pruned requests built golden
#      traces on the cached preparations, the requests that simulated
#      a run built their dense checkpoint stores, and the bytes of
#      both are charged to the cache;
#   6. the daemon to drain and exit 0 on a shutdown request.
#
# Leg 2 — restart persistence:
#   Starts a daemon with --cache-dir, runs the campaigns, SIGTERMs
#   it, restarts it over the same directory, and requires:
#
#   7. the first daemon to drain and exit 0 on SIGTERM, leaving
#      prep_*.bin and resp_*.json spill files behind;
#   8. exact repeat requests against the restarted daemon to replay
#      the memoized response (`cache_source: response`) byte-equal
#      to the golden baselines;
#   9. a --no-prune variation to adopt the prepared state from disk
#      (`cache_source: disk`) and stay `dfi-diff --exact`-equal to
#      the golden baseline (pruned and unpruned artifacts differ in
#      bytes but never in outcomes);
#  10. a sweep — `--component l1d --seed 9` on gem5-arm — to adopt
#      the spill the first daemon wrote (`cache_source: disk`), to be
#      byte-equal to a local dfi-campaign run, and to leave exactly
#      3 prep_*.bin files: one spill per program, not per request.
#
# Usage:
#   scripts/check_service.sh [WORKDIR]
#
#   WORKDIR  scratch directory (default: a fresh mktemp -d)
#
# Environment:
#   DFI_SERVE     dfi-serve binary    (default build/tools/...)
#   DFI_DIFF      dfi-diff binary     (default build/tools/...)
#   DFI_CAMPAIGN  dfi-campaign binary (default build/tools/...)
#
# Run from the repository root after building:
#   cmake -B build -S . && cmake --build build -j
set -euo pipefail
trap 'echo "check_service.sh: failed at line $LINENO: $BASH_COMMAND" >&2' ERR

cd "$(dirname "$0")/.."

WORKDIR="${1:-$(mktemp -d)}"
SERVE_BIN="${DFI_SERVE:-build/tools/dfi-serve}"
DIFF_BIN="${DFI_DIFF:-build/tools/dfi-diff}"
CAMPAIGN_BIN="${DFI_CAMPAIGN:-build/tools/dfi-campaign}"
GOLDEN_DIR="results/golden"
SOCKET="$WORKDIR/dfi-serve.sock"
CACHE_DIR="$WORKDIR/cache"
CORES=(marss-x86 gem5-x86 gem5-arm)

for bin in "$SERVE_BIN" "$DIFF_BIN" "$CAMPAIGN_BIN"; do
    if [[ ! -x "$bin" ]]; then
        echo "error: $bin not found or not executable." >&2
        echo "build first: cmake -B build -S . && cmake --build build -j" >&2
        exit 1
    fi
done

mkdir -p "$WORKDIR"

status=0
SERVER_PID=""
cleanup() {
    if [[ -n "$SERVER_PID" ]]; then
        kill "$SERVER_PID" 2> /dev/null || true
    fi
}
trap cleanup EXIT

# start_daemon LOG [extra flags...]: launch dfi-serve and wait for it
# with the retrying client itself — no sleep-polling; the ping keeps
# reconnecting with backoff until the daemon accepts.
start_daemon() {
    local log="$1"
    shift
    "$SERVE_BIN" --socket "$SOCKET" --workers 4 "$@" \
        2> "$WORKDIR/$log" &
    SERVER_PID=$!
    timeout 60 "$SERVE_BIN" --connect "$SOCKET" --ping \
        --retries 50 --backoff-ms 100 > /dev/null
}

# await_daemon LOG WHY: wait for the daemon to exit cleanly, with a
# kill -9 watchdog so a wedged drain fails the script instead of
# hanging it.  (kill -0 polling cannot detect a zombie child; wait
# can.)
await_daemon() {
    local log="$1" why="$2"
    (
        trap - EXIT # don't inherit cleanup; this subshell gets killed
        sleep 120
        kill -9 "$SERVER_PID" 2> /dev/null
    ) &
    local watchdog=$!
    local rc=0
    wait "$SERVER_PID" || rc=$?

    kill -9 "$watchdog" 2> /dev/null || true
    wait "$watchdog" 2> /dev/null || true
    SERVER_PID=""
    if [[ "$rc" -ne 0 ]]; then
        echo "dfi-serve exited non-zero after $why" >&2
        sed 's/^/  server: /' "$WORKDIR/$log" >&2
        status=1
    fi
}

# request CORE BASE [extra flags...]: serve one smoke campaign,
# keeping the client's report in BASE.out for verify().
request() {
    local core="$1" base="$2"
    shift 2
    timeout 180 "$SERVE_BIN" --connect "$SOCKET" \
        --client "check-$core" \
        --core "$core" \
        --benchmark micro \
        --component int_regfile \
        --injections 24 \
        --seed 7 \
        --telemetry-out "$base" \
        "$@" > "$base.out" 2> /dev/null
}

# check_source BASE EXPECTED_HIT EXPECTED_SOURCE: check the cache
# provenance the client reported for one request.
check_source() {
    local base="$1" expected_hit="$2" expected_source="$3"
    local hit source
    hit=$(grep '^cache_hit: ' "$base.out" | cut -d' ' -f2)
    source=$(grep '^cache_source: ' "$base.out" | cut -d' ' -f2)
    if [[ "$hit" != "$expected_hit" ]]; then
        echo "$base: expected cache_hit $expected_hit, got '$hit'" >&2
        status=1
    fi
    if [[ "$source" != "$expected_source" ]]; then
        echo "$base: expected cache_source $expected_source," \
             "got '$source'" >&2
        status=1
    fi
}

# verify CORE BASE EXPECTED_HIT EXPECTED_SOURCE BYTES: check the
# cache provenance and diff the client-written artifacts against the
# golden baselines.  BYTES=byte additionally requires byte equality
# (pruned requests only: an unpruned artifact is outcome-equal but
# not byte-equal to the pruned baseline).
verify() {
    local core="$1" base="$2" bytes="$5"
    local golden_base
    check_source "$base" "$3" "$4"

    golden_base="$GOLDEN_DIR/smoke_$core"
    if ! "$DIFF_BIN" --exact "$golden_base.jsonl" "$base.jsonl"; then
        status=1
    fi
    if [[ "$bytes" == byte ]]; then
        if ! cmp -s "$golden_base.jsonl" "$base.jsonl"; then
            echo "byte drift: $golden_base.jsonl vs $base.jsonl" >&2
            status=1
        fi
        if ! cmp -s "$golden_base.summary.json" \
                 "$base.summary.json"; then
            echo "summary drift: $golden_base.summary.json vs" \
                 "$base.summary.json" >&2
            status=1
        fi
    fi
}

# sweep CORE BASE EXPECTED_SOURCE [flags...]: serve another fault
# selection on a program the daemon has already prepared; require a
# cache hit from EXPECTED_SOURCE and byte equality with a local
# dfi-campaign run of the same flags (no golden baseline exists for
# it).
sweep() {
    local core="$1" base="$2" expected_source="$3"
    shift 3
    request "$core" "$base" "$@"
    check_source "$base" true "$expected_source"
    "$CAMPAIGN_BIN" --core "$core" --benchmark micro \
        --component int_regfile --injections 24 --seed 7 \
        --telemetry-out "$base.local" "$@" > /dev/null \
        2> "$base.local.log"
    for ext in jsonl summary.json; do
        if ! cmp -s "$base.local.$ext" "$base.$ext"; then
            echo "served sweep drifted from the local run:" \
                 "$base.$ext vs $base.local.$ext" >&2
            status=1
        fi
    done
}

echo "== --cache-budget overflow is refused" >&2
rc=0
timeout 30 "$SERVE_BIN" --socket "$WORKDIR/budget.sock" \
    --cache-budget 17592186044416 2> "$WORKDIR/budget.log" || rc=$?
if [[ "$rc" -ne 2 || -e "$WORKDIR/budget.sock" ]]; then
    echo "--cache-budget 17592186044416: expected exit 2 and no" \
         "socket, got exit $rc" >&2
    status=1
fi

# ------------------------------------------------------------------
# Leg 1: concurrent cold round, warm round, memory-warm sweep,
# live-socket refusal.
# ------------------------------------------------------------------
start_daemon server1.log

echo "== concurrent cold round (3 cores, --workers 4)" >&2
pids=()
for core in "${CORES[@]}"; do
    request "$core" "$WORKDIR/cold_$core" &
    pids+=($!)
done
for pid in "${pids[@]}"; do
    if ! wait "$pid"; then
        echo "a concurrent cold request failed" >&2
        status=1
    fi
done
for core in "${CORES[@]}"; do
    verify "$core" "$WORKDIR/cold_$core" false none byte
done

echo "== warm round" >&2
for core in "${CORES[@]}"; do
    request "$core" "$WORKDIR/warm_$core"
    verify "$core" "$WORKDIR/warm_$core" true memory byte
done

echo "== sweep: another structure and seed, memory-warm" >&2
sweep marss-x86 "$WORKDIR/sweep_memory" memory \
    --component l1d --seed 8

echo "== live-socket refusal" >&2
if timeout 30 "$SERVE_BIN" --socket "$SOCKET" \
        2> "$WORKDIR/hijack.log"; then
    echo "a second daemon replaced a live socket" >&2
    status=1
fi
if ! grep -q "live daemon" "$WORKDIR/hijack.log"; then
    echo "expected a live-daemon refusal, got:" >&2
    sed 's/^/  /' "$WORKDIR/hijack.log" >&2
    status=1
fi

timeout 30 "$SERVE_BIN" --connect "$SOCKET" --stats \
    > "$WORKDIR/stats1.json"
cat "$WORKDIR/stats1.json" >&2
for counter in trace_builds trace_bytes refines refined_bytes; do
    value=$(grep -o "\"$counter\": [0-9]*" "$WORKDIR/stats1.json" |
        awk '{print $2}')
    if [[ -z "$value" || "$value" -eq 0 ]]; then
        echo "expected $counter > 0 in --stats after the sweep," \
             "got '${value:-missing}'" >&2
        status=1
    fi
done
timeout 30 "$SERVE_BIN" --connect "$SOCKET" --shutdown > /dev/null
await_daemon server1.log shutdown

# ------------------------------------------------------------------
# Leg 2: restart persistence through --cache-dir.
# ------------------------------------------------------------------
echo "== restart leg: cold round with --cache-dir" >&2
start_daemon server2.log --cache-dir "$CACHE_DIR"
pids=()
for core in "${CORES[@]}"; do
    request "$core" "$WORKDIR/disk_cold_$core" &
    pids+=($!)
done
for pid in "${pids[@]}"; do
    if ! wait "$pid"; then
        echo "a cache-dir cold request failed" >&2
        status=1
    fi
done
for core in "${CORES[@]}"; do
    verify "$core" "$WORKDIR/disk_cold_$core" false none byte
done

echo "== SIGTERM drain" >&2
kill -TERM "$SERVER_PID"
await_daemon server2.log SIGTERM

shopt -s nullglob
preps=("$CACHE_DIR"/prep_*.bin)
resps=("$CACHE_DIR"/resp_*.json)
shopt -u nullglob
if [[ "${#preps[@]}" -ne 3 || "${#resps[@]}" -ne 3 ]]; then
    echo "expected 3 prep spills + 3 response memos in $CACHE_DIR," \
         "found ${#preps[@]} + ${#resps[@]}" >&2
    status=1
fi

echo "== restarted daemon serves disk warm hits" >&2
start_daemon server3.log --cache-dir "$CACHE_DIR"
for core in "${CORES[@]}"; do
    request "$core" "$WORKDIR/memo_$core"
    verify "$core" "$WORKDIR/memo_$core" true response byte
done

# A run-set variation misses the response memo but adopts the
# prepared state spilled by the *previous* daemon process.
request marss-x86 "$WORKDIR/noprune_marss-x86" --no-prune
verify marss-x86 "$WORKDIR/noprune_marss-x86" true disk diff

# A sweep on a program only the previous daemon prepared adopts its
# spill, and writes no spill of its own.
echo "== sweep: another structure and seed, disk-warm" >&2
sweep gem5-arm "$WORKDIR/sweep_disk" disk --component l1d --seed 9

timeout 30 "$SERVE_BIN" --connect "$SOCKET" --stats >&2
timeout 30 "$SERVE_BIN" --connect "$SOCKET" --shutdown > /dev/null
await_daemon server3.log shutdown
trap - EXIT

shopt -s nullglob
preps=("$CACHE_DIR"/prep_*.bin)
shopt -u nullglob
if [[ "${#preps[@]}" -ne 3 ]]; then
    echo "expected one prep spill per program (3) in $CACHE_DIR" \
         "after the sweeps, found ${#preps[@]}" >&2
    status=1
fi

if [[ "$status" -ne 0 ]]; then
    echo "FAIL: served campaigns drifted from $GOLDEN_DIR/ or local" \
         "runs, or came from the wrong cache tier (see above)" >&2
    exit "$status"
fi
echo "OK: 15 served campaigns — 13 smoke campaigns match $GOLDEN_DIR/" >&2
echo "    (concurrent cold round byte-equal, warm round from memory," >&2
echo "    restart round from the disk cache: response + prep), and 2" >&2
echo "    sweeps, memory- and disk-warm, byte-equal to local runs." >&2

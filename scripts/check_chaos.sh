#!/usr/bin/env bash
# Chaos-test the campaign service with deterministic failpoints
# (DESIGN.md §12): under injected disk, socket, and resource faults
# the stack must neither hang nor crash, every served campaign must
# stay byte-identical to results/golden/, and the degradation
# counters must show the faults actually fired.
#
# Legs (each on a fresh daemon + scratch dir):
#
#   A — cache-write storm: every other disk-cache write fails; the
#       response is still served and byte-equal, --stats shows
#       disk_errors > 0, and a hard request error exits 1 while a
#       dead socket with retries exhausted exits 3.
#   B — disk hard-down: every cache read AND write fails; after
#       three consecutive errors the disk tier disables
#       itself (disk_disabled: true) and the memory tier keeps
#       serving byte-equal responses.
#   C — socket I/O storm: EINTR and short transfers injected into
#       both the server's and the client's socket loops; the
#       protocol survives byte-for-byte.
#   D — stalled client: a tiny server send buffer plus a client that
#       sleeps before reading stalls the response stream; the
#       bounded write drops it (dropped_streams > 0, no wedged
#       worker) and the client's retry succeeds.
#   E — idle connection: a client that sleeps before sending trips
#       the server's idle read timeout (idle_timeouts > 0); the
#       retry succeeds.
#   F — prepare-time resource failure: the first prepare throws
#       bad_alloc; the client sees a retryable error and the retry
#       serves byte-equal artifacts.
#   G — prepare delay: every prepare sleeps; purely a liveness check
#       under timeout.
#
# Every daemon interaction runs under a hard `timeout`, and daemon
# exits are awaited with a kill -9 watchdog, so a wedged process
# fails the script instead of hanging CI.
#
# Usage:
#   scripts/check_chaos.sh [WORKDIR]
#
#   WORKDIR  scratch directory (default: a fresh mktemp -d); its
#            daemon cache directories are emptied first, so a rerun
#            on one WORKDIR checks the same cold misses
#
# Environment:
#   DFI_SERVE  dfi-serve binary (default build/tools/...)
#   DFI_DIFF   dfi-diff binary  (default build/tools/...)
set -euo pipefail
trap 'echo "check_chaos.sh: failed at line $LINENO: $BASH_COMMAND" >&2' ERR

cd "$(dirname "$0")/.."

WORKDIR="${1:-$(mktemp -d)}"
SERVE_BIN="${DFI_SERVE:-build/tools/dfi-serve}"
DIFF_BIN="${DFI_DIFF:-build/tools/dfi-diff}"
GOLDEN="results/golden/smoke_marss-x86"
SOCKET="$WORKDIR/dfi-chaos.sock"

for bin in "$SERVE_BIN" "$DIFF_BIN"; do
    if [[ ! -x "$bin" ]]; then
        echo "error: $bin not found or not executable." >&2
        echo "build first: cmake -B build -S . && cmake --build build -j" >&2
        exit 1
    fi
done

mkdir -p "$WORKDIR"
# The daemons' cache directories start empty, so a second run on one
# WORKDIR sees the same cold misses as the first.
rm -rf "$WORKDIR/cacheA" "$WORKDIR/cacheB"

status=0
SERVER_PID=""
cleanup() {
    if [[ -n "$SERVER_PID" ]]; then
        kill -9 "$SERVER_PID" 2> /dev/null || true
    fi
}
trap cleanup EXIT

# start_daemon LOG [extra flags...]: launch dfi-serve and wait for it
# with the retrying client itself — no sleep-polling.
start_daemon() {
    local log="$1"
    shift
    rm -f "$SOCKET"
    "$SERVE_BIN" --socket "$SOCKET" --workers 2 "$@" \
        2> "$WORKDIR/$log" &
    SERVER_PID=$!
    timeout 60 "$SERVE_BIN" --connect "$SOCKET" --ping \
        --retries 50 --backoff-ms 100 > /dev/null
}

# await_daemon LOG: wait for the daemon to exit cleanly, with a
# watchdog so a wedged drain kills the process instead of hanging the
# script.  (kill -0 polling cannot detect a zombie child; wait can.)
await_daemon() {
    local log="$1"
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
        echo "dfi-serve exited non-zero ($rc)" >&2
        sed 's/^/  server: /' "$WORKDIR/$log" >&2
        status=1
    fi
}

stop_daemon() {
    local log="$1"
    timeout 30 "$SERVE_BIN" --connect "$SOCKET" --shutdown \
        > /dev/null
    await_daemon "$log"
}

# request BASE [extra client flags...]: serve the marss-x86 smoke
# campaign (the golden config) under a hard timeout.
request() {
    local base="$1"
    shift
    timeout 180 "$SERVE_BIN" --connect "$SOCKET" \
        --client chaos \
        --core marss-x86 \
        --benchmark micro \
        --component int_regfile \
        --injections 24 \
        --seed 7 \
        --telemetry-out "$base" \
        "$@" > "$base.out" 2> "$base.err"
}

# verify BASE: served artifacts must be outcome- AND byte-equal to
# the golden baseline, chaos or no chaos.
verify() {
    local base="$1"
    if ! "$DIFF_BIN" --exact "$GOLDEN.jsonl" "$base.jsonl"; then
        status=1
    fi
    if ! cmp -s "$GOLDEN.jsonl" "$base.jsonl"; then
        echo "byte drift: $GOLDEN.jsonl vs $base.jsonl" >&2
        status=1
    fi
    if ! cmp -s "$GOLDEN.summary.json" "$base.summary.json"; then
        echo "byte drift: $GOLDEN.summary.json vs" \
             "$base.summary.json" >&2
        status=1
    fi
}

# stat_value STATS_FILE KEY: extract a counter from the pretty-printed
# --stats JSON (values are unsigned integers or true/false).
stat_value() {
    grep -o "\"$2\": [a-z0-9]*" "$1" | head -1 | awk '{print $2}'
}

stats_to() {
    timeout 30 "$SERVE_BIN" --connect "$SOCKET" --stats > "$1"
}

# expect_counter STATS_FILE KEY MIN: the counter must exist and be at
# least MIN (proves the injected faults actually fired).
expect_counter() {
    local file="$1" key="$2" min="$3" value
    value=$(stat_value "$file" "$key")
    if [[ -z "$value" || "$value" -lt "$min" ]]; then
        echo "expected $key >= $min in --stats, got '${value:-missing}'" >&2
        status=1
    fi
}

expect_bool() {
    local file="$1" key="$2" want="$3" value
    value=$(stat_value "$file" "$key")
    if [[ "$value" != "$want" ]]; then
        echo "expected $key == $want in --stats, got '${value:-missing}'" >&2
        status=1
    fi
}

# ------------------------------------------------------------------
# Leg A: cache-write storm + client exit-code contract.
# ------------------------------------------------------------------
echo "== leg A: disk-cache write storm" >&2
start_daemon serverA.log --cache-dir "$WORKDIR/cacheA" \
    --failpoints 'cache.write=error@every:2'
request "$WORKDIR/a_first"
verify "$WORKDIR/a_first"
request "$WORKDIR/a_second"
verify "$WORKDIR/a_second"
stats_to "$WORKDIR/statsA.json"
expect_counter "$WORKDIR/statsA.json" disk_errors 1
expect_bool "$WORKDIR/statsA.json" disk_disabled false

# A hard (non-retryable) server error must exit 1, even with retries.
rc=0
timeout 60 "$SERVE_BIN" --connect "$SOCKET" \
    --core marss-x86 --benchmark micro --component no_such_unit \
    --injections 4 --retries 2 --backoff-ms 10 \
    > /dev/null 2> "$WORKDIR/hard.err" || rc=$?
if [[ "$rc" -ne 1 ]]; then
    echo "hard server error: expected exit 1, got $rc" >&2
    status=1
fi
stop_daemon serverA.log

# A dead socket with retries exhausted must exit 3 (retryable class).
rc=0
timeout 60 "$SERVE_BIN" --connect "$WORKDIR/nowhere.sock" --ping \
    --retries 2 --backoff-ms 10 > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 3 ]]; then
    echo "dead socket: expected exit 3 (retries exhausted), got $rc" >&2
    status=1
fi

# ------------------------------------------------------------------
# Leg B: disk hard-down degrades to memory-only.
# ------------------------------------------------------------------
echo "== leg B: disk hard-down degradation" >&2
start_daemon serverB.log --cache-dir "$WORKDIR/cacheB" \
    --failpoints 'cache.read=error;cache.write=error'
request "$WORKDIR/b_first"
verify "$WORKDIR/b_first"
request "$WORKDIR/b_second"
verify "$WORKDIR/b_second"
if ! grep -q '^cache_source: memory' "$WORKDIR/b_second.out"; then
    echo "leg B: second request not served from memory:" >&2
    sed 's/^/  /' "$WORKDIR/b_second.out" >&2
    status=1
fi
stats_to "$WORKDIR/statsB.json"
expect_counter "$WORKDIR/statsB.json" disk_errors 3
expect_bool "$WORKDIR/statsB.json" disk_disabled true
stop_daemon serverB.log

# ------------------------------------------------------------------
# Leg C: socket I/O storm on both halves.
# ------------------------------------------------------------------
echo "== leg C: socket EINTR/short-transfer storm" >&2
start_daemon serverC.log \
    --failpoints 'sock.read=eintr@every:3;sock.write=short@every:5'
DFI_FAILPOINTS='sock.read=eintr@every:4;sock.write=short@every:3' \
    request "$WORKDIR/c_first"
verify "$WORKDIR/c_first"
DFI_FAILPOINTS='sock.read=short' request "$WORKDIR/c_second"
verify "$WORKDIR/c_second"
stop_daemon serverC.log

# ------------------------------------------------------------------
# Leg D: stalled client stream is dropped, retry succeeds.
# ------------------------------------------------------------------
echo "== leg D: stalled client stream" >&2
start_daemon serverD.log --stream-timeout-ms 500 --sndbuf 1
DFI_FAILPOINTS='client.read=delay:3000@nth:1' \
    request "$WORKDIR/d_first" --retries 3 --backoff-ms 100
verify "$WORKDIR/d_first"
stats_to "$WORKDIR/statsD.json"
expect_counter "$WORKDIR/statsD.json" dropped_streams 1
stop_daemon serverD.log

# ------------------------------------------------------------------
# Leg E: idle connection trips the read timeout, retry succeeds.
# ------------------------------------------------------------------
echo "== leg E: idle connection timeout" >&2
start_daemon serverE.log --idle-timeout-ms 500
DFI_FAILPOINTS='client.send=delay:2000@once' \
    request "$WORKDIR/e_first" --retries 3 --backoff-ms 100
verify "$WORKDIR/e_first"
stats_to "$WORKDIR/statsE.json"
expect_counter "$WORKDIR/statsE.json" idle_timeouts 1
stop_daemon serverE.log

# ------------------------------------------------------------------
# Leg F: prepare-time bad_alloc is retryable end to end.
# ------------------------------------------------------------------
echo "== leg F: prepare-time resource failure" >&2
start_daemon serverF.log --failpoints 'prep.alloc=error@nth:1'
request "$WORKDIR/f_first" --retries 2 --backoff-ms 100
verify "$WORKDIR/f_first"
if ! grep -q 'retrying' "$WORKDIR/f_first.err"; then
    echo "leg F: expected a retry against the injected bad_alloc:" >&2
    sed 's/^/  /' "$WORKDIR/f_first.err" >&2
    status=1
fi
stop_daemon serverF.log

# ------------------------------------------------------------------
# Leg G: prepare delay (liveness only).
# ------------------------------------------------------------------
echo "== leg G: prepare delay liveness" >&2
start_daemon serverG.log --failpoints 'prep.alloc=delay:150'
request "$WORKDIR/g_first"
verify "$WORKDIR/g_first"
stop_daemon serverG.log
trap - EXIT

if [[ "$status" -ne 0 ]]; then
    echo "FAIL: chaos legs diverged (see above)" >&2
    exit "$status"
fi
echo "OK: 7 chaos legs — disk storms, socket storms, stalled and" >&2
echo "    idle clients, injected bad_alloc — all served byte-equal" >&2
echo "    to results/golden/ with degradation counters accounted." >&2

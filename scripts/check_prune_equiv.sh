#!/usr/bin/env bash
# Prove the fault-equivalence pruner changes what is *executed*, never
# what is *reported*: a pruned campaign's classification artifacts must
# be `dfi-diff --exact`-equal to the same campaign run with --no-prune.
# (The raw bytes legitimately differ in the volatile prune bookkeeping
# — the header `prune` stats and per-record `prune_class` — which the
# exact diff skips, exactly like host timing fields.)
#
# Also smoke-tests the two new planning entry points:
#   --dry-run     prints the plan split (simulated / pruned static /
#                 pruned equivalent) and exits 0 without simulating
#   --exhaustive  enumerates every (entry, bit, cycle) site of a small
#                 structure and completes by pruning the bulk of them
#
# Usage:
#   scripts/check_prune_equiv.sh [WORKDIR]
#
#   WORKDIR  scratch directory (default: a fresh mktemp -d)
#
# Environment:
#   DFI_CAMPAIGN  dfi-campaign binary (default build/tools/...)
#   DFI_DIFF      dfi-diff binary     (default build/tools/...)
#
# Run from the repository root after building:
#   cmake -B build -S . && cmake --build build -j
set -euo pipefail
trap 'echo "check_prune_equiv.sh: failed at line $LINENO: $BASH_COMMAND" >&2' ERR

cd "$(dirname "$0")/.."

WORKDIR="${1:-$(mktemp -d)}"
CAMPAIGN_BIN="${DFI_CAMPAIGN:-build/tools/dfi-campaign}"
DIFF_BIN="${DFI_DIFF:-build/tools/dfi-diff}"

for bin in "$CAMPAIGN_BIN" "$DIFF_BIN"; do
    if [[ ! -x "$bin" ]]; then
        echo "error: $bin not found or not executable." >&2
        echo "build first: cmake -B build -S . && cmake --build build -j" >&2
        exit 1
    fi
done

mkdir -p "$WORKDIR"
status=0

run_campaign() {
    # run_campaign OUT_BASE [EXTRA_FLAGS...]: the prune workhorse
    # config — l1d valid bits carry plenty of dead and equivalent
    # sites, so both prune buckets are exercised.
    local out="$1"
    shift
    "$CAMPAIGN_BIN" \
        --core marss-x86 \
        --benchmark micro \
        --component l1d_valid \
        --injections 400 \
        --seed 24301 \
        --jobs 1 \
        --telemetry-out "$out" \
        "$@" \
        > /dev/null
}

echo "== pruned vs --no-prune: classification must not drift" >&2
run_campaign "$WORKDIR/pruned"
run_campaign "$WORKDIR/exhaustive-exec" --no-prune
for ext in jsonl summary.json; do
    if ! "$DIFF_BIN" --exact "$WORKDIR/exhaustive-exec.$ext" \
            "$WORKDIR/pruned.$ext"; then
        status=1
    fi
done

echo "== issue queue: pruned vs --no-prune on every core" >&2
# The IQ's payload reads are watch-visible (DESIGN.md section 13):
# pruning classifies a site from the golden trace of those reads, so
# a hot-path change that drops, adds or reorders one drifts here.
for core in marss-x86 gem5-x86 gem5-arm; do
    for mode in pruned unpruned; do
        flags=()
        [[ "$mode" == unpruned ]] && flags=(--no-prune)
        "$CAMPAIGN_BIN" \
            --core "$core" \
            --benchmark micro \
            --component issue_queue \
            --injections 600 \
            --seed 99 \
            --jobs 1 \
            --telemetry-out "$WORKDIR/iq-$mode-$core" \
            ${flags[@]+"${flags[@]}"} \
            > /dev/null
    done
    for ext in jsonl summary.json; do
        if ! "$DIFF_BIN" --exact "$WORKDIR/iq-unpruned-$core.$ext" \
                "$WORKDIR/iq-pruned-$core.$ext"; then
            status=1
        fi
    done
done

echo "== pruned header must report nonzero prune buckets" >&2
header="$(head -n 1 "$WORKDIR/pruned.jsonl")"
for key in pruned_static pruned_equiv; do
    if ! grep -q "\"$key\":" <<< "$header"; then
        echo "missing \"$key\" in the pruned runs header" >&2
        status=1
    elif grep -q "\"$key\":0[,}]" <<< "$header"; then
        echo "\"$key\" is zero — the pruner did no work" >&2
        status=1
    fi
done
if ! grep -q '"pruned_static":0[,}]' \
        <(head -n 1 "$WORKDIR/exhaustive-exec.jsonl"); then
    echo "--no-prune run still pruned something" >&2
    status=1
fi

echo "== --dry-run prints the plan and exits 0" >&2
dry_out="$("$CAMPAIGN_BIN" \
    --core marss-x86 --benchmark micro --component l1d_valid \
    --injections 400 --seed 24301 --dry-run)"
for needle in "plan:" "simulated:" "pruned static:" "pruned equiv:"; do
    if ! grep -q "$needle" <<< "$dry_out"; then
        echo "--dry-run output lacks \"$needle\"" >&2
        status=1
    fi
done

echo "== --exhaustive completes on a small structure" >&2
"$CAMPAIGN_BIN" \
    --core marss-x86 --benchmark micro --component l1d_valid \
    --exhaustive --jobs 1 \
    --telemetry-out "$WORKDIR/full-space" \
    > /dev/null
exhaustive_header="$(head -n 1 "$WORKDIR/full-space.jsonl")"
if ! grep -q '"pruned_equiv":' <<< "$exhaustive_header"; then
    echo "exhaustive header lacks prune stats" >&2
    status=1
fi

if [[ "$status" -ne 0 ]]; then
    echo "prune-equivalence check FAILED" >&2
    exit 1
fi
echo "pruned campaigns classify identically to --no-prune" >&2

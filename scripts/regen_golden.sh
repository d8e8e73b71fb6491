#!/usr/bin/env bash
# Regenerate the golden telemetry baselines under results/golden/.
#
# The baselines are fixed-seed smoke campaigns (24 single-bit transient
# injections into the integer register file of the `micro` benchmark)
# on all three core models. With timing capture off (the default) the
# artifacts are a pure function of (config, program, seed), so CI can
# byte-compare fresh runs against the checked-in files with
# `dfi-diff --exact`.
#
# Usage:
#   scripts/regen_golden.sh [OUTDIR] [JOBS] [EXTRA_FLAGS...]
#
#   OUTDIR  destination directory (default: results/golden — i.e.
#           rewrite the checked-in baselines)
#   JOBS    --jobs value for the campaigns (default: 1). Telemetry is
#           byte-identical for every value; CI runs this script with
#           1 and 4 and diffs both against the same baselines.
#   EXTRA_FLAGS  passed through to dfi-campaign. CI uses
#           `--no-checkpoints` for a leg proving the checkpoint fast
#           path leaves the artifacts byte-identical,
#           `--no-prune` for a leg proving equivalence pruning never
#           changes the classification output (exact-diff equal; the
#           volatile prune bookkeeping fields are skipped),
#           `--checkpoints 6 --no-prune` and `--checkpoints 1
#           --no-prune` for legs whose every run restores from a store
#           other than the default one, and
#           `--shard I/N` for the shard-merge leg.
#
# Environment:
#   DFI_CAMPAIGN      dfi-campaign binary (default build/tools/...)
#   DFI_SMOKE_SUFFIX  appended to each artifact base name
#           (e.g. `.shard0` makes smoke_gem5-x86.shard0.jsonl) so
#           shard legs can emit per-shard artifacts side by side.
#
# Run from the repository root after building:
#   cmake -B build -S . && cmake --build build -j
set -euo pipefail
trap 'echo "regen_golden.sh: failed at line $LINENO: $BASH_COMMAND" >&2' ERR

cd "$(dirname "$0")/.."

OUTDIR="${1:-results/golden}"
JOBS="${2:-1}"
shift $(( $# > 2 ? 2 : $# ))
EXTRA=("$@")
CAMPAIGN_BIN="${DFI_CAMPAIGN:-build/tools/dfi-campaign}"
SUFFIX="${DFI_SMOKE_SUFFIX:-}"

if [[ ! -x "$CAMPAIGN_BIN" ]]; then
    echo "error: $CAMPAIGN_BIN not found or not executable." >&2
    echo "build first: cmake -B build -S . && cmake --build build -j" >&2
    exit 1
fi

mkdir -p "$OUTDIR"

for core in marss-x86 gem5-x86 gem5-arm; do
    echo "== smoke campaign: $core (jobs=$JOBS)" >&2
    "$CAMPAIGN_BIN" \
        --core "$core" \
        --benchmark micro \
        --component int_regfile \
        --injections 24 \
        --seed 7 \
        --jobs "$JOBS" \
        --telemetry-out "$OUTDIR/smoke_$core$SUFFIX" \
        ${EXTRA[@]+"${EXTRA[@]}"} \
        > /dev/null
done

echo "golden baselines written to $OUTDIR/" >&2

#!/usr/bin/env bash
# Prove the paper's figures and tables still reproduce byte for byte:
# regenerate every transcript the evaluation suite commits under
# results/ whose bytes are a pure function of the code, and `cmp` each
# one against its committed copy.
#
#   - bench_fig2_regfile .. bench_fig6_lsq at DFI_INJECTIONS=150
#     (10 programs x 3 setups x 150 seeded runs each, 22,500 runs);
#   - bench_table1_capabilities .. bench_table4_structures, stdout
#     and JSON twin;
#   - bench_ablation_policies at DFI_INJECTIONS=100;
#   - Figs. 2-6 once more on a reduced matrix (sha and smooth, 60 runs
#     per cell), pruned and with DFI_NO_PRUNE=1, compared with each
#     other (text and JSON twin).
#
# Every pruned run of the figures is classified from a golden trace,
# so this is the check that holds the classifier to the paper's
# numbers, not just to the `micro` smoke campaigns.  Every unpruned
# run is simulated from a dense checkpoint, so the last leg holds the
# restores to the same numbers.  Benches write their JSON twins to
# WORKDIR, never into results/.
#
# Usage:
#   scripts/check_figures.sh [WORKDIR]
#
#   WORKDIR  scratch directory (default: a fresh mktemp -d)
#
# Environment:
#   DFI_BENCH_DIR  directory with the bench binaries
#                  (default build/bench)
#   DFI_JOBS       worker threads per campaign (default: hardware
#                  concurrency; every value prints the same bytes)
#
# Run from the repository root after building:
#   cmake -B build -S . && cmake --build build -j
set -euo pipefail
trap 'echo "check_figures.sh: failed at line $LINENO: $BASH_COMMAND" >&2' ERR

cd "$(dirname "$0")/.."

WORKDIR="${1:-$(mktemp -d)}"
BENCH_DIR="${DFI_BENCH_DIR:-build/bench}"
FIGURES=(bench_fig2_regfile bench_fig3_l1d bench_fig4_l1i bench_fig5_l2
         bench_fig6_lsq)
TABLES=(bench_table1_capabilities bench_table2_configs
        bench_table3_fault_models bench_table4_structures)

for bench in "${FIGURES[@]}" "${TABLES[@]}" bench_ablation_policies; do
    if [[ ! -x "$BENCH_DIR/$bench" ]]; then
        echo "error: $BENCH_DIR/$bench not found or not executable." >&2
        echo "build first: cmake -B build -S . && cmake --build build -j" >&2
        exit 1
    fi
done

# The committed transcripts use the default program set and seed.
unset DFI_BENCHMARKS DFI_SEED DFI_INJECTIONS
mkdir -p "$WORKDIR"
status=0

# same FILE COMMITTED: byte-compare one regenerated file.
same() {
    if ! cmp -s "$2" "$1"; then
        echo "drift: $1 differs from $2" >&2
        status=1
    fi
}

# run BENCH [INJECTIONS]: regenerate one transcript the way
# results/README.md does, and compare it.
run() {
    local bench="$1" started
    local -a vars=("DFI_TELEMETRY_DIR=$WORKDIR")
    if [[ -n "${2:-}" ]]; then
        vars+=("DFI_INJECTIONS=$2")
    fi
    started=$SECONDS
    env "${vars[@]}" "$BENCH_DIR/$bench" > "$WORKDIR/$bench.txt" \
        2> "$WORKDIR/$bench.log"
    same "$WORKDIR/$bench.txt" "results/$bench.txt"
    echo "== $bench ($((SECONDS - started)) s)" >&2
}

for bench in "${FIGURES[@]}"; do
    run "$bench" 150
done
for bench in "${TABLES[@]}"; do
    run "$bench"
    same "$WORKDIR/$bench.json" "results/$bench.json"
done
run bench_ablation_policies 100

# Pruning is an execution strategy: with it off, each figure of the
# reduced matrix must print the same bytes.
mkdir -p "$WORKDIR/pruned" "$WORKDIR/unpruned"
for bench in "${FIGURES[@]}"; do
    started=$SECONDS
    for no_prune in 0 1; do
        mode=$([[ "$no_prune" == 1 ]] && echo unpruned || echo pruned)
        env DFI_BENCHMARKS=sha,smooth DFI_INJECTIONS=60 \
            DFI_NO_PRUNE="$no_prune" DFI_TELEMETRY_DIR="$WORKDIR/$mode" \
            "$BENCH_DIR/$bench" > "$WORKDIR/$mode/$bench.txt" \
            2> "$WORKDIR/$mode/$bench.log"
    done
    same "$WORKDIR/unpruned/$bench.txt" "$WORKDIR/pruned/$bench.txt"
    same "$WORKDIR/unpruned/$bench.json" "$WORKDIR/pruned/$bench.json"
    echo "== $bench pruned = unpruned ($((SECONDS - started)) s)" >&2
done

if [[ "$status" -ne 0 ]]; then
    echo "FAIL: a paper transcript drifted from results/, or pruning" \
         "changed a figure (see above; regenerated copies are in" \
         "$WORKDIR).  A change that means to move an outcome" \
         "regenerates the transcripts and the EXPERIMENTS.md numbers" \
         "in the same change." >&2
    exit "$status"
fi
echo "OK: 5 figures, 4 tables (+ JSON twins) and the policy ablation" >&2
echo "    are byte-identical to results/, and the figures are" >&2
echo "    byte-identical pruned and unpruned on sha and smooth." >&2

#!/usr/bin/env bash
# Run the perf-tracking benches and write their JSON twins.
#
# Runs bench_parallel_scaling and bench_checkpoint_restore with their
# JSON twins directed at WORKDIR, and the bench_sim_throughput
# microbenchmarks (OooCore cycles/s per core model, FaultableArray
# access, checkpoint copy) with google-benchmark's JSON output there
# too.  CI runs this on every build and uploads WORKDIR as an
# artifact.  The committed perf trajectory is
# results/perf_trajectory.jsonl, which scripts/perf_trajectory.py
# extends from perfbench's end-to-end runs.
#
# Usage:
#   scripts/bench_snapshot.sh [WORKDIR]
#
#   WORKDIR  scratch directory for bench output
#            (default: a fresh mktemp -d)
#
# Environment:
#   DFI_BENCH_DIR      directory with the bench binaries
#                      (default build/bench)
#   DFI_INJECTIONS     passed through to bench_parallel_scaling
#   DFI_RESTORE_REPS   passed through to bench_checkpoint_restore
#   DFI_RESTORE_TICKS  passed through to bench_checkpoint_restore
#
# Run from the repository root after building:
#   cmake -B build -S . && cmake --build build -j
set -euo pipefail
trap 'echo "bench_snapshot.sh: failed at line $LINENO: $BASH_COMMAND" >&2' ERR

cd "$(dirname "$0")/.."

WORKDIR="${1:-$(mktemp -d)}"
BENCH_DIR="${DFI_BENCH_DIR:-build/bench}"

for bench in bench_parallel_scaling bench_checkpoint_restore \
    bench_sim_throughput; do
    if [[ ! -x "$BENCH_DIR/$bench" ]]; then
        echo "error: $BENCH_DIR/$bench not found or not executable." >&2
        echo "build first: cmake -B build -S . && cmake --build build -j" >&2
        exit 1
    fi
done

mkdir -p "$WORKDIR"

# DFI_OUT keeps bench_parallel_scaling's text table out of the
# checked-in results/ copy — everything lands in WORKDIR.
for bench in bench_parallel_scaling bench_checkpoint_restore; do
    echo "== $bench" >&2
    DFI_TELEMETRY_DIR="$WORKDIR" DFI_OUT="$WORKDIR/$bench.table.txt" \
        "$BENCH_DIR/$bench" > "$WORKDIR/$bench.txt"
done

# A unitless --benchmark_min_time (seconds) is what google-benchmark
# 1.7 accepts; later versions still read it as seconds.
echo "== bench_sim_throughput" >&2
"$BENCH_DIR/bench_sim_throughput" --benchmark_min_time=0.2 \
    --benchmark_out="$WORKDIR/bench_sim_throughput.json" \
    --benchmark_out_format=json > "$WORKDIR/bench_sim_throughput.txt"

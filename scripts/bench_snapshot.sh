#!/usr/bin/env bash
# Run the perf-tracking benches and append one snapshot to a
# BENCH_ci.json trajectory.
#
# Runs bench_parallel_scaling and bench_checkpoint_restore with their
# JSON twins directed at WORKDIR, and the bench_sim_throughput
# microbenchmarks (OooCore cycles/s per core model, FaultableArray
# access, checkpoint copy) with google-benchmark's JSON output there
# too, then appends a snapshot object — commit, timestamp, and the
# three bench documents — to OUT (a JSON array, created on first use).  CI runs this fresh every build and uploads
# the result as an artifact; run it locally across commits and OUT
# accumulates an actual perf trajectory.
#
# Usage:
#   scripts/bench_snapshot.sh [WORKDIR] [OUT]
#
#   WORKDIR  scratch directory for bench output
#            (default: a fresh mktemp -d)
#   OUT      trajectory file to append to
#            (default: WORKDIR/BENCH_ci.json)
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
OUT="${2:-$WORKDIR/BENCH_ci.json}"
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

COMMIT="$(git rev-parse HEAD 2> /dev/null || echo unknown)"
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Append {commit, date, benches:{...}} to the OUT array.  python3 is
# used for the JSON surgery; it is present on the CI runners and in
# any dev environment that plots the trajectory.
export BENCH_SNAPSHOT_WORKDIR="$WORKDIR" BENCH_SNAPSHOT_OUT="$OUT" \
    BENCH_SNAPSHOT_COMMIT="$COMMIT" BENCH_SNAPSHOT_STAMP="$STAMP"
python3 - << 'EOF'
import json
import os

workdir = os.environ["BENCH_SNAPSHOT_WORKDIR"]
out_path = os.environ["BENCH_SNAPSHOT_OUT"]

snapshot = {
    "commit": os.environ["BENCH_SNAPSHOT_COMMIT"],
    "date": os.environ["BENCH_SNAPSHOT_STAMP"],
    "benches": {},
}
for bench in ("bench_parallel_scaling", "bench_checkpoint_restore",
              "bench_sim_throughput"):
    with open(os.path.join(workdir, bench + ".json")) as twin:
        snapshot["benches"][bench] = json.load(twin)

trajectory = []
if os.path.exists(out_path):
    with open(out_path) as existing:
        trajectory = json.load(existing)
    if not isinstance(trajectory, list):
        raise SystemExit(f"{out_path}: not a snapshot array")
trajectory.append(snapshot)

with open(out_path, "w") as out:
    json.dump(trajectory, out, indent=2)
    out.write("\n")
print(f"snapshot {len(trajectory)} appended to {out_path}")
EOF

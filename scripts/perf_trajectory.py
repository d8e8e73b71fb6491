#!/usr/bin/env python3
"""Append one perf PR's parent-vs-change medians to the trajectory.

perfbench (perfbench/README.md) keeps every run's record under
`.bench_state/results/*.json` of the tree it ran in.  Run the benchmark
in a checkout of the parent commit and in the changed tree, alternating
the two, then:

    python3 scripts/perf_trajectory.py PARENT_RESULTS CHANGE_RESULTS --pr N

PARENT_RESULTS and CHANGE_RESULTS are the two `.bench_state/results`
directories.  Untraced records (`--trace 0`) are paired by
(workload, seed); when one side holds several records of a pair, the
newest counts.  For every workload and every end-to-end metric that
BENCHMARK.json declares, the script appends to
results/perf_trajectory.jsonl one JSON line holding the parent and
change medians with their quartiles and the number of pairs the change
won, plus the host stamp and each side's commit and source digest as
its records stamp them.  Measure the parent in a `git clone`, so its
records name its commit; a change measured before it is committed
stamps its parent's commit, and its source digest tells the two apart.
"""

import argparse
import datetime
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(results_dir):
    """{(workload, seed): record} of the untraced runs, newest wins."""
    records = {}
    paths = sorted(glob.glob(os.path.join(results_dir, "*.json")),
                   key=os.path.getmtime)
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        stamp = record["stamp"]
        if stamp["trace"] != 0:
            continue
        records[(stamp["workload"], stamp["seed"])] = record
    return records


def summary(values):
    """Median and quartiles (inclusive method) of a sample."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side(records, key):
    """The commit and source digest one side's records agree on."""
    values = {record["stamp"][key] for record in records}
    return values.pop() if len(values) == 1 else sorted(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="parent tree's run records")
    parser.add_argument("change", help="changed tree's run records")
    parser.add_argument("--pr", type=int, required=True,
                        help="number of the PR this entry measures")
    parser.add_argument("--out", default=os.path.join(
        ROOT, "results", "perf_trajectory.jsonl"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]

    parent = load_records(args.parent)
    change = load_records(args.change)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        sys.exit("perf_trajectory: no (workload, seed) pair has an "
                 "untraced record on both sides")
    for key in pairs:
        for tree, records in (("parent", parent), ("change", change)):
            result = records[key]["result"]
            if not result["correct"] or result["failed"]:
                sys.exit("perf_trajectory: %s run %s seed %s failed its "
                         "checks" % (tree, key[0], key[1]))

    workloads = {}
    for workload in sorted({key[0] for key in pairs}):
        keys = [key for key in pairs if key[0] == workload]
        metrics = {}
        for metric in declared:
            name = metric["name"]
            before = [parent[key]["result"]["metrics"].get(name)
                      for key in keys]
            after = [change[key]["result"]["metrics"].get(name)
                     for key in keys]
            if any(value is None for value in before + after):
                continue
            before = [value["value"] for value in before]
            after = [value["value"] for value in after]
            lower = metric["better"] == "lower"
            won = sum(1 for b, a in zip(before, after)
                      if (a < b if lower else a > b))
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": summary(before),
                "change": summary(after),
                "won": won,
            }
        workloads[workload] = {
            "pairs": len(keys),
            "seeds": [key[1] for key in keys],
            "seconds": parent[keys[0]]["stamp"]["seconds"],
            "metrics": metrics,
        }

    parent_records = [parent[key] for key in pairs]
    change_records = [change[key] for key in pairs]
    stamp = change_records[0]["stamp"]
    entry = {
        "pr": args.pr,
        "date": datetime.date.today().isoformat(),
        "parent": {
            "commit": side(parent_records, "commit"),
            "source_digest": side(parent_records, "source_digest"),
        },
        "change": {
            "commit": side(change_records, "commit"),
            "source_digest": side(change_records, "source_digest"),
        },
        "host": {key: stamp[key]
                 for key in ("nproc", "compiler", "build_type")},
        "workloads": workloads,
    }
    with open(args.out, "a") as out:
        out.write(json.dumps(entry, sort_keys=True) + "\n")
    print("appended PR %d (%d pairs) to %s"
          % (args.pr, len(pairs), os.path.relpath(args.out, ROOT)))


if __name__ == "__main__":
    main()

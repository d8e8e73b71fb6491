#!/usr/bin/env python3
"""Build and run the dfi performance benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload campaign-sim --seed 1 \\
        --seconds 20 --trace 0

The first run configures and builds the libraries, dfi-serve and the
perfbench harness into .bench_build/ (a few minutes); later runs only
check that the build is current.  The harness writes its scratch files,
run records and traces under .bench_state/.  The last line of standard
output is the JSON result; the exit code is 0 only when every output
check passed.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
STATE = os.path.join(ROOT, ".bench_state")
WORKLOADS = ("campaign-sim", "serve-mix")

# What the harness builds from; their digest keys the run records.
SOURCE_DIRS = ("src", "tools", "perfbench")
SOURCE_FILES = ("CMakeLists.txt",)

# A run must end well inside three minutes, build excluded.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in SOURCE_FILES]
    for top in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(base, name) for name in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Configure once, then build the two targets (incremental)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(os.path.join(BUILD, "build.log"), "ab") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1), "--target", "perfbench",
                      "dfi-serve"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode:
                fail("build failed: " + " ".join(step) + " (see " +
                     os.path.join(BUILD, "build.log") + ")")


def stop_session(sid):
    """SIGKILL what is left of the harness's session and wait for it.

    The harness stops its daemons itself; this covers a harness that
    crashed or was killed with daemons still running.
    """
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(sid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = ["CMakeLists.txt", "src/inject/campaign.hh",
              "tools/dfi_serve.cc", "results/golden"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a dfi source tree (missing " + ", ".join(missing) + ")")

    build()
    harness = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(BUILD, "dfi", "tools", "dfi-serve"),
        "--state-dir", os.path.relpath(STATE, ROOT),
        "--golden-dir", os.path.join(ROOT, "results", "golden"),
        "--source-digest", source_digest(),
        "--commit", commit(),
    ]
    # Its own session, so a timeout can stop the daemons it started.
    # The working directory keeps daemon socket paths short.
    proc = subprocess.Popen(harness, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        stop_session(proc.pid)
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    stop_session(proc.pid)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark driver from the repository's sources and runs one
workload, printing the driver's JSON result as the last line of stdout.

    python3 perfbench/run.py --workload cold-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-search", "cold-nonunifying", "edit-loop", "parallel-default")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir)])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench_driver",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed, see %s\n" % log)
                return None
    return bdir / "perfbench_driver"


def retire(work):
    """Empties a finished run's work files but keeps them.

    The files are truncated, not deleted: on ext4 without a journal, every
    new inode is allocated by scanning past the inodes freed in the last
    minute or more, so deleting a run's few thousand cache blobs would slow
    the cache writes of the runs that follow (see README.md, "Noise"). What
    is kept costs inodes and directory entries only; remove
    $CARGO_TARGET_DIR/perfbench/work to reclaim them.
    """
    for dirpath, _, files in os.walk(work):
        for name in files:
            try:
                os.truncate(os.path.join(dirpath, name), 0)
            except OSError:
                pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output check rejects a planted bad output")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    if args.self_test:
        return subprocess.run([str(exe), "--self-test", "--root", str(ROOT)]).returncode

    work = build_dir() / "work" / ("%d-%d" % (time.time_ns(), os.getpid()))
    trace = build_dir() / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--work", str(work)]
    if args.trace:
        trace.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace)]
    # Set-up time is measured from here: the driver process's launch.
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 1
    finally:
        retire(work)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: driver failed (exit %d)\n" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if args.trace:
        # The trace must parse as Chrome trace_event JSON.
        try:
            events = json.loads(trace.read_text())["traceEvents"]
            ok = all(e["ph"] == "X" and e["dur"] >= 0 for e in events) and events
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            sys.stderr.write("perfbench: CHECK FAILED: %s is not trace_event JSON\n" % trace)
            result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs the end-to-end serve benchmark (see perfbench/README.md).

Builds perfbench from the checkout's sources (CMake, Release) and runs one
workload, or all three with --workload all:

    python3 perfbench/run.py --workload catchup --seed 10 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --test        # the benchmark's own unit tests

Run it from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); working data
goes to .perfbench_work/ and is removed when the run ends.  The last line
of standard output is the result as one JSON object; the exit code is 0
only when every output matched the reference.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("catchup", "merge-1t", "live")
ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "jigsaw", "service.h")):
        fail("no library sources under ./src; run from the root of a checkout")
    if not os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt")):
        fail("perfbench/CMakeLists.txt not found; run from the root of a checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                   + targets, check=True, stdout=sys.stderr)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(workload, args):
    """Runs one workload; returns (exit code, output lines, result or None)."""
    binary = "perfbench_traced" if args.trace else "perfbench"
    work = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    cmd = [os.path.join(BUILD_DIR, binary), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work,
           "--commit", git_commit()]
    if args.trace:
        cmd += ["--spans",
                os.path.join(WORK_ROOT, f"spans-{workload}-seed{args.seed}.tsv")]
    os.makedirs(WORK_ROOT, exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate()
    finally:
        # Interrupted (SIGTERM/SIGINT): stop the benchmark and wait for it.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        pass
    return proc.returncode, lines, result


def main():
    # Turn SIGTERM into an exception so run_workload's cleanup runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's unit tests")
    args = p.parse_args()

    if args.test:
        build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode)

    build(["perfbench_traced" if args.trace else "perfbench"])
    if args.workload != "all":
        code, lines, result = run_workload(args.workload, args)
        print("\n".join(lines))
        if result is None and code == 0:
            code = 1
        sys.exit(code)

    # All three workloads in turn; the last line merges their results with
    # metric names prefixed by the workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_workload(workload, args)
        print("\n".join(lines[:-1] if result else lines))
        print()
        worst = worst or code or (1 if result is None else 0)
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(merged))
    sys.exit(worst)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the StrandWeaver benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload design-sweep --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The script configures and builds perfbench/ (the simulator libraries
plus the benchmark binary) into .bench_build/perfbench, then runs the
binary with every SW_* environment knob removed, so the measured work
depends only on the arguments. Build output goes to stderr; the
benchmark's report goes to stdout, and its last line is the JSON
result. With --trace 1 the raw spans are also written to
.bench_build/perfbench/spans/<workload>-seed<n>.jsonl.

Exits non-zero without a result when the simulator sources are
missing, the build fails, or the benchmark fails or times out.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("design-sweep", "crash-fork", "fuzz-campaign")
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def clean_env():
    """The environment minus the simulator's SW_* knobs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SW_")}


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        code = subprocess.run([str(BUILD / "perfbench_selftest")],
                              env=clean_env()).returncode
        sys.exit(code)
    if args.workload is None:
        parser.error("--workload is required")

    build(["perfbench"])
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        check_result(lines[-1])
    except ValueError as err:
        sys.stderr.write(proc.stdout)
        fail(f"malformed result line ({err})")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()

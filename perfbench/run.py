#!/usr/bin/env python3
"""Runs one ALEX benchmark workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch_opencyc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the harness (perfbench/CMakeLists.txt,
which compiles the checkout's own src/) into .bench_build/; later calls only
rebuild what changed. Build output goes to standard error. The harness's
last line of standard output is the result JSON; the exit code is the
harness's: 1 when an output check failed, 2 on bad arguments. The script
itself exits 2 without printing a result when there are no ALEX sources
next to perfbench/, the build fails, or the harness overruns.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ALEX sources in %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", target], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build("perfbench_tests" if args.self_test
                       else "perfbench_harness")
    except (subprocess.CalledProcessError, OSError) as err:
        fail("build failed: %s" % err)

    command = [binary] if args.self_test else [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT_DIR]
    try:
        return subprocess.run(command, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the harness and waits for it before raising.
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())

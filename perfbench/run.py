#!/usr/bin/env python3
"""Builds and runs the qross end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wire_batch|solve_fresh|tune_remote|all \
        --seed N --seconds S --trace 0|1

The benchmark binary is built from this checkout's sources into
.bench_build/perfbench (Release; the first run compiles the library).  Build
output goes to stderr; stdout carries the benchmark's metric table and, as
its last line, the JSON result.  `--workload all` runs the three workloads
one after another and exits non-zero if any of them failed.  See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wire_batch", "solve_fresh", "tune_remote")


def build():
    """Configures once, then rebuilds incrementally; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "server.hpp")):
        print("perfbench: no qross sources under %s/src" % ROOT,
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def run_one(workload, args):
    command = [os.path.join(BUILD_DIR, "qross_perfbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD_DIR, "work")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not build():
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = [w for w in workloads if run_one(w, args) != 0]
    if failed:
        print("perfbench: failed: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

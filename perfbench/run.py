#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the perfbench program (and the cosched library it links, from
../src) with CMake into .bench_build/perfbench under the checkout root, runs
one workload and relays its output. The last line of standard output is the
JSON result: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload submit_replan --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --selftest      # unit tests of the helpers

Workloads: submit_replan, sharded_readwrite, batch_optimal (see
perfbench/README.md). Exit status is non-zero, with no result line, when
the build or the measurement fails; 1 with a result line whose "correct" is
false when an output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("submit_replan", "sharded_readwrite", "batch_optimal")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build(target):
    """Configures once, then builds `target`; build chatter goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, target)


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["metrics"], dict)
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helpers' unit tests")
    args = parser.parse_args()

    try:
        if args.selftest:
            return subprocess.run([build("perfbench_selftest")]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        binary = build("perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 2
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines or not valid_result(lines[-1]):
        sys.stderr.write(run.stdout)
        print(f"perfbench: exited {run.returncode} without a result line",
              file=sys.stderr)
        return run.returncode or 2
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

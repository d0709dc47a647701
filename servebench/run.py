#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the root of the repository:

    python3 servebench/run.py --workload fleet-unique --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds servebench (the rtmobile library
sources plus servebench/src) into .bench_build; later runs only rebuild
what changed. The benchmark's own stdout is passed through; its last line
is the JSON result. A run that does not end within its time limit is
killed and reported as failed with a non-zero exit code.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("live-wire", "fleet-unique", "fleet-repeat", "paper-single")
# The benchmark's own watchdog fires at 170 s; this is the backstop.
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds servebench; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "servebench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"servebench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"servebench: {args.workload} did not finish within "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the service benchmark from source and runs one measurement.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench) and is
incremental, so only the first run in a checkout compiles. Build output goes
to stderr; the benchmark's report and its final JSON line go to stdout. See
servebench/README.md for what each workload and metric means.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small_generated", "large_mixed", "inline_large")
# A run measures --seconds plus a few seconds of set-up; anything far beyond
# that is a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to "
                           "servebench/; run from a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "servebench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"servebench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, f"trace_{args.workload}_{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("servebench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 servebench/spread.py [--runs 10] [--first-seed 1]
                                 [--workloads small_generated,...]
                                 [--log-dir DIR]

Runs servebench/run.py once per seed for each workload (untraced, with
BENCHMARK.json's run_seconds) and prints, per metric, the median of the runs
and the distance between the first and third quartiles as a share of that
median (statistics.quantiles(values, n=4)). A metric is steady when that
spread is under its bound from BENCHMARK.json; the target is a third of it.
With --log-dir, each run's full report is kept there as
<workload>_<seed>.log. Exits non-zero if a run fails or a spread (other than
setup_s's) exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, log_dir):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if log_dir:
        with open(os.path.join(log_dir, f"{workload}_{seed}.log"), "w") as f:
            f.write(out.stdout)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:"
                           f"\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--log-dir")
    args = parser.parse_args()
    if args.log_dir:
        os.makedirs(args.log_dir, exist_ok=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, args.seconds,
                         args.log_dir)
                for i in range(args.runs)]
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            if spread > bound and name != "setup_s":
                steady = False
            print(f"  {name:16s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound:5.3f}  {verdict}  "
                  f"[{min(values):.6g} .. {max(values):.6g}]")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

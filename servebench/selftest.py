#!/usr/bin/env python3
"""Smoke test of the service benchmark harness.

    python3 servebench/selftest.py

For each workload in BENCHMARK.json it makes a one-second untraced run and a
one-second traced run through servebench/run.py and checks the result line:
exactly the keys correct/attempted/failed/metrics, a correct run with no
failures, every end-to-end (untraced) or per-layer (traced) metric printed
with its unit and a finite value, and ok_ratio == 1. It then checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and servebench/. Exits non-zero on the first
failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"selftest: FAIL {message}")
    sys.exit(1)


def run(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join("servebench", "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


def check_result(workload, trace, expected):
    out = run(ROOT, workload, trace)
    label = f"{workload} trace={trace}"
    if out.returncode != 0:
        fail(f"{label} exited {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted={result['attempted']}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"{label}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        got = metrics[name]
        if got.get("unit") != unit:
            fail(f"{label}: {name} unit {got.get('unit')!r}, want {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{label}: {name} value {value!r}")
    if trace == 0 and metrics["ok_ratio"]["value"] != 1:
        fail(f"{label}: ok_ratio {metrics['ok_ratio']['value']}")
    print(f"selftest: ok {label}: {len(metrics)} metrics, "
          f"{result['attempted']} requests")


def check_bare_checkout(workload):
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "servebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(bare, workload, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        fail("a checkout without the library must fail without a result")
    print("selftest: ok bare checkout refused "
          f"(exit {out.returncode})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(workload, 0, end_to_end)
        check_result(workload, 1, per_layer)
    check_bare_checkout(bench["workloads"][0]["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: the smallest rung of every workload.

    python3 perfbench/selftest.py

Runs run.py --smallest on each workload with tracing off and on, and
checks that the last stdout line is the result object, that it names
every end-to-end (or per-layer) metric of BENCHMARK.json with its unit
and a finite value, and that the run is correct: every timed call
passed, and every call of the defect probe passed or failed only on its
known defect. Also checks that the benchmark refuses to run, without
printing a result, in a directory holding only BENCHMARK.json and
perfbench/. Exits non-zero on the first problem.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smallest"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, wanted, label):
    if proc.returncode:
        return f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    if set(result) != RESULT_KEYS:
        return f"{label}: result keys {sorted(result)}"
    if not result["correct"]:
        return f"{label}: incorrect: {details['failures']}"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        return f"{label}: bad counts {result['attempted']}, {result['failed']}"
    got = result["metrics"]
    if set(got) != set(wanted):
        return f"{label}: metrics differ: {sorted(set(got) ^ set(wanted))}"
    for name, unit in wanted.items():
        entry = got[name]
        if entry.get("unit") != unit:
            return f"{label}: {name} has unit {entry.get('unit')!r}, not {unit!r}"
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{label}: {name} = {value!r}"
    for key in ("seed", "python", "numpy", "nproc", "blas_threads"):
        if key not in details["provenance"]:
            return f"{label}: provenance lacks {key}"
    return None


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "exact", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"
    return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            bad = check_result(run(ROOT, workload, trace), wanted[trace], label)
            print(f"{label}: {bad or 'ok'}")
            problems += [bad] if bad else []
    bad = check_bare_directory()
    print(f"bare directory: {bad or 'ok'}")
    problems += [bad] if bad else []
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

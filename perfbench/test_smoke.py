#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny inputs.

    python3 perfbench/test_smoke.py [--binary PATH]

For each workload, runs run.py untraced and traced on tiny inputs and
checks that every metric BENCHMARK.json names is in the result once, with
its unit, that each end-to-end metric is also printed by name, and that
fail_ratio is 0. Then checks that the benchmark refuses to run, without a
result, from a directory holding only BENCHMARK.json and perfbench/.
Without --binary the benchmark is built first (as run.py does).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def check_run(spec, workload, trace, binary):
    args = ["--workload", workload, "--seed", "7", "--seconds", "0.2",
            "--trace", str(trace), "--tiny"]
    if binary:
        args += ["--binary", binary]
    proc = run(args)
    errors = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        errors.append("not correct")
    if result["attempted"] < 1:
        errors.append("no job attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        errors.append(f"metric names differ: {sorted(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append(f"{m['name']}: {got}")
        elif not isinstance(got["value"], (int, float)):
            errors.append(f"{m['name']} is not a number")
        if not trace:
            printed = [ln for ln in lines[:-1]
                       if ln.split()[:1] == [m["name"]]]
            if len(printed) != 1 or printed[0].split()[2] != m["unit"]:
                errors.append(f"{m['name']} printed {len(printed)} times")
    fail_lines = [ln.split() for ln in lines[:-1]
                  if ln.split()[:1] == ["fail_ratio"]]
    if len(fail_lines) != 1 or float(fail_lines[0][1]) != 0.0:
        errors.append("fail_ratio not printed once as 0")
    return errors


def check_refuses_without_sources(scratch):
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "idle", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=tmp)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            return ["ran without the library sources"]
    return []


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(spec, w["name"], trace, args.binary)
            failures += bool(errors)
            status = "ok  " if not errors else "FAIL"
            print(f"{status} {w['name']} --trace {trace}"
                  + "".join(f"\n     {e}" for e in errors))
    # Scratch space stays inside the build tree.
    scratch = (os.path.dirname(os.path.abspath(args.binary)) if args.binary
               else os.path.join(ROOT, ".bench_build"))
    errors = check_refuses_without_sources(scratch)
    failures += bool(errors)
    print(("ok  " if not errors else "FAIL") + " refuses without src/"
          + "".join(f"\n     {e}" for e in errors))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

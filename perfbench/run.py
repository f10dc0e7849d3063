#!/usr/bin/env python3
"""Repository benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload idle|tune|replay|fleet \\
        --seed N --seconds S --trace 0|1

Run from a full source checkout. Builds perfbench/ together with the
libraries under src/ (Release, into $CARGO_TARGET_DIR or .bench_build),
runs the workload with inputs made from --seed, checks every output, and
prints the metrics with their units. The last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see summarize.py). BENCHMARK.json
lists the metrics; BASELINE.md records why each workload exists and what
each layer metric should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("idle", "tune", "replay", "fleet")
# Kept well inside the 180 s a run may take, build excluded.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"{ROOT}/src not found: the benchmark builds the "
                           "libraries from a full source checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs perfbench; returns (exit code, its report line, raw JSON)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench exited {proc.returncode} without a "
                           "result")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def end_to_end(raw):
    jobs = raw["jobs"]
    wall = [j["wall_ns"] / 1e9 for j in jobs]
    return {
        "setup_s": {"value": statistics.median(raw["setup_ns"]) / 1e9,
                    "unit": "s"},
        "job_s": {"value": statistics.median(wall), "unit": "s"},
        "work_per_s": {"value": sum(j["units"] for j in jobs) / sum(wall),
                       "unit": "1/s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (the smoke test); not a benchmark")
    ap.add_argument("--binary", help="use this perfbench binary, no build")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = args.binary or build()
        cmd = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        spans_path = None
        if args.trace:
            os.makedirs(build_dir(), exist_ok=True)
            spans_path = os.path.join(
                build_dir(), f"spans-{args.workload}-{args.seed}.json")
            cmd += ["--spans", spans_path]
        if args.tiny:
            cmd.append("--tiny")
        code, report, raw = run_binary(binary, cmd)
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1

    jobs = raw["jobs"]
    attempted = len(jobs)
    failed = sum(1 for j in jobs if not j["ok"])
    correct = code == 0 and failed == 0 and not raw["run_error"]
    for line in report:
        print(line)
    if args.trace:
        with open(spans_path, encoding="utf-8") as f:
            doc = json.load(f)
        print(summarize.render(doc))
        metrics = summarize.per_layer(doc)
    else:
        metrics = end_to_end(raw)
        notes = {"setup_s": "(median of the set-ups)",
                 "job_s": f"(median of {attempted} jobs)"}
        for name, m in metrics.items():
            print(f"  {name:12} {m['value']:14.6g} {m['unit']} "
                  f"{notes.get(name, '')}".rstrip())
    # fail_ratio is printed, not gated as a metric: it is 0 on every
    # correct run, and attempted/failed below carry it to the JSON.
    print(f"  {'fail_ratio':12} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

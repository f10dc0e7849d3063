#!/usr/bin/env python3
"""Per-layer table of a traced benchmark run.

    python3 perfbench/summarize.py SPANS.json [SPANS.json ...]

`perfbench --trace 1 --spans PATH` writes one span file per run (run.py
keeps them in its build directory as spans-<workload>-<seed>.json). For
each file this prints the self time of every layer the run touched, its
counts and ratios, the end-to-end metric each should move, and the
tracing overhead: traced job time minus untraced job time on the same
inputs.

Definitions (DEFINITIONS below is the single source):
  * self time is a span's duration minus the time its child spans cover;
    a summed span (per-record calls, e.g. the generator sink) covers its
    summed duration;
  * set-up metrics are the median over the run's set-ups of the per-set-up
    total; job metrics are the mean per traced job;
  * counts are totals over one cycle of the workload's inputs (set-up
    counts: over the last set-up), so they repeat exactly for a seed;
  * ratios divide time by a count over all traced jobs.
A layer the workload does not exercise reads 0.
"""

import json
import statistics
import sys
from collections import defaultdict


class SpanRun:
    """Index over one span file."""

    def __init__(self, doc):
        self.workload = doc["workload"]
        self.seed = doc["seed"]
        self.jobs = doc["jobs"]
        spans = doc["spans"]
        covered = defaultdict(int)
        for s in spans:
            if s["parent"]:
                covered[s["parent"]] += s["dur_ns"]
        self.self_ns = {s["id"]: s["dur_ns"] - covered[s["id"]] for s in spans}
        self.spans = spans
        self.counts = doc["counts"]
        self.traced = {j["job"] for j in self.jobs if j["traced"]}
        traced_cycles = sorted({j["cycle"] for j in self.jobs if j["traced"]})
        self.first_traced = {
            j["job"] for j in self.jobs
            if traced_cycles and j["cycle"] == traced_cycles[0]}
        self.last_rep = max([s["rep"] for s in spans if s["phase"] == "setup"],
                            default=0)

    def _job_spans(self, name):
        return [s for s in self.spans
                if s["phase"] == "job" and s["job"] in self.traced
                and s["name"] == name]

    def setup_self_s(self, name):
        per_rep = defaultdict(int)
        for s in self.spans:
            if s["phase"] == "setup" and s["name"] == name:
                per_rep[s["rep"]] += self.self_ns[s["id"]]
        return statistics.median(per_rep.values()) / 1e9 if per_rep else 0.0

    def job_self_s(self, name):
        if not self.traced:
            return 0.0
        total = sum(self.self_ns[s["id"]] for s in self._job_spans(name))
        return total / len(self.traced) / 1e9

    def job_ns(self, name):
        """Total span time of `name` over all traced jobs."""
        return sum(s["dur_ns"] for s in self._job_spans(name))

    def job_self_ns(self, name):
        return sum(self.self_ns[s["id"]] for s in self._job_spans(name))

    def cycle_count(self, name):
        """Count over one cycle of inputs (or over the last set-up)."""
        total = 0
        for c in self.counts:
            if c["name"] != name:
                continue
            if c["phase"] == "setup" and c["rep"] == self.last_rep:
                total += c["value"]
            elif c["phase"] == "job" and c["job"] in self.first_traced:
                total += c["value"]
        return total

    def traced_count(self, name):
        return sum(c["value"] for c in self.counts
                   if c["name"] == name and c["phase"] == "job"
                   and c["job"] in self.traced)

    def overhead(self):
        """(traced - untraced) mean job wall time, in s and as a share."""
        traced = [j["wall_ns"] for j in self.jobs if j["traced"]]
        plain = [j["wall_ns"] for j in self.jobs if not j["traced"]]
        if not traced or not plain:
            return 0.0, 0.0
        t = statistics.fmean(traced)
        p = statistics.fmean(plain)
        return (t - p) / 1e9, (t - p) / p


def ratio(num, den):
    return num / den if den else 0.0


# name, unit, better, workloads, end-to-end metric it should move, value.
DEFINITIONS = [
    ("trace.calibrate_s", "s", "lower", "idle tune replay", "setup_s",
     lambda r: r.setup_self_s("trace.calibrate")),
    ("trace.generate_s", "s", "lower", "tune replay", "setup_s",
     lambda r: r.setup_self_s("trace.generate")),
    ("trace.csv_write_s", "s", "lower", "tune", "setup_s",
     lambda r: r.setup_self_s("trace.csv_write")),
    ("trace.csv_read_s", "s", "lower", "tune", "setup_s",
     lambda r: r.setup_self_s("trace.csv_read")),
    ("core.services_s", "s", "lower", "tune", "setup_s",
     lambda r: r.setup_self_s("core.services")),
    ("core.decompose_s", "s", "lower", "tune", "setup_s",
     lambda r: r.setup_self_s("core.decompose")),
    ("trace.generate_self_s", "s", "lower", "idle", "job_s work_per_s",
     lambda r: r.job_self_s("trace.generate")),
    ("trace.ns_per_record", "ns/record", "lower", "idle", "job_s work_per_s",
     lambda r: ratio(r.job_self_ns("trace.generate"),
                     r.traced_count("trace.records"))),
    ("trace.idle_accumulate_s", "s", "lower", "idle", "job_s",
     lambda r: r.job_self_s("trace.idle_accumulate")),
    ("stats.analyze_s", "s", "lower", "idle", "job_s",
     lambda r: r.job_self_s("stats.analyze")),
    ("trace.records", "count", "higher", "idle tune", "work_per_s",
     lambda r: r.cycle_count("trace.records")),
    ("trace.idle_intervals", "count", "higher", "idle", "job_s",
     lambda r: r.cycle_count("trace.idle_intervals")),
    ("core.optimize_s", "s", "lower", "tune", "job_s work_per_s",
     lambda r: r.job_self_s("core.optimize")),
    ("core.optimize_ns_per_interval", "ns/interval", "lower", "tune",
     "job_s work_per_s",
     lambda r: ratio(r.job_ns("core.optimize"),
                     r.traced_count("core.optimize_intervals"))),
    ("core.reference_replay_s", "s", "lower", "tune", "job_s",
     lambda r: r.job_self_s("core.reference_replay")),
    ("core.replay_ns_per_record", "ns/record", "lower", "tune", "job_s",
     lambda r: ratio(r.job_ns("core.reference_replay"),
                     r.traced_count("core.replayed_records"))),
    ("core.idle_intervals", "count", "higher", "tune", "job_s",
     lambda r: r.cycle_count("core.idle_intervals")),
    ("exp.scenario_build_s", "s", "lower", "replay", "job_s",
     lambda r: r.job_self_s("exp.scenario_build")),
    ("sim.run_s", "s", "lower", "replay", "job_s work_per_s",
     lambda r: r.job_self_s("sim.run")),
    ("sim.ns_per_event", "ns/event", "lower", "replay", "job_s work_per_s",
     lambda r: ratio(r.job_ns("sim.run"), r.traced_count("sim.events"))),
    ("sim.events_per_io", "events/io", "lower", "replay", "job_s work_per_s",
     lambda r: ratio(r.traced_count("sim.events"),
                     r.traced_count("workload.requests")
                     + r.traced_count("core.scrub_requests"))),
    ("stats.ecdf_s", "s", "lower", "replay", "job_s",
     lambda r: r.job_self_s("stats.ecdf")),
    ("sim.events", "count", "lower", "replay", "job_s",
     lambda r: r.cycle_count("sim.events")),
    ("workload.requests", "count", "higher", "replay", "work_per_s",
     lambda r: r.cycle_count("workload.requests")),
    ("core.scrub_requests", "count", "higher", "replay", "job_s",
     lambda r: r.cycle_count("core.scrub_requests")),
    ("block.collisions", "count", "lower", "replay", "job_s",
     lambda r: r.cycle_count("block.collisions")),
    ("fleet.run_s", "s", "lower", "fleet", "job_s work_per_s",
     lambda r: r.job_self_s("fleet.run")),
    ("fleet.us_per_disk", "us/disk", "lower", "fleet", "job_s work_per_s",
     lambda r: ratio(r.job_ns("fleet.run") / 1e3,
                     r.traced_count("fleet.disks"))),
    ("daemon.run_s", "s", "lower", "fleet", "job_s",
     lambda r: r.job_self_s("daemon.run")),
    ("daemon.ns_per_extent", "ns/extent", "lower", "fleet", "job_s",
     lambda r: ratio(r.job_ns("daemon.run"),
                     r.traced_count("daemon.extents"))),
    ("fleet.errors", "count", "higher", "fleet", "job_s",
     lambda r: r.cycle_count("fleet.errors")),
    ("daemon.extents", "count", "higher", "fleet", "job_s",
     lambda r: r.cycle_count("daemon.extents")),
    ("daemon.checkpoints", "count", "lower", "fleet", "job_s",
     lambda r: r.cycle_count("daemon.checkpoints")),
    ("daemon.rejected_ratio", "ratio", "lower", "fleet", "job_s",
     lambda r: ratio(r.traced_count("daemon.rejected"),
                     r.traced_count("daemon.client_issued"))),
    ("tracing.overhead_s", "s", "lower", "all", "-",
     lambda r: r.overhead()[0]),
    ("tracing.overhead_ratio", "ratio", "lower", "all", "-",
     lambda r: r.overhead()[1]),
]


def per_layer(doc):
    """{name: {"value": v, "unit": u}} for every per-layer metric."""
    run = SpanRun(doc)
    return {name: {"value": fn(run), "unit": unit}
            for name, unit, _, _, _, fn in DEFINITIONS}


def render(doc):
    run = SpanRun(doc)
    lines = [f"per-layer: {run.workload} seed {run.seed}, "
             f"{len(run.traced)} traced jobs"]
    lines.append(f"  {'metric':32} {'value':>14} {'unit':12} moves")
    for name, unit, _, workloads, moves, fn in DEFINITIONS:
        if run.workload in workloads.split() or workloads == "all":
            lines.append(f"  {name:32} {fn(run):14.6g} {unit:12} {moves}")
    seconds, share = run.overhead()
    lines.append(f"  tracing overhead: {seconds * 1e3:+.3f} ms per job "
                 f"({share * 100:+.1f}% of untraced job time)")
    return "\n".join(lines)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        with open(path, encoding="utf-8") as f:
            print(render(json.load(f)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Tiny-size smoke run of the benchmark.

    python3 perfbench/smoke.py

Run from the root of a source checkout; takes about a minute.  It checks
that every workload emits every metric that BENCHMARK.json and the
workload's report name, that a planted wrong expected verdict raises
``failed_ratio``, that count-type layer metrics repeat exactly across two
traced runs, and that an untraced child's guard record shows the tracer
not loaded.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMED = {
    "certify_ladder": ("certify_s", "cert_steps", "cert_bytes"),
    "kernel_replay": ("verify_s", "audit_s", "reject_s"),
    "search_random": ("search_pairs_per_s", "search_found_ratio"),
    "tower_checks": ("checks_s",),
}
REPORTED = ("pass_s", "cpu_s", "failed_ratio")
COUNT_SUFFIXES = ("calls", ".tuples", ".distinct", "replay_factor", "cert_steps", "cert_bytes")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or ".calls." in name


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def plant_wrong_verdict(work) -> None:
    """Expect a tampered certificate to be accepted."""
    op = next(op for op in work.ops if op.group == "reject")
    op.expect_rc = 0


def untraced_guard() -> dict | None:
    """The guard record of one untraced child (``--help``)."""
    rundir = run.WORK / "smoke-guard"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        return run.Bench(7, rundir, rundir).run_child("cli", ["--help"])[4]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main() -> int:
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    expect(sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists every workload")
    guard = untraced_guard()
    expect(guard is not None and guard["tracer_loaded"] is False,
           "an untraced child's guard record shows the tracer not loaded")
    for name in WORKLOADS:
        plain = run.measure(name, 7, 0, False, size="tiny")
        expect(plain.correct and plain.failed == 0, f"{name}: every verdict is the known answer")
        expect(sorted(plain.metrics) == sorted(end_to_end),
               f"{name}: untraced run emits exactly the end-to-end metrics")
        missing = [m for m in NAMED[name] + REPORTED if m not in plain.report]
        expect(not missing, f"{name}: report names its metrics {missing or ''}")
        first = run.measure(name, 7, 0, True, size="tiny")
        second = run.measure(name, 7, 0, True, size="tiny")
        expect(sorted(first.metrics) == sorted(per_layer),
               f"{name}: traced run emits exactly the per-layer metrics")
        differ = [m for m in per_layer if is_count(m)
                  and first.metrics[m][0] != second.metrics[m][0]]
        expect(not differ, f"{name}: count metrics repeat across traced runs {differ or ''}")
    planted = run.measure("kernel_replay", 7, 0, False, size="tiny", plant=plant_wrong_verdict)
    expect(planted.report["failed_ratio"][0] > 0 and not planted.correct,
           "a planted wrong expected verdict raises failed_ratio")
    return 0


if __name__ == "__main__":
    sys.exit(main())

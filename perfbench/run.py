"""The scaledss benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  NAME is one of the workloads in
``workloads.py``, or ``all``.  The benchmark runs the program's set-up
commands SETUP_REPEATS times and reports their median time (see
``set_up``), makes the workload's inputs from the seed, then runs every
operation once and repeats the heavy ones (see ``measure``).  Every
operation runs in its own fresh interpreter, one at a time, and its exit
code and output are checked against the known answer.

With ``--trace 1`` one more pass runs with the layer tracer in every child
and the per-layer metrics are reported instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it names the
workload-specific metrics.  Everything the run writes goes under
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
REFERENCE_REPEATS = 5
# passes over the heavy operations after the first pass, at least
HEAVY_REPEATS = 2
# The reference loop's median time on the quiet 2-CPU machine the baseline
# was measured on: ``setup_s`` is given in seconds at that speed.
REFERENCE_S = 0.011
CHILD_TIMEOUT_S = 170.0
sys.path.insert(0, str(BENCH))

import certjson  # noqa: E402
import layers  # noqa: E402
from child import GUARD_PREFIX  # noqa: E402
from workloads import WORKLOADS, Op, Workload, ladder, make_workload  # noqa: E402


@dataclass
class Result:
    op: Op
    wall: float
    cpu: float
    rss_mb: float
    failed: int
    trace: dict | None = None
    cert: dict | None = None
    ref: float = 0.0
    dump_s: float = 0.0


@dataclass
class Pass:
    results: list[Result] = field(default_factory=list)

    @property
    def ref_wall(self) -> float:
        return sum(r.wall / r.ref for r in self.results)


class Bench:
    """One run of one workload: its scratch directory, seed and children."""

    def __init__(self, seed: int, rundir: Path, certs: Path):
        self.seed = seed
        self.rundir = rundir
        self.certs = certs
        self.children = 0
        self.pids: set[int] = set()
        self.last_ref: float | None = None

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def run_child(self, mode: str, argv: list[str], spans: Path | None = None):
        """Run one operation in a fresh interpreter and wait for it.

        Returns (wall seconds, rusage, exit code, stdout, guard record),
        the guard record None when it is missing or does not match this
        child."""
        self.children += 1
        cmd_id = f"c{self.children}"
        out_path = self.rundir / f"{cmd_id}.out"
        err_path = self.rundir / f"{cmd_id}.err"
        cmd = [sys.executable, str(BENCH / "child.py"), cmd_id,
               str(spans) if spans else "-", mode, *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=self.rundir)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        guard = _guard(err_path.read_text(encoding="utf-8", errors="replace"))
        ok = (guard is not None and guard["cmd"] == cmd_id and guard["pid"] == proc.pid
              and guard["tracer_loaded"] == (spans is not None) and not guard["crashed"]
              and proc.pid not in self.pids)
        self.pids.add(proc.pid)
        return wall, usage, proc.returncode, stdout, guard if ok else None

    def program_json(self, argv: list[str]) -> tuple[float, dict]:
        """Wall time and output of a set-up command of the program."""
        wall, _, rc, stdout, guard = self.run_child("cli", argv)
        if rc != 0 or guard is None:
            raise RuntimeError(f"set-up command {argv} failed with exit {rc}")
        return wall, json.loads(stdout.splitlines()[-1])

    def reference(self) -> float:
        return statistics.median(reference_loop() for _ in range(REFERENCE_REPEATS))

    def run_op(self, op: Op, spans: Path | None = None) -> Result:
        """Run one sample of ``op`` between two reference timings; the one
        after it is also the one before the next sample."""
        before = self.last_ref if self.last_ref is not None else self.reference()
        wall, usage, rc, stdout, guard = self.run_child(op.mode, op.argv, spans)
        self.last_ref = self.reference()
        ref = (before + self.last_ref) / 2
        if guard is None or rc != op.expect_rc:
            failed = op.count
        else:
            failed = min(op.count, op.check(stdout)) if op.check else 0
        trace = cert = None
        if spans is not None and spans.exists():
            trace = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        if op.out_file and failed == 0:
            data = (self.rundir / op.out_file).read_bytes()
            steps = json.loads(data)["steps"]
            cert = {"cert_bytes": len(data), "cert_steps": certjson.recursive_steps(steps),
                    "units": certjson.replay_units(steps)}
        return Result(op, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, failed, trace, cert, ref,
                      guard["dump_s"] if guard else 0.0)

    def run_pass(self, ops: list[Op], traced: bool = False) -> Pass:
        done = Pass()
        for op in ops:
            spans = self.rundir / f"spans{self.children + 1}.json" if traced else None
            done.results.append(self.run_op(op, spans))
        return done


def reference_loop() -> float:
    """Seconds for a fixed piece of set, tuple and dict work like the
    program's own, timed in this process around each operation."""
    t0 = time.perf_counter()
    cells = set()
    for i in range(8000):
        cells.add((str(i % 211), str(i % 97), i & 7))
    index = {}
    for cell in cells:
        index.setdefault(frozenset(cell[:2]), []).append(cell)
    sorted(index, key=len)
    return time.perf_counter() - t0


def _guard(stderr: str) -> dict | None:
    lines = [l for l in stderr.splitlines() if l.startswith(GUARD_PREFIX)]
    if len(lines) != 1:  # exactly one operation ran in this interpreter
        return None
    try:
        return json.loads(lines[0][len(GUARD_PREFIX):])
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Certificates of the commit under test, built once per checkout


def source_key(size: str) -> str:
    digest = hashlib.sha256(size.encode())
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def ensure_certs(size: str) -> tuple[Path, float]:
    """The ladder's certificates as this checkout's program writes them.

    They are built on the first run that needs them and reused while the
    source is unchanged.  Returns the directory and the build time (0 when
    reused)."""
    final = WORK / f"certs-{size}-{source_key(size)}"
    if final.exists():
        return final, 0.0
    tmp = WORK / f"build-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        bench = Bench(0, tmp, tmp)
        for lem in ladder(size):
            bench.run_child("cli", lem.argv(f"{lem.label}.json"))
        for p in tmp.glob("c*.out"):
            p.unlink()
        for p in tmp.glob("c*.err"):
            p.unlink()
        tmp.rename(final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# One run


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: dict[str, tuple[float, str]]
    op_s: dict[str, float]


def set_up(work: Workload, bench: Bench) -> tuple[float, float]:
    """Run the program's set-up SETUP_REPEATS times, then make the inputs.
    Returns ``setup_s`` and the raw median set-up seconds.

    Each repeat starts the program once cold (``--help``) and runs the
    workload's set-up commands (``Workload.setup_argvs``); only these
    children are timed.  The inputs the benchmark itself makes from the seed
    and the last repeat's outputs (tampered copies, search pairs) are not.
    Like ``pass_ref``, each repeat is scaled by the reference loop timed
    before and after it, so that drift between runs cancels: ``setup_s`` is
    the median in seconds at the speed where the loop takes REFERENCE_S."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = bench.reference()
        wall, _, rc, _, guard = bench.run_child("cli", ["--help"])
        if rc != 0 or guard is None:
            raise RuntimeError(f"the program does not start (exit {rc})")
        outputs = []
        for argv in work.setup_argvs():
            child_s, out = bench.program_json(argv)
            wall += child_s
            outputs.append(out)
        times.append(wall)
        scaled.append(wall * REFERENCE_S * 2 / (before + bench.reference()))
    work.prepare(bench, outputs)
    return statistics.median(scaled), statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            plant=None) -> Outcome:
    """One run of one workload.

    The first pass runs every operation once.  Further passes run only the
    heavy operations, at least HEAVY_REPEATS of them and while ``seconds``
    have not gone.  Only ``tower_checks`` has heavy operations: two commands
    that make most of its pass.  At ten seconds the count binds, so every
    run takes the same number of samples and the smallest of them does not
    depend on how fast the machine was.

    The speed of a shared machine drifts by tens of percent over seconds and
    minutes.  So before and after each sample the parent times a fixed
    reference loop (median of REFERENCE_REPEATS), and ``pass_ref`` sums,
    over the operations, each one's smallest ratio of wall time to the mean
    of the two reference times around it: drift that slows both cancels.
    The raw seconds, each operation's fastest sample summed, are reported
    beside it.
    ``plant`` may alter the prepared operations before measuring; the smoke
    run uses it to plant a wrong expectation."""
    work = make_workload(name, size)
    WORK.mkdir(parents=True, exist_ok=True)
    certs, build_s = ensure_certs(size) if work.needs_certs else (WORK, 0.0)
    rundir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        bench = Bench(seed, rundir, certs)
        setup_s, setup_raw_s = set_up(work, bench)
        if plant is not None:
            plant(work)
        t0 = time.perf_counter()
        bench.last_ref = None
        first = bench.run_pass(work.ops)
        heavy = [op for op in work.ops if op.heavy]
        repeats = []
        while heavy and (len(repeats) < HEAVY_REPEATS or time.perf_counter() - t0 < seconds):
            repeats.append(bench.run_pass(heavy))
        traced = bench.run_pass(work.ops, traced=True) if trace else None
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    samples = [r for p in [first, *repeats] for r in p.results]
    best = [min((r for r in samples if r.op is op), key=lambda r: r.wall) for op in work.ops]
    everything = samples + (traced.results if traced else [])
    attempted = sum(r.op.count for r in everything)
    failed = sum(r.failed for r in everything)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "pass_ref": (sum(min(r.wall / r.ref for r in samples if r.op is op)
                         for op in work.ops), "ref"),
        "peak_rss_mb": (max(r.rss_mb for r in samples), "MB"),
    }
    report = dict(end_to_end)
    report["pass_s"] = (sum(r.wall for r in best), "s")
    report["cpu_s"] = (sum(min(r.cpu for r in samples if r.op is op) for op in work.ops), "s")
    report.update(work.named(best))
    report["failed_ratio"] = (failed / attempted, "ratio")
    report["samples"] = (len(samples), "count")
    report["reference_s"] = (statistics.median(r.ref for r in samples), "s")
    op_s = {f"{r.op.group}:{r.op.label}": r.wall for r in best}
    report["build_s"] = (build_s, "s")
    report["setup_raw_s"] = (setup_raw_s, "s")
    certs_written = [r.cert for r in first.results if r.cert]
    if certs_written:
        report["cert_steps"] = (sum(c["cert_steps"] for c in certs_written), "count")
        report["cert_bytes"] = (sum(c["cert_bytes"] for c in certs_written), "bytes")
    if traced is None:
        return Outcome(failed == 0, attempted, failed, end_to_end, report, op_s)

    units = {m["name"]: m["unit"] for m in layers.PER_LAYER}
    children = []
    for r in traced.results:
        if r.trace is None:
            continue
        child = {"trace": r.trace, "wall": r.wall, "dump_s": r.dump_s,
                 "bytes_in": r.op.bytes_in}
        if r.cert:
            child.update(r.cert)
        children.append(child)
    per_layer = {k: (v, units[k]) for k, v in layers.layer_metrics(children).items()}
    # like for like: one traced sample of every operation against the first
    # untraced one, each in reference units so that drift cancels
    per_layer["trace.overhead_ratio"] = (traced.ref_wall / first.ref_wall, "ratio")
    return Outcome(failed == 0, attempted, failed, per_layer, report, op_s)


def _emit(name: str, seed: int, out: Outcome) -> None:
    print(json.dumps({"workload": name, "seed": seed, "report": _metrics_json(out.report),
                      "op_s": out.op_s}))


def _metrics_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scaledss" / "cli.py").is_file():
        print(f"no scaledss source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        outcomes[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        _emit(name, args.seed, outcomes[name])
    if len(names) == 1:
        metrics = _metrics_json(outcomes[names[0]].metrics)
    else:
        metrics = {f"{n}.{k}": v for n, o in outcomes.items()
                   for k, v in _metrics_json(o.metrics).items()}
    print(json.dumps({
        "correct": all(o.correct for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

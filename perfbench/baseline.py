"""Summarise repeated benchmark runs of this checkout into one JSON file.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs ``run.py`` once per seed (1..RUNS) on every workload, untraced, and
once traced with seed 1.  For every end-to-end and report metric it records
the median, the quartiles and the spread (quartile distance over median),
and it records the traced run's per-layer metrics.  It prints one line per
run and, at the end, each gated metric's spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {"python": platform.python_version(), "runs": RUNS,
           "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        ok = True
        for seed in range(1, RUNS + 1):
            report, result = one_run(name, seed, 0)
            ok = ok and result["correct"]
            for key, metric in report["report"].items():
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
            gated = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(name, seed, json.dumps(gated),
                  "correct" if result["correct"] else f"failed={result['failed']}", flush=True)
        _, traced = one_run(name, 1, 1)
        out["workloads"][name] = {
            "all_correct": ok,
            "metrics": {k: dict(summary(v), unit=units[k]) for k, v in values.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for key, bound in bounds.items():
            s = out["workloads"][name]["metrics"][key]
            print(f"{name:16s} {key:12s} median={s['median']:.4g} spread={s['spread']:.3f} "
                  f"bound={bound}", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

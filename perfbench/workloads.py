"""The four workloads: their operations, inputs and known answers.

Every operation runs in its own fresh interpreter (see ``child.py``), so no
lru or tower cache, and no memo a later change adds, carries over from one
timed operation to the next.  Each workload has a ``full`` size, which the
benchmark measures, and a ``tiny`` size for the smoke run.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import certjson

SEARCH_BUDGET = 64


@dataclass
class Op:
    """One timed child.  ``check`` reads its stdout and returns how many of
    its ``count`` operations gave a wrong answer."""

    label: str
    group: str
    mode: str
    argv: list[str]
    expect_rc: int = 0
    check: Optional[Callable[[str], int]] = None
    count: int = 1
    bytes_in: int = 0
    out_file: Optional[str] = None
    heavy: bool = False


def _json_line(stdout: str) -> Optional[dict]:
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def _expect_fields(**want) -> Callable[[str], int]:
    def check(stdout: str) -> int:
        obj = _json_line(stdout)
        return 0 if obj is not None and all(obj.get(k) == v for k, v in want.items()) else 1
    return check


# ---------------------------------------------------------------------------
# The certify ladder, shared by certify_ladder and kernel_replay


@dataclass(frozen=True)
class Lemma:
    lemma: str
    n: Optional[int] = None
    i: Optional[int] = None
    budget: Optional[int] = None

    @property
    def label(self) -> str:
        return "_".join(str(x) for x in (self.lemma, self.n, self.i) if x is not None)

    def argv(self, out: str) -> list[str]:
        argv = ["certify", "--lemma", self.lemma]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        if self.i is not None:
            argv += ["--i", str(self.i)]
        if self.budget is not None:
            argv += ["--budget", str(self.budget)]
        return argv + ["--out", out]


def ladder(size: str) -> list[Lemma]:
    """The lemmas at every level the acceptance gate covers and one beyond."""
    top = 5 if size == "full" else 2
    out = [Lemma(lem, n, 1) for lem in ("plus", "minus", "inner") for n in range(2, top + 1)]
    # cosegal(4) exits 1 at the default budget of 256; 1024 and 2048 succeed.
    cosegal_top = 4 if size == "full" else 2
    out += [Lemma("cosegal", n, None, 2048 if n == 4 else None)
            for n in range(2, cosegal_top + 1)]
    out += [Lemma("theta", None, i) for i in ((0, 1) if size == "full" else (0,))]
    return out


def tamper_rung(size: str) -> list[str]:
    """Labels of the certificates whose tampered copies kernel_replay
    verifies: one per lemma family, at the level below the top, so every
    mutation meets batches, transports and quotients at a cost that fits
    the run."""
    if size != "full":
        return [lem.label for lem in ladder(size)]
    return ["plus_4_1", "minus_4_1", "inner_4_1", "cosegal_3", "theta_1"]


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Workload:
    name: str
    size: str
    needs_certs: bool = False
    ops: list[Op] = field(default_factory=list)

    def setup_argvs(self) -> list[list[str]]:
        """The program commands the set-up runs, whose JSON outputs
        ``prepare`` receives in this order."""
        return []

    def prepare(self, bench, outputs: list[dict]) -> None:
        """Make this run's inputs under ``bench.rundir`` from ``bench.rng()``."""

    def named(self, best: list) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end metrics from each operation's
        fastest sample."""
        return {}


class CertifyLadder(Workload):
    def prepare(self, bench, outputs) -> None:
        (bench.rundir / "out").mkdir(exist_ok=True)
        self.ops = []
        for lem in ladder(self.size):
            out = f"out/{lem.label}.json"
            reference = bench.certs / f"{lem.label}.json"
            self.ops.append(Op(lem.label, "certify", "cli", lem.argv(out),
                               check=self._check(bench.rundir / out, reference),
                               out_file=out))

    @staticmethod
    def _check(written: Path, reference: Path) -> Callable[[str], int]:
        """The report says ok, its step count matches the file, and the
        bytes equal those of the set-up build of the same commit."""
        def check(stdout: str) -> int:
            obj = _json_line(stdout)
            try:
                data = written.read_bytes()
                steps = len(json.loads(data)["steps"])
            except (OSError, ValueError, KeyError, TypeError):
                return 1
            same = not reference.exists() or reference.read_bytes() == data
            return 0 if obj and obj.get("ok") is True and obj.get("steps") == steps and same else 1
        return check

    def named(self, best):
        return {"certify_s": (group_wall(best, "certify"), "s")}


class KernelReplay(Workload):
    def prepare(self, bench, outputs) -> None:
        rng = bench.rng()
        certs = bench.rundir / "certs"
        certs.mkdir(exist_ok=True)
        verify, audit, reject = [], [], []
        rung = tamper_rung(self.size)
        for lem in ladder(self.size):
            src = bench.certs / f"{lem.label}.json"
            path = certs / src.name
            if not src.exists():  # certify failed in the build: verify fails too
                for flags in ([], ["--audit"]):
                    verify.append(Op(lem.label, "verify", "cli",
                                     ["verify", *flags, "--cert", f"certs/{path.name}"]))
                continue
            shutil.copyfile(src, path)
            data = json.loads(path.read_bytes())
            size = path.stat().st_size
            steps = len(data["steps"])
            for group, flags in (("verify", []), ("audit", ["--audit"])):
                (verify if group == "verify" else audit).append(Op(
                    lem.label, group, "cli", ["verify", *flags, "--cert", f"certs/{path.name}"],
                    check=_expect_fields(ok=True, steps=steps), bytes_in=size))
            if lem.label not in rung:
                continue
            # Every mutation of the menu, where it applies; the seed picks
            # which simplex, step and attach pair it hits.
            for first in certjson.TAMPER_KINDS:
                kind, bad = certjson.tamper(data, first, rng)
                bad_path = certs / f"{lem.label}.{first}.json"
                bad_path.write_text(json.dumps(bad, sort_keys=True, separators=(",", ":")) + "\n",
                                    encoding="utf-8")
                reject.append(Op(f"{lem.label}.{kind}", "reject", "cli",
                                 ["verify", "--cert", f"certs/{bad_path.name}"], expect_rc=1,
                                 check=_expect_fields(ok=False), bytes_in=bad_path.stat().st_size))
        self.ops = verify + audit + reject

    def named(self, best):
        return {g + "_s": (group_wall(best, g), "s") for g in ("verify", "audit", "reject")}


class SearchRandom(Workload):
    """Seeded pairs in chunks, one fresh interpreter per chunk: the sum over
    several chunks averages out drift that one long child would catch whole."""

    LEVELS = (2, 3, 4)
    CHUNK = 100

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pairs = 1200 if self.size == "full" else 6
        self.first: dict[str, list] = {}

    def levels(self) -> tuple[int, ...]:
        return self.LEVELS if self.size == "full" else (2,)

    def setup_argvs(self):
        return [["build", "--object", "ts", "--n", str(n)] for n in self.levels()]

    def prepare(self, bench, outputs) -> None:
        pairs = make_pairs(bench.rng(), dict(zip(self.levels(), outputs)), self.pairs)
        self.first = {}
        self.ops = []
        for k in range(0, len(pairs), self.CHUNK):
            chunk = pairs[k:k + self.CHUNK]
            path = bench.rundir / f"pairs{k}.json"
            path.write_text(json.dumps(chunk), encoding="utf-8")
            label = f"pairs{k}"
            self.ops.append(Op(label, "search", "search", [path.name],
                               check=self._check(label, len(chunk)), count=len(chunk),
                               bytes_in=path.stat().st_size))

    def _check(self, label: str, count: int) -> Callable[[str], int]:
        """Each certificate found verifies plain and audited with equal
        stats; every pass decides every pair as the first pass did."""
        def check(stdout: str) -> int:
            try:
                results = json.loads(stdout.splitlines()[-1])
            except (ValueError, IndexError):
                return count
            if not isinstance(results, list) or len(results) != count:
                return count
            first = self.first.setdefault(label, results)
            bad = 0
            for got, was in zip(results, first):
                if got != was or (got["found"] and not (
                        got["plain_ok"] and got["audit_ok"] and got["stats_agree"])):
                    bad += 1
            return bad
        return check

    def named(self, best):
        found = sum(r["found"] for results in self.first.values() for r in results)
        return {
            "search_pairs_per_s": (self.pairs / group_wall(best, "search"), "1/s"),
            "search_found_ratio": (found / self.pairs, "ratio"),
        }


class TowerChecks(Workload):
    def prepare(self, bench, outputs) -> None:
        top = 5 if self.size == "full" else 1
        audit_n = 6 if self.size == "full" else 2
        ts_n = 7 if self.size == "full" else 2
        ops = [
            Op("cosimplicial", "check", "cli", ["cosimplicial-check", "--max-n", str(top)],
               check=_expect_fields(ok=True, max_n=top), heavy=True),
            Op("rev", "check", "cli", ["rev-check", "--max-n", str(top)],
               check=self._levels(top + 1)),
        ]
        for part in ("plus", "minus", "full"):
            ops.append(Op(f"thin_{part}", "check", "cli",
                          ["audit", "thin", "--n", str(audit_n), "--part", part],
                          check=_expect_fields(ok=True, n=audit_n, part=part)))
        for face in "TFRB":
            # a boundary face keeps two of the four rows
            ops.append(Op(f"face_{face}", "check", "cli",
                          ["build", "--object", "face", "--n", str(top), "--face", face],
                          check=self._vertices(2 * (top + 1))))
        ops.append(Op("ts", "check", "cli", ["build", "--object", "ts", "--n", str(ts_n)],
                      check=self._vertices(4 * (ts_n + 1)), heavy=True))
        self.ops = ops

    @staticmethod
    def _levels(count: int) -> Callable[[str], int]:
        def check(stdout: str) -> int:
            obj = _json_line(stdout)
            return 0 if obj and obj.get("ok") is True and len(obj.get("levels", ())) == count else 1
        return check

    @staticmethod
    def _vertices(count: int) -> Callable[[str], int]:
        def check(stdout: str) -> int:
            obj = _json_line(stdout)
            good = obj and len(obj.get("vertices", ())) == count and obj.get("maximal_simplices")
            return 0 if good else 1
        return check

    def named(self, best):
        return {"checks_s": (group_wall(best, "check"), "s")}


WORKLOADS = {
    # name: (class, needs the ladder's certificates)
    "certify_ladder": (CertifyLadder, True),
    "kernel_replay": (KernelReplay, True),
    "search_random": (SearchRandom, False),
    "tower_checks": (TowerChecks, False),
}


def make_workload(name: str, size: str) -> Workload:
    cls, needs_certs = WORKLOADS[name]
    return cls(name=name, size=size, needs_certs=needs_certs)


# ---------------------------------------------------------------------------
# Search pairs


def _maximal(tuples: set) -> list:
    faces = {t[:j] + t[j + 1:] for t in tuples if len(t) > 1 for j in range(len(t))}
    return sorted((t for t in tuples if t not in faces), key=lambda t: (len(t), t))


def _scaled(tuples: set, thin: set) -> dict:
    return {
        "vertices": sorted({v for t in tuples for v in t}),
        "maximal_simplices": [list(t) for t in _maximal(tuples)],
        "thin": [list(t) for t in sorted(thin & tuples)],
    }


def make_pairs(rng: random.Random, towers: dict[int, dict], count: int) -> list[dict]:
    """Seeded (start, goal) pairs for ``search_decomposition``.

    Three in four pairs fill a horn, one in four on each tower level: the
    goal is the closure of one to four (in turn) random maximal simplices of
    the level, the start is the goal minus the open star of one of its
    triangles.  The rest follow the acceptance gate's randomized-soundness
    criterion on ts(2); most of those are not found or need no step.  Every
    set is sorted before sampling, so a seed gives the same pairs in every
    interpreter.
    """
    levels = sorted(towers)
    pools = {}
    for n, tower in towers.items():
        tuples = certjson.closure(tower["maximal_simplices"], tower["vertices"])
        pools[n] = (sorted(map(tuple, tower["maximal_simplices"])),
                    sorted(tuples, key=lambda t: (len(t), t)),
                    {tuple(t) for t in tower["thin"]})
    pairs = []
    for k in range(count):
        # a fixed mix, so that the seed moves the pairs but not the mix
        if k % 4 == 3:
            _, pool, thin = pools[levels[0]]
            if rng.random() < 0.5:
                goal = certjson.closure(rng.sample(pool, rng.randint(1, 12)))
                kept = [t for t in sorted(goal) if rng.random() < 0.6]
                start = certjson.closure(kept) if kept else {(v,) for t in goal for v in t}
            else:
                goal = certjson.closure(rng.sample(pool, rng.randint(4, 16)))
                drop = [t for t in sorted(goal) if len(t) >= 3 and rng.random() < 0.5]
                start = {t for t in goal if not any(set(d) <= set(t) for d in drop)}
        else:
            maximal, _, thin = pools[levels[k % 4 % len(levels)]]
            goal = certjson.closure(rng.sample(maximal, k // 4 % 4 + 1))
            tri = set(rng.choice(sorted(t for t in goal if len(t) == 3)))
            start = {t for t in goal if not tri <= set(t)}
        pairs.append({"a": _scaled(start, thin), "b": _scaled(goal, thin), "budget": SEARCH_BUDGET})
    return pairs


def group_wall(best: list, group: str) -> float:
    return sum(r.wall for r in best if r.op.group == group)

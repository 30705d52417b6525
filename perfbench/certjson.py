"""Pure-JSON facts about certificate files, computed without scaledss.

The benchmark decides expected verdicts and counts steps from the wire
format alone, so that no answer it checks comes from the program under test.
"""

from __future__ import annotations

import copy
import random

GENERATOR_KINDS = ("an1", "an2", "an3", "gen_horn", "special_tc")
# Generator kinds whose target has a simplex its source lacks: an2 only adds
# thin marks, and an3 and special_tc are quotients whose added simplices
# collapse onto ones their source already has.
TUPLE_ADDING_KINDS = ("an1", "gen_horn")
TAMPER_KINDS = ("lose_maximal", "drop_last", "swap_attach")


def closure(maximal, vertices=()) -> set[tuple]:
    """All faces of the given tuples plus the given vertices."""
    seen: set[tuple] = {(v,) for v in vertices}
    stack = [tuple(t) for t in maximal]
    while stack:
        t = stack.pop()
        if not t or t in seen:
            continue
        seen.add(t)
        if len(t) > 1:
            stack.extend(t[:j] + t[j + 1:] for j in range(len(t)))
    return seen


def complex_tuples(scaled: dict) -> set[tuple]:
    return closure(scaled["maximal_simplices"], scaled["vertices"])


def recursive_steps(steps: list) -> int:
    """Step count through transports and batch items (``cert_steps``)."""
    total = 0
    for s in steps:
        if s["kind"] == "batch":
            total += len(s["items"])
        elif s["kind"] == "transport":
            total += 1 + recursive_steps(s["inner"]["steps"])
        else:
            total += 1
    return total


def replay_units(steps: list) -> int:
    """Steps that one replay applies one by one: a batch is one unit, a
    transport is one unit plus its inner certificate."""
    total = 0
    for s in steps:
        total += 1
        if s["kind"] == "transport":
            total += replay_units(s["inner"]["steps"])
    return total


def _adds_tuple(step: dict) -> bool:
    kind = step["kind"]
    if kind in TUPLE_ADDING_KINDS:
        return True
    if kind == "batch":
        return any(i["kind"] in TUPLE_ADDING_KINDS for i in step["items"])
    if kind == "transport" and step["map_kind"] == "injective":
        inner = step["inner"]
        return complex_tuples(inner["target"]) != complex_tuples(inner["start"])
    return False


def _generator_steps(steps: list, path: tuple = ()):
    """Paths (key sequences from the certificate root) to every generator
    pushout, in replay order, through batches and transport inners."""
    for i, s in enumerate(steps):
        here = path + ("steps", i)
        if s["kind"] in GENERATOR_KINDS:
            yield here
        elif s["kind"] == "batch":
            for j in range(len(s["items"])):
                yield here + ("items", j)
        elif s["kind"] == "transport":
            yield from _generator_steps(s["inner"]["steps"], here + ("inner",))


def _lookup(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _lose_maximal(cert: dict, rng: random.Random) -> dict | None:
    """Drop one maximal simplex of dimension >= 1 from the target, keeping
    every thin triangle inside the smaller target so the file stays
    well-formed.  The replay still reaches the old target, so the verdict is
    a rejection."""
    target = cert["target"]
    thin = {tuple(t) for t in target["thin"]}
    candidates = [j for j, t in enumerate(target["maximal_simplices"])
                  if len(t) >= 2 and tuple(t) not in thin]
    rng.shuffle(candidates)
    for j in candidates:
        rest = target["maximal_simplices"][:j] + target["maximal_simplices"][j + 1:]
        if thin <= closure(rest):
            out = copy.deepcopy(cert)
            del out["target"]["maximal_simplices"][j]
            return out
    return None


def _drop_last(cert: dict, rng: random.Random) -> dict | None:
    """Drop the last top-level step when it adds at least one tuple: the
    replay then stops short of the target."""
    if not cert["steps"] or not _adds_tuple(cert["steps"][-1]):
        return None
    out = copy.deepcopy(cert)
    out["steps"].pop()
    return out


def _swap_attach(cert: dict, rng: random.Random) -> dict | None:
    """Swap two distinct values of one generator pushout's attach map.

    The swapped step either fails its own checks or adds a tuple whose
    vertex order contradicts the target, so the verdict is a rejection."""
    paths = list(_generator_steps(cert["steps"]))
    if not paths:
        return None
    out = copy.deepcopy(cert)
    attach = _lookup(out, rng.choice(paths))["attach"]
    keys = sorted(attach)
    pairs = [(a, b) for a in keys for b in keys if a < b and attach[a] != attach[b]]
    a, b = rng.choice(pairs)
    attach[a], attach[b] = attach[b], attach[a]
    return out


_TAMPERS = {"lose_maximal": _lose_maximal, "drop_last": _drop_last, "swap_attach": _swap_attach}


def tamper(cert: dict, first_kind: str, rng: random.Random) -> tuple[str, dict]:
    """Apply ``first_kind`` or, where it does not apply, the next kind of
    the menu that does; every result must be rejected with exit 1."""
    start = TAMPER_KINDS.index(first_kind)
    for k in range(len(TAMPER_KINDS)):
        kind = TAMPER_KINDS[(start + k) % len(TAMPER_KINDS)]
        out = _TAMPERS[kind](cert, rng)
        if out is not None:
            return kind, out
    raise ValueError("no tamper of the menu applies to this certificate")

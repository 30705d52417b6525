"""Bounded deterministic search for generator decompositions of inclusions.

Given a subcomplex A of B with compatible scaling, the search tries to
reach B from A by generator pushouts and scaling extensions.  It
alternates two passes until a fixpoint: an attachment pass that fills
missing simplices along exactly-matching horns (largest dimension first),
and a marking pass that closes the thin set using degenerate images of
the Delta^4 scaling generator.  Failure returns None and proves nothing.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .certificates import (
    Certificate,
    GeneratorPushout,
    ScalingExtension,
    Step,
    StepError,
    apply_step,
)
from .complexes import Simplex, faces, simplex_key
from .errors import InputError
from .generators import Admissible, gen_horn_admissible, instantiate
from .scaling import ScaledComplex

DEFAULT_BUDGET = 256


def thin_positions(state: ScaledComplex, cell: Simplex) -> tuple[tuple[int, int, int], ...]:
    """The position triples of `cell`, in order, whose triangle is thin in
    `state`: the thin declaration of a generalized horn on `cell`."""
    positions = combinations(range(len(cell)), 3)
    return tuple(p for p, tri in zip(positions, combinations(cell, 3)) if tri in state.thin)


def _try_attach(state: ScaledComplex, b: ScaledComplex, t: Simplex) -> Optional[GeneratorPushout]:
    """One generator pushout that adds `t` (and possibly more), or None."""
    r = len(t) - 1
    if r < 2:
        return None
    absent = [j for j, f in enumerate(faces(t)) if f not in state.complex.tuples]
    if not absent:
        return None
    core = tuple(v for j, v in enumerate(t) if j not in absent)
    # Exact horn match: a subsequence of t is present iff it misses a core
    # vertex.  The state is face-closed and holds every face d_j with j not
    # in `absent`, so every subsequence that misses a core vertex is
    # present, and a present subsequence holding the core would put the
    # core in the state.  The match is therefore exactly "the core is
    # absent".  An empty core (every face absent) matches no generator below.
    if core in state.complex.tuples:
        return None
    attach = tuple((str(j), v) for j, v in enumerate(t))
    m = frozenset(absent)
    if r >= 3 and max(m) < r:
        thin_decl = thin_positions(state, t)
        verdict = gen_horn_admissible(r, m, thin_decl)
        if isinstance(verdict, Admissible):
            non_thin_ok = True
            if len(m) == r - 2:
                non_thin_ok = tuple(core) not in b.thin
            if non_thin_ok:
                gen = instantiate("gen_horn", r=r, m=tuple(sorted(m)), thin=thin_decl)
                return GeneratorPushout(gen, attach)
    if len(m) == 1:
        (i,) = m
        if 0 < i < r:
            if r == 2:
                if t in b.thin:
                    return GeneratorPushout(instantiate("an1", n=2, i=1), attach)
            else:
                mid = (t[i - 1], t[i], t[i + 1])
                if mid in state.thin:
                    return GeneratorPushout(instantiate("an1", n=r, i=i), attach)
    return None


def _try_mark(state: ScaledComplex, tri: Simplex, b: ScaledComplex) -> Optional[Step]:
    """A scaling move that marks `tri` thin, or None.

    Degenerate attaches of the Delta^4 generator mark one face of a
    3-simplex whose other three faces are thin; a literal (injective)
    attach fires when a 4-simplex carries the full required pattern.
    """
    tri_set = set(tri)
    for cell in state.complex.simplices(3):
        if not tri_set <= set(cell):
            continue
        a, b_, c, d = cell
        if tri == (a, b_, d):
            if {(a, c, d), (a, b_, c), (b_, c, d)} <= state.thin:
                word = (a, b_, c, c, d)
                return ScalingExtension(tuple((str(j), word[j]) for j in range(5)))
        if tri == (a, c, d):
            if {(a, b_, d), (a, b_, c), (b_, c, d)} <= state.thin:
                word = (a, b_, b_, c, d)
                return ScalingExtension(tuple((str(j), word[j]) for j in range(5)))
    for cell in state.complex.simplices(4):
        if not tri_set <= set(cell):
            continue
        a, b_, c, d, e = cell
        if tri not in ((a, d, e), (a, b_, e)):
            continue
        required = {(a, c, e), (b_, c, d), (a, b_, d), (b_, d, e), (a, b_, c)}
        grants = {(a, d, e), (a, b_, e)}
        if required <= state.thin and not (grants - {tri}) - b.thin:
            gen = instantiate("an2")
            return GeneratorPushout(gen, tuple((str(j), cell[j]) for j in range(5)))
    return None


def search_steps(
    a: ScaledComplex, b: ScaledComplex, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[list[Step], ScaledComplex]]:
    """Steps from `a` to `b` within the budget, or None."""
    if not a.complex.is_subcomplex_of(b.complex):
        raise InputError("search source must be a subcomplex of the goal")
    if not a.thin <= b.thin:
        raise InputError("search source scaling must be compatible with the goal")
    if b.complex.vertices - a.complex.vertices:
        return None  # vertices are never created by generator pushouts
    state = a
    steps: list[Step] = []

    def missing_tuples() -> list[Simplex]:
        out = [t for t in b.complex.tuples - state.complex.tuples]
        out.sort(key=lambda t: (-len(t), simplex_key(t)))
        return out

    def missing_marks() -> list[Simplex]:
        out = [t for t in b.thin - state.thin if t in state.complex.tuples]
        out.sort(key=simplex_key)
        return out

    progress = True
    while progress:
        progress = False
        for t in missing_tuples():
            if t in state.complex.tuples:
                continue
            step = _try_attach(state, b, t)
            if step is None:
                continue
            if len(steps) >= budget:
                return None
            try:
                state, _, _ = apply_step(state, step)
            except StepError:
                continue
            steps.append(step)
            progress = True
        for tri in missing_marks():
            step = _try_mark(state, tri, b)
            if step is None:
                continue
            if len(steps) >= budget:
                return None
            try:
                state, _, _ = apply_step(state, step)
            except StepError:
                continue
            steps.append(step)
            progress = True
    if state == b:
        return steps, state
    return None


def search_decomposition(
    a: ScaledComplex, b: ScaledComplex, budget: int = DEFAULT_BUDGET
) -> Optional[Certificate]:
    """A verified scaled-anodyne certificate from `a` to `b`, or None.

    Not finding one proves nothing about the inclusion.
    """
    found = search_steps(a, b, budget)
    if found is None:
        return None
    steps, _ = found
    return Certificate("scaled_anodyne", a, b, tuple(steps),
                       metadata=(("produced_by", "search"),))

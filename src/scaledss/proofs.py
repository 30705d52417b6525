"""Certificate constructors for the tower inclusions.

Each constructor advances one replay state (`_Builder`): a stage's cells,
its search and the steps of each smaller certificate it pushes, all on
the labels of the certificate it builds.  Every step is checked as it is
pushed, so a returned certificate has already survived one full
validation; callers are still expected to run the verifier independently.
"""

from __future__ import annotations

from typing import Iterable

from .certificates import (
    Certificate,
    SCALED_ANODYNE,
    Step,
    StepError,
    TRIVIAL_COFIBRATION,
    _State,
    apply_step,
)
from .complexes import Simplex, close_tuples
from .errors import CertifyFailure, InputError
from .grid import PLUS_ROWS
from .scaling import ScaledComplex
from .search import _try_attach, search_steps
from .tower import (
    _sweep_cell,
    cosegal_source,
    horn_variants,
    row_tuples,
    sub_scaled,
    theta_complexes,
    ts,
    ts_minus,
    ts_plus,
)


class _Builder:
    """Accumulates steps while advancing the replayed state."""

    def __init__(self, start: ScaledComplex):
        self.state = _State(start)
        self.steps: list[Step] = []

    def push(self, step: Step) -> None:
        try:
            apply_step(self.state, step)
        except StepError as exc:
            raise CertifyFailure(f"step {len(self.steps)} rejected: {exc}") from exc
        self.steps.append(step)

    def stage(self, goal: ScaledComplex, name: str, cells: Iterable[Simplex] = ()) -> None:
        """Advance the state to `goal`: push a step for each of `cells` in
        turn, along the horn its missing faces leave on the state as it has
        advanced, up to the first cell that finds no horn; then search from
        there for whatever is left."""
        for cell in cells:
            step = _try_attach(self.state, goal, cell)
            if step is None:
                break
            self.push(step)
        if self.state.matches(goal):
            return
        found = search_steps(self.state, goal, None)  # no step limit: the goal bounds the search
        if found is None:
            raise CertifyFailure(f"search could not complete stage {name!r}")
        self.steps.extend(found[0])


# ---------------------------------------------------------------------------
# The two half lemmas


# What the two halves differ in: the ambient half, the start variant, the
# rows filled first and the stage name, the bar variant and the sweep order.
_HALVES = {
    "plus": (ts_plus, "plus", PLUS_ROWS, "rows", "bar_plus", lambda n: range(n, -1, -1)),
    "minus": (ts_minus, "hat_minus", ("10",), "middle row", "bar_minus", lambda n: range(0, n + 1)),
}


def _certify_half(half: str, n: int, i: int) -> Certificate:
    """Certificate for a half's horn inclusion: the rows, then the prisms up
    to the bar variant, then one stage per sweep value s of the cells
    (s, k), attached in turn where their horns allow (see
    `_Builder.stage`)."""
    if not 0 < i < n:
        raise InputError("requires 0 < i < n")
    ambient, start_variant, rows, rows_stage, bar_variant, sweep = _HALVES[half]
    amb = ambient(n)
    start = horn_variants(n, i, start_variant)
    builder = _Builder(start)
    row_goal = start.complex.tuples.union(*(row_tuples(amb, [r]) for r in rows))
    builder.stage(sub_scaled(amb, row_goal), rows_stage)
    bar = horn_variants(n, i, bar_variant)
    builder.stage(bar, "prisms")
    acc = set(bar.complex.tuples)
    for s in sweep(n):
        cells = [_sweep_cell(half, n, s, k) for k in range(0, n - s + 1)]
        acc |= close_tuples(cells)
        builder.stage(sub_scaled(amb, frozenset(acc)), f"sweep s={s}", cells)
    if not builder.state.matches(amb):
        raise CertifyFailure(f"{half} lemma replay did not reach the full half")
    return Certificate(SCALED_ANODYNE, start, amb, tuple(builder.steps),
                       metadata=(("lemma", half), ("n", str(n)), ("i", str(i))))


def certify_lemma_plus(n: int, i: int) -> Certificate:
    """Certificate for the plus-half horn inclusion (descending sweep)."""
    return _certify_half("plus", n, i)


def certify_lemma_minus(n: int, i: int) -> Certificate:
    """Certificate for the minus-half horn inclusion (ascending sweep)."""
    return _certify_half("minus", n, i)


# ---------------------------------------------------------------------------
# Glued-object certificates


def _push_halves(builder: _Builder, n: int, i: int) -> None:
    """Advance a builder that stands at the inner horn (n, i) by the plus
    half's steps, check that it lands on the horn union the plus half,
    then push the minus half's, each as written: a half's vertices are
    those of ts(n)."""
    for step in certify_lemma_plus(n, i).steps:
        builder.push(step)
    expected_mid = sub_scaled(ts(n), horn_variants(n, i, "full").complex.tuples | ts_plus(n).complex.tuples)
    if not builder.state.matches(expected_mid):
        raise CertifyFailure("intermediate state is not the horn union the plus half")
    for step in certify_lemma_minus(n, i).steps:
        builder.push(step)


def certify_inner_horn(n: int, i: int) -> Certificate:
    """Inner-horn inclusion of the glued object: the plus half's steps,
    then the minus half's (see `_push_halves`)."""
    if not 0 < i < n:
        raise InputError("requires 0 < i < n")
    start = horn_variants(n, i, "full")
    total = ts(n)
    builder = _Builder(start)
    _push_halves(builder, n, i)
    if not builder.state.matches(total):
        raise CertifyFailure("inner horn replay did not reach the glued object")
    return Certificate(SCALED_ANODYNE, start, total, tuple(builder.steps),
                       metadata=(("lemma", "inner"), ("n", str(n)), ("i", str(i))))


def certify_cosegal(n: int) -> Certificate:
    """Spine inclusion: push the previous level's spine certificate as
    written, search the gluing micro-steps up to the inner horn, then push
    the two halves as the inner-horn certificate does.  The previous level
    sits in the first n columns along the coface d^n, which fixes every
    vertex it holds, so its steps need no relabelling.

    The recursion scheme (previous-level copy plus the last segment) is
    recorded in the certificate metadata.
    """
    if n < 1:
        raise InputError("requires n >= 1")
    if n == 1:
        level = ts(1)
        return Certificate(SCALED_ANODYNE, level, level, (),
                           metadata=(("lemma", "cosegal"), ("n", "1")))
    spine = cosegal_source(n)
    total = ts(n)
    inner = certify_cosegal(n - 1)
    builder = _Builder(spine)
    for step in inner.steps:
        builder.push(step)
    builder.stage(horn_variants(n, 1, "full"), "spine-to-horn")
    _push_halves(builder, n, 1)
    if not builder.state.matches(total):
        raise CertifyFailure("spine replay did not reach the glued object")
    return Certificate(
        SCALED_ANODYNE, spine, total, tuple(builder.steps),
        metadata=(("lemma", "cosegal"), ("n", str(n)),
                  ("recursion", "previous level in the first columns plus the last segment")),
    )


def certify_theta(i: int) -> Certificate:
    """End-collapse inclusion: one stage searched on the collapsed level.
    It claims `trivial_cofibration`, which every accepted certificate
    satisfies; the stronger `scaled_anodyne` would verify too (see
    `certificates._replay`)."""
    e0, e2 = theta_complexes(i)
    builder = _Builder(e0)
    builder.stage(e2, "theta")
    return Certificate(TRIVIAL_COFIBRATION, e0, e2, tuple(builder.steps),
                       metadata=(("lemma", "theta"), ("i", str(i))))

"""Certificate constructors for the tower inclusions.

Each constructor advances one replay state (`_Builder`): a stage's cells,
its search and the steps of each smaller certificate it pushes, relabelled
only along theta's edge collapse (`_splice`).  Every step is checked as it
is pushed, so a returned certificate has already survived one full
validation; callers are still expected to run the verifier independently.
"""

from __future__ import annotations

from typing import Iterable

from .certificates import (
    Certificate,
    GeneratorPushout,
    SCALED_ANODYNE,
    ScalingExtension,
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
    ThetaChain,
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


def _relabel(step: Step, along: dict[str, str]) -> Step:
    """`step` with each letter of its word mapped through `along`, which is
    the identity off its keys."""
    if isinstance(step, GeneratorPushout):
        return GeneratorPushout(step.kind, tuple(along.get(v, v) for v in step.cell))
    return ScalingExtension(tuple(along.get(v, v) for v in step.word))


def _splice(builder: _Builder, steps: Iterable[Step], along: dict[str, str]) -> None:
    """Push `steps`, those of a certificate A -> B, onto the builder,
    relabelled through `along` (see `_relabel`): the pushout of A -> B along
    that map, one step at a time, each checked on the outer state.  The
    scaled anodyne maps are closed under composition and pushout along any
    map (Lurie, arXiv:0905.0462, §3.1).  The map here is theta's edge
    collapse, which identifies vertices: where it sends the cells the steps
    attach to nondegenerate, pairwise distinct cells outside the state,
    each relabelled step reads the same faces on the outer state as on the
    inner one."""
    for step in steps:
        builder.push(_relabel(step, along))


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
    """End-collapse inclusion: the steps of two scaled-anodyne chains, each
    pushed out along the edge collapse (see `_splice`).  It claims
    `trivial_cofibration`, which every accepted certificate satisfies; the
    stronger `scaled_anodyne` would verify too (see
    `certificates._replay`)."""
    data: ThetaChain = theta_complexes(i)
    builder = _Builder(data.e0)
    collapse = dict(data.collapse_vmap)
    for chain, stages, goal, failure in (
            ("f", data.f_stages, data.e1, "collapsed f-chain does not land on the middle object"),
            ("g", data.g_stages, data.e2, "theta replay did not reach the collapsed level")):
        chain_builder = _Builder(stages[0])
        chain_builder.stage(stages[1], f"{chain}1")
        chain_builder.stage(stages[2], f"{chain}2")
        _splice(builder, chain_builder.steps, collapse)
        if not builder.state.matches(goal):
            raise CertifyFailure(failure)
    return Certificate(TRIVIAL_COFIBRATION, data.e0, data.e2, tuple(builder.steps),
                       metadata=(("lemma", "theta"), ("i", str(i))))

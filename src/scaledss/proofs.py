"""Certificate constructors for the tower inclusions.

Each constructor assembles steps stage by stage, replaying as it goes, so a
returned certificate has already survived one full validation; callers are
still expected to run the verifier independently.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Iterable

from .certificates import (
    BatchPushout,
    Certificate,
    SCALED_ANODYNE,
    Step,
    StepError,
    TRIVIAL_COFIBRATION,
    Transport,
    _State,
    apply_step,
)
from .complexes import Simplex, close_tuples
from .errors import CertifyFailure, InputError
from .grid import PLUS_ROWS
from .scaling import ScaledComplex
from .search import DEFAULT_BUDGET, _try_attach, search_steps
from .tower import (
    ThetaChain,
    _sweep_cell,
    coface_vmap,
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

    def stage(self, goal: ScaledComplex, budget: int, name: str, cells: Iterable[Simplex] = ()) -> None:
        """Advance the state to `goal`: by one batch that attaches each of
        `cells` along the horn its missing faces leave, tried on a copy of
        the state that is kept only if every cell attaches and the batch
        lands on the goal, or else by bounded search."""
        if self.state.matches(goal):
            return
        items = [_try_attach(self.state, goal, cell) for cell in cells]
        if items and None not in items:
            batch: Step = BatchPushout(tuple(items)) if len(items) > 1 else items[0]
            state = self.state.copy()
            with suppress(StepError):
                apply_step(state, batch)
                if state.matches(goal):
                    self.steps.append(batch)
                    self.state = state
                    return
        found = search_steps(self.state, goal, budget)
        if found is None:
            raise CertifyFailure(f"search could not complete stage {name!r} within budget {budget}")
        steps, self.state = found
        self.steps.extend(steps)


# ---------------------------------------------------------------------------
# The two half lemmas


# What the two halves differ in: the ambient half, the start variant, the
# rows filled first and the stage name, the bar variant and the sweep order.
_HALVES = {
    "plus": (ts_plus, "plus", PLUS_ROWS, "rows", "bar_plus", lambda n: range(n, -1, -1)),
    "minus": (ts_minus, "hat_minus", ("10",), "middle row", "bar_minus", lambda n: range(0, n + 1)),
}


def _certify_half(half: str, n: int, i: int, budget: int) -> Certificate:
    """Certificate for a half's horn inclusion: the rows, then the prisms up
    to the bar variant, then one stage per sweep value s of the cells
    (s, k), each attached as one batch where its horns allow (see
    `_Builder.stage`)."""
    if not 0 < i < n:
        raise InputError("requires 0 < i < n")
    ambient, start_variant, rows, rows_stage, bar_variant, sweep = _HALVES[half]
    amb = ambient(n)
    start = horn_variants(n, i, start_variant)
    builder = _Builder(start)
    row_goal = start.complex.tuples.union(*(row_tuples(amb, [r]) for r in rows))
    builder.stage(sub_scaled(amb, row_goal), budget, rows_stage)
    bar = horn_variants(n, i, bar_variant)
    builder.stage(bar, budget, "prisms")
    acc = set(bar.complex.tuples)
    for s in sweep(n):
        cells = [_sweep_cell(half, n, s, k) for k in range(0, n - s + 1)]
        acc |= close_tuples(cells)
        builder.stage(sub_scaled(amb, frozenset(acc)), budget, f"sweep s={s}", cells)
    if not builder.state.matches(amb):
        raise CertifyFailure(f"{half} lemma replay did not reach the full half")
    return Certificate(SCALED_ANODYNE, start, amb, tuple(builder.steps),
                       metadata=(("lemma", half), ("n", str(n)), ("i", str(i))))


def certify_lemma_plus(n: int, i: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Certificate for the plus-half horn inclusion (descending sweep)."""
    return _certify_half("plus", n, i, budget)


def certify_lemma_minus(n: int, i: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Certificate for the minus-half horn inclusion (ascending sweep)."""
    return _certify_half("minus", n, i, budget)


# ---------------------------------------------------------------------------
# Glued-object certificates


def _identity_along(sc: ScaledComplex) -> tuple[tuple[str, str], ...]:
    return tuple((v, v) for v in sorted(sc.complex.vertices))


def _push_halves(builder: _Builder, n: int, i: int, budget: int) -> None:
    """Advance a builder that stands at the inner horn (n, i) by the plus
    half's transport, check that it lands on the horn union the plus half,
    then push the minus half's; both pushout squares are revalidated on
    replay."""
    plus_cert = certify_lemma_plus(n, i, budget)
    minus_cert = certify_lemma_minus(n, i, budget)
    builder.push(Transport(plus_cert, _identity_along(plus_cert.start), "injective"))
    expected_mid = sub_scaled(ts(n), horn_variants(n, i, "full").complex.tuples | ts_plus(n).complex.tuples)
    if not builder.state.matches(expected_mid):
        raise CertifyFailure("intermediate state is not the horn union the plus half")
    builder.push(Transport(minus_cert, _identity_along(minus_cert.start), "injective"))


def certify_inner_horn(n: int, i: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Inner-horn inclusion of the glued object: transport the plus half,
    then the minus half (see `_push_halves`)."""
    if not 0 < i < n:
        raise InputError("requires 0 < i < n")
    start = horn_variants(n, i, "full")
    total = ts(n)
    builder = _Builder(start)
    _push_halves(builder, n, i, budget)
    if not builder.state.matches(total):
        raise CertifyFailure("inner horn replay did not reach the glued object")
    return Certificate(SCALED_ANODYNE, start, total, tuple(builder.steps),
                       metadata=(("lemma", "inner"), ("n", str(n)), ("i", str(i))))


def certify_cosegal(n: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Spine inclusion: transport the previous level's spine certificate
    into the first n columns, search the gluing micro-steps up to the inner
    horn, then transport the two halves as the inner-horn certificate does,
    replaying each once.

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
    inner = certify_cosegal(n - 1, budget)
    dvmap = coface_vmap(n - 1, n, inner.start.complex.vertices)
    builder = _Builder(spine)
    builder.push(Transport(inner, tuple(sorted(dvmap.items())), "injective"))
    builder.stage(horn_variants(n, 1, "full"), budget, "spine-to-horn")
    _push_halves(builder, n, 1, budget)
    if not builder.state.matches(total):
        raise CertifyFailure("spine replay did not reach the glued object")
    return Certificate(
        SCALED_ANODYNE, spine, total, tuple(builder.steps),
        metadata=(("lemma", "cosegal"), ("n", str(n)),
                  ("recursion", "previous level in the first columns plus the last segment")),
    )


def certify_theta(i: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """End-collapse inclusion: two scaled-anodyne chains, each pushed out
    along the edge collapse by one quotient transport.  The kernel checks
    each transport as a pushout (see `Transport`), so the certificate holds
    no other step.  It claims `trivial_cofibration`, which every accepted
    certificate satisfies; the stronger `scaled_anodyne` would verify too
    (see `certificates._replay`)."""
    data: ThetaChain = theta_complexes(i)
    f0, f1, f2 = data.f_stages
    g0, g1, g2 = data.g_stages
    fb = _Builder(f0)
    fb.stage(f1, budget, "f1")
    fb.stage(f2, budget, "f2")
    f_cert = Certificate(SCALED_ANODYNE, f0, f2, tuple(fb.steps),
                         metadata=(("chain", "f"), ("theta", str(i))))
    gb = _Builder(g0)
    gb.stage(g1, budget, "g1")
    gb.stage(g2, budget, "g2")
    g_cert = Certificate(SCALED_ANODYNE, g0, g2, tuple(gb.steps),
                         metadata=(("chain", "g"), ("theta", str(i))))
    builder = _Builder(data.e0)
    builder.push(Transport(f_cert, data.collapse_vmap, "quotient"))
    if not builder.state.matches(data.e1):
        raise CertifyFailure("collapsed f-chain does not land on the middle object")
    builder.push(Transport(g_cert, data.collapse_vmap, "quotient"))
    if not builder.state.matches(data.e2):
        raise CertifyFailure("theta replay did not reach the collapsed level")
    return Certificate(TRIVIAL_COFIBRATION, data.e0, data.e2, tuple(builder.steps),
                       metadata=(("lemma", "theta"), ("i", str(i))))

"""Certificate constructors for the tower inclusions.

Each constructor runs its stages in order on one replay state
(`_Builder`), a composite those of each of its parts: scaled anodyne maps
compose (Lurie, arXiv:0905.0462, §3.1).  Every step is checked as it is
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
from .complexes import Simplex, close_tuples, simplex_key
from .errors import CertifyFailure, InputError
from .grid import PLUS_ROWS
from .scaling import ScaledComplex
from .search import _try_attach, search_steps
from .tower import (
    _sweep_cell,
    cosegal_source,
    horn_variants,
    row_tuples,
    theta_complexes,
    ts,
    ts_minus,
    ts_plus,
)


class _Builder:
    """Advances one replay state from `start` to `ambient`, the target of
    the certificate it builds, stage by stage; `part` names the part the
    stages run in, for failure messages.  Each stage reaches its goal, the
    state with the ambient's marks on the tuples it adds, so the state
    carries the ambient's marks on its own tuples at every stage boundary
    once the start does, which is checked here."""

    def __init__(self, start: ScaledComplex, ambient: ScaledComplex):
        if start.thin != ambient.thin & start.complex.tuples:
            raise CertifyFailure("the start does not carry the target's marks on its tuples")
        self.start, self.ambient = start, ambient
        self.state = _State(start)
        self.steps: list[Step] = []
        self.part = ""

    def stage(self, tuples: frozenset[Simplex], name: str, cells: Iterable[Simplex] = ()) -> None:
        """Advance the state by `tuples`, face-closed over it, marked as the
        ambient marks them: push a step for each of `cells` in turn, along
        the horn its missing faces leave on the state as it has advanced,
        up to the first cell that finds no horn; then search from there for
        whatever is left, handing search only these tuples and marks.

        A stage of a part finds the same steps on a composite's larger
        state as on the part's own: its search reads only the faces of the
        tuples it still needs, and the 3-simplices and 4-simplices that
        hold the marks it still needs, all tuples of the stage, and the
        state's tuples outside the part lie in none of these."""
        state, marks = self.state, self.ambient.thin & tuples
        for cell in cells:
            step = _try_attach(state, marks, cell)
            if step is None:
                break
            try:
                apply_step(state, step)
            except StepError as exc:
                raise CertifyFailure(f"{self.part}: step {len(self.steps)} rejected: {exc}") from exc
            self.steps.append(step)
        if tuples <= state.tuples and marks <= state.thin:
            return
        found = search_steps(state, tuples, marks, None)  # no step limit: the goal bounds the search
        if found is None:
            lost, unmarked = tuples - state.tuples, marks - state.thin
            raise CertifyFailure(f"{self.part}: search could not complete stage {name!r}: still missing {len(lost)} "
                                 f"of its tuples and {len(unmarked)} of its marks, first {min(lost or unmarked, key=simplex_key)}")
        self.steps.extend(found[0])

    def certificate(self, claimed_class: str, metadata: tuple[tuple[str, str], ...]) -> Certificate:
        """The certificate of the steps pushed, once the state is the ambient."""
        if not self.state.matches(self.ambient):
            raise CertifyFailure(f"{self.part}: the state did not reach the target")
        return Certificate(claimed_class, self.start, self.ambient, tuple(self.steps), metadata=metadata)


# ---------------------------------------------------------------------------
# The two half lemmas


# What the two halves differ in: the ambient half, the start variant, the
# rows filled first and the stage name, the bar variant and the sweep order.
_HALVES = {
    "plus": (ts_plus, "plus", PLUS_ROWS, "rows", "bar_plus", lambda n: range(n, -1, -1)),
    "minus": (ts_minus, "hat_minus", ("10",), "middle row", "bar_minus", lambda n: range(0, n + 1)),
}


def _half_stages(builder: _Builder, half: str, n: int, i: int) -> None:
    """Run a half's stages at (n, i) on a builder whose state holds the
    half's start variant: the rows, then the prisms up to the bar variant,
    then one stage per sweep value s of the cells (s, k), attached in turn
    where their horns allow (see `_Builder.stage`).  The state then holds
    the half."""
    ambient, _, rows, rows_stage, bar_variant, sweep = _HALVES[half]
    amb = ambient(n)
    builder.part = f"{half} half ({n}, {i})"
    builder.stage(frozenset().union(*(row_tuples(amb, [r]) for r in rows)), rows_stage)
    builder.stage(horn_variants(n, i, bar_variant).complex.tuples, "prisms")
    for s in sweep(n):
        cells = [_sweep_cell(half, n, s, k) for k in range(0, n - s + 1)]
        builder.stage(close_tuples(cells), f"sweep s={s}", cells)
    if not (builder.state.tuples >= amb.complex.tuples and builder.state.thin >= amb.thin):
        raise CertifyFailure(f"{builder.part}: the state does not hold the {half} half")


def _certify_half(half: str, n: int, i: int) -> Certificate:
    """Certificate for a half's horn inclusion: the half's stages from its
    start variant."""
    if not 0 < i < n:
        raise InputError("requires 0 < i < n")
    ambient, start_variant = _HALVES[half][:2]
    builder = _Builder(horn_variants(n, i, start_variant), ambient(n))
    _half_stages(builder, half, n, i)
    return builder.certificate(SCALED_ANODYNE, (("lemma", half), ("n", str(n)), ("i", str(i))))


def certify_lemma_plus(n: int, i: int) -> Certificate:
    """Certificate for the plus-half horn inclusion (descending sweep)."""
    return _certify_half("plus", n, i)


def certify_lemma_minus(n: int, i: int) -> Certificate:
    """Certificate for the minus-half horn inclusion (ascending sweep)."""
    return _certify_half("minus", n, i)


# ---------------------------------------------------------------------------
# Glued-object certificates


def certify_inner_horn(n: int, i: int) -> Certificate:
    """Inner-horn inclusion of the glued object: the plus half's stages,
    then the minus half's, whose start variant the full horn and the plus
    half hold."""
    if not 0 < i < n:
        raise InputError("requires 0 < i < n")
    builder = _Builder(horn_variants(n, i, "full"), ts(n))
    _half_stages(builder, "plus", n, i)
    _half_stages(builder, "minus", n, i)
    return builder.certificate(SCALED_ANODYNE, (("lemma", "inner"), ("n", str(n)), ("i", str(i))))


def certify_cosegal(n: int) -> Certificate:
    """Spine inclusion, one level at a time on one state: for k = 2..n,
    search the gluing micro-steps up to the inner horn (k, 1), then run
    the two halves' stages at (k, 1).  Level k sits in the first k + 1
    columns along cofaces that fix every vertex it holds, so its stages
    need no relabelling.  From n = 2 on the metadata records the scheme."""
    if n < 1:
        raise InputError("requires n >= 1")
    builder = _Builder(cosegal_source(n), ts(n))
    for k in range(2, n + 1):
        builder.part = f"cosegal level {k}"
        builder.stage(horn_variants(k, 1, "full").complex.tuples, "spine-to-horn")
        _half_stages(builder, "plus", k, 1)
        _half_stages(builder, "minus", k, 1)
    scheme = (("recursion", "previous level in the first columns plus the last segment"),) if n > 1 else ()
    return builder.certificate(SCALED_ANODYNE, (("lemma", "cosegal"), ("n", str(n))) + scheme)


def certify_theta(i: int) -> Certificate:
    """End-collapse inclusion: one stage searched on the collapsed level.
    It claims `trivial_cofibration`, which every accepted certificate
    satisfies; the stronger `scaled_anodyne` would verify too (see
    `certificates._replay`)."""
    e0, e2 = theta_complexes(i)
    builder = _Builder(e0, e2)
    builder.part = f"theta {i}"
    builder.stage(e2.complex.tuples, "theta")
    return builder.certificate(TRIVIAL_COFIBRATION, (("lemma", "theta"), ("i", str(i))))

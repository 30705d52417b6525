"""Bounded deterministic search for generator decompositions of inclusions.

Given a state and the tuples and marks of a goal, the search tries to
add them by generator pushouts.  It alternates
two passes until a fixpoint: an attachment pass that fills missing
tuples along exactly-matching horns (largest dimension first), and a
marking pass that closes the thin set using degenerate images of the
Delta^4 scaling generator.  Failure returns None and proves nothing.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Optional

from .certificates import (
    Certificate,
    Step,
    StepError,
    _State,
    absent_faces,
    apply_step,
    horn_instance,
)
from .complexes import Simplex, _thin_image, simplex_key
from .errors import InputError
from .generators import instantiate
from .scaling import ScaledComplex

DEFAULT_BUDGET = 256
# the Delta^4 generator, whose thin triangles a marking attach requires and grants
_AN2 = instantiate("an2", 4, (), ())


def _try_attach(state: _State, marks: AbstractSet[Simplex], t: Simplex) -> Optional[Step]:
    """One generator pushout that adds `t` (and possibly more), or None.

    The kernel reads the instance off the state (`horn_instance`); this
    asks it whether one exists, a memoised answer either way, and asks the
    goal's `marks` about the core and the cell, which the state lacks."""
    r = len(t) - 1
    if r < 2:
        return None
    m = absent_faces(state.tuples, t)
    core = tuple(v for j, v in enumerate(t) if j not in m)
    # Exact horn match: a subsequence of t is present iff it misses a core
    # vertex.  The state is face-closed and holds every face d_j with j not
    # in M, so every subsequence that misses a core vertex is present, and
    # a present subsequence holding the core would put the core in the
    # state.  The match is therefore exactly "the core is absent".  An
    # empty core (every face absent) matches no generator below.
    if not m or core in state.tuples:
        return None
    # a generalized horn adds its core unmarked: not where the goal marks it
    if not (len(m) == r - 2 and core in marks) and horn_instance(state.thin, "gen_horn", t, m):
        return Step("gen_horn", t)
    if horn_instance(state.thin, "an1", t, m):
        i = m[0]
        # on a triangle an1 marks the cell, elsewhere its middle triangle must be thin
        if (t in marks) if r == 2 else (t[i - 1:i + 2] in state.thin):
            return Step("an1", t)
    return None


def _mark_cells(tuples: Iterable[Simplex], marks: list[Simplex]) -> dict[Simplex, list[Simplex]]:
    """For each mark, the cells `_try_mark` reads, canonically sorted: the
    3-simplices (a, b, c, d) that hold it as (a, b, d) or (a, c, d), then
    the 4-simplices (a, b, c, d, e) that hold it as (a, d, e) or (a, b, e)."""
    cells: dict[Simplex, list[Simplex]] = {tri: [] for tri in marks}
    for t in tuples:
        if len(t) == 4:
            faces_read = ((t[0], t[1], t[3]), (t[0], t[2], t[3]))
        elif len(t) == 5:
            faces_read = ((t[0], t[3], t[4]), (t[0], t[1], t[4]))
        else:
            continue
        for tri in faces_read:
            cells.get(tri, []).append(t)  # a cell that holds no mark is dropped
    for found in cells.values():
        found.sort(key=simplex_key)
    return cells


def _try_mark(state: _State, tri: Simplex, cells: list[Simplex], marks: AbstractSet[Simplex]) -> Optional[Step]:
    """A scaling move that marks `tri` thin and grants only the goal's
    `marks` or the state's, or None; `_mark_cells` finds the `cells`.

    An attach of the Delta^4 generator requires the images of its source's
    thin triangles and grants those of the other two; it is degenerate on a
    3-simplex and literal (injective) on a 4-simplex, and an `an2_marks`
    step either way.
    """
    for cell in cells:
        word = cell
        if len(cell) == 4:  # the attach doubles the vertex of the cell that `tri` skips
            j = 1 if cell[1] not in tri else 2
            word = cell[:j + 1] + cell[j:]
        if _thin_image(_AN2.source_thin, word) <= state.thin and not (
                _thin_image(_AN2.added_thin, word) - marks - state.thin):
            return Step("an2_marks", word)
    return None


def _candidates(state: _State, tuples: AbstractSet[Simplex], marks: AbstractSet[Simplex],
                missing: list[Simplex]) -> Iterator[Step]:
    """One round of candidate steps toward the goal, each built on the
    state as the caller has advanced it: an attachment pass over `missing`
    (largest dimension first), then a marking pass over the goal's marks
    the state lacks.  A stage starts with the ambient's marks on its tuples
    (`proofs._Builder`), so such a mark and its cells are `tuples` it added."""
    for t in missing:
        if t not in state.tuples:
            step = _try_attach(state, marks, t)
            if step is not None:
                yield step
    pending = sorted((t for t in marks if t not in state.thin and t in state.tuples), key=simplex_key)
    if not pending:
        return
    # marks add no tuples, so the cells are found once for the whole pass
    cells = _mark_cells(state.tuples.intersection(tuples), pending)
    for tri in pending:
        if tri in state.thin:  # an earlier mark step of this pass marked it
            continue
        step = _try_mark(state, tri, cells[tri], marks)
        if step is not None:
            yield step


def search_steps(state: _State, tuples: AbstractSet[Simplex], marks: AbstractSet[Simplex],
                 budget: Optional[int]) -> Optional[tuple[list[Step], _State]]:
    """Advance `state` in place until it holds the goal's `tuples` and
    `marks`, reading the rest of the state only by membership; return the
    steps within the budget, with `state` itself, or None, leaving `state`
    where the search stopped.  A budget of None runs until a round keeps no
    step, within |tuples - start tuples| + |marks - start marks| rounds:
    every step kept adds a goal tuple or mark and nothing else, an attach
    its cell and a mark step its triangle, which `_candidates` offers only
    while it is missing from the state."""
    # sorted once, in an order unique per tuple: `_candidates` skips those the state gains
    missing = sorted(tuples - state.tuples, key=lambda t: (-len(t), simplex_key(t)))
    if missing and len(missing[-1]) == 1:
        return None  # a missing vertex: generator pushouts never create one
    steps: list[Step] = []
    progress = True
    while progress:
        progress = False
        for step in _candidates(state, tuples, marks, missing):
            if budget is not None and len(steps) >= budget:
                return None
            try:
                apply_step(state, step)
            except StepError:
                continue
            steps.append(step)
            progress = True
    if tuples <= state.tuples and marks <= state.thin:
        return steps, state
    return None


def search_decomposition(
    a: ScaledComplex, b: ScaledComplex, budget: int = DEFAULT_BUDGET
) -> Optional[Certificate]:
    """A verified scaled-anodyne certificate from `a` to `b`, or None.

    Not finding one proves nothing about the inclusion.
    """
    if not a.complex.tuples <= b.complex.tuples:
        raise InputError("search source must be a subcomplex of the goal")
    if not a.thin <= b.thin:
        raise InputError("search source scaling must be compatible with the goal")
    found = search_steps(_State(a), b.complex.tuples, b.thin, budget)
    if found is None:
        return None
    return Certificate("scaled_anodyne", a, b, tuple(found[0]),
                       metadata=(("produced_by", "search"),))

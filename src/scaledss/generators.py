"""The pushout generators: the inner-horn and scaling kinds and the
generalized-horn family."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Union

from .errors import InputError
from .record import Record, set_field

PosTriple = tuple[int, int, int]
Positions = tuple[tuple[int, ...], ...]


class Admissible(Record):
    """Witness index for a generalized-horn instance."""

    __slots__ = ("s",)

    def __init__(self, s: int):
        set_field(self, "s", s)


class NotAdmissible(Record):
    __slots__ = ("clause",)

    def __init__(self, clause: str):
        set_field(self, "clause", clause)

    def __bool__(self) -> bool:
        return False


def gen_horn_admissible(
    r: int, m: Iterable[int], thin: Iterable[PosTriple]
) -> Union[Admissible, NotAdmissible]:
    """Decide the generalized-horn criterion for positions M on the r-simplex.

    Returns Admissible(s) with the unique index s below the run of M ending
    at t = max(M), or NotAdmissible naming the first failed guard (r >= 3,
    M a nonempty subset of 0..r-1) or clause.  `thin` is a set of position
    triples of the r-simplex.
    """
    mset = frozenset(m)
    if r < 3:
        return NotAdmissible("generalized horns need r >= 3")
    if not mset:
        return NotAdmissible("M must be nonempty")
    if not all(j in range(r) for j in mset):
        return NotAdmissible("M must be a subset of {0..r-1}")
    thin_set = {tuple(t) for t in thin}
    t = s = max(mset)
    while s in mset:
        s -= 1
    if s < 0:
        clause = "no index below the run ending at max(M)"
    elif len(mset) > r - 2:
        clause = "|M| exceeds r-2"
    elif len(mset) == r - 2 and tuple(sorted(set(range(r + 1)) - mset)) in thin_set:
        clause = "the face opposite M is thin"
    else:
        unthin = [i for i in range(s, t) if (i, t, t + 1) not in thin_set]
        if not unthin:
            return Admissible(s)
        clause = f"triangle ({unthin[0]},{t},{t + 1}) is not thin"
    return NotAdmissible(f"inadmissible generalized horn: {clause}")


# The generator kinds a step may name.  The an2 generator adds marks and no
# tuple, and an `an2_marks` step attaches it.
KINDS = ("an1", "gen_horn")


class GeneratorInstance(Record):
    """A generator, whose value is (kind, r, M, thin): the r-simplex it
    fills, the positions M of the faces its horn lacks and the run
    triangles it declares thin (an1 is (an1, n, (i,), ()), an2 is
    (an2, 4, (), ()), which an `an2_marks` step attaches).  The kernel
    makes each from a cell and the state.

    `instantiate` is the only maker: calling the class, and so `copy`,
    `deepcopy` and `pickle`, returns the memoised instance.  A generalized
    horn's `witness_s` and the closed-form shape of the pushout along the
    inclusion of the source into the target are made with the instance and
    derived, so neither equality, the hash nor `__reduce__` reads them;
    no program code builds the source or the target.  The shape is
    four tuples of positions 0..r of the target's vertices, at which the
    kernel reads the word it attaches along:
    - `source_tuples`: the source tuples the kernel did not read the
      instance from, whose images must lie in the state: Delta^4 for
      `an2`, none for a horn (M is the faces the state lacks);
    - `source_thin`: the source's thin triangles;
    - `added`: the target-only tuples; the image of the first must miss
      the state, which suffices when it is a face of every other one;
    - `added_thin`: the target's thin triangles outside the source's.
    """

    __slots__ = ("kind", "r", "m", "thin", "witness_s", "source_tuples", "source_thin", "added", "added_thin")

    def __new__(cls, kind: str, r: int, m: tuple[int, ...], thin: tuple[PosTriple, ...]) -> "GeneratorInstance":
        gen = instantiate(kind, r, m, thin)
        if not gen:
            raise InputError(gen.clause)
        return gen

    def _fields(self) -> tuple:
        return (self.kind, self.r, self.m, self.thin)


AN2_SOURCE_THIN = ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 3), (1, 3, 4))
AN2_EXTRA_THIN = ((0, 1, 4), (0, 3, 4))


@lru_cache(maxsize=None)
def _horn_added(r: int, m: tuple[int, ...]) -> Positions:
    """The 2^|M| tuples of Delta^r outside the horn on M, those that
    contain the core [r] - M, listed core first: the one among them whose
    faces all lie in the horn."""
    core = [j for j in range(r + 1) if j not in m]
    return tuple(tuple(sorted(core + list(extra))) for k in range(len(m) + 1) for extra in combinations(m, k))


def _horn_shape(r: int, m: tuple[int, ...], thin: Iterable[PosTriple]) -> tuple[Positions, ...]:
    """The shape (see `GeneratorInstance`) of the horn on M into Delta^r
    with the `thin` triangles in closed form: it builds no complex.  It
    lists no source tuple, since M is the faces the state lacks.  A thin
    triangle lies outside the horn only when it contains the core [r] - M,
    which has r + 1 - |M| members."""
    in_horn, outside = [], []
    for t in thin:
        core_in_t = r + 1 - len(m) <= 3 and all(j in m or j in t for j in range(r + 1))
        (outside if core_in_t else in_horn).append(t)
    return (), tuple(in_horn), _horn_added(r, m), tuple(outside)


@lru_cache(maxsize=None)
def instantiate(kind: str, r: int, m: tuple[int, ...],
                thin: tuple[PosTriple, ...], /) -> Union[GeneratorInstance, NotAdmissible]:
    """The generator instance (kind, r, M, thin), or NotAdmissible naming
    the failed clause, from the values `certificates.horn_instance` derives:
    r an integer, M and the run triangles (i, t, t + 1), 0 <= i < t < r,
    sorted tuples of integers; it re-checks none of them.  One memo keeps
    instances and failures alike (positional only, so that no keyword call
    is keyed apart): every repeat of a generator shares one instance, and a
    search decides each horn once."""
    witness_s = None
    if kind == "an1":
        if len(m) != 1:
            return NotAdmissible(f"an1 fills a horn that lacks one face, not {len(m)}")
        i = m[0]
        if not 0 < i < r:
            return NotAdmissible("an1 requires 0 < i < n")
        shape = _horn_shape(r, m, [(i - 1, i, i + 1)])
    elif kind == "an2":
        shape = ((0, 1, 2, 3, 4),), AN2_SOURCE_THIN, (), AN2_EXTRA_THIN
    elif kind == "gen_horn":
        verdict = gen_horn_admissible(r, m, thin)
        if not verdict:
            return verdict
        witness_s = verdict.s
        shape = _horn_shape(r, m, thin)
    else:
        return NotAdmissible(f"unknown generator kind {kind!r}")
    gen = object.__new__(GeneratorInstance)
    for slot, value in zip(GeneratorInstance.__slots__, (kind, r, m, thin, witness_s, *shape)):
        set_field(gen, slot, value)
    return gen

"""Thin-triangle scalings and the pushout shape the kernel reads.

Degenerate 2-simplices are thin by convention and never stored; the stored
thin set holds nondegenerate triangles only.  The image of a scaled
complex under a vertex map, and the scaled-map check, are the helpers in
`complexes`; the producer-side scaling operations live in `tower`.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from .complexes import OrderedComplex, Simplex, simplex_key
from .errors import InputError


def _check_thin(tuples: AbstractSet[Simplex], thin: Iterable[Simplex],
                new: AbstractSet[Simplex] = frozenset()) -> None:
    """Every mark is a 2-simplex of the complex `tuples` | `new`."""
    for t in thin:
        if len(t) != 3 or (t not in tuples and t not in new):
            raise InputError(f"thin triple {t} is not a 2-simplex of the complex")


class ScaledComplex:
    """An ordered complex with a chosen set of thin 2-simplices."""

    __slots__ = ("complex", "thin")

    def __init__(self, complex: OrderedComplex, thin: Iterable[Simplex] = ()):
        thin = frozenset(tuple(t) for t in thin)
        _check_thin(complex.tuples, thin)
        self.complex = complex
        self.thin = thin

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScaledComplex)
            and self.complex == other.complex
            and self.thin == other.thin
        )

    def __hash__(self) -> int:
        return hash((self.complex, self.thin))

    def __repr__(self) -> str:
        return f"ScaledComplex({len(self.complex.tuples)} tuples, {len(self.thin)} thin)"

    def thin_sorted(self) -> list[Simplex]:
        return sorted(self.thin, key=simplex_key)


class PushoutShape:
    """What a pushout along an inclusion `source` -> `target` reads and adds,
    as tuples of the positions 0..r of the target's vertices: the kernel
    reads the word it attaches along at them.

    - `source_tuples`: the source tuples the kernel did not read the
      instance from, whose images must lie in the state: Delta^4 for
      `an2`, none for a horn (M is the faces the state lacks);
    - `source_thin`: the source's thin triangles;
    - `added`: the target-only tuples; the image of the first must miss
      the state, which suffices when it is a face of every other one;
    - `added_thin`: the target's thin triangles outside the source's.
    """

    __slots__ = ("source_tuples", "source_thin", "added", "added_thin")

    def __init__(self, source_tuples: Iterable[tuple[int, ...]], source_thin: Iterable[tuple[int, ...]],
                 added: Iterable[tuple[int, ...]], added_thin: Iterable[tuple[int, ...]]):
        self.source_tuples = tuple(source_tuples)
        self.source_thin = tuple(source_thin)
        self.added = tuple(added)
        self.added_thin = tuple(added_thin)

"""Thin-triangle scalings: scaled complexes and the check of their marks.

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

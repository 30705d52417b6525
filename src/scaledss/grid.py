"""Label conventions for the square-tower family.

Vertices are "ijk" strings: a two-character row code followed by a column
index.  The plus-side grid uses rows 00 < 01 < 11 with the product order;
the minus side lives in the three-block join whose middle row is reversed,
with rows 00, 10, 11.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import OrderedComplex, Simplex, _image
from .errors import InputError

PLUS_ROWS = ("00", "01", "11")


def vlabel(row: str, col: int) -> str:
    return f"{row}{col}"


def vrow(label: str) -> str:
    return label[:2]


def vcol(label: str) -> int:
    return int(label[2:])


def join_position(label: str, n: int) -> tuple[int, int]:
    """Position in the three-block join order (middle row reversed)."""
    row, col = vrow(label), vcol(label)
    if row == "00":
        return (0, col)
    if row == "10":
        return (1, n - col)
    if row == "11":
        return (2, col)
    raise InputError(f"label {label!r} is not a minus-side vertex")


def join_sort(vset: Iterable[str], n: int) -> Simplex:
    return tuple(sorted(vset, key=lambda v: join_position(v, n)))


OMEGA_ROW = {"00": "00", "01": "10", "11": "11"}


def omega(k: OrderedComplex, n: int) -> tuple[OrderedComplex, dict[str, str]]:
    """Relabel a subcomplex of the three-row grid into the join.

    Each tuple's vertex set is pushed through 00->00, 01->10, 11->11 (columns
    unchanged) and re-sorted by the join order.  The image is face-closed;
    the validating constructor checks this rather than assuming it.  The
    returned vertex assignment is injective but not order-preserving.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    # (row index, column) of each grid vertex; the grid order is the product order
    pos = {vlabel(r, c): (i, c) for i, r in enumerate(PLUS_ROWS) for c in range(n + 1)}
    for t in k.tuples:
        if not all(v in pos for v in t) or not all(
            pos[a] != pos[b] and pos[a][0] <= pos[b][0] and pos[a][1] <= pos[b][1]
            for a, b in zip(t, t[1:])
        ):
            raise InputError("omega input must be a subcomplex of the three-row grid nerve")
    vmap = {v: vlabel(OMEGA_ROW[vrow(v)], vcol(v)) for v in k.vertices}
    image = OrderedComplex(join_sort(word, n) for word in _image(k.tuples, vmap))
    return image, vmap

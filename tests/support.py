"""Helpers the tests share: a canonical listing of a complex by dimension,
the empty complex, and the grid-to-join relabelling `omega`, the second
path to the minus half that the tower tests check `ts_minus` against.
None of this is program code: no command lists by dimension or runs
`omega`."""

from typing import Iterable

from scaledss.complexes import OrderedComplex, Simplex, simplex_key
from scaledss.errors import InputError
from scaledss.grid import PLUS_ROWS, vcol, vlabel, vrow


def simplices(k: OrderedComplex, dim: int) -> list[Simplex]:
    """The simplices of `k` of dimension `dim`, in `simplex_key` order."""
    return sorted((t for t in k.tuples if len(t) == dim + 1), key=simplex_key)


def empty() -> OrderedComplex:
    return OrderedComplex(frozenset(), _validated=True)


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
    image = OrderedComplex(join_sort([vmap[v] for v in t], n) for t in k.tuples)
    return image, vmap

"""The tower's checks: scaled maps, the thin audit, the boundary faces,
the cofaces and codegeneracies with their cosimplicial identities, the
latching objects, the B/R duality, the segment images, the oplax square
and the end-square comparison.

Only the check verbs and `build --object face|oplax-square` import this
module; `certify` runs the builders in `tower` alone.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable

from . import tower as _tower
from .complexes import ComplexMap, OrderedComplex, Simplex, _carried, simplex_key
from .errors import AuditFailure, InputError
from .grid import vlabel, vrow
from .scaling import ScaledComplex
from .tower import (
    FACE_ROWS,
    HALVES,
    _coface_col,
    _col_map,
    _off_columns,
    coface_image,
    coface_vmap,
    fsr,
    image_scaled,
    row_tuples,
    sub_scaled,
    ts,
    vertex_image,
)


# ---------------------------------------------------------------------------
# Scaled maps


class ScaledMap:
    """A complex map that carries thin triangles to thin or degenerate
    ones; a rejection names the first that it does not, in `simplex_key`
    order."""

    __slots__ = ("map", "source", "target")

    def __init__(self, map: ComplexMap, source: ScaledComplex, target: ScaledComplex):
        if map.source != source.complex or map.target != target.complex:
            raise InputError("map endpoints do not match the scaled complexes")
        _carried(target.complex.tuples, target.thin, (), source.thin, map.vmap, InputError)
        self.map = map
        self.source = source
        self.target = target

    def __call__(self, v: str) -> str:
        return self.map.vmap[v]


# ---------------------------------------------------------------------------
# The thin audit


def _index_rule(n: int, rows: tuple[str, str, str]) -> frozenset[Simplex]:
    """The triangles on a row pattern whose columns follow the index rule:
    across rows they weakly increase; along one row they strictly follow the
    row's order, and the minus half's middle row 10 descends."""
    def follows(r: str, c: int, r2: str, c2: int) -> bool:
        if r != r2:
            return c <= c2
        return c > c2 if r == "10" else c < c2

    return frozenset(
        tuple(map(vlabel, rows, cols)) for cols in product(range(n + 1), repeat=3)
        if follows(rows[0], cols[0], rows[1], cols[1]) and follows(rows[1], cols[1], rows[2], cols[2])
    )


def thin_audit(n: int, part: str) -> dict:
    """Recompute each thin family by its index rule, which reads no complex,
    and compare their union with the stored thin set of the half or level;
    raise AuditFailure on any difference."""
    levels = {"plus": _tower.ts_plus, "minus": _tower.ts_minus, "full": _tower.ts}
    if part not in levels:
        raise InputError(f"unknown part {part!r}")
    sc = levels[part](n)
    # one group per half: the halves share same-row triangles on the glued rows
    groups = [[frozenset().union(*(_index_rule(n, p) for p in patterns)) for patterns in fams.values()]
              for half, (_, fams) in HALVES.items() if part in (half, "full")]
    members = [fam for group in groups for fam in group]
    non_simplices = sorted({t for fam in members for t in fam if t not in sc.complex.tuples},
                           key=simplex_key)
    disjoint = all(not (a & b) for group in groups for a, b in combinations(group, 2))
    failures = sorted(frozenset().union(*members) ^ sc.thin, key=simplex_key)
    report = {
        "n": n,
        "part": part,
        "total": list(map(len, sc.complex.tuples)).count(3),
        "thin": len(sc.thin),
        "families_disjoint": disjoint,
        "family_members_are_simplices": not non_simplices,
        "failures": [list(t) for t in failures] + [list(t) for t in non_simplices],
        "ok": not failures and not non_simplices,
    }
    if not report["ok"]:
        raise AuditFailure(f"thin audit failed: {report}")
    return report


# ---------------------------------------------------------------------------
# Boundary faces


@lru_cache(maxsize=None)
def boundary_face(n: int, f: str) -> ScaledComplex:
    """The four edge prisms of the glued object, with induced scaling."""
    if f not in FACE_ROWS:
        raise InputError("face must be one of T, F, R, B")
    total = ts(n)
    return sub_scaled(total, row_tuples(total, FACE_ROWS[f]))


# ---------------------------------------------------------------------------
# Cosimplicial structure


def _codegeneracy_col(j: int) -> Callable[[int], int]:
    return lambda k: k if k <= j else k - 1


def codegeneracy_vmap(n: int, j: int, vertices: Iterable[str]) -> dict[str, str]:
    if not 0 <= j <= n - 1:
        raise InputError("codegeneracy index out of range")
    return _col_map(vertices, _codegeneracy_col(j))


def coface(n: int, j: int, tower: str = "ts") -> ScaledMap:
    src, tgt = _tower_level(tower, n), _tower_level(tower, n + 1)
    vmap = coface_vmap(n, j, src.complex.vertices)
    return ScaledMap(ComplexMap(src.complex, tgt.complex, vmap), src, tgt)


def codegeneracy(n: int, j: int, tower: str = "ts") -> ScaledMap:
    if n < 1:
        raise InputError("codegeneracy needs n >= 1")
    src, tgt = _tower_level(tower, n), _tower_level(tower, n - 1)
    vmap = codegeneracy_vmap(n, j, src.complex.vertices)
    return ScaledMap(ComplexMap(src.complex, tgt.complex, vmap), src, tgt)


def _tower_level(tower: str, n: int) -> ScaledComplex:
    if tower == "ts":
        return ts(n)
    if tower in FACE_ROWS:
        return boundary_face(n, tower)
    raise InputError(f"unknown tower {tower!r}")


TOWERS = ("ts", "T", "F", "R", "B")


def check_cosimplicial_identities(max_n: int, towers: Iterable[str] = TOWERS) -> dict:
    """Verify all structure maps are scaled and the cosimplicial identities hold.

    Every coface and codegeneracy of every tower up to level max_n is built
    as a ScaledMap, which enforces the scaled-map condition.  All structure
    maps keep rows and act on columns alone, so the identities are checked
    once per level on the column functions, over every column of the
    source level.
    """
    checked = 0
    for tower in towers:
        for n in range(max_n + 1):
            for j in range(n + 2):
                coface(n, j, tower)
                checked += 1
            for j in range(n):
                codegeneracy(n, j, tower)
                checked += 1
    d, s = _coface_col, _codegeneracy_col
    for n in range(max_n + 1):
        # d^j d^i = d^i d^{j-1} for i < j, out of level n
        for j in range(n + 3):
            for i in range(j):
                if any(d(j)(d(i)(k)) != d(i)(d(j - 1)(k)) for k in range(n + 1)):
                    raise AuditFailure(f"coface identity fails: n={n} i={i} j={j}")
                checked += 1
        # s^j s^i = s^i s^{j+1} for i <= j, out of level n+2
        for j in range(n + 1):
            for i in range(j + 1):
                if any(s(i)(s(j + 1)(k)) != s(j)(s(i)(k)) for k in range(n + 3)):
                    raise AuditFailure(f"codegeneracy identity fails: n={n} i={i} j={j}")
                checked += 1
        # mixed identities s^j d^i, out of level n+1
        for j in range(n + 1):
            for i in range(n + 3):
                if i < j:
                    right = lambda k: d(i)(s(j - 1)(k))
                elif i in (j, j + 1):
                    right = lambda k: k
                else:
                    right = lambda k: d(i - 1)(s(j)(k))
                if any(s(j)(d(i)(k)) != right(k) for k in range(n + 2)):
                    raise AuditFailure(f"mixed identity fails: n={n} i={i} j={j}")
                checked += 1
    return {"max_n": max_n, "towers": list(towers), "checked": checked, "ok": True}


def latching(n: int) -> tuple[OrderedComplex, dict]:
    """Union of all coface images; must equal the column-boundary subcomplex."""
    if n < 1:
        raise InputError("latching needs n >= 1")
    total = ts(n).complex
    union: set[Simplex] = set()
    for j in range(n + 1):
        union |= coface_image(n - 1, j).tuples
    explicit = _off_columns(total, range(n + 1))
    report = {"n": n, "tuples": len(union), "ok": frozenset(union) == explicit}
    if not report["ok"]:
        raise AuditFailure(f"latching object mismatch at n={n}")
    return OrderedComplex(frozenset(union), _validated=True), report


# ---------------------------------------------------------------------------
# Duality, segments and the oplax square


def opposite(k: OrderedComplex) -> OrderedComplex:
    """The same complex with every tuple reversed."""
    return OrderedComplex(frozenset(t[::-1] for t in k.tuples), _validated=True)


def rev_duality_vmap(n: int) -> dict[str, str]:
    out = {}
    for k in range(n + 1):
        out[vlabel("11", k)] = vlabel("00", n - k)
        out[vlabel("10", k)] = vlabel("10", n - k)
    return out


def rev_duality_check(n: int) -> dict:
    """Order-reversing isomorphism between the B and R faces: the image of
    the reversed B face, thin triangles reversed too, is the R face, and the
    map intertwines coface j with coface n+1-j."""
    b_face = boundary_face(n, "B")
    r_face = boundary_face(n, "R")
    vmap = rev_duality_vmap(n)
    reversed_b = ScaledComplex(opposite(b_face.complex), [t[::-1] for t in b_face.thin])
    if image_scaled(reversed_b, vmap) != r_face:
        raise AuditFailure("the reversed B face does not map onto the R face")
    intertwined = 0
    vmap_next = rev_duality_vmap(n + 1)
    for j in range(n + 2):
        d_b = coface_vmap(n, j, b_face.complex.vertices)
        d_r = coface_vmap(n, n + 1 - j, r_face.complex.vertices)
        for v in b_face.complex.vertices:
            if vmap_next[d_b[v]] != d_r[vmap[v]]:
                raise AuditFailure(f"duality does not intertwine cofaces {j} and {n + 1 - j}")
        intertwined += 1
    return {
        "n": n,
        "tuples": len(r_face.complex.tuples),
        "cofaces_intertwined": intertwined,
        "vmap": {k: vmap[k] for k in sorted(vmap)},
        "order_reversing": True,
        "ok": True,
    }


def segment_image(n: int, c: int) -> frozenset[Simplex]:
    """Image of level one under the columns {c, c+1} embedding."""
    if not 0 <= c < n:
        raise InputError("segment index out of range")
    src = ts(1).complex
    return vertex_image(src, _col_map(src.vertices, lambda k: k + c)).tuples


def oplax_square() -> ScaledComplex:
    """The 2x2 grid square scaled with exactly one thin triangle: the span
    of its two maximal chains."""
    cx = OrderedComplex.from_tuples([("00", "01", "11"), ("00", "10", "11")])
    return ScaledComplex(cx, {("00", "10", "11")})


# ---------------------------------------------------------------------------
# The end-square comparison

_DOUBLE_COLLAPSE = {"00": "000", "01": "010", "10": "100", "11": "110"}


def d_iso_check(i: int) -> dict:
    """Collapse the frame's four rows to the four end-square vertices and
    compare, scaling included, with level zero."""
    if i not in (0, 1):
        raise InputError("index must be 0 or 1")
    frame = fsr(i)
    vmap = {v: _DOUBLE_COLLAPSE[vrow(v)] for v in frame.complex.vertices}
    collapsed = image_scaled(frame, vmap)
    expected = ts(0)
    return {
        "i": i,
        "complex_matches": collapsed.complex == expected.complex,
        "thin_collapsed": sorted(map(list, collapsed.thin)),
        "thin_expected": sorted(map(list, expected.thin)),
        "ok": collapsed == expected,
    }

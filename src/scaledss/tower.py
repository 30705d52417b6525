"""The two-sided square tower: both halves, their glue, boundary faces, horns,
structure maps, latching objects, the auxiliary complexes used by the
trivial-cofibration chains, the B/R duality and the oplax square; with the
simplices, horns, vertex images and scaled maps they are built and checked
from, and the generators' complexes."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

from .complexes import (
    ComplexMap,
    OrderedComplex,
    Simplex,
    close_tuples,
    dedup_word,
    simplex_key,
)
from .errors import AuditFailure, InputError, IrregularCollapse
from .grid import vcol, vlabel, vrow
from .record import Record, set_field
from .scaling import ScaledComplex

if TYPE_CHECKING:
    from .generators import GeneratorInstance


# ---------------------------------------------------------------------------
# Simplices, horns, vertex images, scalings and scaled maps.  The kernel
# reads none of these: a generator's pushout shape is in closed form, and
# its source and target complexes are built here, on first access.


def simplex_complex(labels: Sequence[str]) -> OrderedComplex:
    """The full simplex on an ordered list of distinct labels."""
    t = tuple(labels)
    if len(set(t)) != len(t):
        raise InputError("simplex labels must be distinct")
    return OrderedComplex.from_tuples([t])


def horn(s: Sequence[str], n: Iterable[str]) -> OrderedComplex:
    """Union of the codimension-1 faces of the simplex on `s` opposite to
    the vertices outside `n`."""
    s = tuple(s)
    nset = set(n)
    if not nset <= set(s):
        raise InputError("horn subset must consist of simplex vertices")
    if nset == set(s):
        raise InputError("horn subset must be proper")
    if not nset:
        raise InputError("horn subset must be nonempty")
    gens = [tuple(v for v in s if v != drop) for drop in s if drop not in nset]
    return OrderedComplex.from_tuples(gens)


def _labels(n: int) -> list[str]:
    return [str(j) for j in range(n + 1)]


@lru_cache(maxsize=None)
def _simplex(n: int) -> OrderedComplex:
    """The full simplex on the labels 0..n.  Complexes are immutable, so
    every generator on n + 1 vertices shares this one."""
    return simplex_complex(_labels(n))


@lru_cache(maxsize=None)
def _horn(r: int, m: tuple[int, ...]) -> OrderedComplex:
    """The horn on the positions M of Delta^r, once per (r, M)."""
    labels = _labels(r)
    return horn(labels, {labels[j] for j in m})


@lru_cache(maxsize=None)
def generator_complexes(gen: GeneratorInstance) -> tuple[ScaledComplex, ScaledComplex]:
    """The source and target of a generator as scaled complexes, on one
    vertex label set, so one attach map both restricts to the source and
    realizes the target.  Both take their thin sets from the instance's
    shape."""
    kind, params = gen.kind, dict(gen.params)
    if kind == "an2":
        source = target = _simplex(4)
    else:
        r, m = (params["r"], params["m"]) if kind == "gen_horn" else (params["n"], (params["i"],))
        source, target = _horn(r, m), _simplex(r)
    shape = gen.shape
    return (ScaledComplex(source, shape.source_thin),
            ScaledComplex(target, shape.source_thin + shape.added_thin))


def vertex_image(k: OrderedComplex, vmap: Mapping[str, str]) -> OrderedComplex:
    """Image of `k` under a collapse-regular vertex map: image words are
    deduplicated.

    Raises IrregularCollapse when some tuple maps to a word whose equal
    letters are not contiguous, i.e. when dedup semantics would disagree
    with the intended identification.  The image of a face-closed set is
    face-closed: a face of an image drops one letter, whose preimage is a
    contiguous run; dropping that run from the source tuple gives a stored
    face with exactly that image.
    """
    missing = k.vertices - vmap.keys()
    if missing:
        raise InputError(f"vmap missing vertices {sorted(missing)}")
    imgs: set[Simplex] = set()
    for t in k.tuples:
        word = [vmap[v] for v in t]
        img = dedup_word(word)
        if img is None:
            raise IrregularCollapse(f"tuple {t} maps to irregular word {tuple(word)}")
        imgs.add(img)
    return OrderedComplex(frozenset(imgs), _validated=True)


def image_scaled(sc: ScaledComplex, vmap: Mapping[str, str]) -> ScaledComplex:
    """Image under a collapse-regular vertex map; a thin triangle stays thin
    unless its image is degenerate."""
    cx = vertex_image(sc.complex, vmap)
    thin = (dedup_word([vmap[v] for v in t]) for t in sc.thin)
    return ScaledComplex(cx, [t for t in thin if len(t) == 3])


def restrict_scaling(sub: OrderedComplex, ambient: ScaledComplex) -> ScaledComplex:
    """`sub` with the scaling induced from an ambient scaled complex."""
    if not sub.is_subcomplex_of(ambient.complex):
        raise InputError("not a subcomplex of the ambient complex")
    return ScaledComplex(sub, ambient.thin & sub.tuples)


class Violation(Record):
    """A thin triangle whose image is neither thin nor degenerate."""

    __slots__ = ("triangle",)

    def __init__(self, triangle: Simplex):
        set_field(self, "triangle", triangle)

    def __bool__(self) -> bool:  # a Violation is falsy as a check result
        return False


def check_scaled_map(
    f: ComplexMap, s: ScaledComplex, t: ScaledComplex
) -> Optional[Violation]:
    """None if every thin triangle maps to a thin or degenerate triangle,
    else the first that does not, in `simplex_key` order.  Only a failing
    check sorts."""
    if f.source != s.complex or f.target != t.complex:
        raise InputError("map endpoints do not match the scaled complexes")
    vmap, is_thin = f.vmap, t.is_thin
    bad = [tri for tri in s.thin if not is_thin([vmap[v] for v in tri])]
    return Violation(min(bad, key=simplex_key)) if bad else None


class ScaledMap:
    """A complex map that carries thin triangles to thin triangles."""

    __slots__ = ("map", "source", "target")

    def __init__(self, map: ComplexMap, source: ScaledComplex, target: ScaledComplex):
        bad = check_scaled_map(map, source, target)
        if bad is not None:
            raise InputError(f"map is not scaled: thin {bad.triangle} maps to a non-thin triangle")
        self.map = map
        self.source = source
        self.target = target

    def __call__(self, v: str) -> str:
        return self.map(v)


# ---------------------------------------------------------------------------
# Row and column filters


def _tuples_within(cx: OrderedComplex, keep: Callable[[str], bool]) -> frozenset[Simplex]:
    """Tuples of `cx` whose vertices all satisfy `keep`.

    `keep` is asked once per vertex; the tuples are then read in one pass
    that never parses a label.  Every row, column, horn and segment filter
    of the tower is this one.
    """
    return frozenset(filter(frozenset(filter(keep, cx.vertices)).issuperset, cx.tuples))


def _off_columns(cx: OrderedComplex, cols: Iterable[int]) -> frozenset[Simplex]:
    """Union over the given columns s of the tuples that miss column s."""
    return frozenset().union(*(_tuples_within(cx, lambda v, s=s: vcol(v) != s) for s in cols))


def row_tuples(amb: ScaledComplex, rows: Iterable[str]) -> frozenset[Simplex]:
    """Tuples of `amb` whose vertices all lie in the given rows."""
    rows = frozenset(rows)
    return _tuples_within(amb.complex, lambda v: vrow(v) in rows)


def sub_scaled(amb: ScaledComplex, tuples: Iterable[Simplex]) -> ScaledComplex:
    """A face-closed collection of tuples of `amb`, with induced scaling."""
    return restrict_scaling(OrderedComplex(frozenset(tuples), _validated=True), amb)


# ---------------------------------------------------------------------------
# The two halves


# half -> (middle row, {thin family: row patterns of its triangles}).  A
# half's rows are 00, its middle row and 11; the minus half's middle row 10
# runs backwards, as in the three-block join.
HALVES = {
    "plus": ("01", {
        "same_row": (("00", "00", "00"), ("01", "01", "01"), ("11", "11", "11")),
        "low_bend": (("00", "01", "01"),),
        "high_bend": (("01", "01", "11"),),
        "cross": (("00", "01", "11"),),
    }),
    "minus": ("10", {
        "same_row": (("00", "00", "00"), ("10", "10", "10"), ("11", "11", "11")),
        "late_turn": (("00", "00", "10"),),
        "early_turn": (("10", "11", "11"),),
    }),
}


def _sweep_cell(half: str, n: int, s: int, k: int) -> Simplex:
    """The (n+2)-dimensional sweep simplex of a half: row 00 up to column k,
    the middle row from column k to k+s, row 11 from column k+s on."""
    if not (0 <= s <= n and 0 <= k <= n - s):
        raise InputError("sigma indices out of range")
    mid = HALVES[half][0]
    middle = range(k + s, k - 1, -1) if mid == "10" else range(k, k + s + 1)
    return (tuple(vlabel("00", j) for j in range(k + 1)) + tuple(vlabel(mid, j) for j in middle)
            + tuple(vlabel("11", j) for j in range(k + s, n + 1)))


def _half(half: str, n: int) -> ScaledComplex:
    """The closure of a half's sweep cells, whose 2-simplices are thin when
    their row pattern belongs to one of the half's families."""
    if n < 0:
        raise InputError("n must be >= 0")
    cells = [_sweep_cell(half, n, kp - k, k) for k in range(n + 1) for kp in range(k, n + 1)]
    cx = OrderedComplex.from_tuples(cells)
    patterns = frozenset().union(*HALVES[half][1].values())
    row = {v: vrow(v) for v in cx.vertices}.__getitem__
    return ScaledComplex(cx, [t for t in cx.tuples if len(t) == 3 and tuple(map(row, t)) in patterns])


@lru_cache(maxsize=None)
def ts_plus(n: int) -> ScaledComplex:
    """Nerve of the three-row grid [2] x [n] with the four thin families: a
    maximal chain of the grid is a lattice path that steps up at columns
    k <= k+s, the sweep cell (s, k)."""
    return _half("plus", n)


@lru_cache(maxsize=None)
def ts_minus(n: int) -> ScaledComplex:
    """Span of the sweep cells inside the three-block join."""
    return _half("minus", n)


# ---------------------------------------------------------------------------
# The glued object


SHARED_ROWS = ("00", "11")


@lru_cache(maxsize=None)
def ts(n: int) -> ScaledComplex:
    """The two halves glued along their shared flat prism (rows 00 and 11).

    Both halves carry the prism's vertices under the same labels, so the
    pushout along its two identity inclusions is the union of the halves:
    it is well defined when they agree on the prism and share no other
    vertex.  The union keeps both halves' sweep cells, from which its
    maximal simplices are read: every plus cell passes through row 01 and
    every minus cell through row 10, so all of them stay maximal.
    """
    plus, minus = ts_plus(n), ts_minus(n)
    prism = row_tuples(plus, SHARED_ROWS)
    if prism != row_tuples(minus, SHARED_ROWS):
        raise AuditFailure("the two halves disagree on the shared flat prism")
    prism_vertices = {v for t in prism for v in t}
    if (plus.complex.vertices & minus.complex.vertices) - prism_vertices:
        raise AuditFailure("the two halves share a vertex outside the flat prism")
    return ScaledComplex(plus.complex.union(minus.complex), plus.thin | minus.thin)


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
    levels = {"plus": ts_plus, "minus": ts_minus, "full": ts}
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
# Boundary faces and horn variants

FACE_ROWS = {"T": ("00", "01"), "F": ("01", "11"), "R": ("00", "10"), "B": ("10", "11")}


@lru_cache(maxsize=None)
def boundary_face(n: int, f: str) -> ScaledComplex:
    """The four edge prisms of the glued object, with induced scaling."""
    if f not in FACE_ROWS:
        raise InputError("face must be one of T, F, R, B")
    total = ts(n)
    return sub_scaled(total, row_tuples(total, FACE_ROWS[f]))


# variant -> (ambient half or level, row sets of the edge prisms kept whole)
HORN_VARIANTS = {
    "full": (ts, ()),
    "plus": (ts_plus, ()),
    "hat_minus": (ts_minus, (SHARED_ROWS,)),
    "bar_plus": (ts_plus, (FACE_ROWS["T"], FACE_ROWS["F"])),
    "bar_minus": (ts_minus, (SHARED_ROWS, FACE_ROWS["R"], FACE_ROWS["B"])),
}


@lru_cache(maxsize=None)
def horn_variants(n: int, i: int, which: str) -> ScaledComplex:
    """The named horn-type subcomplexes with induced scaling: the tuples
    that miss some column s != i, plus the variant's edge prisms."""
    if not 0 < i < n:
        raise InputError("horn variants require 0 < i < n")
    if which not in HORN_VARIANTS:
        raise InputError(f"unknown horn variant {which!r}")
    ambient, prisms = HORN_VARIANTS[which]
    amb = ambient(n)
    keep = _off_columns(amb.complex, (s for s in range(n + 1) if s != i))
    return sub_scaled(amb, keep.union(*(row_tuples(amb, rows) for rows in prisms)))


# ---------------------------------------------------------------------------
# Cosimplicial structure


def _col_map(vertices: Iterable[str], f: Callable[[int], int]) -> dict[str, str]:
    return {v: vlabel(vrow(v), f(vcol(v))) for v in vertices}


def _coface_col(j: int) -> Callable[[int], int]:
    return lambda k: k if k < j else k + 1


def _codegeneracy_col(j: int) -> Callable[[int], int]:
    return lambda k: k if k <= j else k - 1


def coface_vmap(n: int, j: int, vertices: Iterable[str]) -> dict[str, str]:
    if not 0 <= j <= n + 1:
        raise InputError("coface index out of range")
    return _col_map(vertices, _coface_col(j))


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


def coface_image(n: int, j: int) -> OrderedComplex:
    src = ts(n).complex
    return vertex_image(src, coface_vmap(n, j, src.vertices))


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
# Completeness-chain objects


TILDE_EXTRA_VSETS = (
    ("000", "001", "011"),
    ("010", "110", "111"),
    ("000", "100", "101"),
    ("100", "101", "111"),
    ("000", "001", "111"),
    ("000", "110", "111"),
)


@lru_cache(maxsize=None)
def tilde_ts1() -> ScaledComplex:
    """Level one with six extra thin triangles."""
    base = ts(1)
    extras = []
    for vs in TILDE_EXTRA_VSETS:
        t = base.complex.tuple_on(vs)
        if t is None:
            raise AuditFailure(f"extra thin triple {vs} is not a 2-simplex")
        extras.append(t)
    return ScaledComplex(base.complex, base.thin | frozenset(extras))


def _frame(faces: str, i: int) -> ScaledComplex:
    """Two edge prisms of level one plus the coface square at column end i,
    scaled from tilde_ts1."""
    tuples = coface_image(0, i).tuples.union(*(row_tuples(ts(1), FACE_ROWS[f]) for f in faces))
    return sub_scaled(tilde_ts1(), tuples)


@lru_cache(maxsize=None)
def fsr(i: int) -> ScaledComplex:
    """Front/right frame around one end: the F and R prisms plus one coface square."""
    if i not in (0, 1):
        raise InputError("fsr index must be 0 or 1")
    return _frame("FR", i)


class ThetaChain(Record):
    """Everything the end-collapse trivial-cofibration certificate needs."""

    __slots__ = ("collapsed_label", "collapse_vmap", "f_stages", "g_stages", "e0", "e1", "e2")

    def __init__(self, collapsed_label: str, collapse_vmap: tuple[tuple[str, str], ...],
                 f_stages: tuple[ScaledComplex, ScaledComplex, ScaledComplex],
                 g_stages: tuple[ScaledComplex, ScaledComplex, ScaledComplex],
                 e0: ScaledComplex, e1: ScaledComplex, e2: ScaledComplex):
        for name, value in zip(self.__slots__, (collapsed_label, collapse_vmap, f_stages, g_stages,
                                                e0, e1, e2)):
            set_field(self, name, value)


@lru_cache(maxsize=None)
def theta_complexes(i: int) -> ThetaChain:
    """Stage objects for the end-collapse chains.

    The index-1 chain grows out of the F/R frame and collapses the initial
    bottom edge.  The index-0 chain is its column reflection: it grows out
    of the T/B frame and collapses the terminal top edge; the reflection is
    forced because the unreflected frame leaves the opposite corner
    unreachable by pushouts that stay inside the target.
    """
    if i not in (0, 1):
        raise InputError("theta index must be 0 or 1")
    tilde = tilde_ts1()
    minus_tuples = ts_minus(1).complex.tuples
    if i == 1:
        base = fsr(1)
        edge = ("000", "001")
        # skip the sweep cell containing the collapsed edge
        f_cells = (_sweep_cell("minus", 1, 0, 0), _sweep_cell("minus", 1, 1, 0))
        g_cells = (_sweep_cell("plus", 1, 0, 0), _sweep_cell("plus", 1, 1, 0))
    else:
        base = _frame("TB", 0)  # the column reflection of fsr(1)
        edge = ("110", "111")
        f_cells = (_sweep_cell("minus", 1, 0, 1), _sweep_cell("minus", 1, 1, 0))
        g_cells = (_sweep_cell("plus", 1, 0, 1), _sweep_cell("plus", 1, 1, 0))
    collapsed = edge[0]
    vmap = {v: (collapsed if v in edge else v) for v in ts(1).complex.vertices}

    f0 = base
    f1 = sub_scaled(tilde, f0.complex.tuples | close_tuples([f_cells[0]]))
    f2 = sub_scaled(tilde, f1.complex.tuples | close_tuples([f_cells[1]]))
    g0 = sub_scaled(tilde, f0.complex.tuples | minus_tuples)
    g1 = sub_scaled(tilde, g0.complex.tuples | close_tuples([g_cells[0]]))
    g2 = sub_scaled(tilde, g1.complex.tuples | close_tuples([g_cells[1]]))
    e0 = image_scaled(f0, vmap)
    e1 = image_scaled(g0, vmap)
    e2 = image_scaled(tilde, vmap)
    return ThetaChain(
        collapsed_label=collapsed,
        collapse_vmap=tuple(sorted(vmap.items())),
        f_stages=(f0, f1, f2),
        g_stages=(g0, g1, g2),
        e0=e0,
        e1=e1,
        e2=e2,
    )


# ---------------------------------------------------------------------------
# Duality and the spine


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


def cosegal_source(n: int) -> ScaledComplex:
    """Union of the consecutive-column segments, with induced scaling."""
    if n < 1:
        raise InputError("cosegal source needs n >= 1")
    total = ts(n)
    keep = frozenset().union(*(
        _tuples_within(total.complex, lambda v, c=c: vcol(v) in (c, c + 1)) for c in range(n)
    ))
    return sub_scaled(total, keep)


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

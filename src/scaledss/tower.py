"""The two-sided square tower: both halves, their glue, horn variants, the
coface maps and images, the end-collapse inclusion and the spine; with
the simplices, horns, vertex images and induced scalings they are built
from, and the generators' complexes.  These are the builders `certify`
runs; the checks of the tower live in `scaledss.checks`."""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .complexes import OrderedComplex, Simplex, _covers, _image, _named, _thin_image, dedup_word
from .errors import AuditFailure, InputError, IrregularCollapse
from .grid import vcol, vlabel, vrow
from .scaling import ScaledComplex

if TYPE_CHECKING:
    from .generators import GeneratorInstance


# ---------------------------------------------------------------------------
# Simplices, horns, vertex images and induced scalings.  The kernel
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
    if len(set(s)) != len(s):
        raise InputError("simplex labels must be distinct")
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
    """The source and target of a generator as scaled complexes, on the
    labels "0".."r", so one attach map both restricts to the source and
    realizes the target.  Both take their thin sets from the instance's
    shape, whose positions j are the labels "j"."""
    target = _simplex(gen.r)
    source = _horn(gen.r, gen.m) if gen.m else target  # an2 lacks no face
    labels = _labels(gen.r)
    source_thin = _image(gen.shape.source_thin, labels)
    return ScaledComplex(source, source_thin), ScaledComplex(target, source_thin + _image(gen.shape.added_thin, labels))


def vertex_image(k: OrderedComplex, vmap: Mapping[str, str]) -> OrderedComplex:
    """Image of `k` under a collapse-regular vertex map: image words are
    deduplicated.

    Raises IrregularCollapse, naming the first in `simplex_key` order, when
    some tuple maps to a word whose equal letters are not contiguous, i.e.
    when dedup semantics would disagree with the intended identification.
    The image of a face-closed set is face-closed: a face of an image drops
    one letter, whose preimage is a contiguous run; dropping that run from
    the source tuple gives a stored face with exactly that image.
    """
    _covers(k.vertices, vmap, InputError)
    words = _image(k.tuples, vmap)
    imgs = frozenset(map(dedup_word, words))
    if None in imgs:
        raise _named("tuple {} maps to irregular word {}", k.tuples, words,
                     lambda word: dedup_word(word) is None, IrregularCollapse)
    return OrderedComplex(imgs, _validated=True)


def image_scaled(sc: ScaledComplex, vmap: Mapping[str, str]) -> ScaledComplex:
    """Image under a collapse-regular vertex map; a thin triangle stays thin
    unless its image is degenerate."""
    return ScaledComplex(vertex_image(sc.complex, vmap), _thin_image(sc.thin, vmap))


def restrict_scaling(sub: OrderedComplex, ambient: ScaledComplex) -> ScaledComplex:
    """`sub` with the scaling induced from an ambient scaled complex."""
    if not sub.tuples <= ambient.complex.tuples:
        raise InputError("not a subcomplex of the ambient complex")
    return ScaledComplex(sub, ambient.thin & sub.tuples)


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


# ---------------------------------------------------------------------------
# Horn variants

# face -> the rows of its edge prism (`checks.boundary_face`)
FACE_ROWS = {"T": ("00", "01"), "F": ("01", "11"), "R": ("00", "10"), "B": ("10", "11")}

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
# Cofaces


def _col_map(vertices: Iterable[str], f: Callable[[int], int]) -> dict[str, str]:
    return {v: vlabel(vrow(v), f(vcol(v))) for v in vertices}


def _coface_col(j: int) -> Callable[[int], int]:
    return lambda k: k if k < j else k + 1


def coface_vmap(n: int, j: int, vertices: Iterable[str]) -> dict[str, str]:
    if not 0 <= j <= n + 1:
        raise InputError("coface index out of range")
    return _col_map(vertices, _coface_col(j))


def coface_image(n: int, j: int) -> OrderedComplex:
    src = ts(n).complex
    return vertex_image(src, coface_vmap(n, j, src.vertices))


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
    triangles = {frozenset(t): t for t in base.complex.tuples if len(t) == 3}
    extras = []
    for vs in TILDE_EXTRA_VSETS:
        t = triangles.get(frozenset(vs))
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


@lru_cache(maxsize=None)
def theta_complexes(i: int) -> tuple[ScaledComplex, ScaledComplex]:
    """The end-collapse inclusion: the frame and level one, each scaled
    from tilde_ts1 and imaged under the collapse of one end edge.

    Index 1 collapses the initial bottom edge of the F/R frame.  Index 0 is
    its column reflection: it collapses the terminal top edge of the T/B
    frame; the reflection is forced because the unreflected frame leaves
    the opposite corner unreachable by pushouts that stay inside the target.
    """
    if i not in (0, 1):
        raise InputError("theta index must be 0 or 1")
    if i == 1:
        base, edge = fsr(1), ("000", "001")
    else:
        base, edge = _frame("TB", 0), ("110", "111")  # the column reflection of fsr(1)
    vmap = {v: (edge[0] if v in edge else v) for v in ts(1).complex.vertices}
    return image_scaled(base, vmap), image_scaled(tilde_ts1(), vmap)


# ---------------------------------------------------------------------------
# The spine


def cosegal_source(n: int) -> ScaledComplex:
    """Union of the consecutive-column segments, with induced scaling."""
    if n < 1:
        raise InputError("cosegal source needs n >= 1")
    total = ts(n)
    keep = frozenset().union(*(
        _tuples_within(total.complex, lambda v, c=c: vcol(v) in (c, c + 1)) for c in range(n)
    ))
    return sub_scaled(total, keep)

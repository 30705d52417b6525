"""Finite vertex-determined simplicial complexes and maps between them.

A complex stores its nondegenerate simplices as ordered tuples of distinct
vertex labels, closed under vertex deletion.  Every object here is a
subquotient of the nerve of a finite poset, where this representation is
faithful; degeneracies are never stored.
"""

from __future__ import annotations

from itertools import combinations, groupby
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import AmbientMismatch, GlueConflict, InputError, IrregularCollapse
from .record import Record, set_field

Simplex = tuple[str, ...]


def label_key(label: str) -> tuple[int, str]:
    """Fixed total order on labels, used for all canonical output."""
    return (len(label), label)


def simplex_key(t: Simplex) -> tuple:
    return (len(t), tuple(label_key(v) for v in t))


def dedup_word(word: Sequence[str]) -> Optional[Simplex]:
    """Collapse adjacent repeats; None if a repeat is non-adjacent.

    The result is the nondegenerate core of the image of a simplex under a
    vertex map, provided repeats only ever occur in contiguous runs.
    """
    out: list[str] = []
    for v in word:
        if not out or out[-1] != v:
            out.append(v)
    if len(set(out)) != len(out):
        return None
    return tuple(out)


def faces(t: Simplex) -> list[Simplex]:
    """All codimension-1 faces (delete one vertex)."""
    return [t[:j] + t[j + 1:] for j in range(len(t))]


def close_tuples(tuples: Iterable[Simplex]) -> frozenset[Simplex]:
    """Downward closure under vertex deletion, excluding the empty tuple:
    every nonempty subsequence of every tuple."""
    seen: set[Simplex] = set()
    # longest first, so a tuple already covered by a longer one is skipped
    for t in sorted(map(tuple, tuples), key=len, reverse=True):
        if t and t not in seen:
            for k in range(1, len(t) + 1):
                seen.update(combinations(t, k))
    return frozenset(seen)


def _face_passes(tuples: Iterable[Simplex]) -> Iterator[tuple[list[Simplex], list[Simplex]]]:
    """Every codimension-1 face of every tuple, grouped: for each length
    L >= 2 and each position j < L, the tuples of length L and, in the same
    order, their faces without position j.  Each group is one itemgetter
    pass."""
    for length, group in groupby(sorted(tuples, key=len), key=len):
        if length < 2:
            continue
        group = list(group)
        for j in range(length):
            keep = itemgetter(*(i for i in range(length) if i != j))
            yield group, list(map(keep, group) if length > 2 else zip(map(keep, group)))


def _missing_face(tset: AbstractSet[Simplex], within: Optional[AbstractSet[Simplex]] = None) -> Optional[tuple[Simplex, Simplex]]:
    """A tuple of `tset` with a codimension-1 face outside `within` (by
    default `tset` itself), and that face."""
    if within is None:
        within = tset
    for group, found in _face_passes(tset):
        if not within.issuperset(found):
            return next((t, f) for t, f in zip(group, found) if f not in within)
    return None


def _index_vsets(by_vset: dict[frozenset[str], Simplex], tuples: Iterable[Simplex]) -> None:
    """Index tuples by vertex set, rejecting repeated vertices and a second
    tuple on a vertex set already indexed."""
    for t in tuples:
        vs = frozenset(t)
        if len(vs) != len(t):
            raise InputError(f"repeated vertex in tuple {t}")
        other = by_vset.get(vs)
        if other is not None and other != t:
            raise AmbientMismatch(f"tuples {other} and {t} share a vertex set")
        by_vset[vs] = t


def _check_edges(new: Iterable[Simplex], tuples: AbstractSet[Simplex]) -> None:
    """Enforce the vertex-set rule (no repeated vertex, one tuple per vertex
    set) on a face-closed tuple set `tuples` that satisfied it before the
    `new` tuples, which it contains, were added.  Only the new edges are
    read.

    In a face-closed set a tuple that repeats a vertex v has the edge
    (v, v), and two tuples on one vertex set order some pair of its
    vertices oppositely, so both orders of that pair are edges.  Of such a
    pair of edges at least one is new, or the set broke the rule before.
    So the rule fails exactly when a new edge (a, b) has (b, a) in the set,
    which for a = b is the edge itself.
    """
    edges = [t for t in new if len(t) == 2]
    if tuples.isdisjoint([(b, a) for a, b in edges]):
        return
    for a, b in sorted(edges):  # the first offender, in a fixed order
        if a == b:
            raise InputError(f"repeated vertex in edge {(a, b)}")
        if (b, a) in tuples:
            raise AmbientMismatch(f"edges {min((a, b), (b, a))} and {max((a, b), (b, a))} share a vertex set")


class OrderedComplex:
    """Face-closed set of ordered tuples of distinct vertices.

    Tuple equality is simplex equality: two stored tuples never share a
    vertex set.  Construction validates face closure and that rule, which
    it checks on the edges alone (see `_check_edges`): in a face-closed set
    a repeated vertex v shows as the edge (v, v), and two tuples on one
    vertex set as two edges (a, b) and (b, a).  The index by vertex set,
    the sorted per-dimension index and the maximal tuples are computed on
    first use.
    """

    __slots__ = ("tuples", "vertices", "_by_vset", "_by_dim", "_maximal")

    def __init__(self, tuples: Iterable[Simplex], *, _validated: bool = False):
        tset = frozenset(map(tuple, tuples))
        _check_edges(tset, tset)
        if not _validated:
            gap = _missing_face(tset)
            if gap is not None:
                raise InputError(f"missing face {gap[1]} of {gap[0]}")
        self.tuples = tset
        self.vertices = frozenset(t[0] for t in tset if len(t) == 1)
        self._by_vset: Optional[dict[frozenset[str], Simplex]] = None
        self._by_dim: Optional[dict[int, list[Simplex]]] = None
        self._maximal: Optional[tuple[Simplex, ...]] = None

    def extended(self, added: Iterable[Simplex]) -> "OrderedComplex":
        """This complex with the `added` tuples, which the caller guarantees
        keep it face-closed.

        The vertex-set rule is checked on the added edges only: this
        complex already satisfies it.
        """
        new_tuples = frozenset(map(tuple, added)) - self.tuples
        if not new_tuples:
            return self
        tuples = self.tuples | new_tuples
        _check_edges(new_tuples, tuples)
        out = OrderedComplex.__new__(OrderedComplex)
        out.tuples = tuples
        out.vertices = self.vertices | {t[0] for t in new_tuples if len(t) == 1}
        out._by_vset = None
        out._by_dim = None
        out._maximal = None
        return out

    @classmethod
    def from_tuples(cls, tuples: Iterable[Simplex]) -> "OrderedComplex":
        """Build the smallest complex containing the given tuples."""
        return cls(close_tuples(tuples), _validated=True)

    @classmethod
    def empty(cls) -> "OrderedComplex":
        return cls(frozenset(), _validated=True)

    def __eq__(self, other: object) -> bool:
        return other is self or (isinstance(other, OrderedComplex) and self.tuples == other.tuples)

    def __hash__(self) -> int:
        return hash(self.tuples)

    def __contains__(self, t: Simplex) -> bool:
        return tuple(t) in self.tuples

    def __repr__(self) -> str:
        return f"OrderedComplex({len(self.vertices)} vertices, {len(self.tuples)} tuples)"

    def _index(self) -> dict[int, list[Simplex]]:
        if self._by_dim is None:
            by_dim: dict[int, list[Simplex]] = {}
            for t in self.tuples:
                by_dim.setdefault(len(t) - 1, []).append(t)
            for d in by_dim:
                by_dim[d].sort(key=simplex_key)
            self._by_dim = by_dim
        return self._by_dim

    def _vsets(self) -> dict[frozenset[str], Simplex]:
        if self._by_vset is None:
            self._by_vset = dict(zip(map(frozenset, self.tuples), self.tuples))
        return self._by_vset

    def dimension(self) -> int:
        return max(self._index(), default=-1)

    def simplices(self, dim: int) -> list[Simplex]:
        """All simplices of the given dimension, canonically sorted."""
        return list(self._index().get(dim, []))

    def tuple_on(self, vset: Iterable[str]) -> Optional[Simplex]:
        """The unique stored tuple on this vertex set, if any."""
        return self._vsets().get(frozenset(vset))

    def maximal(self) -> list[Simplex]:
        """Tuples that are not a face of any other stored tuple, canonically
        sorted."""
        if self._maximal is None:
            non_max: set[Simplex] = set()
            for _, found in _face_passes(self.tuples):
                non_max.update(found)
            self._maximal = tuple(sorted(self.tuples.difference(non_max), key=simplex_key))
        return list(self._maximal)

    def is_subcomplex_of(self, other: "OrderedComplex") -> bool:
        return self.tuples <= other.tuples

    def union(self, other: "OrderedComplex") -> "OrderedComplex":
        return self.extended(other.tuples)

    def intersection(self, other: "OrderedComplex") -> "OrderedComplex":
        theirs_on = other._vsets()
        for t in self.tuples:
            theirs = theirs_on.get(frozenset(t))
            if theirs is not None and theirs != t:
                raise AmbientMismatch(f"conflicting tuples {t} and {theirs}")
        return OrderedComplex(self.tuples & other.tuples, _validated=True)


class ComplexMap:
    """A vertex map inducing a simplicial map between complexes.

    Only the images of the source's maximal tuples are checked, which is
    equivalent to checking every tuple.  The image word of a face is a
    subword of the image word of a maximal tuple containing it.  If the
    maximal image has its equal letters contiguous, so has the face's, and
    the face's image, the dedup of that subword, is a subsequence of the
    maximal image: a face of it, which the target holds, as every
    `OrderedComplex` is face-closed.
    """

    __slots__ = ("source", "target", "vmap")

    def __init__(self, source: OrderedComplex, target: OrderedComplex, vmap: Mapping[str, str]):
        vmap = dict(vmap)
        missing = source.vertices - vmap.keys()
        if missing:
            raise InputError(f"vmap missing vertices {sorted(missing)}")
        for t in source.maximal():
            word = [vmap[v] for v in t]
            img = dedup_word(word)
            if img is None or img not in target.tuples:
                raise InputError(f"image {tuple(word)} of {t} is not a target simplex")
        self.source = source
        self.target = target
        self.vmap = vmap

    def __call__(self, v: str) -> str:
        return self.vmap[v]

    def image_complex(self) -> OrderedComplex:
        return vertex_image(self.source, self.vmap)

    def is_injective(self) -> bool:
        vals = [self.vmap[v] for v in self.source.vertices]
        return len(set(vals)) == len(vals)

    def __repr__(self) -> str:
        return f"ComplexMap({len(self.source.vertices)} -> {len(self.target.vertices)} vertices)"


def identity_map(k: OrderedComplex) -> ComplexMap:
    return ComplexMap(k, k, {v: v for v in k.vertices})


def inclusion_map(sub: OrderedComplex, ambient: OrderedComplex) -> ComplexMap:
    if not sub.is_subcomplex_of(ambient):
        raise InputError("not a subcomplex")
    return ComplexMap(sub, ambient, {v: v for v in sub.vertices})


def opposite(k: OrderedComplex) -> OrderedComplex:
    """The same complex with every tuple reversed."""
    return OrderedComplex(frozenset(t[::-1] for t in k.tuples), _validated=True)


# ---------------------------------------------------------------------------
# Finite posets and their nerves


class FinitePoset(Record):
    """A finite poset with a fixed element order (a linear extension)."""

    __slots__ = ("elements", "relation")

    def __init__(self, elements: tuple[str, ...], relation: frozenset[tuple[str, str]]):
        elems, rel = elements, relation
        if len(set(elems)) != len(elems):
            raise InputError("poset elements must be distinct")
        es = set(elems)
        for a, b in rel:
            if a not in es or b not in es:
                raise InputError(f"relation pair ({a},{b}) uses unknown element")
        for a in elems:
            if (a, a) not in rel:
                raise InputError("relation is not reflexive")
        for a, b in rel:
            if a != b and (b, a) in rel:
                raise InputError(f"antisymmetry fails on ({a},{b})")
            for c in elems:
                if (b, c) in rel and (a, c) not in rel:
                    raise InputError(f"transitivity fails on ({a},{b},{c})")
        pos = {e: i for i, e in enumerate(elems)}
        for a, b in rel:
            if a != b and pos[a] > pos[b]:
                raise InputError("element order is not a linear extension")
        set_field(self, "elements", elements)
        set_field(self, "relation", relation)

    def lt(self, a: str, b: str) -> bool:
        return a != b and (a, b) in self.relation


def _poset_from_leq(elements: Sequence[str], leq: Callable[[str, str], bool]) -> FinitePoset:
    rel = frozenset(
        (a, b) for a in elements for b in elements if a == b or leq(a, b)
    )
    return FinitePoset(tuple(elements), rel)


def nerve(p: FinitePoset) -> OrderedComplex:
    """All nonempty strictly increasing chains of the poset."""
    elems = list(p.elements)
    above: dict[str, list[str]] = {
        a: [b for b in elems if p.lt(a, b)] for a in elems
    }
    chains: list[Simplex] = []

    def extend(chain: tuple[str, ...]):
        chains.append(chain)
        for b in above[chain[-1]]:
            extend(chain + (b,))

    for a in elems:
        extend((a,))
    return OrderedComplex(frozenset(chains), _validated=True)


def simplex_complex(labels: Sequence[str]) -> OrderedComplex:
    """The full simplex on an ordered list of distinct labels."""
    t = tuple(labels)
    if len(set(t)) != len(t):
        raise InputError("simplex labels must be distinct")
    return OrderedComplex.from_tuples([t])


def horn(s: Sequence[str], n: Iterable[str], include_all_faces: bool = False) -> OrderedComplex:
    """Union of the codimension-1 faces of the simplex on `s` opposite to
    the vertices outside `n`; with ``include_all_faces`` (and empty `n`)
    this is the full boundary."""
    s = tuple(s)
    nset = set(n)
    if not nset <= set(s):
        raise InputError("horn subset must consist of simplex vertices")
    if nset == set(s):
        raise InputError("horn subset must be proper")
    if not include_all_faces and not nset:
        raise InputError("horn subset must be nonempty (or request all faces)")
    gens = [tuple(v for v in s if v != drop) for drop in s if drop not in nset]
    return OrderedComplex.from_tuples(gens)


def glue_pushout(
    b: OrderedComplex,
    c: OrderedComplex,
    a: OrderedComplex,
    i: ComplexMap,
    j: ComplexMap,
) -> tuple[OrderedComplex, ComplexMap, ComplexMap]:
    """Amalgamated union of `b` and `c` along injective maps out of `a`.

    Vertices of `c` outside the image of `a` keep their labels and must not
    clash with labels of `b`.
    """
    if i.source != a or j.source != a or i.target != b or j.target != c:
        raise InputError("glue maps must go a -> b and a -> c")
    if not i.is_injective() or not j.is_injective():
        raise InputError("glue maps must be injective on vertices")
    j_back = {j(v): i(v) for v in a.vertices}
    cmap: dict[str, str] = {}
    for v in c.vertices:
        if v in j_back:
            cmap[v] = j_back[v]
        else:
            if v in b.vertices:
                raise GlueConflict(f"unglued vertex label {v!r} collides with the other leg")
            cmap[v] = v
    tuples: dict[frozenset[str], Simplex] = {frozenset(t): t for t in b.tuples}
    for t in c.tuples:
        img = tuple(cmap[v] for v in t)
        prior = tuples.get(frozenset(img))
        if prior is not None and prior != img:
            raise GlueConflict(f"identification forces {prior} against {img}")
        tuples[frozenset(img)] = img
    out = OrderedComplex(frozenset(tuples.values()), _validated=True)
    from_b = ComplexMap(b, out, {v: v for v in b.vertices})
    from_c = ComplexMap(c, out, cmap)
    return out, from_b, from_c


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


def quotient_vertex_map(
    k: OrderedComplex, vmap: Mapping[str, str]
) -> tuple[OrderedComplex, ComplexMap]:
    """The collapse-regular vertex quotient `vertex_image` with its map."""
    out = vertex_image(k, vmap)
    return out, ComplexMap(k, out, vmap)


class IsoResult(Record):
    """A vertex bijection matching K onto L.

    When ``reversed`` is true the bijection carries each tuple of K to the
    reverse of a tuple of L (an order-reversing isomorphism).
    """

    __slots__ = ("vmap", "reversed")

    def __init__(self, vmap: dict[str, str], reversed: bool):
        set_field(self, "vmap", vmap)
        set_field(self, "reversed", reversed)


def find_isomorphism(
    k: OrderedComplex,
    l: OrderedComplex,
    vertex_hint: Optional[Mapping[str, str]] = None,
    *,
    include_reversal: bool = True,
    thin_source: Optional[Iterable[Simplex]] = None,
    thin_target: Optional[Iterable[Simplex]] = None,
) -> Optional[IsoResult]:
    """Backtracking search for a vertex bijection inducing a tuple bijection.

    Tries order-preserving assignments first; when ``include_reversal`` is
    set it falls back to order-reversing ones (tuples map to reversed
    tuples).  A partial ``vertex_hint`` constrains the search.  When thin
    sets are supplied the bijection must also match them exactly.
    """
    hint = dict(vertex_hint or {})
    thin_k = None if thin_source is None else frozenset(tuple(t) for t in thin_source)
    thin_l = None if thin_target is None else frozenset(tuple(t) for t in thin_target)
    for rev in ([False, True] if include_reversal else [False]):
        src = opposite(k) if rev else k
        thin_src = thin_k
        if thin_k is not None and rev:
            thin_src = frozenset(t[::-1] for t in thin_k)
        vmap = _search_iso(src, l, hint, thin_src, thin_l)
        if vmap is not None:
            return IsoResult(vmap, rev)
    return None


def _search_iso(
    k: OrderedComplex,
    l: OrderedComplex,
    hint: Mapping[str, str],
    thin_k: Optional[frozenset[Simplex]] = None,
    thin_l: Optional[frozenset[Simplex]] = None,
) -> Optional[dict[str, str]]:
    if len(k.vertices) != len(l.vertices) or len(k.tuples) != len(l.tuples):
        return None
    for d in range(max(k.dimension(), l.dimension()) + 1):
        if len(k.simplices(d)) != len(l.simplices(d)):
            return None
    check_thin = thin_k is not None and thin_l is not None
    if check_thin and len(thin_k) != len(thin_l):
        return None
    kverts = sorted(k.vertices, key=label_key)
    lverts = sorted(l.vertices, key=label_key)
    for a, b in hint.items():
        if a not in k.vertices or b not in l.vertices:
            return None

    # Order source vertices so that constrained ones come first.
    def degree(v: str, kk: OrderedComplex) -> tuple:
        return tuple(sum(1 for t in kk.simplices(d) if v in t) for d in range(kk.dimension() + 1))

    kdeg = {v: degree(v, k) for v in kverts}
    ldeg = {v: degree(v, l) for v in lverts}
    order = sorted(kverts, key=lambda v: (v not in hint, kdeg[v], label_key(v)))

    assign: dict[str, str] = {}
    used: set[str] = set()

    tuples_by_vertex: dict[str, list[Simplex]] = {v: [] for v in kverts}
    for t in k.tuples:
        for v in t:
            tuples_by_vertex[v].append(t)

    def consistent(v: str) -> bool:
        for t in tuples_by_vertex[v]:
            if all(u in assign for u in t):
                img = tuple(assign[u] for u in t)
                if img not in l.tuples:
                    return False
                if check_thin and len(t) == 3 and (t in thin_k) != (img in thin_l):
                    return False
        return True

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        candidates = [hint[v]] if v in hint else [w for w in lverts if ldeg[w] == kdeg[v]]
        for w in candidates:
            if w in used:
                continue
            assign[v] = w
            used.add(w)
            if consistent(v) and backtrack(idx + 1):
                return True
            del assign[v]
            used.discard(w)
        return False

    if backtrack(0):
        return dict(assign)
    return None

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

from .errors import AmbientMismatch, InputError, IrregularCollapse

Simplex = tuple[str, ...]


def label_key(label: str) -> tuple[int, str]:
    """Fixed total order on labels, used for all canonical output."""
    return (len(label), label)


def simplex_key(t: Simplex) -> tuple:
    return (len(t), tuple(label_key(v) for v in t))


def _require_strings(values: Iterable[object], what: str) -> None:
    """Labels are strings; any other value is an input error."""
    for v in values:
        if not isinstance(v, str):
            raise InputError(f"{what} {v!r} is not a string")


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


def _image(tuples: Iterable[tuple], vmap: Mapping[str, str] | Sequence[str]) -> list[Simplex]:
    """Tuples relabelled letter by letter (no deduplication), by a vertex
    map or by a word read at the positions the tuples hold."""
    get = vmap.__getitem__
    return [tuple(map(get, t)) for t in tuples]


def position_key(t: tuple[int, ...]) -> tuple:
    """`simplex_key`'s order on the labels "0".."r", for positions 0..r."""
    return (len(t), t)


def _named(message: str, sources: Iterable[tuple], words: Iterable[Simplex], bad: Callable[[Simplex], bool],
           error: type[Exception], key: Callable[[tuple], tuple] = simplex_key) -> Exception:
    """`error` with `message` formatted with the first source tuple in `key`
    order whose image word is bad, and its image: the dedup of the word, or
    the word itself if it is irregular.  A source tuple holds labels, or
    positions in `position_key` order."""
    t, word = min(((t, w) for t, w in zip(sources, words) if bad(w)), key=lambda pair: key(pair[0]))
    return error(message.format(t, dedup_word(word) or word))


def _covers(vertices: Iterable[str], vmap: Mapping[str, str], error: type[Exception]) -> None:
    """Check that `vmap` is defined on every one of `vertices`; a rejection
    names the first it misses, in `label_key` order, in an `error`."""
    missing = [v for v in vertices if v not in vmap]
    if missing:
        raise error(f"the map does not cover the vertex {min(missing, key=label_key)!r}")


def _carried(tuples: AbstractSet[Simplex], thin: AbstractSet[Simplex], source_tuples: Sequence[tuple],
             source_thin: Sequence[tuple], vmap: Mapping[str, str] | Sequence[str], error: type[Exception],
             key: Callable[[tuple], tuple] = simplex_key) -> None:
    """Check that `vmap` carries a source into `tuples` and `thin` as a
    scaled map: each image word of `source_tuples` is regular (equal
    letters contiguous) and its dedup is in `tuples`, and each of
    `source_thin` lands on a thin or a degenerate triangle.  The first
    offender in `key` order is named in an `error`, or in an
    IrregularCollapse if its word is irregular.  A word is deduplicated
    only when it misses `tuples`, so an injective map pays for none of it.

    The maximal source tuples suffice: the image word of a face is a
    subword of that of a maximal tuple holding it, so it is regular when
    that one is, and its dedup is a face of the maximal image, which a
    face-closed `tuples` holds.  The kernel lists no tuple of a horn, whose
    faces it read (see `_pushout_delta`), so it looks up only Delta^4.
    """
    words = _image(source_tuples, vmap)
    if not tuples.issuperset(words):
        imgs = [dedup_word(word) for word in words if word not in tuples]
        if None in imgs:
            raise _named("tuple {} maps to irregular word {}", source_tuples, words,
                         lambda word: dedup_word(word) is None, IrregularCollapse, key)
        if not tuples.issuperset(imgs):
            raise _named("the map does not carry the source into the state: {} maps to {}", source_tuples,
                         words, lambda word: dedup_word(word) not in tuples, error, key)
    words = _image(source_thin, vmap)
    if not thin.issuperset(words):
        unthin = {w for w in words if (img := dedup_word(w)) is None or len(img) == 3 and img not in thin}
        if unthin:
            raise _named("the map does not carry the source's thin triangles to thin ones: {} maps to {}",
                         source_thin, words, unthin.__contains__, error, key)


def _thin_image(thin: Iterable[tuple], vmap: Mapping[str, str] | Sequence[str]) -> frozenset[Simplex]:
    """The nondegenerate images of thin triangles, under a map regular on
    them; a degenerate triangle is thin by convention and never stored."""
    return frozenset(word for word in _image(thin, vmap) if len(set(word)) == 3)


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
    """The first tuple of `tset`, in `simplex_key` order, with a
    codimension-1 face outside `within` (by default `tset` itself), and its
    face d_j of lowest j outside it."""
    if within is None:
        within = tset
    for _, found in _face_passes(tset):
        if not within.issuperset(found):
            t = min((t for t in tset if len(t) > 1 and not within.issuperset(faces(t))), key=simplex_key)
            return t, next(f for f in faces(t) if f not in within)
    return None


def _top_members(gens: Iterable[Simplex]) -> list[Simplex]:
    """The nonempty members of `gens`, once each, that are no proper face
    of another member: the maximal tuples of their closure, whose every
    tuple is a face of a member.

    The closure holds one tuple per vertex set, so a member is a proper
    face of another exactly when its vertex set is a proper subset of the
    other's.  The test is pairwise, quadratic in the members, which suits
    the short lists the builders close.
    """
    top: list[Simplex] = []
    vsets: list[frozenset[str]] = []
    for t in sorted(set(gens), key=len, reverse=True):
        vs = frozenset(t)
        if t and not any(vs < other for other in vsets):
            top.append(t)
            vsets.append(vs)
    return top


def _check_edges(new: AbstractSet[Simplex], old: AbstractSet[Simplex] = frozenset()) -> None:
    """Enforce the vertex-set rule (no repeated vertex, one tuple per vertex
    set) on the face-closed tuple set `old` | `new`, given that `old`
    satisfied it.  Only the new edges are read, and neither set changes.

    In a face-closed set a tuple that repeats a vertex v has the edge
    (v, v), and two tuples on one vertex set order some pair of its
    vertices oppositely, so both orders of that pair are edges.  Of such a
    pair of edges at least one is new, or `old` broke the rule.  So the
    rule fails exactly when a new edge (a, b) has (b, a) in the set, which
    for a = b is the edge itself.
    """
    edges = [t for t in new if len(t) == 2]
    flipped = [(b, a) for a, b in edges]
    if new.isdisjoint(flipped) and old.isdisjoint(flipped):
        return
    for a, b in sorted(edges):  # the first offender, in a fixed order
        if a == b:
            raise InputError(f"repeated vertex in edge {(a, b)}")
        if (b, a) in new or (b, a) in old:
            raise AmbientMismatch(f"edges {min((a, b), (b, a))} and {max((a, b), (b, a))} share a vertex set")


class OrderedComplex:
    """Face-closed set of ordered tuples of distinct vertices.

    Tuple equality is simplex equality: two stored tuples never share a
    vertex set.  Construction validates face closure and that rule, which
    it checks on the edges alone (see `_check_edges`): in a face-closed set
    a repeated vertex v shows as the edge (v, v), and two tuples on one
    vertex set as two edges (a, b) and (b, a).  The maximal tuples are
    computed on first use.  A complex closed from a list of tuples
    (`from_tuples`, and the union of two such) keeps that list in `_gens`,
    from which `maximal` reads its answer.
    """

    __slots__ = ("tuples", "vertices", "_gens", "_maximal")

    def __init__(self, tuples: Iterable[Simplex], *, _validated: bool = False,
                 _gens: Optional[tuple[Simplex, ...]] = None):
        # a frozenset holds tuples already: it is kept, not copied into a set
        # built element by element, whose hash table would be larger
        tset = tuples if isinstance(tuples, frozenset) else frozenset(map(tuple, tuples))
        _check_edges(tset)
        if not _validated:
            gap = _missing_face(tset)
            if gap is not None:
                raise InputError(f"missing face {gap[1]} of {gap[0]}")
        self.tuples = tset
        self.vertices = frozenset(t[0] for t in tset if len(t) == 1)
        self._gens = _gens
        self._maximal: Optional[tuple[Simplex, ...]] = None

    @classmethod
    def from_tuples(cls, tuples: Iterable[Simplex]) -> "OrderedComplex":
        """Build the smallest complex containing the given tuples."""
        gens = tuple(map(tuple, tuples))
        return cls(close_tuples(gens), _validated=True, _gens=gens)

    def __eq__(self, other: object) -> bool:
        return other is self or (isinstance(other, OrderedComplex) and self.tuples == other.tuples)

    def __hash__(self) -> int:
        return hash(self.tuples)

    def __contains__(self, t: Simplex) -> bool:
        return tuple(t) in self.tuples

    def __repr__(self) -> str:
        return f"OrderedComplex({len(self.vertices)} vertices, {len(self.tuples)} tuples)"

    def maximal(self) -> list[Simplex]:
        """Tuples that are not a face of any other stored tuple, canonically
        sorted.  Of a complex closed from a known list these are found
        among its members (`_top_members`); of any other, by taking every
        codimension-1 face of every tuple."""
        if self._maximal is None:
            if self._gens is not None:
                top = _top_members(self._gens)
            else:
                non_max: set[Simplex] = set()
                for _, found in _face_passes(self.tuples):
                    non_max.update(found)
                top = self.tuples.difference(non_max)
            self._maximal = tuple(sorted(top, key=simplex_key))
        return list(self._maximal)

    def union(self, other: "OrderedComplex") -> "OrderedComplex":
        """The union; it keeps both generator lists when both are known."""
        gens = None if self._gens is None or other._gens is None else self._gens + other._gens
        return OrderedComplex(self.tuples | other.tuples, _validated=True, _gens=gens)


class ComplexMap:
    """A vertex map inducing a simplicial map between complexes, checked on
    the source's vertices (`_covers`) and maximal tuples (`_carried`)."""

    __slots__ = ("source", "target", "vmap")

    def __init__(self, source: OrderedComplex, target: OrderedComplex, vmap: Mapping[str, str]):
        vmap = dict(vmap)
        _covers(source.vertices, vmap, InputError)
        _carried(target.tuples, frozenset(), source.maximal(), (), vmap, InputError)
        self.source = source
        self.target = target
        self.vmap = vmap

    def __repr__(self) -> str:
        return f"ComplexMap({len(self.source.vertices)} -> {len(self.target.vertices)} vertices)"

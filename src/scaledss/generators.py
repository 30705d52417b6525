"""The pushout generators: inner-horn, scaling, quotient-horn kinds, the
generalized-horn family, and the special trivial-cofibration primitive."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .complexes import ComplexMap, OrderedComplex, Simplex, horn, simplex_complex, vertex_image
from .errors import InputError
from .scaling import ScaledComplex, ScaledMap, image_scaled, restrict_scaling, scale

PosTriple = tuple[int, int, int]


@dataclass(frozen=True)
class Admissible:
    """Witness index for a generalized-horn instance."""

    s: int


@dataclass(frozen=True)
class NotAdmissible:
    clause: str

    def __bool__(self) -> bool:
        return False


def gen_horn_admissible(
    r: int, m: Iterable[int], thin: Iterable[PosTriple]
):
    """Decide the generalized-horn criterion for positions M on the r-simplex.

    Returns Admissible(s) with the unique index s below the run of M ending
    at t = max(M), or NotAdmissible naming the first failed clause.  `thin`
    is a set of position triples of the r-simplex.
    """
    mset = frozenset(m)
    if r < 3:
        raise InputError("generalized horns need r >= 3")
    if not mset:
        raise InputError("M must be nonempty")
    if not mset <= set(range(r)):
        raise InputError("M must be a subset of {0..r-1}")
    thin_set = {tuple(t) for t in thin}
    t = max(mset)
    a = t
    while a - 1 in mset:
        a -= 1
    s = a - 1
    if s < 0:
        return NotAdmissible("no index below the run ending at max(M)")
    if len(mset) > r - 2:
        return NotAdmissible("|M| exceeds r-2")
    if len(mset) == r - 2:
        missing_triangle = tuple(sorted(set(range(r + 1)) - mset))
        if missing_triangle in thin_set:
            return NotAdmissible("the face opposite M is thin")
    for i in range(s, t):
        if (i, t, t + 1) not in thin_set:
            return NotAdmissible(f"triangle ({i},{t},{t + 1}) is not thin")
    return Admissible(s)


@dataclass(frozen=True)
class GeneratorInstance:
    """A fully built generator with instantiated source/target complexes.

    Source and target share a vertex label set, so one attach map both
    restricts to the source and realizes the target.
    """

    kind: str
    params: tuple[tuple[str, object], ...]
    source: ScaledComplex
    target: ScaledComplex

    @property
    def inclusion(self) -> ScaledMap:
        """The inclusion of the source into the target, built and checked on
        access."""
        ident = {v: v for v in self.source.complex.vertices}
        return ScaledMap(ComplexMap(self.source.complex, self.target.complex, ident),
                         self.source, self.target)

    def param(self, name: str):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    @property
    def added_tuples(self) -> frozenset[Simplex]:
        return self.target.complex.tuples - self.source.complex.tuples

    @property
    def added_thin(self) -> frozenset[Simplex]:
        return self.target.thin - self.source.thin


AN2_SOURCE_THIN = (("0", "2", "4"), ("1", "2", "3"), ("0", "1", "3"), ("1", "3", "4"), ("0", "1", "2"))
AN2_EXTRA_THIN = (("0", "3", "4"), ("0", "1", "4"))


def _labels(n: int) -> list[str]:
    return [str(j) for j in range(n + 1)]


@lru_cache(maxsize=None)
def _simplex(n: int) -> OrderedComplex:
    """The full simplex on the labels 0..n.  Complexes are immutable, so
    every instance on n + 1 vertices shares this one."""
    return simplex_complex(_labels(n))


def _instance(kind: str, params: dict, source: ScaledComplex, target: ScaledComplex) -> GeneratorInstance:
    return GeneratorInstance(kind, tuple(sorted(params.items())), source, target)


def _int(name: str, v: object) -> int:
    if type(v) is not int:
        raise InputError(f"generator parameter {name} must be an integer, not {v!r}")
    return v


def _canonical_params(params: dict) -> tuple[tuple[str, object], ...]:
    """Integers, with the position sets `m` and `thin` as sorted tuples of
    distinct members: the form every instance records, and a hashable key
    (integers only, so 1, 1.0 and True never share an instance)."""
    out = {}
    try:
        for name, v in params.items():
            if name == "m":
                v = tuple(sorted({_int(name, j) for j in v}))
            elif name == "thin":
                v = tuple(sorted({tuple(_int(name, j) for j in t) for t in v}))
            else:
                v = _int(name, v)
            out[name] = v
    except TypeError as exc:
        raise InputError(f"malformed generator parameters: {exc}") from exc
    return tuple(sorted(out.items()))


# the parameters each generator kind requires, and those it may omit
_REQUIRED = {"an1": ("n", "i"), "an2": (), "an3": ("n",), "gen_horn": ("r", "m"), "special_tc": ()}
_OPTIONAL = {"gen_horn": ("thin",)}


def instantiate(kind: str, **params) -> GeneratorInstance:
    """Build a generator instance; validates all parameter constraints.

    Instances are immutable and memoised on their canonical parameters, so
    every repeat of a generator in a certificate shares one instance.
    """
    required = _REQUIRED.get(kind)
    if required is None:
        raise InputError(f"unknown generator kind {kind!r}")
    for name in required:
        if name not in params:
            raise InputError(f"generator {kind} is missing parameter {name!r}")
    for name in params:
        if name not in required and name not in _OPTIONAL.get(kind, ()):
            raise InputError(f"generator {kind} takes no parameter {name!r}")
    return _instantiate(kind, _canonical_params(params))


@lru_cache(maxsize=None)
def _instantiate(kind: str, key: tuple[tuple[str, object], ...]) -> GeneratorInstance:
    params = dict(key)
    if kind == "an1":
        n, i = params["n"], params["i"]
        if not 0 < i < n:
            raise InputError("an1 requires 0 < i < n")
        labels = _labels(n)
        mid = (str(i - 1), str(i), str(i + 1))
        src_cx = horn(labels, {str(i)})
        tgt_cx = _simplex(n)
        src = ScaledComplex(src_cx, {mid} & src_cx.tuples)
        tgt = ScaledComplex(tgt_cx, {mid})
        return _instance("an1", {"n": n, "i": i}, src, tgt)

    if kind == "an2":
        cx = _simplex(4)
        src = ScaledComplex(cx, AN2_SOURCE_THIN)
        tgt = ScaledComplex(cx, AN2_SOURCE_THIN + AN2_EXTRA_THIN)
        return _instance("an2", {}, src, tgt)

    if kind == "an3":
        n = params["n"]
        if n <= 2:
            raise InputError("an3 requires n > 2")
        labels = _labels(n)
        vmap = {v: v for v in labels}
        vmap["1"] = "0"
        marked = {("0", "1", str(n))}
        src = image_scaled(ScaledComplex(horn(labels, {"0"}), marked), vmap)
        tgt = image_scaled(ScaledComplex(_simplex(n), marked), vmap)
        return _instance("an3", {"n": n}, src, tgt)

    if kind == "gen_horn":
        r = params["r"]
        m = frozenset(params["m"])
        thin = frozenset(tuple(t) for t in params.get("thin", ()))
        verdict = gen_horn_admissible(r, m, thin)
        if not isinstance(verdict, Admissible):
            raise InputError(f"inadmissible generalized horn: {verdict.clause}")
        labels = _labels(r)
        tgt_cx = _simplex(r)
        src_cx = horn(labels, {str(j) for j in m})
        to_tuples = frozenset(tuple(str(j) for j in t) for t in thin)
        tgt = ScaledComplex(tgt_cx, to_tuples)
        src = restrict_scaling(src_cx, tgt)
        inst = _instance("gen_horn", {"r": r, "m": tuple(sorted(m)),
                                      "thin": tuple(sorted(thin)),
                                      "witness_s": verdict.s}, src, tgt)
        return inst

    # special_tc: instantiate admits no other kind
    vmap = {"0": "0", "1": "0", "2": "2"}
    src = scale(vertex_image(horn(_labels(2), {"0"}), vmap), "sharp")
    tgt = scale(vertex_image(_simplex(2), vmap), "sharp")
    return _instance("special_tc", {}, src, tgt)

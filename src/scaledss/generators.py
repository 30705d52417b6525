"""The pushout generators: inner-horn, scaling, quotient-horn kinds, the
generalized-horn family, and the special trivial-cofibration primitive."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Optional

from .complexes import ComplexMap, OrderedComplex, Simplex, horn, simplex_complex, vertex_image
from .errors import InputError
from .scaling import PushoutShape, ScaledComplex, ScaledMap, image_scaled, pushout_shape, scale

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


@lru_cache(maxsize=None)
def _horn(r: int, m: tuple[int, ...]) -> tuple[OrderedComplex, tuple[Simplex, ...], tuple[Simplex, ...]]:
    """The horn on the positions M of Delta^r, once per (r, M), with its
    pushout shape in closed form: its maximal tuples are the faces d_j for
    j not in M, and the tuples of Delta^r outside it are those that contain
    the core [r] - M, listed core first, the one among them whose faces
    all lie in the horn."""
    labels = _labels(r)
    core = [j for j in range(r + 1) if j not in m]
    maximal = tuple(tuple(labels[:j] + labels[j + 1:]) for j in core)
    added = tuple(tuple(labels[j] for j in sorted(core + list(extra)))
                  for k in range(len(m) + 1) for extra in combinations(m, k))
    return horn(labels, {labels[j] for j in m}), maximal, added


def _horn_instance(kind: str, params: dict, r: int, m: tuple[int, ...],
                   thin: Iterable[Simplex]) -> GeneratorInstance:
    """An instance whose source is the horn on M and whose target is Delta^r
    with the `thin` triangles."""
    src_cx, maximal, added = _horn(r, m)
    tgt = ScaledComplex(_simplex(r), thin)
    core = set(added[0])
    in_horn, outside = [], []
    for t in tgt.thin:
        (outside if core <= set(t) else in_horn).append(t)
    shape = PushoutShape(src_cx.vertices, maximal, in_horn, added, 1, outside)
    return _instance(kind, params, ScaledComplex(src_cx, in_horn), tgt, shape)


# Every instance `instantiate` built, by identity, with its pushout shape.
# `_instantiate` keeps each instance alive, so an id is never reused.
_GENUINE: dict[int, tuple["GeneratorInstance", PushoutShape]] = {}


def _instance(kind: str, params: dict, source: ScaledComplex, target: ScaledComplex,
              shape: Optional[PushoutShape] = None) -> GeneratorInstance:
    gen = GeneratorInstance(kind, tuple(sorted(params.items())), source, target)
    _GENUINE[id(gen)] = (gen, shape or pushout_shape(source, target))
    return gen


def genuine_shape(gen: GeneratorInstance) -> Optional[PushoutShape]:
    """The pushout shape of `gen` if `instantiate` built this very object;
    None for any other object, equal to one or not."""
    entry = _GENUINE.get(id(gen))
    return entry[1] if entry is not None and entry[0] is gen else None


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
                rows = list(map(tuple, v))
                if not set(map(type, chain.from_iterable(rows))) <= {int}:
                    for j in chain.from_iterable(rows):
                        _int(name, j)  # raises at the first that is not an integer
                v = tuple(sorted(set(rows)))
            else:
                v = _int(name, v)
            out[name] = v
    except TypeError as exc:
        raise InputError(f"malformed generator parameters: {exc}") from exc
    return tuple(sorted(out.items()))


# The parameters of each generator kind, all required.  An instance also
# records what it derives (gen_horn's witness_s); that is not a parameter.
PARAMETERS = {"an1": ("n", "i"), "an2": (), "an3": ("n",), "gen_horn": ("r", "m", "thin"),
              "special_tc": ()}


def instantiate(kind: str, **params) -> GeneratorInstance:
    """Build a generator instance; validates all parameter constraints.

    Instances are immutable and memoised on their canonical parameters, so
    every repeat of a generator in a certificate shares one instance.
    """
    names = PARAMETERS.get(kind)
    if names is None:
        raise InputError(f"unknown generator kind {kind!r}")
    for name in names:
        if name not in params:
            raise InputError(f"generator {kind} is missing parameter {name!r}")
    for name in params:
        if name not in names:
            raise InputError(f"generator {kind} takes no parameter {name!r}")
    return _instantiate(kind, _canonical_params(params))


@lru_cache(maxsize=None)
def _instantiate(kind: str, key: tuple[tuple[str, object], ...]) -> GeneratorInstance:
    params = dict(key)
    if kind == "an1":
        n, i = params["n"], params["i"]
        if not 0 < i < n:
            raise InputError("an1 requires 0 < i < n")
        return _horn_instance("an1", {"n": n, "i": i}, n, (i,), [(str(i - 1), str(i), str(i + 1))])

    if kind == "an2":
        cx = _simplex(4)
        src = ScaledComplex(cx, AN2_SOURCE_THIN)
        tgt = ScaledComplex(cx, AN2_SOURCE_THIN + AN2_EXTRA_THIN)
        shape = PushoutShape(cx.vertices, [tuple(_labels(4))], AN2_SOURCE_THIN, (), 0, AN2_EXTRA_THIN)
        return _instance("an2", {}, src, tgt, shape)

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
        r, m, thin = params["r"], params["m"], params["thin"]
        verdict = gen_horn_admissible(r, m, thin)
        if not isinstance(verdict, Admissible):
            raise InputError(f"inadmissible generalized horn: {verdict.clause}")
        return _horn_instance("gen_horn", dict(params, witness_s=verdict.s), r, m,
                              [tuple(str(j) for j in t) for t in thin])

    # special_tc: instantiate admits no other kind
    vmap = {"0": "0", "1": "0", "2": "2"}
    src = scale(vertex_image(horn(_labels(2), {"0"}), vmap), "sharp")
    tgt = scale(vertex_image(_simplex(2), vmap), "sharp")
    return _instance("special_tc", {}, src, tgt)

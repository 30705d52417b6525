"""The pushout generators: the inner-horn and scaling kinds and the
generalized-horn family."""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, Union

from .complexes import Simplex
from .errors import InputError
from .record import Record, set_field
from .scaling import PushoutShape

PosTriple = tuple[int, int, int]


class Admissible(Record):
    """Witness index for a generalized-horn instance."""

    __slots__ = ("s",)

    def __init__(self, s: int):
        set_field(self, "s", s)


class NotAdmissible(Record):
    __slots__ = ("clause",)

    def __init__(self, clause: str):
        set_field(self, "clause", clause)

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
    if not all(j in range(r) for j in mset):
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


class GeneratorInstance(Record):
    """A generator, whose value is its kind and canonical parameters.

    `instantiate` is the only maker: calling the class, and so `copy`,
    `deepcopy` and `pickle`, returns the memoised instance, and the kernel
    trusts an instance for what its kind and parameters define.  Its
    closed-form pushout `shape`, made on first access, is derived, so
    neither equality, the hash nor `__reduce__` reads it.  The kernel never
    calls `tower.generator_complexes`, which builds its source and target.
    """

    __slots__ = ("kind", "params", "_shape")

    def __new__(cls, kind: str, params: Iterable[tuple[str, object]]) -> "GeneratorInstance":
        """The instance `instantiate` makes of `kind` and the parameters
        among `params`; what it derives (gen_horn's witness_s) is not read."""
        given = dict(params)
        return instantiate(kind, **{name: given[name] for name in PARAMETERS.get(kind, ())})

    def _fields(self) -> tuple:
        return (self.kind, self.params)

    @property
    def shape(self) -> PushoutShape:
        if callable(self._shape):
            set_field(self, "_shape", self._shape())
        return self._shape

    def __repr__(self) -> str:
        return f"GeneratorInstance(kind={self.kind!r}, params={self.params!r})"


AN2_SOURCE_THIN = (("0", "2", "4"), ("1", "2", "3"), ("0", "1", "3"), ("1", "3", "4"), ("0", "1", "2"))
AN2_EXTRA_THIN = (("0", "3", "4"), ("0", "1", "4"))


def _labels(n: int) -> list[str]:
    return [str(j) for j in range(n + 1)]


@lru_cache(maxsize=None)
def _horn_faces(r: int, m: tuple[int, ...]) -> tuple[Simplex, ...]:
    """The maximal tuples of the horn on M: the faces d_j, j not in M."""
    labels = _labels(r)
    return tuple(tuple(labels[:j] + labels[j + 1:]) for j in range(r + 1) if j not in m)


@lru_cache(maxsize=None)
def _horn_added(r: int, m: tuple[int, ...]) -> tuple[Simplex, ...]:
    """The 2^|M| tuples of Delta^r outside the horn on M, those that
    contain the core [r] - M, listed core first: the one among them whose
    faces all lie in the horn."""
    labels = _labels(r)
    core = [j for j in range(r + 1) if j not in m]
    return tuple(tuple(labels[j] for j in sorted(core + list(extra)))
                 for k in range(len(m) + 1) for extra in combinations(m, k))


def _horn_instance(kind: str, params: dict, r: int, m: tuple[int, ...],
                   thin: Iterable[PosTriple]) -> GeneratorInstance:
    """An instance whose source is the horn on M and whose target is Delta^r
    with the `thin` triangles, given as positions.  Its shape is in closed
    form, and nothing in it grows with r before it is needed: a thin
    triangle lies outside the horn only when it contains the core [r] - M,
    which has r + 1 - |M| members."""
    in_horn, outside = [], []
    for t in thin:
        if not (len(t) == 3 and 0 <= t[0] < t[1] < t[2] <= r):
            raise InputError(f"thin triple {tuple(map(str, t))} is not a 2-simplex of the complex")
        core_in_t = r + 1 - len(m) <= 3 and all(j in m or j in t for j in range(r + 1))
        (outside if core_in_t else in_horn).append(tuple(map(str, t)))

    def shape() -> PushoutShape:
        return PushoutShape(frozenset(_labels(r)), _horn_faces(r, m), in_horn,
                            lambda: _horn_added(r, m), 1, outside)

    return _instance(kind, params, shape)


def _instance(kind: str, params: dict, shape: Union[PushoutShape, Callable[[], PushoutShape]]) -> GeneratorInstance:
    """Make an instance; only `_instantiate` calls this, once per key."""
    gen = object.__new__(GeneratorInstance)
    for slot, value in zip(GeneratorInstance.__slots__, (kind, tuple(sorted(params.items())), shape)):
        set_field(gen, slot, value)
    return gen


def _int(name: str, v: object) -> int:
    if type(v) is not int:
        raise InputError(f"generator parameter {name} must be an integer, not {v!r}")
    return v


def _ints(name: str, values: Iterable[object]) -> list[int]:
    """The values, which must all be integers: their types are read in one
    pass, and only a failure looks at them one by one."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        for j in values:
            _int(name, j)  # raises at the first that is not an integer
    return values


def _canonical_params(params: dict) -> tuple[tuple[str, object], ...]:
    """Integers, with the position sets `m` and `thin` as sorted tuples of
    distinct members: the form every instance records, and a hashable key
    (integers only, so 1, 1.0 and True never share an instance)."""
    out = {}
    try:
        for name, v in params.items():
            if name == "m":
                v = tuple(sorted(set(_ints(name, v))))
            elif name == "thin":
                rows = list(map(tuple, v))
                _ints(name, chain.from_iterable(rows))
                v = tuple(sorted(set(rows)))
            else:
                v = _int(name, v)
            out[name] = v
    except TypeError as exc:
        raise InputError(f"malformed generator parameters: {exc}") from exc
    return tuple(sorted(out.items()))


# The parameters of each generator kind, all required.  An instance also
# records what it derives (gen_horn's witness_s); that is not a parameter.
PARAMETERS = {"an1": ("n", "i"), "an2": (), "gen_horn": ("r", "m", "thin")}


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
        return _horn_instance("an1", {"n": n, "i": i}, n, (i,), [(i - 1, i, i + 1)])

    if kind == "an2":
        labels = _labels(4)
        shape = PushoutShape(frozenset(labels), [tuple(labels)], AN2_SOURCE_THIN, (), 0, AN2_EXTRA_THIN)
        return _instance("an2", {}, shape)

    # gen_horn: instantiate admits no other kind
    r, m, thin = params["r"], params["m"], params["thin"]
    verdict = gen_horn_admissible(r, m, thin)
    if not isinstance(verdict, Admissible):
        raise InputError(f"inadmissible generalized horn: {verdict.clause}")
    return _horn_instance("gen_horn", dict(params, witness_s=verdict.s), r, m, thin)

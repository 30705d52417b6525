"""Generator instances and the generalized-horn criterion."""

import copy
import json
import pickle
from contextlib import contextmanager
from itertools import combinations
from typing import Iterator

import pytest

from scaledss import (
    Admissible,
    ComplexMap,
    GeneratorInstance,
    InputError,
    NotAdmissible,
    OrderedComplex,
    ScaledComplex,
    Step,
    certify_inner_horn,
    gen_horn_admissible,
    generators,
    instantiate,
    search,
    simplex_complex,
    tower,
    verify_certificate,
)
from scaledss.certificates import _State
from scaledss.complexes import close_tuples, faces
from scaledss.produce import certificate_to_json
from scaledss.search import search_steps
from scaledss.serialize import canonical_dumps, certificate_from_json
from support import generator_complexes, simplices


def test_an1_instance():
    source, target = generator_complexes(instantiate("an1", 2, (1,), ()))
    assert simplices(source.complex, 1) == [("0", "1"), ("1", "2")]
    assert target.thin == frozenset({("0", "1", "2")})
    assert not source.thin  # the middle triangle is not in the inner 2-horn
    source3, _ = generator_complexes(instantiate("an1", 3, (2,), ()))
    assert ("1", "2", "3") in source3.thin
    assert instantiate("an1", 2, (0,), ()) == NotAdmissible("an1 requires 0 < i < n")
    assert instantiate("an1", 3, (1, 2), ()) == NotAdmissible("an1 fills a horn that lacks one face, not 2")


def test_an2_instance():
    source, target = generator_complexes(instantiate("an2", 4, (), ()))
    assert source.thin == frozenset(
        {("0", "2", "4"), ("1", "2", "3"), ("0", "1", "3"), ("1", "3", "4"), ("0", "1", "2")}
    )
    assert target.thin - source.thin == frozenset({("0", "3", "4"), ("0", "1", "4")})
    assert target.complex == source.complex


def _inclusion(source, target):
    """The identity on the source's labels, checked a scaled map into the
    target: it is injective, and source and target share a label set."""
    assert source.complex.vertices == target.complex.vertices
    return ComplexMap(source, target, {v: v for v in source.complex.vertices})


def test_generator_inclusions_scaled_and_injective():
    for g in [instantiate("an1", 2, (1,), ()), instantiate("an1", 4, (2,), ()),
              instantiate("an2", 4, (), ()),
              instantiate("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3)))]:
        _inclusion(*generator_complexes(g))  # raises unless scaled


def test_instances_memoised_on_canonical_params():
    g = instantiate("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3)))
    assert instantiate("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3))) is g
    assert instantiate("an1", 3, (1,), ()) is instantiate("an1", 3, (1,), ())
    assert instantiate("an1", 3, (2,), ()) is not instantiate("an1", 3, (1,), ())
    with pytest.raises(TypeError):  # a keyword call would key a second memo entry
        instantiate("an1", 3, m=(1,), thin=())
    # a failure is memoised like an instance
    bad = instantiate("gen_horn", 4, (1, 2), ((0, 2, 3),))
    assert bad == NotAdmissible("inadmissible generalized horn: triangle (1,2,3) is not thin")
    assert instantiate("gen_horn", 4, (1, 2), ((0, 2, 3),)) is bad


def test_search_decides_each_inadmissible_horn_once(monkeypatch):
    """A search that tries an inadmissible generalized horn decides it once:
    a second search of the same pair reads the memoised failure."""
    # the 3-simplex from the horn that lacks its face d_1, nothing thin: the
    # generalized horn on M = (1,) needs (a, b, c) thin, so it is inadmissible
    goal = ScaledComplex(simplex_complex("abcd"), [])
    start = ScaledComplex(tower.horn("abcd", "b"), [])
    calls = []
    decide = generators.gen_horn_admissible
    monkeypatch.setattr(generators, "gen_horn_admissible", lambda *args: calls.append(args) or decide(*args))
    generators.instantiate.cache_clear()
    assert search_steps(_State(start), goal.complex.tuples, goal.thin, None) is None
    assert calls == [(3, (1,), ())]
    assert search_steps(_State(start), goal.complex.tuples, goal.thin, None) is None
    assert len(calls) == 1


def test_gen_horn_missing_face_count():
    source, target = generator_complexes(instantiate("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3))))
    missing = target.complex.tuples - source.complex.tuples
    assert len(missing) == 2 ** 2
    core = {"0", "3", "4"}
    assert all(core <= set(t) for t in missing)


def test_gen_horn_admissible_witness():
    v = gen_horn_admissible(4, {1, 2}, {(0, 2, 3), (1, 2, 3)})
    assert isinstance(v, Admissible) and v.s == 0


def test_gen_horn_thin_run_violation():
    v = gen_horn_admissible(4, {1, 2}, {(0, 2, 3)})
    assert isinstance(v, NotAdmissible)
    assert "not thin" in v.clause


def test_gen_horn_no_witness():
    v = gen_horn_admissible(3, {0, 1}, set())
    assert isinstance(v, NotAdmissible)


def test_gen_horn_no_index_below_the_run_is_named_first():
    """A run that starts at 0 leaves no index below it; with every triangle
    thin, the face opposite M would be the next clause to fail."""
    every_triple = set(combinations(range(5), 3))
    assert gen_horn_admissible(4, (0, 1), every_triple) == NotAdmissible(
        "inadmissible generalized horn: no index below the run ending at max(M)")


def test_gen_horn_size_clause():
    v = gen_horn_admissible(4, {1, 2, 3}, {(0, 1, 2), (1, 2, 3), (0, 2, 3), (2, 3, 4), (1, 3, 4), (0, 3, 4)})
    assert isinstance(v, NotAdmissible)
    assert "r-2" in v.clause


def test_gen_horn_opposite_face_thin_clause():
    thin = {(1, 2, 3), (0, 3, 4)}
    v = gen_horn_admissible(4, {1, 2}, thin)
    assert isinstance(v, NotAdmissible)
    assert "opposite" in v.clause


def test_gen_horn_preconditions():
    # a guard is a verdict, as a failed clause is, and no prefix names it inadmissible
    assert gen_horn_admissible(2, {1}, set()) == NotAdmissible("generalized horns need r >= 3")
    assert gen_horn_admissible(4, set(), set()) == NotAdmissible("M must be nonempty")
    assert gen_horn_admissible(4, {4}, set()) == NotAdmissible("M must be a subset of {0..r-1}")
    assert instantiate("gen_horn", 4, (4,), ()) == NotAdmissible("M must be a subset of {0..r-1}")


@pytest.mark.parametrize("kind", ["an3", "special_tc"])
def test_collapse_kinds_are_not_generators(kind):
    # theta's chains are spliced along the edge collapse; nothing records
    # the collapsed horn as a step of its own
    assert kind not in generators.KINDS
    assert instantiate(kind, 4, (), ()) == NotAdmissible(f"unknown generator kind '{kind}'")
    with pytest.raises(InputError, match=f"unknown step kind '{kind}'"):
        Step(kind, ())


def test_decoding_and_verifying_build_no_generator_complex(monkeypatch):
    cert = certify_inner_horn(4, 1)
    data = json.loads(canonical_dumps(certificate_to_json(cert)))
    # decoding builds the start and the target; a pickled or a deep copy
    # builds none, and none of the three builds a simplex or horn
    loads = {"json": (lambda: certificate_from_json(data), 2),
             "pickle": (lambda: pickle.loads(pickle.dumps(cert)), 0),
             "deepcopy": (lambda: copy.deepcopy(cert), 0)}
    init = OrderedComplex.__init__
    for name, (load, built) in loads.items():
        generators.instantiate.cache_clear()
        calls = []

        def counting(self, tuples, *, _validated=False):
            calls.append(_validated)
            init(self, tuples, _validated=_validated)

        monkeypatch.setattr(OrderedComplex, "__init__", counting)
        back = load()
        decoded = len(calls)
        assert verify_certificate(back).ok, name
        assert len(calls) == decoded, name  # the replay builds no complex at all
        monkeypatch.undo()
        assert canonical_dumps(certificate_to_json(back)) == canonical_dumps(certificate_to_json(cert)), name
        assert decoded == built, name


@pytest.mark.parametrize("kind, params", [
    ("an1", {"r": 2, "m": (1,)}),
    ("an1", {"r": 4, "m": (2,)}),
    ("an1", {"r": 3, "m": (1,)}),
    ("an2", {"r": 4, "m": ()}),
    ("an1", {"r": 5, "m": (4,)}),
    ("gen_horn", {"r": 5, "m": (2, 3, 4), "thin": ((1, 4, 5), (2, 4, 5), (3, 4, 5))}),
    ("gen_horn", {"r": 4, "m": (1, 2), "thin": ((0, 2, 3), (1, 2, 3))}),
    ("gen_horn", {"r": 3, "m": (1,), "thin": ((0, 1, 2), (0, 1, 3))}),
    ("gen_horn", {"r": 6, "m": (2, 3), "thin": ((1, 3, 4), (2, 3, 4))}),
])
def test_closed_form_shape_matches_the_built_complexes(kind, params):
    gen = instantiate(kind, params["r"], params["m"], params.get("thin", ()))
    src, tgt = generator_complexes(gen)
    # the shape lists only the source tuples the kernel did not read the
    # instance from: Delta^4 for an2, none for a horn, whose faces d_j,
    # j not in M, the kernel found in the state
    assert gen.source_tuples == (((0, 1, 2, 3, 4),) if kind == "an2" else ())

    # the shape holds positions 0..r, which the complexes label "0".."r"
    def labelled(tuples):
        return [tuple(map(str, t)) for t in tuples]

    assert src.complex.tuples == tgt.complex.tuples - set(labelled(gen.added))
    assert close_tuples(labelled(gen.source_tuples)) <= src.complex.tuples
    assert set(labelled(gen.source_thin)) == src.thin
    added = tgt.complex.tuples - src.complex.tuples
    assert set(labelled(gen.added)) == added and len(gen.added) == len(added)
    minimal = {t for t in added if all(f in src.complex.tuples for f in faces(t) if f)}
    assert minimal == set(labelled(gen.added[:1]))  # the core, a face of every target-only tuple
    assert all(set(gen.added[0]) <= set(t) for t in gen.added[1:])
    assert set(labelled(gen.added_thin)) == tgt.thin - src.thin
    assert GeneratorInstance(gen.kind, gen.r, gen.m, gen.thin) is gen


SHAPE = ("source_tuples", "source_thin", "added", "added_thin")


def _shape(gen: GeneratorInstance) -> tuple:
    return tuple(getattr(gen, name) for name in SHAPE)


def test_a_one_face_gen_horn_has_the_shape_of_an1():
    """A generalized horn that lacks one face d_t, declaring thin its one
    run triangle (t - 1, t, t + 1), is admissible exactly where an1 on the
    same face is, and the two add the same tuples and marks: an1 under
    another name.  At r = 2, where no generalized horn exists, an1 marks
    its triangle."""
    pairs = 0
    for r in range(3, 11):
        for t in range(1, r):
            gen = instantiate("gen_horn", r, (t,), ((t - 1, t, t + 1),))
            an1 = instantiate("an1", r, (t,), ())
            assert gen and an1, (r, t)
            assert _shape(gen) == _shape(an1), (r, t)
            pairs += 1
    assert pairs == 44
    assert instantiate("gen_horn", 2, (1,), ((0, 1, 2),)) == NotAdmissible("generalized horns need r >= 3")
    assert instantiate("an1", 2, (1,), ()).added_thin == ((0, 1, 2),)


DECLARATIONS = ("minimal", "maximal")


def _gen_horns(max_r: int, declaration: str) -> list[GeneratorInstance]:
    """Every admissible generalized horn (r, M) with r <= max_r, declaring
    thin its run triangles (i, t, t + 1), t = max(M): under the minimal
    declaration those with s <= i < t, under the maximal one every i < t,
    as `certificates.horn_instance` declares those thin in the state."""
    found = []
    for r in range(3, max_r + 1):
        for k in range(1, r):
            for m in combinations(range(r), k):
                t = s = m[-1]
                while s in m:
                    s -= 1
                low = max(s, 0) if declaration == "minimal" else 0
                gen = instantiate("gen_horn", r, m, tuple((i, t, t + 1) for i in range(low, t)))
                if gen:
                    found.append(gen)
    return found


@contextmanager
def _without_gen_horn() -> Iterator[None]:
    """Search with the generalized horns switched off: it tries only an1
    attaches and scaling extensions.  The kernel still accepts every kind."""
    decide = search.horn_instance
    search.horn_instance = lambda thin, kind, t, m: None if kind == "gen_horn" else decide(thin, kind, t, m)
    try:
        yield
    finally:
        search.horn_instance = decide


def expansion_failures(max_r: int, declaration: str) -> tuple[int, list[GeneratorInstance]]:
    """Search each horn of `_gen_horns(max_r, declaration)` from its source
    to its target with generalized horns switched off.  Return the count of
    horns and the list of those whose search found no certificate, found
    one with a step other than an1 or an2_marks, or found one the kernel
    rejects plain or audited."""
    gens = _gen_horns(max_r, declaration)
    failures = []
    with _without_gen_horn():
        for gen in gens:
            source, target = generator_complexes(gen)
            cert = search.search_decomposition(source, target, None)
            if (cert is None or not {step.kind for step in cert.steps} <= {"an1", "an2_marks"}
                    or not (verify_certificate(cert).ok and verify_certificate(cert, audit=True).ok)):
                failures.append(gen)
    return len(gens), failures


@pytest.mark.parametrize("declaration", DECLARATIONS)
def test_every_small_gen_horn_is_a_composite_of_elementary_steps(declaration):
    """Each admissible generalized horn with r <= 8, under the minimal run
    declaration and under the kernel's maximal one, has a certificate of
    an1 and an2_marks steps alone, which the kernel accepts plain and
    audited: the horn is a derived rule there.  CI runs the same to r = 10."""
    assert expansion_failures(8, declaration) == (438, [])


def test_no_small_gen_horn_with_an_unthin_run_triangle_expands():
    """With any one run triangle left unthin, search finds no elementary
    certificate for a horn with r <= 7, and the kernel does not admit the
    horn either.  A failed search proves nothing, so this pins the search
    and the kernel's run-thin clause, not the mathematics."""
    cases = 0
    with _without_gen_horn():
        for gen in _gen_horns(7, "minimal"):
            source, target = generator_complexes(gen)
            for tri in gen.thin:
                assert not instantiate("gen_horn", gen.r, gen.m, tuple(t for t in gen.thin if t != tri)), (gen, tri)
                unthin = {tuple(map(str, tri))}
                assert unthin <= source.thin
                found = search.search_decomposition(ScaledComplex(source.complex, source.thin - unthin),
                                                    ScaledComplex(target.complex, target.thin - unthin), None)
                assert found is None, (gen, tri)
                cases += 1
    assert cases == 326

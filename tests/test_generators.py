"""Generator instances and the generalized-horn criterion."""

import copy
import json
import pickle

import pytest

from scaledss import (
    Admissible,
    ComplexMap,
    GeneratorInstance,
    GeneratorPushout,
    InputError,
    NotAdmissible,
    OrderedComplex,
    ScaledComplex,
    ScaledMap,
    certify_inner_horn,
    gen_horn_admissible,
    generators,
    instantiate,
    simplex_complex,
    tower,
    verify_certificate,
)
from scaledss.complexes import close_tuples, faces
from scaledss.produce import certificate_to_json
from scaledss.search import search_steps
from scaledss.serialize import canonical_dumps, certificate_from_json
from support import simplices
from test_acceptance import replayed_generators


def test_an1_instance():
    source, target = tower.generator_complexes(instantiate("an1", 2, (1,), ()))
    assert simplices(source.complex, 1) == [("0", "1"), ("1", "2")]
    assert target.thin == frozenset({("0", "1", "2")})
    assert not source.thin  # the middle triangle is not in the inner 2-horn
    source3, _ = tower.generator_complexes(instantiate("an1", 3, (2,), ()))
    assert ("1", "2", "3") in source3.thin
    assert instantiate("an1", 2, (0,), ()) == NotAdmissible("an1 requires 0 < i < n")
    assert instantiate("an1", 3, (1, 2), ()) == NotAdmissible("an1 fills a horn that lacks one face, not 2")


def test_an2_instance():
    source, target = tower.generator_complexes(instantiate("an2", 4, (), ()))
    assert source.thin == frozenset(
        {("0", "2", "4"), ("1", "2", "3"), ("0", "1", "3"), ("1", "3", "4"), ("0", "1", "2")}
    )
    assert target.thin - source.thin == frozenset({("0", "3", "4"), ("0", "1", "4")})
    assert target.complex == source.complex


def _inclusion(source, target):
    """The identity on the source's labels, checked simplicial into the
    target: it is injective, and source and target share a label set."""
    assert source.complex.vertices == target.complex.vertices
    return ComplexMap(source.complex, target.complex, {v: v for v in source.complex.vertices})


def test_generator_inclusions_scaled_and_injective():
    for g in [instantiate("an1", 2, (1,), ()), instantiate("an1", 4, (2,), ()),
              instantiate("an2", 4, (), ()),
              instantiate("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3)))]:
        source, target = tower.generator_complexes(g)
        ScaledMap(_inclusion(source, target), source, target)  # raises unless scaled


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
    assert search_steps(start, goal) is None
    assert calls == [(3, (1,), ())]
    assert search_steps(start, goal) is None
    assert len(calls) == 1


def test_gen_horn_missing_face_count():
    source, target = tower.generator_complexes(instantiate("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3))))
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
    with pytest.raises(InputError, match=f"unknown generator kind '{kind}'"):
        GeneratorPushout(kind, ())


def test_instances_share_one_simplex_per_size():
    a = instantiate("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3)))
    b = instantiate("gen_horn", 4, (3,), ((1, 3, 4), (2, 3, 4)))
    (a_source, a_target), (b_source, b_target) = map(tower.generator_complexes, (a, b))
    assert a is not b and a_source != b_source
    assert a_target.complex is b_target.complex
    assert a_target.complex == simplex_complex([str(j) for j in range(5)])
    assert tower.generator_complexes(instantiate("an1", 4, (2,), ()))[1].complex is a_target.complex
    assert tower.generator_complexes(instantiate("an2", 4, (), ()))[1].complex is a_target.complex


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
        tower.generator_complexes.cache_clear()
        tower._simplex.cache_clear()
        tower._horn.cache_clear()
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
        assert tower.generator_complexes.cache_info().currsize == 0, name
        assert tower._simplex.cache_info().currsize == 0, name
        assert tower._horn.cache_info().currsize == 0, name

    instances = {gen for _, _, gen in replayed_generators(back)}
    # built on access: one horn per (r, M) and one full simplex per size
    sizes = {len(tower.generator_complexes(g)[1].complex.vertices) for g in instances}
    horns = {(g.r, g.m) for g in instances}
    assert len(instances) > len(horns) > 3 * len(sizes)
    assert tower._simplex.cache_info().currsize == len(sizes)
    assert tower._horn.cache_info().currsize == len(horns)


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
    tower.generator_complexes.cache_clear()
    gen = instantiate(kind, params["r"], params["m"], params.get("thin", ()))
    shape = gen.shape
    # the shape built no complex
    assert tower.generator_complexes.cache_info().currsize == 0
    src, tgt = tower.generator_complexes(gen)
    # the shape holds positions 0..r, which the complexes label "0".."r"
    assert set().union(*shape.source_tuples) == set(range(gen.r + 1))

    def labelled(tuples):
        return [tuple(map(str, t)) for t in tuples]

    assert close_tuples(labelled(shape.source_tuples)) == src.complex.tuples
    assert set(labelled(shape.source_thin)) == src.thin
    added = tgt.complex.tuples - src.complex.tuples
    assert set(labelled(shape.added)) == added and len(shape.added) == len(added)
    minimal = {t for t in added if all(f in src.complex.tuples for f in faces(t) if f)}
    assert minimal == set(labelled(shape.added[:1]))  # the core, a face of every target-only tuple
    assert all(set(shape.added[0]) <= set(t) for t in shape.added[1:])
    assert set(labelled(shape.added_thin)) == tgt.thin - src.thin
    assert GeneratorInstance(gen.kind, gen.r, gen.m, gen.thin) is gen

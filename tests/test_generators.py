"""Generator instances and the generalized-horn criterion."""

import copy
import json
import pickle

import pytest

from scaledss import (
    Admissible,
    ComplexMap,
    GeneratorInstance,
    InputError,
    NotAdmissible,
    OrderedComplex,
    Transport,
    certify_inner_horn,
    check_scaled_map,
    gen_horn_admissible,
    generators,
    instantiate,
    simplex_complex,
    tower,
    verify_certificate,
)
from scaledss.complexes import close_tuples, faces
from scaledss.produce import certificate_to_json
from scaledss.serialize import canonical_dumps, certificate_from_json
from test_acceptance import replayed_generators


def test_an1_instance():
    source, target = tower.generator_complexes(instantiate("an1", n=2, i=1))
    assert source.complex.simplices(1) == [("0", "1"), ("1", "2")]
    assert target.thin == frozenset({("0", "1", "2")})
    assert not source.thin  # the middle triangle is not in the inner 2-horn
    source3, _ = tower.generator_complexes(instantiate("an1", n=3, i=2))
    assert ("1", "2", "3") in source3.thin
    with pytest.raises(InputError):
        instantiate("an1", n=2, i=0)


def test_an2_instance():
    source, target = tower.generator_complexes(instantiate("an2"))
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
    for g in [instantiate("an1", n=2, i=1), instantiate("an1", n=4, i=2),
              instantiate("an2"),
              instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3)))]:
        source, target = tower.generator_complexes(g)
        assert check_scaled_map(_inclusion(source, target), source, target) is None


def test_instances_memoised_on_canonical_params():
    g = instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3)))
    assert instantiate("gen_horn", r=4, m=[2, 1, 2], thin=[[1, 2, 3], (0, 2, 3)]) is g
    assert instantiate("an1", n=3, i=1) is instantiate("an1", i=1, n=3)
    assert instantiate("an1", n=3, i=2) is not instantiate("an1", n=3, i=1)
    for bad in ({"n": 3.0, "i": 1}, {"n": 3, "i": True}, {"n": "3", "i": 1}):
        with pytest.raises(InputError):
            instantiate("an1", **bad)
    with pytest.raises(InputError):
        instantiate("gen_horn", r=4, m=1, thin=())


def test_gen_horn_missing_face_count():
    source, target = tower.generator_complexes(instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3))))
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
    with pytest.raises(InputError):
        gen_horn_admissible(2, {1}, set())
    with pytest.raises(InputError):
        gen_horn_admissible(4, set(), set())
    with pytest.raises(InputError):
        gen_horn_admissible(4, {4}, set())


@pytest.mark.parametrize("kind", ["an3", "special_tc"])
def test_collapse_kinds_are_not_generators(kind):
    # a quotient transport is checked as a pushout; nothing records the
    # collapsed horn as a step of its own
    with pytest.raises(InputError, match=f"unknown generator kind '{kind}'"):
        instantiate(kind)


@pytest.mark.parametrize("kind, params, name", [
    ("an1", {"n": 3}, "'i'"),
    ("an1", {"i": 1}, "'n'"),
    ("gen_horn", {"r": 4, "m": (1, 2)}, "'thin'"),
    ("gen_horn", {"r": 3}, "'m'"),
    ("gen_horn", {"m": (1,)}, "'r'"),
    ("an1", {"n": 3, "i": 1, "bogus": 2}, "'bogus'"),
    ("an2", {"n": 4}, "'n'"),
    ("an2", {"bogus": 2}, "'bogus'"),
    ("gen_horn", {"r": 4, "m": (1, 2), "thin": (), "witness_s": 0}, "'witness_s'"),
])
def test_instantiate_names_missing_and_unexpected_parameters(kind, params, name):
    with pytest.raises(InputError, match=name):
        instantiate(kind, **params)


def test_instances_share_one_simplex_per_size():
    a = instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3)))
    b = instantiate("gen_horn", r=4, m=(3,), thin=((1, 3, 4), (2, 3, 4)))
    (a_source, a_target), (b_source, b_target) = map(tower.generator_complexes, (a, b))
    assert a is not b and a_source != b_source
    assert a_target.complex is b_target.complex
    assert a_target.complex == simplex_complex([str(j) for j in range(5)])
    assert tower.generator_complexes(instantiate("an1", n=4, i=2))[1].complex is a_target.complex
    assert tower.generator_complexes(instantiate("an2"))[1].complex is a_target.complex


def _walk(c):
    yield c
    for step in c.steps:
        if isinstance(step, Transport):
            yield from _walk(step.inner)


def test_decoding_and_verifying_build_no_generator_complex(monkeypatch):
    cert = certify_inner_horn(4, 1)
    data = json.loads(canonical_dumps(certificate_to_json(cert)))
    certs = list(_walk(cert))
    # decoding builds each certificate's start and target; a pickled or a
    # deep copy builds none, and none of the three builds a simplex or horn
    loads = {"json": (lambda: certificate_from_json(data), 2 * len(certs)),
             "pickle": (lambda: pickle.loads(pickle.dumps(cert)), 0),
             "deepcopy": (lambda: copy.deepcopy(cert), 0)}
    init = OrderedComplex.__init__
    for name, (load, built) in loads.items():
        generators._instantiate.cache_clear()
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
    horns = {(p["r"], p["m"]) if g.kind == "gen_horn" else (p["n"], (p["i"],))
             for g, p in ((g, dict(g.params)) for g in instances)}
    assert len(instances) > len(horns) > 3 * len(sizes)
    assert tower._simplex.cache_info().currsize == len(sizes)
    assert tower._horn.cache_info().currsize == len(horns)


@pytest.mark.parametrize("kind, params", [
    ("an1", {"n": 2, "i": 1}),
    ("an1", {"n": 4, "i": 2}),
    ("an1", {"n": 3, "i": 1}),
    ("an2", {}),
    ("an1", {"n": 5, "i": 4}),
    ("gen_horn", {"r": 5, "m": (2, 3, 4), "thin": ((1, 4, 5), (2, 4, 5), (3, 4, 5))}),
    ("gen_horn", {"r": 4, "m": (1, 2), "thin": ((0, 2, 3), (1, 2, 3))}),
    ("gen_horn", {"r": 3, "m": (1,), "thin": ((0, 1, 2), (0, 1, 3))}),
    ("gen_horn", {"r": 6, "m": (2, 3), "thin": ((1, 3, 4), (2, 3, 4))}),
])
def test_closed_form_shape_matches_the_built_complexes(kind, params):
    tower.generator_complexes.cache_clear()
    gen = instantiate(kind, **params)
    shape = gen.shape
    # the shape built no complex
    assert tower.generator_complexes.cache_info().currsize == 0
    src, tgt = tower.generator_complexes(gen)
    assert shape.vertices == tgt.complex.vertices
    assert close_tuples(shape.source_tuples) == src.complex.tuples
    assert set(shape.source_thin) == src.thin
    added = tgt.complex.tuples - src.complex.tuples
    assert set(shape.added) == added and len(shape.added) == len(added)
    minimal = {t for t in added if all(f in src.complex.tuples for f in faces(t) if f)}
    assert minimal <= set(shape.added[:shape.must_miss])
    assert set(shape.added_thin) == tgt.thin - src.thin
    assert GeneratorInstance(gen.kind, gen.params) is gen


def test_gen_horn_thin_triples_must_be_triangles_of_the_simplex():
    with pytest.raises(InputError, match="not a 2-simplex"):
        instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3), (3, 2, 4)))
    with pytest.raises(InputError, match="not a 2-simplex"):
        instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3), (2, 3, 5)))

"""Generator instances and the generalized-horn criterion."""

import copy
import json
import pickle

import pytest

from scaledss import (
    Admissible,
    BatchPushout,
    ComplexMap,
    GeneratorInstance,
    GeneratorPushout,
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


def test_an1_instance():
    g = instantiate("an1", n=2, i=1)
    assert g.source.complex.simplices(1) == [("0", "1"), ("1", "2")]
    assert g.target.thin == frozenset({("0", "1", "2")})
    assert not g.source.thin  # the middle triangle is not in the inner 2-horn
    g3 = instantiate("an1", n=3, i=2)
    assert ("1", "2", "3") in g3.source.thin
    with pytest.raises(InputError):
        instantiate("an1", n=2, i=0)


def test_an2_instance():
    g = instantiate("an2")
    assert g.source.thin == frozenset(
        {("0", "2", "4"), ("1", "2", "3"), ("0", "1", "3"), ("1", "3", "4"), ("0", "1", "2")}
    )
    assert g.target.thin - g.source.thin == frozenset({("0", "3", "4"), ("0", "1", "4")})
    assert g.target.complex == g.source.complex


def _inclusion(g):
    """The identity on the source's labels, checked simplicial into the
    target: it is injective, and source and target share a label set."""
    assert g.source.complex.vertices == g.target.complex.vertices
    return ComplexMap(g.source.complex, g.target.complex, {v: v for v in g.source.complex.vertices})


def test_generator_inclusions_scaled_and_injective():
    for g in [instantiate("an1", n=2, i=1), instantiate("an1", n=4, i=2),
              instantiate("an2"),
              instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3)))]:
        assert check_scaled_map(_inclusion(g), g.source, g.target) is None


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
    g = instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3)))
    missing = g.target.complex.tuples - g.source.complex.tuples
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
    assert a is not b and a.source != b.source
    assert a.target.complex is b.target.complex
    assert a.target.complex == simplex_complex([str(j) for j in range(5)])
    assert instantiate("an1", n=4, i=2).target.complex is a.target.complex
    assert instantiate("an2").target.complex is a.target.complex


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

    certs = list(_walk(back))
    instances = {s.gen for c in certs for s in c.steps if isinstance(s, GeneratorPushout)}
    instances |= {i.gen for c in certs for s in c.steps if isinstance(s, BatchPushout) for i in s.items}
    # built on access: one horn per (r, M) and one full simplex per size
    sizes = {len(g.target.complex.vertices) for g in instances}
    horns = {(g.param("r"), g.param("m")) if g.kind == "gen_horn" else (g.param("n"), (g.param("i"),))
             for g in instances}
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
    # neither the size nor the shape built the complexes
    assert gen.size and tower.generator_complexes.cache_info().currsize == 0
    src, tgt = gen.source, gen.target
    assert gen.size == len(tgt.complex.vertices)
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

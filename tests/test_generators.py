"""Generator instances and the generalized-horn criterion."""

import json

import pytest

from scaledss import (
    Admissible,
    BatchPushout,
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
)
from scaledss.serialize import canonical_dumps, certificate_from_json, certificate_to_json


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
    assert g.added_thin == frozenset({("0", "3", "4"), ("0", "1", "4")})
    assert not g.added_tuples


def test_an3_instance():
    g = instantiate("an3", n=3)
    assert sorted(g.source.complex.vertices) == ["0", "2", "3"]
    assert g.source.complex == g.target.complex  # the collapse identifies the halves
    with pytest.raises(InputError):
        instantiate("an3", n=2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_an3_collapse_is_regular(n):
    # never raises IrregularCollapse: 0 and 1 are adjacent in every chain
    g = instantiate("an3", n=n)
    assert g.inclusion.map.is_injective()


def test_generator_inclusions_scaled_and_injective():
    for g in [instantiate("an1", n=2, i=1), instantiate("an1", n=4, i=2),
              instantiate("an2"), instantiate("an3", n=3),
              instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3))),
              instantiate("special_tc")]:
        assert g.inclusion.map.is_injective()
        assert check_scaled_map(g.inclusion.map, g.source, g.target) is None


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


def test_special_tc_shape():
    g = instantiate("special_tc")
    assert g.source == g.target
    assert sorted(g.source.complex.vertices) == ["0", "2"]


@pytest.mark.parametrize("kind, params, name", [
    ("an1", {"n": 3}, "'i'"),
    ("an1", {"i": 1}, "'n'"),
    ("an3", {}, "'n'"),
    ("gen_horn", {"r": 3}, "'m'"),
    ("gen_horn", {"m": (1,)}, "'r'"),
    ("an1", {"n": 3, "i": 1, "bogus": 2}, "'bogus'"),
    ("an2", {"n": 4}, "'n'"),
    ("special_tc", {"bogus": 2}, "'bogus'"),
    ("gen_horn", {"r": 4, "m": (1, 2), "witness_s": 0}, "'witness_s'"),
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


def test_decoding_builds_each_simplex_once(monkeypatch):
    cert = certify_inner_horn(4, 1)
    data = json.loads(canonical_dumps(certificate_to_json(cert)))
    generators._instantiate.cache_clear()
    generators._simplex.cache_clear()
    calls = []
    init = OrderedComplex.__init__

    def counting(self, tuples, *, _validated=False):
        calls.append(_validated)
        init(self, tuples, _validated=_validated)

    monkeypatch.setattr(OrderedComplex, "__init__", counting)
    back = certificate_from_json(data)
    monkeypatch.undo()
    assert canonical_dumps(certificate_to_json(back)) == canonical_dumps(certificate_to_json(cert))

    def walk(c):
        yield c
        for step in c.steps:
            if isinstance(step, Transport):
                yield from walk(step.inner)

    certs = list(walk(back))
    instances = {s.gen for c in certs for s in c.steps if isinstance(s, GeneratorPushout)}
    instances |= {i.gen for c in certs for s in c.steps if isinstance(s, BatchPushout) for i in s.items}
    sizes = {len(g.target.complex.vertices) for g in instances}
    assert len(instances) > 3 * len(sizes)
    # one horn per instance, one full simplex per size, and each
    # certificate's start and target
    assert len(calls) == len(instances) + len(sizes) + 2 * len(certs)

"""The immutable value classes: equality, hashing, immutability and
construction, as frozen dataclasses had them."""

import copy
import pickle

import pytest

from scaledss import (
    Admissible,
    Certificate,
    GeneratorInstance,
    GeneratorPushout,
    InputError,
    NotAdmissible,
    ScalingExtension,
    VerifyReport,
    certify_lemma_plus,
    instantiate,
    theta_complexes,
)
from scaledss.record import Record, set_field


def _cert():
    return certify_lemma_plus(2, 1)


def _records():
    gen = instantiate("an1", 2, (1,), ())
    cert = _cert()
    return [
        Admissible(2),
        NotAdmissible("a clause"),
        GeneratorPushout("an1", ("a", "b", "c")),
        ScalingExtension(("a", "b", "b", "c", "d")),
        cert,
        VerifyReport(True, None, (("an1", 1),), 1),
        theta_complexes(1),
        gen,
    ]


def _fields(rec):
    return {name: getattr(rec, name) for name in type(rec).__slots__ if not name.startswith("_")}


@pytest.mark.parametrize("rec", _records(), ids=lambda r: type(r).__name__)
def test_record_is_an_immutable_value(rec):
    cls = type(rec)
    assert isinstance(rec, Record)
    assert not hasattr(rec, "__dict__")
    fields = rec._fields()
    # equal to an equal record, and hashed alike where the fields hash
    twin = copy.copy(rec)
    assert twin == rec and not (twin != rec)
    assert hash(twin) == hash(rec)
    assert len({rec, twin}) == 1
    assert pickle.loads(pickle.dumps(rec)) == rec
    # never equal to a tuple, or to a record of another class with equal fields
    assert rec != fields and fields != rec
    for other_cls in (type("Sibling", (Record,), {"__slots__": cls.__slots__}),
                      type("Subclass", (cls,), {"__slots__": ()})):
        other = object.__new__(other_cls)  # not through a class's own __new__
        for name in cls.__slots__:
            set_field(other, name, getattr(rec, name))
        assert rec != other and other != rec
    # assignment and deletion raise
    name = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.unknown = 1
    assert rec._fields() == fields


@pytest.mark.parametrize("rec", [r for r in _records() if not isinstance(r, GeneratorInstance)],
                         ids=lambda r: type(r).__name__)
def test_record_keyword_construction(rec):
    assert type(rec)(**_fields(rec)) == rec


def test_generator_instance_keyword_construction_and_equality():
    gen = instantiate("an1", 2, (1,), ())
    assert GeneratorInstance(kind="an1", r=2, m=(1,), thin=()) is gen
    assert GeneratorInstance("an1", 2, (1,), ()) is gen
    # the source, target and shape are derived, never given
    with pytest.raises(TypeError):
        GeneratorInstance("an1", 2, (1,), (), None)
    assert gen != instantiate("an1", 3, (1,), ())
    assert repr(gen) == "GeneratorInstance(kind='an1', r=2, m=(1,), thin=())"
    horn = instantiate("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3)))
    assert GeneratorInstance("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3))) is horn
    # the witness is derived: the value is the kind, r, M and the run
    assert horn.witness_s == 0 and gen.witness_s is None
    assert horn._fields() == ("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3)))
    # a value that is no generator is an input error naming the clause
    with pytest.raises(InputError, match="unknown generator kind 'an3'"):
        GeneratorInstance("an3", 4, (), ())
    with pytest.raises(InputError, match=r"inadmissible generalized horn: triangle \(1,2,3\) is not thin"):
        GeneratorInstance("gen_horn", 4, (1, 2), ((0, 2, 3),))


def test_generator_instance_copies_are_the_memoised_instance():
    from scaledss import tower

    tower.generator_complexes.cache_clear()
    gen = instantiate("an1", 22, (1,), ())
    for twin in (copy.copy(gen), copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))):
        assert twin is gen
    # no copy built the source or target
    assert tower.generator_complexes.cache_info().currsize == 0


def test_certificate_rejects_an_unknown_class():
    cert = _cert()
    with pytest.raises(InputError, match="unknown certificate class"):
        Certificate("bogus", cert.start, cert.target, cert.steps)
    with pytest.raises(InputError, match="unknown certificate class"):
        Certificate(claimed_class="bogus", start=cert.start, target=cert.target, steps=())
    assert Certificate("trivial_cofibration", cert.start, cert.start, ()).metadata == ()


def test_failed_checks_are_falsy():
    assert not NotAdmissible("x")
    assert Admissible(0)

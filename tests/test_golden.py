"""Golden SHA-256 hashes of canonical certificate bytes.

A refactor must keep every certificate byte-identical; a change that alters
one of these hashes changes the wire output and has to say why.
"""

import hashlib
from functools import lru_cache

import pytest

from scaledss import (
    certify_cosegal,
    certify_inner_horn,
    certify_lemma_minus,
    certify_lemma_plus,
    certify_theta,
)
from scaledss.certificates import _State, apply_step, step_kind
from scaledss.generators import KINDS
from scaledss.search import search_decomposition
from scaledss.produce import certificate_to_json
from scaledss.serialize import canonical_dumps
from support import batched_cosegal, batched_half, batched_inner_horn, nested_theta, stage_log
from test_acceptance import criterion_8_trials
from test_certificates import SEARCHED_SWEEPS
from test_complexes import face_pass_maximal

# inner and cosegal hold the steps of their halves' stages, and cosegal
# those of each lower level, all run in place on one state, where they
# once held injective transports; their hashes were re-pinned for that,
# and held when the parts stopped being built apart and replayed.  plus,
# minus, inner and cosegal hold the items of each batch, in order, where
# they once held a batch step (see `BATCHED_GOLDEN`); their hashes were
# re-pinned for that and for nothing else.  theta once held two quotient
# transports of its chains (see `NESTED_THETA_GOLDEN`), then their steps
# relabelled through the edge collapse; its steps are now searched on the
# collapsed level itself, ten as before: for i = 0 the same steps in a new
# order, for i = 1 with one an1 and one an2_marks step different.  Its
# hashes were re-pinned for that.
GOLDEN = {
    ("plus", 2, 1): "4760e0d6b7bdfe6bfe4962a8cf0383264a31fc13ba4967903e8226ee24eca901",
    ("minus", 2, 1): "7c2e420e93a36cfee7d99f02e2895e04d9d2319ce33a4216e51cf2b6cdfa9db9",
    ("inner", 2, 1): "18b771326bbfa98e11c39943152c61b5f1796605a9ba2fcaa40f00ede1c591f1",
    ("plus", 3, 1): "2102df737cd1fad0d201e57f44f4e3da1fa3fff97ea98d18ba0896b01cd87ef9",
    ("minus", 3, 1): "77741a44c4a2046db2b864c446721ce12b678ff69d9db887b56b23547a9b0b0d",
    ("inner", 3, 1): "ec08678fb2811b3454da1f0b736885ce202478ac3b8d482d34d6c00068d9aedb",
    ("plus", 4, 1): "9bc6a0395b5825b12ab222b35fc9f045908323bebc29caaaa3bda7f8c37efe51",
    ("minus", 4, 1): "f86380bf8fd3607545b317c5da800775926300b8ea04557ad569ea9802d7a27d",
    ("inner", 4, 1): "2cffc2448089d073246b6316a1405c65f5364076f47583931213a5dec96e5534",
    ("cosegal", 2, None): "700e5150336848ed38fbde18650cc589c41425e2c06176f03e7ea55522157e2f",
    ("cosegal", 3, None): "e64827ef6fe0188ab4b160e63564c8779f9ae3a4e55d6b1a82cdf6d8b320cdec",
    ("theta", None, 0): "6ab10e8cc99c255eb3b9fa40a2dab10342598a2f3a5126237a88220855b843f2",
    ("theta", None, 1): "c6bafa1461c1a634556637c0c2db40b041be8237741a1dc1ce91e00ddbee6a3b",
    ("plus", 5, 1): "3f19d7c2df76a3c52136ec376fe4e62f76f64f91f4ed979f914e77a9131fb38a",
    ("minus", 5, 1): "75a8056e6678ef5ee44f3c38fdebff87dfe70f8ced8342cd51c509711435adf1",
    ("inner", 5, 1): "22a80addb072a47b588e946f773dd23ea3f8fcb2fbc1cd7a12bce3c21f8038be",
    ("cosegal", 4, None): "68d1c4815e766cbffed6343b902963a8d15a4c4dfc37bbbacc0e71d62c19df47",
    # beyond the ladder: higher levels and a middle horn
    ("plus", 6, 2): "7c0829d3609502b0790587ac61f21987fc388ce548e7e50d27b721b37a867d4c",
    ("minus", 6, 4): "ce51a7ec2fab8c74da5d26adbfb511d6a13a03c18767fa851a52e4f295f7b118",
    ("inner", 5, 3): "7e82d6cf66c6403f5d95ab04e9a1056cfeddcb8e48f84b38a6359dae560cfeb8",
    ("cosegal", 5, None): "3453edd375c958863a6ead090e31c22c9a3b2588a818ab3aabdc93394c7989c4",
    ("cosegal", 6, None): "c116510b222b76750b8c251de69cb223508110050a6bf3783275af4cf2b0f539",
}

CERTIFY = {
    "plus": certify_lemma_plus,
    "minus": certify_lemma_minus,
    "inner": certify_inner_horn,
    "cosegal": lambda n, i: certify_cosegal(n),
    "theta": lambda n, i: certify_theta(i),
}


@lru_cache(maxsize=None)
def _ladder(lemma, n, i):
    """A ladder certificate, and the log of the stages its build ran (see
    `support.stage_log`)."""
    with stage_log() as log:
        cert = CERTIFY[lemma](n, i)
    return cert, tuple(log)


def ladder_certificate(lemma, n, i):
    return _ladder(lemma, n, i)[0]


@pytest.mark.parametrize("lemma,n,i", sorted(GOLDEN, key=str))
def test_certificate_bytes_pinned(lemma, n, i):
    cert = ladder_certificate(lemma, n, i)
    blob = canonical_dumps(certificate_to_json(cert)).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[(lemma, n, i)]
    for cx in (cert.start.complex, cert.target.complex):
        assert cx.maximal() == face_pass_maximal(cx)


def test_every_step_form_occurs_in_the_ladder():
    """Each step form the kernel accepts is one that `certify` writes: a
    form that no certificate of the ladder holds is code that no producer
    runs."""
    seen = set()
    for key in GOLDEN:
        seen.update(map(step_kind, ladder_certificate(*key).steps))
    forms = {*KINDS, "an2_marks"}
    assert forms <= seen, sorted(forms - seen)


# The stages that fall back to search, as the README lists them: the stages
# that name no cells, and the plus half's sweep s = n at n = 2 and 3, whose
# top cell has no admissible horn.  Every other sweep stage attaches its cells.
SEARCHED_STAGES = {"rows", "middle row", "prisms", "spine-to-horn", "theta", "sweep s=2", "sweep s=3"}


def test_the_stages_that_search_are_pinned():
    searched = {key: {name for name, _, _, fell_back in _ladder(*key)[1] if fell_back} for key in GOLDEN}
    assert set().union(*searched.values()) == SEARCHED_STAGES
    sweeps = {(lemma, n, name) for (lemma, n, _), names in searched.items() if lemma in ("plus", "minus")
              for name in names if name.startswith("sweep")}
    assert sweeps == {(half, n, f"sweep s={s}") for half, n, s in SEARCHED_SWEEPS}
    # every other sweep stage attaches its cells: it adds steps without search
    for key in GOLDEN:
        for name, before, after, fell_back in _ladder(*key)[1]:
            if name.startswith("sweep") and not fell_back:
                assert after > before, (key, name)


def test_the_stages_of_a_build_chain_over_its_steps():
    """Every stage of a build runs on the one state of the certificate it
    writes, parts of a composite too: the stages' step ranges follow one
    another from 0 to the last step, and no step is pushed outside them."""
    for key in GOLDEN:
        cert, log = _ladder(*key)
        bounds = [0] + [b for _, before, after, _ in log for b in (before, after)] + [len(cert.steps)]
        assert bounds[0::2] == bounds[1::2], key


# plus(3,1), inner(2,1) and cosegal(3) as `certify` wrote them while a stage
# attached its cells as one batch step: the values `GOLDEN` held then.
BATCHED_GOLDEN = {
    "plus31": "7adb6900e0e4824f332ffe98cc3725531c329304bddf43af0f5853762db397f5",
    "inner21": "e115deefa289b239ea253a92920fd9881d8faea484dc9b4eddbb19ba144b498d",
    "cosegal3": "6828ffd3819161d730475c8ecae83b465cbcd6dea3b85a822b98b8cc78c73c27",
}
BATCHED = {
    "plus31": lambda: batched_half(certify_lemma_plus, 3, 1),
    "inner21": lambda: batched_inner_horn(2, 1),
    "cosegal3": lambda: batched_cosegal(3),
}


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_the_batched_files_are_rebuilt_byte_for_byte(name):
    """`support` rebuilds the older batched files that the README's
    conversion line is checked on."""
    blob = canonical_dumps(BATCHED[name]()).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == BATCHED_GOLDEN[name]


# theta(0) and theta(1) as `certify` wrote them while each chain sat whole
# in a transport step along the edge collapse.
NESTED_THETA_GOLDEN = {
    0: "8d720bb80199d0eed277d9059c73fad482eb1500b3f6a2105bedee1e2aee8e14",
    1: "3c9434aaf7408c2077524b2e5f03c318e6e44cf554da94fd4f738ba067e4d9a0",
}


@pytest.mark.parametrize("i", [0, 1])
def test_the_nested_theta_files_are_rebuilt_byte_for_byte(i):
    """`support.nested_theta` rebuilds the older theta files that the
    README's conversion line is checked on."""
    blob = canonical_dumps(nested_theta(i)).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == NESTED_THETA_GOLDEN[i]


# Search output on criterion 8's 1000 seeded trials on ts(2): each trial's
# canonical certificate bytes, or "none" where the search gives up, one
# line each.
SEARCH_GOLDEN = "425e5b98b63dff69426f59741fcbd28726ff699b3473b073ddcef325ceb3c9c5"


@lru_cache(maxsize=None)
def _search_trials() -> tuple:
    """The certificate search finds on each of criterion 8's trials, or None."""
    return tuple(search_decomposition(a, b, 64) for a, b in criterion_8_trials())


def test_search_output_pinned():
    digest = hashlib.sha256()
    for cert in _search_trials():
        line = "none\n" if cert is None else canonical_dumps(certificate_to_json(cert))
        digest.update(line.encode("utf-8"))
    assert digest.hexdigest() == SEARCH_GOLDEN


def _empty_steps(cert) -> list[int]:
    """The positions of the steps of `cert` that add no tuple and no mark."""
    state = _State(cert.start)
    return [idx for idx, step in enumerate(cert.steps) if not any(apply_step(state, step))]


def test_every_kept_step_adds_a_tuple_or_a_mark():
    """Each step that a stage or a search keeps grows the state, in every
    pinned certificate and every certificate criterion 8's search finds.
    The stopping argument of `search.search_steps` rests on it."""
    certs = [ladder_certificate(*key) for key in GOLDEN] + [c for c in _search_trials() if c is not None]
    assert {i: empty for i, c in enumerate(certs) if (empty := _empty_steps(c))} == {}


# Tower objects and reports at n = 4, as the CLI prints them: the canonical
# JSON of each level, face and horn variant, and of each check's report; also
# the plus half at n = 5, the fixed objects of the completeness chains, and
# the thin audits at n = 6 and the duality check up to n = 5.
TOWER_GOLDEN = {
    ("audit", "thin", "--n", "6", "--part", "full"): "9dfacbf6b01046dbfc7031012a4c7e574c6fb915ae48e2a7352c9d47ac747c3d",
    ("audit", "thin", "--n", "6", "--part", "minus"): "236f4109e62b1a33434bbc02c3a9d01be8e6b95099a3fb56d8a7809acf02a509",
    ("audit", "thin", "--n", "6", "--part", "plus"): "39e1823c371f9ea48305af6a3158d0e0ca2d8e97434f5523867a00a8a39a9bba",
    ("audit", "thin", "--n", "4", "--part", "full"): "081ef2f74b30dcab42828353f27370c5313a8ad94f9d0e0f2c63c7e97538d57c",
    ("audit", "thin", "--n", "4", "--part", "minus"): "060b07816d76b694718898e400a37d56cb15de308dbdddc2e4721b080bc3849d",
    ("audit", "thin", "--n", "4", "--part", "plus"): "c8f1c9cf81b52690e4c70932135f0ff7d0912359a555ceb6fe5919cba2dcb729",
    ("build", "--object", "face", "--n", "4", "--face", "B"): "85b90095b424463290f5f943950daa27a5facbb30b7dd5cffe7f961ac62aa124",
    ("build", "--object", "face", "--n", "4", "--face", "F"): "175319470d197a338f398e8bfbca946021ad70735f1a2cfabe03c22e2c492d6d",
    ("build", "--object", "face", "--n", "4", "--face", "R"): "6d30cad4a4f604df718293445d2479e2c5f79ddbb411c28811e012e7e2478066",
    ("build", "--object", "face", "--n", "4", "--face", "T"): "eb866a5b0756335d727040914a3d89568af33da3cfb01d9fbbfaf0133270036d",
    ("build", "--object", "horn", "--n", "4", "--i", "1", "--variant", "bar_minus"): "1c06abe6a912ffd9175c6ce3e0d64ddde29c413f990b42e3dfa8ef5b281bb179",
    ("build", "--object", "horn", "--n", "4", "--i", "1", "--variant", "bar_plus"): "e6d8c5cf11a88792dc4fcd0b59c1e65c221f0d145113b4e1c64ef7fc06be5d57",
    ("build", "--object", "horn", "--n", "4", "--i", "1", "--variant", "full"): "8e5c079ec3758f6683ad2a014658f24699cc89b918b181600b5ca750cc6c9ab3",
    ("build", "--object", "horn", "--n", "4", "--i", "1", "--variant", "hat_minus"): "a274f99c2156e14ccfc37c2c3215041b8ba430b175246293569e76d2247ba01a",
    ("build", "--object", "horn", "--n", "4", "--i", "1", "--variant", "plus"): "0dc127f2ee0e020ec5eca32b509a37fd2cc74b4623c163b79a7ab9bfdecbcb70",
    ("build", "--object", "horn", "--n", "4", "--i", "2", "--variant", "bar_minus"): "26cc8acef70d477addc979fbebebe908661ede22994dfa29344f36c8aca20e6f",
    ("build", "--object", "horn", "--n", "4", "--i", "2", "--variant", "bar_plus"): "b5f36e168bcdfbda944d8501f98568dacf7146d91cc300b139dbbc3909d586b6",
    ("build", "--object", "horn", "--n", "4", "--i", "2", "--variant", "full"): "d351975d0d0e83a553dfd73d2e804cf78f31c2279de25f0f098a1d0d1563f511",
    ("build", "--object", "horn", "--n", "4", "--i", "2", "--variant", "hat_minus"): "786bf99ad9aac760c1bea65611ac763f14a0398019229d129d058a883809b0a5",
    ("build", "--object", "horn", "--n", "4", "--i", "2", "--variant", "plus"): "8a1873d4bb71df076b17fd2c969f41eb86dacb663225e1981de88d111099b500",
    ("build", "--object", "horn", "--n", "4", "--i", "3", "--variant", "bar_minus"): "ac64b435a4a47430ac93589df644032881980e1510a2d455076e75f29f5a3dca",
    ("build", "--object", "horn", "--n", "4", "--i", "3", "--variant", "bar_plus"): "7419b63c73d69e28644ece9378b21946d4217ab7e202b9781db32333ef5135c3",
    ("build", "--object", "horn", "--n", "4", "--i", "3", "--variant", "full"): "d759726b1ad652cfa3f2e892117cfe489bdb5bd0384bf2ee86aa2e5e85570395",
    ("build", "--object", "horn", "--n", "4", "--i", "3", "--variant", "hat_minus"): "16469a04ff2bb06178c65ab0a6dc7ec3fb18b09c29fabdc30805f9690f9afc9a",
    ("build", "--object", "horn", "--n", "4", "--i", "3", "--variant", "plus"): "0fc360d19dc10be61a455c1d6a3bddcac1980f888d40fa7bf9d0a2bbddaec914",
    ("build", "--object", "ts", "--n", "4"): "212257f6246e7e4e3dd0c6b4227a8a961d2d7ad3e13e1b2a29e4e8bbe1bff4c7",
    ("build", "--object", "ts-minus", "--n", "4"): "64068c38d5248dfb30b64ed042a3deeaf6d9e0dd3581c0cfc2685d9c31846dca",
    ("build", "--object", "ts-plus", "--n", "4"): "f67dbdb1f1bafa43d047e67e7a2c9f43d88b0b1978544bdfbbced797b4f16e0a",
    ("build", "--object", "ts-plus", "--n", "5"): "80dc34985b1ce5818e21c8cc384008f1c78055029e7e736be05657df9e3d97ce",
    ("build", "--object", "oplax-square"): "6c7f7d00c6462820a15f9ad01b40736c51e47d6632aa671dbf69378fe26461cf",
    ("build", "--object", "tilde-ts1"): "964666c5a74d65e428bb7da2163e67c78a3a37326be126b134580d99fe02a54e",
    ("build", "--object", "fsr", "--i", "0"): "fdaba91e8b5d08a0944595f2afc730afb5d0d59bc4c4482daaa1d6773bf76d7b",
    ("build", "--object", "fsr", "--i", "1"): "22ecc1da4d144b1e78e7666a2f54978ba2ba35530aa4863bca59ab98a8369d7c",
    ("cosimplicial-check", "--max-n", "4"): "b027fcb52b5b2ceea75402cac88a0d4c4600da6e72eaba8b259710ad068fb3db",
    ("rev-check", "--max-n", "4"): "9d99ec7c271ae61645bc3cc2ae366f9bf2e8e6f2f2030117187fb60414b91197",
    ("rev-check", "--max-n", "5"): "5821e6048162eceb2f7412efdf4f48b5682fa4929c62056ff700bc736f202d0f",
}


@pytest.mark.parametrize("argv", sorted(TOWER_GOLDEN), ids=" ".join)
def test_tower_bytes_pinned(argv, capsys):
    from scaledss.cli import main

    assert main(list(argv)) == 0
    blob = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == TOWER_GOLDEN[argv]

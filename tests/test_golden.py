"""Golden SHA-256 hashes of canonical certificate bytes.

A refactor must keep every certificate byte-identical; a change that alters
one of these hashes changes the wire output and has to say why.
"""

import hashlib

import pytest

from scaledss import (
    certify_cosegal,
    certify_inner_horn,
    certify_lemma_minus,
    certify_lemma_plus,
    certify_theta,
)
from scaledss.certificates import Transport
from scaledss.search import DEFAULT_BUDGET, search_decomposition
from scaledss.produce import certificate_to_json
from scaledss.serialize import canonical_dumps
from test_acceptance import criterion_8_trials
from test_complexes import face_pass_maximal

GOLDEN = {
    ("plus", 2, 1): "0a0097f670a0c12f16be419c574924c0faab87e7b7649c6c645d26f901aadf5a",
    ("minus", 2, 1): "9e4e133d62e623b78cce9cc2e632a3107d3edfd0613a435a4514a2fae26beb72",
    ("inner", 2, 1): "0773135fb2f6dcf3d99f9aaf73bfb8f904485b885253912d63b4a0ac2c5d41fe",
    ("plus", 3, 1): "5cf21bc7c79f3437d06a6751bc491aefd0e23e147d7e5d18b0e9de70938e214d",
    ("minus", 3, 1): "b58fe7ca2dfa079030a8bd125f4aa92fc13a2411b0cb98de689c24b64938cc35",
    ("inner", 3, 1): "6de84d87cf9eeb63974358300c556c96811ca8fd59ace9c0723cff5891bfe48a",
    ("plus", 4, 1): "573305af7c32a7df9683bed0a04b1eebc3c70ba77830e7436ba27084a3db3dbc",
    ("minus", 4, 1): "e0dcf4558f7f372c55e909396093dd55aeff3e6830c4fe4133cd2baad7159d4b",
    ("inner", 4, 1): "b36908ec5b895acdc68d4bf599192d7bf2a11691663c434b959f961bc616b50b",
    ("cosegal", 2, None): "7a06c4c3ac307095829b5422b7e878299ebe5762710b05aa0beb347e9ef27c78",
    ("cosegal", 3, None): "fc6a6979af4763fabb778d82c2f30b2e3868a6fb50ce47a9b6b876061a15fcff",
    ("theta", None, 0): "2090df47ddb4a780bbe4bf9c1d525015c5b351561db110f6dfcc154bfeb51c01",
    ("theta", None, 1): "e04f1e2b1a984b8fe6c972ee42252f718bb29654f204e3ca2ae4af75662a4e58",
    ("plus", 5, 1): "b607efaaddbbb092675ca70bce485682c4119b465278b6b85b02f4173ce96f24",
    ("minus", 5, 1): "7672b4c64eec77658819852b50c17143fc31fbbcd67a32d4c97cb108244d2cd2",
    ("inner", 5, 1): "49711b4641c3f735bce20411950fe7d7e9887656d745dfc43820501d2f41f0eb",
    ("cosegal", 4, None): "3712c55f82665cdaa48b81f4314b530192228124f56f1fa3a691c7642ed2d0a2",
}

# cosegal(4) needs more than the default search budget of 256 steps
BUDGET = {("cosegal", 4, None): 2048}

CERTIFY = {
    "plus": certify_lemma_plus,
    "minus": certify_lemma_minus,
    "inner": certify_inner_horn,
    "cosegal": lambda n, i, budget: certify_cosegal(n, budget),
    "theta": lambda n, i, budget: certify_theta(i, budget),
}


def _inline_complexes(cert):
    """The start and target complexes of a certificate and of every
    certificate its transports carry."""
    yield cert.start.complex
    yield cert.target.complex
    for step in cert.steps:
        if isinstance(step, Transport):
            yield from _inline_complexes(step.inner)


@pytest.mark.parametrize("lemma,n,i", sorted(GOLDEN, key=str))
def test_certificate_bytes_pinned(lemma, n, i):
    cert = CERTIFY[lemma](n, i, BUDGET.get((lemma, n, i), DEFAULT_BUDGET))
    blob = canonical_dumps(certificate_to_json(cert)).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[(lemma, n, i)]
    for cx in _inline_complexes(cert):
        assert cx.maximal() == face_pass_maximal(cx)


# Search output on criterion 8's 1000 seeded trials on ts(2): each trial's
# canonical certificate bytes, or "none" where the search gives up, one
# line each.
SEARCH_GOLDEN = "83c1fd04894ec447e0dc9f62a3fbe30e628ffbdb25b7fd69596bf43def673065"


def _search_trials_digest() -> str:
    digest = hashlib.sha256()
    for a, b in criterion_8_trials():
        cert = search_decomposition(a, b, 64)
        line = "none\n" if cert is None else canonical_dumps(certificate_to_json(cert))
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def test_search_output_pinned():
    assert _search_trials_digest() == SEARCH_GOLDEN


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

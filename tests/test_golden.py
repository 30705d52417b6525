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
from scaledss.search import DEFAULT_BUDGET
from scaledss.serialize import canonical_dumps, certificate_to_json

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
    ("theta", None, 0): "58f6a6e0922fc2d511717f60f1ef18b3589f0fecdbca35a3509aa9c29750a66c",
    ("theta", None, 1): "44a479705deae414158f88228715d0164953e1983c5b507d39fa76a52c2f4a01",
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


@pytest.mark.parametrize("lemma,n,i", sorted(GOLDEN, key=str))
def test_certificate_bytes_pinned(lemma, n, i):
    cert = CERTIFY[lemma](n, i, BUDGET.get((lemma, n, i), DEFAULT_BUDGET))
    blob = canonical_dumps(certificate_to_json(cert)).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[(lemma, n, i)]

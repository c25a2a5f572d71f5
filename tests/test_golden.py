"""Byte-identical groupoid JSON: SHA-256 digests of ``to_json()`` pinned
from the loop implementation the vectorized build path replaced."""

import hashlib

import pytest

from germoid import fixtures as fx
from germoid.verify import groupoid_variant

FIXTURES = {
    "I3": lambda: fx.symmetric_inverse(3),
    "B(Z4,4)": lambda: fx.brandt(fx.cyclic_group(4), 4),
    "CHAIN8xZ16": lambda: fx.direct_product(fx.chain(8), fx.cyclic_group(16)),
}

GOLDEN = [
    ("I3", "universal", 34,
     "5c50a905032cb88db4eecbeb520d5ebb1c91a55c7f6e21f27808747045cff90f"),
    ("I3", "contracted", 33,
     "9e1589b1fff6ec2c78787a862502179a7e7645a54341a2f4122ac5e65f2f15f5"),
    ("I3", "tight", 9,
     "dc471eabcbdd0467fcfdfc1887d79a85df0166b6169a9563c6db17b56876a011"),
    ("B(Z4,4)", "contracted", 64,
     "d1058701135b9a45eff34af739acd733e8a31dafff3242e8576c697bd0a353d3"),
    ("CHAIN8xZ16", "universal", 128,
     "12e78ff67a476382cd977c72b0298093020242cce711df0b2f4691dbd7432973"),
    ("CHAIN8xZ16", "partial", 128,
     "340c18182decb9920168abb365f3b8c8beec9f1f3c526b4177a7f458c8b6f844"),
]


@pytest.mark.parametrize("fixture, variant, arrows, digest", GOLDEN)
def test_groupoid_json_digest(fixture, variant, arrows, digest):
    g = groupoid_variant(FIXTURES[fixture](), variant)
    assert g.n_arrows == arrows
    assert hashlib.sha256(g.to_json().encode()).hexdigest() == digest

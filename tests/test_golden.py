"""Byte-identical outputs: SHA-256 digests of groupoid ``to_json()``, of
``verify --suite all`` report lines and of generated fixtures, pinned from
the loop implementations the array kernels replaced.  Class numbering feeds the ``envelope`` and
``ks`` certificate digests, so the report digests catch any drift in it."""

import contextlib
import hashlib
import io
import json
import random

import pytest

import helpers
from germoid import cli
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import semigroups as sg
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


def chain4_by_z6_envelope():
    S = fx.direct_product(fx.chain(4), fx.cyclic_group(6))
    F = germs.induced_functor(sg.hom_from_sigma(sg.max_group_image(S)))
    return gpd.enveloping_action_of_functor(F)[2]


@pytest.mark.parametrize("build, arrows, digest", [
    (lambda: helpers.pair_groupoid(4), 16,
     "05f5e76a2dfe57b8db43ef77b8b0caf82934f04e933e53314f40f888bde94edb"),
    # the semidirect product of an enveloping action: 4 units, 24 arrows
    (chain4_by_z6_envelope, 24,
     "cac4f6e033a1e58b73570b1124c86325be61837c286e51cfb566a60a4319e868"),
], ids=["Pair4", "CHAIN4xZ6-envelope"])
def test_table_built_groupoid_json_digest(build, arrows, digest):
    g = build()
    assert g.n_arrows == arrows
    assert hashlib.sha256(g.to_json().encode()).hexdigest() == digest


REPORTS = [
    ("chain2", 6, "522bc814f3f1659890f2d8286f4483bb1f1911ffa803bdcccb46232ba7682092"),
    ("b2", 7, "3c229b0381f0b74128baeea0f9b1a836a8cca464831d066a777c804fe9221315"),
    ("s3", 6, "4cee51d152ed22cd8eeae7feec985b200da3a26c53295563cf3e5162b0fdd8c6"),
    ("s4", 6, "939087faa334b8af0582e1281af291efde5006b6e65412f2b87db0764cc86d79"),
    ("sd6", 6, "6d9cd3e61b9b90c73e34e0d9d0e708f621bbef394fe567601404b2a0ffd567bc"),
    ("i2", 8, "5cc5bbf1283a129e58f546f8b51c028ca6548d93b2a5458204f9bdea8795143e"),
]


@pytest.mark.parametrize("preset, lines, digest", REPORTS)
def test_verify_report_stream_digest(tmp_path, preset, lines, digest):
    path = tmp_path / f"{preset}.json"
    path.write_text(fx.PRESETS[preset]().to_json())
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["verify", "--suite", "all", str(path)]) == 0
    reports = [json.loads(line) for line in out.getvalue().splitlines()]
    for report in reports:
        del report["wall_ms"]
    stream = "\n".join(json.dumps(r, sort_keys=True) for r in reports)
    assert len(reports) == lines
    assert hashlib.sha256(stream.encode()).hexdigest() == digest


def random_corpus_text():
    """The fifty draws of the tests' random E-unitary corpus, one file a line."""
    rng = random.Random(20240811)
    return "\n".join(fx.random_eunitary_semidirect(rng).to_json() for _ in range(50))


@pytest.mark.parametrize("make, digest", [
    (random_corpus_text,
     "828804cdadb994e7638ae160026d4d39aaa713ae30e6f193836854b4febf8c01"),
    (lambda: fx.chain(64).to_json(),
     "e9fb7e2b3b9114f7be2b16f7a3e63531de3fb2db94ffed148237fe4dad3dc8bc"),
    (lambda: fx.cyclic_group(64).to_json(),
     "25394727cca89a91fffa5567dcb1578c3e2555c7687577364faa5e722a57ecd8"),
], ids=["random-corpus", "CHAIN64", "Z64"])
def test_fixture_json_digest(make, digest):
    assert hashlib.sha256(make().encode()).hexdigest() == digest

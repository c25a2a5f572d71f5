import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from germoid import fixtures as fx
from germoid import groupoids as gpd
from germoid import semigroups as sg


@pytest.fixture(scope="session")
def corpus():
    """The shipped desk-scale fixture corpus, keyed by name."""
    S4 = fx.s4_monoid()
    SD6 = fx.sd6()
    return {
        "CHAIN2": fx.chain2(),
        "CHAIN3": fx.chain(3),
        "CHAIN2^0": fx.adjoin_zero(fx.chain2()),  # the 1 > f > 0 chain
        "B2": fx.b2(),
        "S3": fx.s3_monoid(),
        "S4": S4,
        "SD6": SD6,
        "I2": fx.i2(),
        "Z2": fx.cyclic_group(2),
        "Z3": fx.cyclic_group(3),
        "S4^0": fx.adjoin_zero(S4),
        "SD6^0": fx.adjoin_zero(SD6),
    }


@pytest.fixture(scope="session")
def eunitary_corpus(corpus):
    cover = b2_cover()[0]
    out = {k: v for k, v in corpus.items() if sg.is_e_unitary(v)}
    out["covB2"] = cover
    return out


def b2_cover():
    """The E-unitary cover of B2 along its Z2-valued partial homomorphism."""
    B2 = fx.b2()
    G = fx.cyclic_group(2)
    theta = sg.partial_group_hom(
        B2, G, [None if n == "0" else (0 if n in ("e11", "e22") else 1)
                for n in B2.names])
    return sg.eunitary_cover(B2, theta) + (B2, theta)


@pytest.fixture(scope="session")
def random_eunitary():
    """Fifty randomized semidirect-product E-unitary fixtures, |S| <= 64."""
    rng = random.Random(20240811)
    return [fx.random_eunitary_semidirect(rng) for _ in range(50)]


@pytest.fixture
def full(monkeypatch):
    """The groupoids that get validated in full, in call order."""
    seen, laws = [], gpd.check_laws

    def spy(h):
        seen.append(h)
        return laws(h)
    monkeypatch.setattr(gpd, "check_laws", spy)
    return seen

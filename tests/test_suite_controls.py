"""Planted defects for the verify suites: each suite's verdict must turn to a
failure, with its witness and exit code 1, when the one computation it rests
on is broken.  ``main1reduced`` rests on ``matrixrep.intertwines`` alone,
since the order conditions of ``check_rep_conditions`` hold in every inverse
semigroup and are not checked.  ``main1`` rests on the functor checks of
Psi, the inverse of Phi."""

import json

import numpy as np
import pytest

from germoid import cli
from germoid import fixtures as fx
from germoid import germs
from germoid import matrixrep as mr
from germoid import partial_actions as pa


@pytest.mark.parametrize("make", [
    fx.sd6,
    lambda: fx.direct_product(fx.chain(8), fx.cyclic_group(16)),
], ids=["sd6", "CHAIN8xZ16"])
def test_main1reduced_fails_with_two_entries_of_u_swapped(make, tmp_path,
                                                          capsys, monkeypatch):
    S = make()
    path = tmp_path / "S.json"
    path.write_text(S.to_json())
    assert cli.main(["verify", "--suite", "main1reduced", str(path)]) == 0
    capsys.readouterr()
    real = mr.intertwiner_u

    def swapped(*args):
        u = np.array(real(*args))
        u[[0, -1]] = u[[-1, 0]]
        return u
    monkeypatch.setattr(mr, "intertwiner_u", swapped)
    assert cli.main(["verify", "--suite", "main1reduced", str(path)]) == 1
    (report,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert report["check"] == "main1reduced"
    assert report["pass"] is False and report["skipped"] is False
    assert report["witness"] == "intertwining identity failed"


def equal_ends(g, arrows):
    """The first two of ``arrows`` with equal endpoints, or None."""
    seen = {}
    for a in arrows:
        key = (g.dom[a], g.ran[a])
        if key in seen:
            return seen[key], a
        seen[key] = a
    return None


@pytest.mark.parametrize("make, witness", [
    (fx.sd6, "NotAFunctor: identity at unit 2 not preserved"),
    (lambda: fx.direct_product(fx.chain(8), fx.cyclic_group(16)),
     # arrows 8 and 16 swapped; the first failing pair is (8, 8)
     "NotAFunctor: composition 88 not preserved"),
], ids=["sd6", "CHAIN8xZ16"])
def test_main1_fails_with_two_arrows_of_psi_swapped(make, witness, tmp_path,
                                                    capsys, monkeypatch):
    # Psi, from the partial transformation groupoid to the universal one,
    # sends two arrows with equal endpoints to each other's images: two
    # non-identity arrows where there are such (CHAIN8xZ16), else an identity
    # and an arrow (sd6)
    S = make()
    path = tmp_path / "S.json"
    path.write_text(S.to_json())
    assert cli.main(["verify", "--suite", "main1", str(path)]) == 0
    capsys.readouterr()
    real = pa.groupoid_functor

    def swapped(src, tgt, unit_map, arrow_map):
        if isinstance(tgt, germs.GermGroupoid) and not isinstance(src, germs.GermGroupoid):
            others = sorted(set(range(src.n_arrows)) - set(src.identity.tolist()))
            a, b = equal_ends(src, others) or equal_ends(src, range(src.n_arrows))
            arrow_map = np.array(arrow_map)
            arrow_map[[a, b]] = arrow_map[[b, a]]
        return real(src, tgt, unit_map, arrow_map)
    monkeypatch.setattr(pa, "groupoid_functor", swapped)
    assert cli.main(["verify", "--suite", "main1", str(path)]) == 1
    (report,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert report["check"] == "main1"
    assert report["pass"] is False and report["skipped"] is False
    assert report["witness"] == witness

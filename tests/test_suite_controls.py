"""Planted defects for the verify suites: each suite's verdict must turn to a
failure, with its witness and exit code 1, when the one computation it rests
on is broken.  ``main1reduced`` rests on ``matrixrep.intertwines`` alone,
since the order conditions of ``check_rep_conditions`` hold in every inverse
semigroup and are not checked."""

import json

import numpy as np
import pytest

from germoid import cli
from germoid import fixtures as fx
from germoid import matrixrep as mr


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

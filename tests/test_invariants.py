"""Internal invariants raise InvariantViolation, with a witness, also under
``python -O``; a verify run reports one as a failed check."""

import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import helpers
from germoid import cli, errors
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import partial_actions as pa
from germoid import semigroups as sg
from germoid import verify


def drop_last_unit(real):
    def reduction(g, units, name=None):
        return real(g, sorted(units)[:-1], name=name)
    return reduction


def test_tight_groupoid_cross_check(monkeypatch):
    monkeypatch.setattr(germs, "reduction", drop_last_unit(gpd.reduction))
    with pytest.raises(errors.InvariantViolation) as info:
        germs.tight_groupoid(fx.b2())
    assert info.value.witness == 1      # arrow 1 is the first that differs


@pytest.mark.parametrize("extra", [-1, 1], ids=["shorter", "longer"])
def test_tight_groupoid_cross_check_of_a_prefix(monkeypatch, extra):
    # the reduction agrees with the tight groupoid on every arrow both have
    # but has one arrow fewer or one more: the witness is the shorter length
    n = germs.tight_groupoid(fx.b2()).n_arrows
    real = gpd.reduction

    def reduction(g, units, name=None):
        red = real(g, units, name=name)
        k = red.n_arrows + extra
        return types.SimpleNamespace(dom=np.resize(red.dom, k),
                                     ran=np.resize(red.ran, k), n_arrows=k)
    monkeypatch.setattr(germs, "reduction", reduction)
    with pytest.raises(errors.InvariantViolation) as info:
        germs.tight_groupoid(fx.b2())
    assert info.value.witness == min(n, n + extra)


def test_tight_cross_check_fails_the_command(monkeypatch, tmp_path, capsys):
    path = tmp_path / "b2.json"
    path.write_text(fx.b2().to_json())
    monkeypatch.setattr(germs, "reduction", drop_last_unit(gpd.reduction))
    assert cli.main(["groupoid", str(path), "--variant", "tight"]) == 1
    assert "InvariantViolation" in capsys.readouterr().err


def test_semidirect_must_be_e_unitary(monkeypatch):
    monkeypatch.setattr(fx, "is_e_unitary", lambda S: False)
    with pytest.raises(errors.InvariantViolation) as info:
        fx.sd6()
    assert info.value.witness == "SD6"


def test_meet_sigma_sides_agree(monkeypatch):
    B2 = fx.b2()      # not E-unitary: e11 and e21 share the trivial sigma class
    monkeypatch.setattr(sg, "is_e_unitary", lambda S: True)
    with pytest.raises(errors.InvariantViolation) as info:
        helpers.meet_sigma(B2, 1, 3)
    assert info.value.witness == (1, 3)


def test_sigma_fibers_agree(monkeypatch):
    monkeypatch.setattr(pa, "is_e_unitary", lambda S: True)
    with pytest.raises(errors.InvariantViolation):
        pa.theta_from_sigma(fx.b2())


def test_envelope_report_fails_on_bad_globalization(monkeypatch):
    G = fx.cyclic_group(2)
    bad = pa.PartialGroupAction(G, ["x", "y"], [[0, 1], [1, -1]])
    monkeypatch.setattr(verify, "theta_from_sigma", lambda S: bad)
    (report,) = verify.run_suite("envelope", [fx.s4_monoid()])
    assert not report.passed and not report.skipped
    assert report.witness == ("InvariantViolation: globalization must not "
                              "enlarge theta inside X (witness (1, 1))")


def test_envelope_report_fails_when_an_orbit_misses_x(monkeypatch):
    # a global action with one more fixed point, outside every orbit of X
    real = pa.enveloping_group_action

    def with_a_stray_point(theta):
        env = real(theta)
        glob = env.global_action
        maps = np.column_stack([glob.maps, np.full(len(glob.group), glob.n_points)])
        stray = pa.PartialGroupAction(glob.group, glob.point_labels + ("z",), maps)
        return dataclasses.replace(env, global_action=stray)

    monkeypatch.setattr(verify, "enveloping_group_action", with_a_stray_point)
    (report,) = verify.run_suite("envelope", [fx.s4_monoid()])
    assert not report.passed and not report.skipped and report.witness == ""


def test_ks_report_fails_when_projection_misses_cocycle(monkeypatch):
    real = pa.semidirect_projection

    def shifted(sd, h):
        proj = real(sd, h)
        amap = tuple((a + 1) % h.n_arrows for a in proj.arrow_map)
        return gpd.GroupoidFunctor(proj.source, proj.target,
                                   proj.unit_map, amap)

    monkeypatch.setattr(pa, "semidirect_projection", shifted)
    (report,) = verify.run_suite("ks", [fx.s4_monoid()])
    assert not report.passed
    assert report.witness.startswith(
        "InvariantViolation: projection must recover the cocycle")
    assert json.loads(report.to_json())["pass"] is False


def test_invariants_survive_optimized_mode():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run([sys.executable, "-O", "-c", "assert False"])
    assert probe.returncode == 0, "asserts must be off under -O"
    code = (
        "from germoid import errors, fixtures as fx, germs, groupoids as gpd\n"
        "real = gpd.reduction\n"
        "germs.reduction = lambda g, u, name=None: real(g, sorted(u)[:-1])\n"
        "try:\n"
        "    germs.tight_groupoid(fx.b2())\n"
        "except errors.InvariantViolation as exc:\n"
        "    print(exc.witness)\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "1"

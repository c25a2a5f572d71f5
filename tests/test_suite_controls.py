"""Planted defects for the verify suites: each suite's verdict must turn to a
failure, with its witness and exit code 1, when the one computation it rests
on is broken.  ``main1reduced`` rests on ``matrixrep.intertwines`` alone,
since the three order conditions behind the intertwining identity hold in
every inverse semigroup (the proof is in ``verify_intertwining``'s
docstring) and are not checked.  ``main1`` rests on the functor checks of
Psi, the inverse of Phi.  The universal groupoid read off the table is born
validated: a product swapped in it is caught by the functors into it and
the groupoids built through it, in ``main1``, ``equiv`` and ``ks``.  A
broken born group image fails the suites that read it with a report, not
a raw exception."""

import json

import numpy as np
import pytest

from germoid import cli
from germoid import fixtures as fx
from germoid import germs
from germoid import matrixrep as mr
from germoid import partial_actions as pa
from germoid import semigroups as sg


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
     "NotAFunctor: composition of 8, 8 not preserved"),
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


def swap_two_products(g, swapped):
    """Swap, in place of g's products rule, the products of the first two
    composable pairs (a, b) with the same ran a and dom b but different
    products: both stay arrows with the right endpoints.  A groupoid with
    no such pairs is left as it is; ``swapped`` collects the others."""
    a, b = g.composable_pairs
    products = np.array(g._products(a, b))
    seen = {}
    for i, key in enumerate(zip(g.ran[a].tolist(), g.dom[b].tolist())):
        j = seen.setdefault(key, i)
        if products[j] != products[i]:
            products[[i, j]] = products[[j, i]]
            g._products = products
            swapped.append((g.name, int(a[j]), int(b[j]), int(a[i]), int(b[i])))
            break
    return g


@pytest.mark.parametrize("make, witnesses", [
    # sd6: the pairs (1, 1) and (1, 3) of its universal groupoid, and (0, 0)
    # and (0, 1) of that of its group image Z2, the ks target
    (fx.sd6, {"equiv[plain]": "NotAFunctor: composition of 1, 1 not preserved",
              "ks": "NotAFunctor: composition of 0, 0 not preserved",
              "main1": "NotAFunctor: composition of 1, 1 not preserved"}),
    # I4 (209 arrows, not E-unitary: only equiv runs), both flags
    (lambda: fx.symmetric_inverse(4),
     {"equiv[contracted]": "NotAFunctor: composition of 16, 16 not preserved",
      "equiv[plain]": "NotAFunctor: composition of 17, 17 not preserved"}),
], ids=["sd6", "I4"])
def test_verify_fails_with_two_products_of_the_table_build_swapped(
        make, witnesses, tmp_path, capsys, monkeypatch):
    # the universal groupoid is born validated, so nothing checks its laws:
    # the suites that map into it or act through it must catch the swap
    S = make()
    path = tmp_path / "S.json"
    path.write_text(S.to_json())
    real, swapped = germs.UniversalGroupoid, []
    monkeypatch.setattr(germs, "UniversalGroupoid", lambda *args, **kw:
                        swap_two_products(real(*args, **kw), swapped))
    assert cli.main(["verify", "--suite", "all", str(path)]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {r["check"]: r["witness"] for r in reports if not r["pass"]} == witnesses
    assert all(r["skipped"] is False for r in reports if not r["pass"])
    assert any(name.startswith("G(S,") for name, *_ in swapped)


@pytest.mark.parametrize("mutation, witnesses", [
    # G(SD6) with star [1, 0]: its natural order is not reflexive, which
    # the KS certificates assume
    ("inverses", {
        "envelope": "InverseMismatch: theta(0^-1) != theta(0)^-1",
        "ks": "InvariantViolation: natural order of the target must be "
              "reflexive (witness 0)",
        "main1": "InverseMismatch: theta(0^-1) != theta(0)^-1",
        "main1reduced": "InverseMismatch: theta(0^-1) != theta(0)^-1"}),
    # products 0 0 and 0 1 swapped: a table with no idempotent, whose
    # universal groupoid (the ks target) cannot be read off it
    ("products", {
        "envelope": "NotDualPrehom: theta(0)theta(0) is not a restriction of theta(0 0)",
        "ks": "InvariantViolation: a finite semigroup must have an idempotent "
              "(witness G(S))",
        "main1": "NotDualPrehom: theta(0)theta(0) is not a restriction of theta(0 0)",
        "main1reduced": "NotDualPrehom: theta(0)theta(0) is not a restriction of theta(0 0)"}),
])
def test_verify_reports_a_broken_born_group_image(mutation, witnesses, tmp_path,
                                                  capsys, monkeypatch):
    # the group image is born validated (semigroups.proved), so a broken
    # one meets the kernels' own assumptions: each must fail its check
    # with a witness, not escape as an IndexError or ZeroDivisionError
    path = tmp_path / "S.json"
    path.write_text(fx.sd6().to_json())
    real, broken = sg.proved, []

    def proved(names, table, star, **kw):
        if kw.get("identity") is not None:
            table, star = np.array(table), np.array(star)
            if mutation == "inverses":
                star = star[::-1].copy()
            else:
                table[0, [0, 1]] = table[0, [1, 0]]
            broken.append(kw["name"])
        return real(names, table, star, **kw)
    monkeypatch.setattr(sg, "proved", proved)
    assert cli.main(["verify", "--suite", "all", str(path)]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {r["check"]: r["witness"] for r in reports if not r["pass"]} == witnesses
    assert all(r["skipped"] is False for r in reports)
    assert broken == ["G(S)"]

"""Groupoids and actions born validated because their builder proved their
laws (the proofs are in the builders' docstrings): the germ groupoid of a
validated S-action, also restricted to the tight filters, the partial
transformation groupoid of a validated partial group action, the
semidirect product over a validated groupoid, the reduction of a validated
groupoid and the global action of ``enveloping_group_action``.  Each must
pass the full validator on an unvalidated copy of its arrays, with equal
products or maps; an input from the raw constructor is validated in full,
with the validator's witness.  Planted controls: a product swapped in a
born groupoid's rule, or an image moved in a born global action, fails
``verify`` with a witness."""

import json
import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germoid import cli
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import partial_actions as pa
from germoid import semigroups as sg
from test_born_validated import symmetric_group
from test_groupoid_index import copy_of
from test_kernels import outcome


def same_as_validated(g):
    """g is born validated, and a copy of its arrays, not validated, passes
    ``validate_groupoid`` with the same products."""
    assert g.validated and g.generators is None, g.name
    copy = gpd.FiniteGroupoid(g.unit_labels, np.array(g.dom), np.array(g.ran),
                              np.array(g.products), np.array(g.inv),
                              np.array(g.identity))
    assert not copy.validated
    gpd.validate_groupoid(copy)
    assert np.array_equal(copy.products, g.products), g.name


def same_global_action(theta):
    """The global action of theta is born validated, and its maps pass
    ``validate_partial_action``; so does the groupoid it acts by."""
    glob = pa.enveloping_group_action(theta).global_action
    assert glob.validated and glob.is_global()
    again = pa.validate_partial_action(glob.group, glob.point_labels,
                                       np.array(glob.maps))
    assert np.array_equal(again.maps, glob.maps)
    same_as_validated(pa.partial_trans_groupoid(glob))


def born_constructions(S, ideals=True):
    """Every born groupoid of S: the germ groupoid and the semidirect
    product of beta's groupoid space, per flag; the tight groupoid; the
    reductions to every ideal perp; and, where S is E-unitary, the partial
    transformation groupoid, and the semidirect product and germ groupoid
    of the KS pipeline."""
    out = []
    for flag in (False, True) if S.zero is not None else (False,):
        beta = germs.beta_action(S, flag)
        out += [germs.germ_groupoid(beta),
                gpd.semidirect_product(germs.gspace_from_saction(beta)[0])]
    if S.zero is not None:
        out.append(germs.tight_groupoid(S))
    big = germs.universal_groupoid(S, S.zero is not None)
    for I in sg.enumerate_proper_ideals(S) if ideals else ():
        out.append(gpd.reduction(big, germs.ideal_perp(S, I)[0]))
    if sg.is_e_unitary(S):
        out.append(pa.partial_trans_groupoid(pa.theta_from_sigma(S)))
        phi = sg.hom_from_sigma(sg.max_group_image(S))
        ga, _, sd, _ = gpd.enveloping_action_of_functor(germs.induced_functor(phi))
        out += [sd, germs.germ_groupoid(germs.saction_from_gspace(ga))]
    return out


def check_born(S, ideals=True):
    for g in born_constructions(S, ideals):
        same_as_validated(g)
    if sg.is_e_unitary(S):
        same_global_action(pa.theta_from_sigma(S))


@pytest.mark.parametrize("preset", sorted(fx.PRESETS))
def test_the_presets_born_equal_their_validation(preset):
    check_born(fx.PRESETS[preset]())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_inverse_monoids_born_equal_their_validation(n):
    check_born(fx.symmetric_inverse(n))


def test_s4_with_a_zero_born_equals_its_validation():
    check_born(fx.adjoin_zero(fx.s4_monoid()))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 2), (3, 2), (4, 4)])
def test_brandt_semigroups_born_equal_their_validation(m, n):
    check_born(fx.brandt(fx.cyclic_group(m), n))


def test_a_semidirect_by_s3_born_equals_its_validation():
    # S3 permutes the three atoms of a semilattice: an E-unitary semigroup
    # whose maximal group image is not abelian, so that gh and hg differ in
    # the partial transformation groupoid and the global action
    meet = [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4],
            [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]]
    perms = list(permutations(range(3)))
    S = fx.semidirect(meet, symmetric_group(3),
                      {g: (0, *(1 + np.array(p)).tolist(), 4) for g, p in enumerate(perms)})
    assert sg.is_e_unitary(S) and len(sg.max_group_image(S).group) == 6
    check_born(S)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_eunitary_draws_born_equal_their_validation(seed):
    S = fx.random_eunitary_semidirect(random.Random(seed))
    check_born(S, ideals=len(S) <= 16)


def test_the_tight_groupoid_is_the_germ_groupoid_of_a_validated_restriction():
    S = fx.b2()
    beta = germs.universal_groupoid(S, contracted=True).action
    tight = germs.tight_groupoid(S).action
    assert beta.validated and tight.validated
    assert not germs.SAction(S, beta.point_labels, beta.maps).restrict(
        tight.parent_points).validated


def test_a_reduction_of_a_groupoid_never_validated_is_not_born():
    g = germs.universal_groupoid(fx.symmetric_inverse(2))
    assert gpd.reduction(g, [0, 1]).validated
    assert not gpd.reduction(copy_of(g), [0, 1]).validated


# -- raw inputs are validated in full ----------------------------------------------

def raw_builds(S):
    """(born, raw) pairs of each builder: its groupoid from validated
    inputs, and a function that builds it from raw-constructor copies."""
    beta, theta = germs.beta_action(S), pa.theta_from_sigma(S)
    ga, g = germs.gspace_from_saction(beta)
    G = theta.group
    raw_G = sg.FiniteGroup(G.names, G.table, G.star, G.identity, name=G.name)
    return {
        "germs": (germs.germ_groupoid(beta), lambda: germs.germ_groupoid(
            germs.SAction(S, beta.point_labels, beta.maps))),
        "partial": (pa.partial_trans_groupoid(theta), lambda: pa.partial_trans_groupoid(
            pa.PartialGroupAction(G, theta.point_labels, theta.maps))),
        "partial-group": (pa.partial_trans_groupoid(theta), lambda: pa.partial_trans_groupoid(
            pa.validate_partial_action(raw_G, theta.point_labels, theta.maps))),
        "semidirect": (gpd.semidirect_product(ga), lambda: gpd.semidirect_product(
            gpd.GroupoidSpaceAction(copy_of(g), ga.point_labels, ga.anchor, ga.act))),
    }


@pytest.mark.parametrize("build", ["germs", "partial", "partial-group", "semidirect"])
def test_a_raw_input_gets_its_groupoid_validated_in_full(build, full):
    born, make = raw_builds(fx.direct_product(fx.chain(8), fx.cyclic_group(4)))[build]
    assert full == []
    g = make()
    assert len(full) == 1 and g.validated and g.generators is not None
    assert np.array_equal(g.products, born.products)


def test_a_raw_theta_gets_its_global_action_validated(monkeypatch):
    theta = pa.theta_from_sigma(fx.sd6())
    seen, real = [], pa.validate_partial_action

    def spy(G, labels, maps):
        seen.append(tuple(labels))
        return real(G, labels, maps)
    monkeypatch.setattr(pa, "validate_partial_action", spy)
    born = pa.enveloping_group_action(theta).global_action
    assert seen == []
    raw = pa.PartialGroupAction(theta.group, theta.point_labels, theta.maps)
    again = pa.enveloping_group_action(raw).global_action
    assert seen == [again.point_labels] and again.validated
    assert np.array_equal(again.maps, born.maps)


def test_a_broken_raw_input_raises_what_the_validator_raises():
    # theta with two images swapped on one map: the partial transformation
    # groupoid is checked in full and fails as its copy does
    theta = pa.theta_from_sigma(fx.direct_product(fx.chain(3), fx.cyclic_group(3)))
    maps = np.array(theta.maps)
    g = next(g for g in range(len(maps)) if (maps[g] >= 0).sum() > 1)
    x, y = np.flatnonzero(maps[g] >= 0)[:2]
    maps[g, [x, y]] = maps[g, [y, x]]
    raw = pa.PartialGroupAction(theta.group, theta.point_labels, maps)
    made = pa.action_groupoid(maps, lambda g, h: theta.group.table[g, h],
                              theta.group.star, np.full(len(maps[0]), theta.group.identity),
                              theta.group.names, theta.point_labels, "copy")
    expect = outcome(gpd.validate_groupoid, made)
    assert expect[0] != "ok"
    assert outcome(pa.partial_trans_groupoid, raw) == expect


# -- planted controls ---------------------------------------------------------------

def swapped_rule(rule, dom, ran, name, swapped):
    """``rule`` with the products of the first two composable pairs (a, b)
    with the same ran a and dom b but different products swapped: both
    stay arrows with the right endpoints.  Each swap is recorded in
    ``swapped``."""
    def products(a, b):
        ab = np.array(rule(a, b))
        seen = {}
        for i, key in enumerate(zip(ran[a].tolist(), dom[b].tolist())):
            j = seen.setdefault(key, i)
            if ab[j] != ab[i]:
                ab[[i, j]] = ab[[j, i]]
                swapped.append((name, int(a[j]), int(b[j])))
                break
        return ab
    return products


def verify_failures(S, tmp_path, capsys):
    """Run ``verify --suite all`` on S through the command line: exit 1,
    and the witness of each failing check."""
    path = tmp_path / "S.json"
    path.write_text(S.to_json())
    assert cli.main(["verify", "--suite", "all", str(path)]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(r["skipped"] is False for r in reports if not r["pass"])
    return {r["check"]: r["witness"] for r in reports if not r["pass"]}


@pytest.mark.parametrize("make, witnesses", [
    # the germ groupoids of beta (equiv) and of the KS space (ks)
    (fx.sd6, {"equiv[plain]": "NotAFunctor: composition of 1, 1 not preserved",
              "ks": "NotAFunctor: composition of 2, 2 not preserved"}),
    # I4 is not E-unitary: only equiv runs, with both flags
    (lambda: fx.symmetric_inverse(4),
     {"equiv[contracted]": "NotAFunctor: composition of 16, 16 not preserved",
      "equiv[plain]": "NotAFunctor: composition of 17, 17 not preserved"}),
], ids=["sd6", "I4"])
def test_verify_fails_with_a_product_swapped_in_the_germ_rule(
        make, witnesses, tmp_path, capsys, monkeypatch):
    real, swapped = germs._germ_arrays, []

    def arrays(action):
        kw = real(action)
        kw["products"] = swapped_rule(kw["products"], kw["dom"], kw["ran"],
                                      "germs", swapped)
        return kw
    monkeypatch.setattr(germs, "_germ_arrays", arrays)
    assert verify_failures(make(), tmp_path, capsys) == witnesses
    assert swapped


@pytest.mark.parametrize("make, witnesses", [
    # the partial transformation groupoid of main1 and the semidirect
    # products of equiv and ks.  envelope passes: its inclusion of G x X
    # into G x X~ meets the same swap on both sides
    (fx.sd6, {"equiv[plain]": "NotAFunctor: composition of 1, 1 not preserved",
              "ks": "NotAFunctor: composition of 1, 1 not preserved",
              "main1": "NotAFunctor: composition of 1, 1 not preserved"}),
    (lambda: fx.direct_product(fx.chain(8), fx.cyclic_group(16)),
     {"equiv[plain]": "NotAFunctor: composition of 0, 0 not preserved",
      "ks": "NotAFunctor: composition of 0, 0 not preserved",
      "main1": "NotAFunctor: composition of 0, 0 not preserved"}),
], ids=["sd6", "CHAIN8xZ16"])
def test_verify_fails_with_a_product_swapped_in_the_action_groupoid_rule(
        make, witnesses, tmp_path, capsys, monkeypatch):
    real, swapped = gpd.action_groupoid, []

    def built(*args, **kw):
        g = real(*args, **kw)
        g._products = swapped_rule(g._products, g.dom, g.ran, g.name, swapped)
        return g
    monkeypatch.setattr(gpd, "action_groupoid", built)
    monkeypatch.setattr(pa, "action_groupoid", built)
    assert verify_failures(make(), tmp_path, capsys) == witnesses
    assert swapped


def test_verify_fails_with_an_image_moved_in_the_global_action(
        tmp_path, capsys, monkeypatch):
    # the global action's points are the classes [g, x]; one image of the
    # last group element moved to the next class: the groupoid it acts by
    # is born from it, and the inclusion into that groupoid fails
    real = pa.PartialGroupAction

    def moved(G, labels, maps):
        if labels and all(label.startswith("[") for label in labels):
            maps = np.array(maps)
            maps[-1, -1] = (maps[-1, -1] + 1) % len(labels)
        return real(G, labels, maps)
    monkeypatch.setattr(pa, "PartialGroupAction", moved)
    assert verify_failures(fx.sd6(), tmp_path, capsys) == {
        "envelope": "NotAFunctor: endpoints of arrow 5 not preserved"}

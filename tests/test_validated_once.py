"""Each distinct groupoid validated once per ``validated_once`` scope: a twin
equal in every array and in its composition adopts the checks, pairs,
products and generators of the groupoid validated first; anything else is validated
in full, with the witness it gets outside a scope.  Also: a space action
that passed ``validate_space_action`` is not checked again by
``semidirect_product``."""

import tracemalloc

import numpy as np
import pytest

import oracles
from germoid import cli, errors, germs
from germoid import fixtures as fx
from germoid import groupoids as gpd
from germoid import matrixrep as mr
from germoid import partial_actions as pa
from test_groupoid_index import copy_of, unit_action
from test_kernels import composition_dict, outcome


@pytest.fixture(scope="module")
def S():
    # E-unitary, with a 32-arrow universal groupoid: Light's test runs on
    # spanning-tree generators, not on every arrow
    return fx.direct_product(fx.chain(8), fx.cyclic_group(4))


@pytest.fixture(scope="module")
def g(S):
    return germs.universal_groupoid(S)


@pytest.fixture
def full(monkeypatch):
    """The groupoids that get validated in full, in call order."""
    seen, laws = [], gpd.check_laws

    def spy(h):
        seen.append(h)
        return laws(h)
    monkeypatch.setattr(gpd, "check_laws", spy)
    return seen


def by_rule(g, table):
    """g with the composition ``table``, as a builder's product rule."""
    return gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran,
                              lambda a, b: table[a, b], g.inv, g.identity)


def mutants(g):
    """(name, builder) of groupoids that differ from g in one entry."""
    a, b = (int(v[-1]) for v in g.composable_pairs)
    ab = g.products[-1]
    ids = np.arange(g.n_arrows)
    other = int(np.flatnonzero((g.dom == g.dom[ab]) & (g.ran == g.ran[ab]) &
                               (ids != ab))[0])
    out = []
    for name, value in (("hom-set", other), ("undefined", -1),
                        ("arrow", np.flatnonzero(g.dom != g.dom[ab])[0])):
        products = np.array(g.products)
        products[-1] = value
        table = oracles.comp_table(g)
        table[a, b] = value
        out.append((f"products-{name}", lambda p=products: gpd.FiniteGroupoid(
            g.unit_labels, g.dom, g.ran, p, g.inv, g.identity)))
        out.append((f"rule-{name}", lambda t=table: by_rule(g, t)))
    loop = np.flatnonzero((g.dom == g.ran) & ~np.isin(ids, g.identity))[0]
    table = oracles.comp_table(g)       # read at the pairs of the new ends
    for field in ("dom", "ran", "inv", "identity"):
        arrays = {k: np.array(getattr(g, k)) for k in ("dom", "ran", "inv", "identity")}
        if field == "identity":
            arrays[field][g.dom[loop]] = loop
        else:
            arrays[field][0] = (arrays[field][0] + 1) % (
                g.n_arrows if field == "inv" else g.n_units)
        out.append((field, lambda v=arrays: gpd.FiniteGroupoid(
            g.unit_labels, v["dom"], v["ran"], lambda a, b: table[a, b],
            v["inv"], v["identity"])))
    return out


def test_a_twin_skips_the_laws_and_shares_the_products_pairs_and_generators(
        g, full):
    table = oracles.comp_table(g)
    with gpd.validated_once():
        first = gpd.validate_groupoid(copy_of(g))
        assert full == [first]
        for twin in (copy_of(g), by_rule(g, table),
                     gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran,
                                        oracles.rule_of(composition_dict(g)),
                                        g.inv, g.identity)):
            assert gpd.validate_groupoid(twin).validated
            assert twin.products is first.products
            assert twin.composable_pairs is first.composable_pairs
            assert twin.offsets is first.offsets
            assert twin.by_ran is first.by_ran
            assert twin.generators is first.generators
            assert np.array_equal(oracles.comp_table(twin), table)
        assert full == [first]
    assert first.generators.sum() < g.n_arrows
    assert not any(v.flags.writeable for v in (
        *first.composable_pairs, *first.by_ran, first.products))


def test_a_rule_twin_fills_no_table_of_its_own():
    g = germs.universal_groupoid(
        fx.direct_product(fx.chain(64), fx.cyclic_group(4)))
    n = g.n_arrows
    with gpd.validated_once():
        first = gpd.validate_groupoid(copy_of(g))
        twin = by_rule(g, oracles.comp_table(g))
        tracemalloc.start()
        try:
            gpd.validate_groupoid(twin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert twin.products is first.products
    assert peak < n * n        # a quarter of an int32 table


def test_the_builders_of_one_fixture_make_twins(S, full):
    with gpd.validated_once():
        universal = germs.universal_groupoid(S)
        others = [pa.partial_trans_groupoid(pa.theta_from_sigma(S)),
                  germs.gspace_from_saction(germs.beta_action(S))[1],
                  gpd.semidirect_product(
                      germs.gspace_from_saction(germs.beta_action(S))[0])]
    assert full == [universal]
    assert all(h.products is universal.products for h in others)


@pytest.mark.parametrize("case", range(10))
def test_a_twin_that_differs_in_one_entry_is_validated_in_full(g, full, case):
    name, build = mutants(g)[case]
    expect = outcome(gpd.validate_groupoid, build())
    assert expect[0] != "ok", name
    with gpd.validated_once():
        gpd.validate_groupoid(copy_of(g))
        full.clear()
        assert outcome(gpd.validate_groupoid, build()) == expect, name
        assert len(full) == 1


def test_a_failing_validation_enters_no_scope(g, full):
    _, build = mutants(g)[0]
    with gpd.validated_once():
        for _ in range(2):
            with pytest.raises(errors.CompositionNotAssociative):
                gpd.validate_groupoid(build())
        assert len(full) == 2
        good = gpd.validate_groupoid(copy_of(g))
        assert full[-1] is good


def test_the_scope_is_restored_after_an_exception(g, full):
    other = gpd.pair_groupoid(3)
    _, build = mutants(g)[0]
    with gpd.validated_once():
        gpd.validate_groupoid(copy_of(g))
        with pytest.raises(errors.CompositionNotAssociative):
            with gpd.validated_once():
                inner = gpd.validate_groupoid(copy_of(g))
                gpd.validate_groupoid(copy_of(other))
                gpd.validate_groupoid(build())
        assert inner in full                    # the inner scope starts empty
        full.clear()
        gpd.validate_groupoid(copy_of(g))
        assert full == []                       # the outer scope is back
        again = gpd.validate_groupoid(copy_of(other))
        assert full == [again]                  # and the inner one is gone
    full.clear()
    alone = gpd.validate_groupoid(copy_of(g))
    assert full == [alone]                      # outside any scope


def test_one_verify_of_the_same_file_twice_validates_each_fixture_in_full(
        S, full, tmp_path, capsys, monkeypatch):
    path = tmp_path / "chain8xz4.json"
    path.write_text(S.to_json())
    calls, validate = [], gpd.validate_groupoid

    def spy(h):
        calls.append(h)
        return validate(h)
    for mod in (gpd, germs, pa, mr):
        monkeypatch.setattr(mod, "validate_groupoid", spy)
    assert cli.main(["verify", "--suite", "all", str(path)]) == 0
    once, n_calls = len(full), len(calls)
    one = capsys.readouterr().out.splitlines()
    assert cli.main(["verify", "--suite", "all", str(path), str(path)]) == 0
    two = capsys.readouterr().out.splitlines()
    assert 0 < once < n_calls
    assert len(full) == 3 * once and len(calls) == 3 * n_calls
    # the second fixture's first build is validated in full, not adopted
    assert full[2 * once] is calls[2 * n_calls]
    assert len(two) == 2 * len(one)


def test_semidirect_product_checks_an_action_once(S, monkeypatch):
    checked, check = [], gpd.validate_space_action

    def spy(action):
        checked.append(action)
        return check(action)
    monkeypatch.setattr(gpd, "validate_space_action", spy)
    ga, _ = germs.gspace_from_saction(germs.beta_action(S))
    assert ga.validated
    gpd.semidirect_product(ga)
    assert checked == []
    fresh = gpd.GroupoidSpaceAction(ga.groupoid, ga.point_labels, ga.anchor, ga.act)
    assert not fresh.validated
    gpd.semidirect_product(fresh)
    assert checked == [fresh] and fresh.validated


def test_semidirect_product_of_an_invalid_action_raises_its_witness(g):
    good = unit_action(g)
    act = np.array(good.act)
    act[np.flatnonzero(~np.isin(np.arange(g.n_arrows), g.identity))[0]] = -1
    for bad in (act, np.where(act >= 0, g.n_units, act)):
        made = lambda: gpd.GroupoidSpaceAction(g, good.point_labels, good.anchor, bad)
        expect = outcome(gpd.validate_space_action, made())
        assert expect[0] == "InvalidAction"
        action = made()
        assert outcome(gpd.semidirect_product, action) == expect
        assert not action.validated

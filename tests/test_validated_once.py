"""Each distinct input validated once per ``validated_once`` scope: a twin
groupoid equal in every array and in its composition adopts the checks,
pairs, products and generators of the groupoid validated first; an S-action,
partial group action or functor exactly equal to one that passed skips its
checks; anything else, and every space action, is validated in full, with
the witness it gets outside a scope.  Also: a space action that passed
``validate_space_action`` is not checked again by ``semidirect_product``,
and two ``germ_groupoid`` builds of one action are equal; a twin S-action
shares the anchors of the one that passed, so a verify run computes them
once per semigroup and maps; and every kind the scope looks up adopts
something over the verify runs of the benchmark's fixtures."""

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import helpers
import oracles
from germoid import cli, errors, germs, verify
from germoid import fixtures as fx
from germoid import groupoids as gpd
from germoid import matrixrep as mr
from germoid import partial_actions as pa
from germoid import semigroups as sg
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
    # the universal groupoid is born validated; the other builders' arrays
    # are compared with it, and adopt its products
    with gpd.validated_once():
        universal = germs.universal_groupoid(S)
        others = [pa.partial_trans_groupoid(pa.theta_from_sigma(S)),
                  germs.germ_groupoid(germs.beta_action(S)),
                  germs.gspace_from_saction(germs.beta_action(S))[1],
                  gpd.semidirect_product(
                      germs.gspace_from_saction(germs.beta_action(S))[0])]
    assert full == [] and universal.validated
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
    other = helpers.pair_groupoid(3)
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
    # every groupoid of this fixture is a twin of its universal groupoid,
    # which is born validated: a fixture validates nothing by check_laws,
    # and builds its own universal groupoid, adopting nothing from the last
    path = tmp_path / "chain8xz4.json"
    path.write_text(S.to_json())
    calls, validate = [], gpd.validate_groupoid

    def spy(h):
        calls.append(h)
        return validate(h)
    for mod in (gpd, germs, pa, mr):
        monkeypatch.setattr(mod, "validate_groupoid", spy)
    universal = germs.UniversalGroupoid
    built = spy_on(monkeypatch, (germs, "UniversalGroupoid"))
    assert cli.main(["verify", "--suite", "all", str(path)]) == 0
    once, n_calls = len(built), len(calls)
    one = capsys.readouterr().out.splitlines()
    assert cli.main(["verify", "--suite", "all", str(path), str(path)]) == 0
    two = capsys.readouterr().out.splitlines()
    assert full == [] and 0 < once < n_calls
    assert len(built) == 3 * once and len(calls) == 3 * n_calls
    # each fixture's first call is its own universal groupoid, just built
    firsts = [calls[i * n_calls] for i in range(3)]
    assert all(isinstance(h, universal) for h in firsts)
    assert len({id(h.semigroup) for h in firsts}) == 3
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


# -- S-actions, partial group actions, space actions and functors ------------------

def kinds(S, g):
    """Per kind: (module and name of a helper only its full check calls, the
    array of a passing input, the validation of that input with the array
    replaced)."""
    beta, theta = germs.beta_action(S), pa.theta_from_sigma(S)
    ga = germs.gspace_from_saction(beta)[0]
    return {
        "saction": ((germs, "inverse_defects"), beta.maps, lambda maps:
                    germs.validate_saction(S, beta.point_labels, maps)),
        "partial": ((pa, "inverse_defects"), theta.maps, lambda maps:
                    pa.validate_partial_action(theta.group, theta.point_labels, maps)),
        "space": ((gpd, "first_failing_pair"), ga.act, lambda act:
                  gpd.validate_space_action(gpd.GroupoidSpaceAction(
                      ga.groupoid, ga.point_labels, ga.anchor, act))),
        "functor": ((gpd, "first_failing_pair"), np.arange(g.n_arrows), lambda f:
                    gpd.groupoid_functor(g, g, range(g.n_units), f)),
    }


# the kinds with a twin path, and with them the space actions, which have
# none and are checked in full: the checked-in-full cases run on all four
KINDS = ("saction", "partial", "functor")
CHECKED = ("saction", "partial", "space", "functor")


def spy_on(monkeypatch, target):
    """The calls of the helper ``target`` from here on, as a list."""
    (mod, name), seen = target, []
    helper = getattr(mod, name)

    def spy(*args, **kw):
        seen.append(args)
        return helper(*args, **kw)
    monkeypatch.setattr(mod, name, spy)
    return seen


def one_entry_off(array):
    """Copies of ``array`` that differ from it in one entry: the middle
    nonnegative entry set to -1, to the next value, and to one past the
    largest."""
    flat = np.flatnonzero(np.asarray(array).ravel() >= 0)
    i = np.unravel_index(flat[len(flat) // 2], np.shape(array))
    top = int(np.max(array)) + 1
    out = []
    for value in (-1, (int(array[i]) + 1) % top, top):
        copy = np.array(array)
        copy[i] = value
        out.append(copy)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_an_equal_input_skips_the_checks(S, g, kind, monkeypatch):
    target, array, validate = kinds(S, g)[kind]
    full = spy_on(monkeypatch, target)
    with gpd.validated_once():
        first = validate(np.array(array))
        assert len(full) == 1
        twin = validate(np.array(array))
        assert len(full) == 1
    assert twin is not first
    if kind == "functor":
        assert twin.arrow_map == first.arrow_map and twin.unit_map == first.unit_map
    else:
        assert np.array_equal(twin.maps, first.maps)


@pytest.mark.parametrize("kind", CHECKED)
def test_an_equal_input_over_equal_but_other_objects_is_checked_in_full(
        S, g, kind, monkeypatch):
    # keys hold the identity of S, G or the groupoids' index and products,
    # not their contents: the copies were validated outside the scope, and
    # g2 shares only g's products
    S2 = fx.direct_product(fx.chain(8), fx.cyclic_group(4))
    g2 = gpd.validate_groupoid(copy_of(g))
    assert g2.products is g.products
    target, array, validate = kinds(S, g)[kind]
    _, other_array, validate_other = kinds(S2, g2)[kind]
    assert np.array_equal(array, other_array)
    full = spy_on(monkeypatch, target)
    with gpd.validated_once():
        validate(np.array(array))
        validate_other(np.array(array))
    assert len(full) == 2


def test_a_space_action_over_a_groupoid_sharing_only_its_products_is_checked(
        S, monkeypatch):
    # the groupoid of the action and a copy built from its products, both
    # validated outside the scope: the same action over each is two checks
    ga = germs.gspace_from_saction(germs.beta_action(S))[0]
    h = ga.groupoid
    h2 = gpd.validate_groupoid(copy_of(h))
    assert h2.products is h.products
    full = spy_on(monkeypatch, (gpd, "first_failing_pair"))
    with gpd.validated_once():
        for groupoid in (h, h2):
            gpd.validate_space_action(gpd.GroupoidSpaceAction(
                groupoid, ga.point_labels, ga.anchor, np.array(ga.act)))
    assert len(full) == 2


@pytest.mark.parametrize("kind", CHECKED)
def test_no_twin_is_taken_outside_a_scope(S, g, kind, monkeypatch):
    target, array, validate = kinds(S, g)[kind]
    full = spy_on(monkeypatch, target)
    validate(np.array(array))
    validate(np.array(array))
    assert len(full) == 2
    with gpd.validated_once():
        validate(np.array(array))
    validate(np.array(array))                   # the scope is gone
    assert len(full) == 4


@pytest.mark.parametrize("kind", CHECKED)
def test_an_input_one_entry_off_is_checked_in_full(S, g, kind):
    _, array, validate = kinds(S, g)[kind]
    copies = one_entry_off(array)
    expect = [outcome(validate, copy) for copy in copies]
    assert all(e[0] != "ok" for e in expect), expect
    with gpd.validated_once():
        validate(np.array(array))
        assert [outcome(validate, copy) for copy in copies] == expect


@pytest.mark.parametrize("kind", CHECKED)
def test_a_failing_input_enters_no_scope(S, g, kind):
    _, array, validate = kinds(S, g)[kind]
    bad = one_entry_off(array)[0]
    expect = outcome(validate, bad)
    with gpd.validated_once():
        # entered, the second call would be taken for a twin and pass
        assert outcome(validate, bad) == outcome(validate, bad) == expect


def test_a_space_action_with_another_anchor_is_checked_in_full(S, g):
    ga = germs.gspace_from_saction(germs.beta_action(S))[0]
    anchor = list(ga.anchor)
    anchor[0] = (anchor[0] + 1) % ga.groupoid.n_units
    made = lambda a: gpd.GroupoidSpaceAction(ga.groupoid, ga.point_labels, a, ga.act)
    expect = outcome(gpd.validate_space_action, made(anchor))
    assert expect[0] == "InvalidAction"
    with gpd.validated_once():
        gpd.validate_space_action(made(ga.anchor))
        assert outcome(gpd.validate_space_action, made(anchor)) == expect


def test_a_functor_with_another_unit_map_is_checked_in_full(g):
    units = np.arange(g.n_units)
    units[0] = 1
    expect = outcome(gpd.groupoid_functor, g, g, units, range(g.n_arrows))
    assert expect[0] == "NotAFunctor"
    with gpd.validated_once():
        helpers.identity_functor(g)
        assert outcome(gpd.groupoid_functor, g, g, units, range(g.n_arrows)) \
            == expect


def test_a_functor_between_twins_is_a_twin(g, monkeypatch):
    with gpd.validated_once():
        one = gpd.validate_groupoid(copy_of(g))
        other = gpd.validate_groupoid(copy_of(g))
        assert other.products is one.products
        full = spy_on(monkeypatch, (gpd, "first_failing_pair"))
        first = helpers.identity_functor(one)
        F = gpd.groupoid_functor(other, one, range(g.n_units), range(g.n_arrows))
        assert len(full) == 1 and F.source is other and F is not first
    assert F.arrow_map == first.arrow_map


# -- germ builds of one action ----------------------------------------------------------

def test_two_germ_builds_of_one_action_are_equal_groupoids(S, monkeypatch):
    beta = germs.beta_action(S)
    action = germs.SAction(S, beta.point_labels, beta.maps)
    full = spy_on(monkeypatch, (gpd, "check_laws"))
    first = germs.germ_groupoid(action, name="first")
    again = germs.germ_groupoid(action, name="again")
    assert len(full) == 2                           # outside a scope: full
    assert again is not first and (first.name, again.name) == ("first", "again")
    assert again.validated and again.action is action
    for field in ("dom", "ran", "inv", "identity", "arrow_at", "arrow_pairs",
                  "products"):
        assert np.array_equal(getattr(again, field), getattr(first, field)), field
        assert not getattr(again, field).flags.writeable
    assert again.arrow_labels == first.arrow_labels
    with gpd.validated_once():
        inside = germs.germ_groupoid(action)
        twin = germs.germ_groupoid(action, name="twin")
    assert len(full) == 3
    assert twin.products is inside.products and twin.name == "twin"
    assert inside.name == f"{S.name}|germs"


def test_a_failing_germ_build_fails_again_with_the_same_error(S):
    beta = germs.beta_action(S)
    maps = np.array(beta.maps)
    e = next(s for s in S.idempotents if (maps[s] >= 0).sum() > 1)
    x, y = np.flatnonzero(maps[e] >= 0)[:2]
    maps[e, x] = y              # theta_e is no longer the identity on its domain
    action = germs.SAction(S, beta.point_labels, maps)
    expect = outcome(germs.germ_groupoid, action)
    assert expect[0] != "ok"
    assert outcome(germs.germ_groupoid, action) == expect


# -- one anchor reduction per (S, maps) --------------------------------------------------

def anchor_reductions(monkeypatch):
    """The (S, maps bytes) of each action whose anchors get computed, not
    read from its memo, from here on."""
    real, computed = germs.anchor_idempotents, []

    def spy(action):
        if action._anchor is None:
            computed.append((action.semigroup, action.maps.tobytes()))
        return real(action)
    monkeypatch.setattr(germs, "anchor_idempotents", spy)
    return computed


def test_a_twin_saction_shares_the_anchors(S, monkeypatch):
    beta = germs.beta_action(S)
    computed = anchor_reductions(monkeypatch)
    with gpd.validated_once():
        first = germs.validate_saction(S, beta.point_labels, np.array(beta.maps))
        anchor = germs.anchor_idempotents(first)
        twin = germs.validate_saction(S, beta.point_labels, np.array(beta.maps))
        assert twin is not first and twin._anchor is anchor
        assert germs.anchor_idempotents(twin) is anchor
    assert len(computed) == 1
    # outside a scope an equal action is checked in full and keeps its own memo
    other = germs.validate_saction(S, beta.point_labels, np.array(beta.maps))
    assert other._anchor is None


def test_verify_reduces_the_anchors_once_per_action(monkeypatch):
    # the verify_mid pair of the benchmark: its two equiv checks meet the
    # action beta again, as the S-action underlying its groupoid space.
    # The anchors are those of beta of CHAIN8 x Z16 and of its ks T-space,
    # and of both betas of B(Z4, 4); the universal groupoid of Z16 is read
    # off its table
    fixtures = [sg.validate_semigroup(T.names, T.table, T.zero, name=T.name)
                for T in (fx.direct_product(fx.chain(8), fx.cyclic_group(16)),
                          fx.brandt(fx.cyclic_group(4), 4))]
    computed = anchor_reductions(monkeypatch)
    assert all(r.passed for r in verify.run_suite("all", fixtures))
    assert len(computed) == len({(id(T), m) for T, m in computed}) == 4


def test_verify_of_the_corpus_reduces_no_anchors_twice(corpus, monkeypatch):
    fixtures = [sg.validate_semigroup(T.names, T.table, T.zero, name=T.name)
                for T in corpus.values()]
    computed = anchor_reductions(monkeypatch)
    assert all(r.passed for r in verify.run_suite("all", fixtures))
    assert len(computed) == len({(id(T), m) for T, m in computed})


# -- a planted defect, end to end -------------------------------------------------------

def test_verify_fails_a_roundtrip_action_one_image_off(tmp_path, capsys,
                                                       monkeypatch):
    S = fx.brandt(fx.cyclic_group(4), 4)
    path = tmp_path / "bz4x4.json"
    path.write_text(S.to_json())
    back = germs.saction_from_gspace

    def moved(gaction):
        action = back(gaction)
        maps = np.array(action.maps)
        s, x = np.argwhere(maps >= 0)[-1]
        maps[s, x] = (maps[s, x] + 1) % action.n_points
        return germs.validate_saction(action.semigroup, action.point_labels, maps)
    monkeypatch.setattr(germs, "saction_from_gspace", moved)
    assert cli.main(["verify", "--suite", "all", str(path)]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failed = [r for r in reports if not r["pass"]]
    assert sorted(r["check"] for r in failed) == ["equiv[contracted]", "equiv[plain]"]
    assert all(r["witness"].split(":")[0] in ("NotBijective", "NotAHomomorphism")
               for r in failed), failed


def test_copies_that_break_only_composition_are_checked_in_full(S, g):
    # one arrow of the functor moved within its hom-set, and one hx of an
    # enveloping space (several points over a unit) moved within its fiber:
    # the endpoints and anchors still agree, so only the pair scans fail
    a = next(a for a in range(g.n_arrows) if a not in set(g.identity.tolist()))
    f = np.arange(g.n_arrows)
    f[a] = next(b for b in range(g.n_arrows)
                if b != a and (g.dom[b], g.ran[b]) == (g.dom[a], g.ran[a]))
    ga = gpd.enveloping_action_of_functor(germs.induced_functor(
        sg.hom_from_sigma(sg.max_group_image(S))))[0]
    act = np.array(ga.act)
    h, x = next((h, x) for h, x in np.argwhere(act >= 0)
                if h not in set(ga.groupoid.identity.tolist()))
    act[h, x] = next(y for y in range(ga.n_points) if y != act[h, x] and
                     ga.anchor[y] == ga.anchor[act[h, x]])
    cases = [
        (lambda f: gpd.groupoid_functor(g, g, range(g.n_units), f),
         np.arange(g.n_arrows), f, "NotAFunctor: composition"),
        (lambda act: gpd.validate_space_action(gpd.GroupoidSpaceAction(
            ga.groupoid, ga.point_labels, ga.anchor, act)),
         ga.act, act, "InvalidAction: action not functorial"),
    ]
    for validate, good, bad, witness in cases:
        expect = outcome(validate, bad)
        assert ": ".join(expect).startswith(witness)
        with gpd.validated_once():
            validate(np.array(good))
            assert outcome(validate, bad) == expect


# -- constructions adopted from what the scope proved --------------------------------

def test_a_universal_groupoid_is_built_once_per_semigroup_and_flag(
        S, full, monkeypatch):
    # each call passes its groupoid through validate_groupoid, which returns
    # a groupoid born validated as it is
    passed = spy_on(monkeypatch, (germs, "validate_groupoid"))
    built = spy_on(monkeypatch, (germs, "UniversalGroupoid"))
    with gpd.validated_once():
        first = germs.universal_groupoid(S)
        again = germs.universal_groupoid(S, contracted=0)
        assert again is first
        assert [args[0] for args in passed] == [first, first]
        assert len(built) == 1 and full == []
    outside = germs.universal_groupoid(S)
    assert outside is not first and len(built) == 2 and full == []
    assert outside.validated and np.array_equal(outside.products, first.products)
    assert germs.universal_groupoid(S) is not outside


def test_a_semigroup_from_the_raw_constructor_gets_its_groupoid_checked(S, full):
    # the table build is proved only from a validated table
    raw = sg.InvSemigroup(S.names, np.array(S.table), S.zero, np.array(S.star))
    assert S.validated and not raw.validated
    with gpd.validated_once():
        g = germs.universal_groupoid(raw)
    assert full == [g] and g.validated
    assert np.array_equal(g.products, germs.universal_groupoid(S).products)


def test_the_universal_memo_keeps_the_flags_and_semigroups_apart(full):
    B2 = fx.b2()
    other = fx.b2()
    with gpd.validated_once():
        plain = germs.universal_groupoid(B2)
        contracted = germs.universal_groupoid(B2, contracted=True)
        twin = germs.universal_groupoid(other)
        assert len({id(plain), id(contracted), id(twin)}) == 3
        assert germs.universal_groupoid(B2, contracted=True) is contracted
        # built again from its own table, not a memo hit
        assert twin.products is not plain.products
        assert np.array_equal(twin.products, plain.products)
    assert full == []


def group_image(n=61):
    """The cyclic group of order n as validated by ``validate_group``, and
    its table: over 25 elements, so validation would take Light's test on
    spanning-tree generators."""
    Z = fx.cyclic_group(n)
    return (lambda: sg.validate_group(Z.names, Z.table, name=f"Z{n}")), Z


def test_a_validated_group_is_a_validated_one_unit_groupoid(full):
    # the universal groupoid of a group is born validated, its products
    # the table; the same group as a one-unit groupoid is its twin
    make, _ = group_image()
    with gpd.validated_once():
        G = make()
        g = germs.universal_groupoid(G)
        h = helpers.groupoid_from_group(G)
        assert full == [] and g.validated and h.validated
        assert h.products is g.products and h.generators is g.generators
        assert not g.generators.flags.writeable
        assert np.array_equal(g.generators, oracles.generating_arrows(g))
        assert oracles.composition_closure(g, np.flatnonzero(g.generators)) \
            == set(range(len(G)))
        assert np.array_equal(oracles.comp_table(g), G.table)
    assert germs.universal_groupoid(G) not in full      # outside too
    G = make()
    with gpd.validated_once():
        g = germs.universal_groupoid(G)
        assert gpd.validate_groupoid(helpers.groupoid_from_group(G)).products \
            is g.products
    assert full == []


@pytest.mark.parametrize("value", ["other", "undefined"])
def test_a_one_unit_groupoid_off_the_group_table_is_validated_in_full(
        full, value):
    make, Z = group_image()
    products = np.array(Z.table.ravel())
    products[-1] = (products[-1] + 1) % len(Z) if value == "other" else -1
    build = lambda: gpd.FiniteGroupoid(["pt"], [0] * len(Z), [0] * len(Z),
                                       products, Z.star, [Z.identity])
    expect = outcome(gpd.validate_groupoid, build())
    assert expect[0] != "ok"
    with gpd.validated_once():
        germs.universal_groupoid(make())    # enters the one-unit groupoid
        full.clear()
        bad = build()
        assert outcome(gpd.validate_groupoid, bad) == expect
        assert full == [bad]


def test_an_equal_saction_of_the_same_semigroup_is_converted_once(
        S, monkeypatch):
    beta = germs.beta_action(S)
    checked = spy_on(monkeypatch, (germs, "validate_space_action"))
    with gpd.validated_once():
        ga, g = germs.gspace_from_saction(beta)
        copy = germs.SAction(S, list(beta.point_labels), np.array(beta.maps))
        again = germs.gspace_from_saction(copy)
        assert again[0] is ga and again[1] is g
        assert len(checked) == 1
        # the flag is part of the key
        assert germs.gspace_from_saction(copy, contracted=False)[0] is ga


def test_an_saction_not_equal_to_one_converted_is_converted_again(
        S, monkeypatch):
    beta = germs.beta_action(S)
    other = fx.direct_product(fx.chain(8), fx.cyclic_group(4))
    maps = np.array(beta.maps)
    s, x = np.argwhere(maps >= 0)[-1]
    maps[s, x] = (maps[s, x] + 1) % beta.n_points
    cases = [lambda: germs.SAction(other, beta.point_labels, beta.maps),
             lambda: germs.SAction(S, beta.point_labels, maps)]
    expect = [outcome(germs.gspace_from_saction, make()) for make in cases]
    checked = spy_on(monkeypatch, (germs, "validate_space_action"))
    with gpd.validated_once():
        ga, _ = germs.gspace_from_saction(beta)
        assert [outcome(germs.gspace_from_saction, make()) for make in cases] \
            == expect
        assert len(checked) == 3
        assert germs.gspace_from_saction(cases[0]())[0] is not ga
    assert germs.gspace_from_saction(beta)[0] is not ga     # no open scope


# -- what each kind adopts over verify runs ----------------------------------------------

def census_fixtures():
    """The six presets, CHAIN8 x Z16 and B(Z4, 4): the fixtures of the
    benchmark's verify workloads, less its random draws."""
    return [make() for make in fx.PRESETS.values()] + [
        fx.direct_product(fx.chain(8), fx.cyclic_group(16)),
        fx.brandt(fx.cyclic_group(4), 4)]


def scope_kind(key) -> str:
    """The kind of a scope key: its leading tag, or ``groupoid`` for the
    key of a groupoid, which leads with its unit count."""
    return key[0] if isinstance(key[0], str) else "groupoid"


def test_every_kind_adopts_in_the_verify_runs(tmp_path, capsys, monkeypatch):
    # per kind: lookups of the scope, and checks that passed (its entries;
    # for groupoids, the check_laws calls, as born-validated builds enter
    # the scope unlooked-up).  A kind whose every lookup is followed by a
    # check adopts nothing, and its lookup is dead code
    looked, passed = Counter(), Counter()
    twins, enter, laws = gpd.scope_twins, gpd.scope_enter, gpd.check_laws

    def spy_twins(key):
        if key is not None and gpd._twins.get() is not None:
            looked[scope_kind(key)] += 1
        return twins(key)

    def spy_enter(key, entry):
        if key is not None and gpd._twins.get() is not None and \
                scope_kind(key) != "groupoid":
            passed[scope_kind(key)] += 1
        return enter(key, entry)

    def spy_laws(g):
        passed["groupoid"] += 1
        return laws(g)
    for mod in (gpd, germs, pa):
        monkeypatch.setattr(mod, "scope_twins", spy_twins)
        monkeypatch.setattr(mod, "scope_enter", spy_enter)
    monkeypatch.setattr(gpd, "check_laws", spy_laws)
    for S in census_fixtures():
        path = tmp_path / f"{S.name}.json"
        path.write_text(S.to_json())
        assert cli.main(["verify", "--suite", "all", str(path)]) == 0
    capsys.readouterr()
    census = {kind: (looked[kind], passed[kind]) for kind in looked}
    assert {"functor", "saction", "partial", "gspace", "universal",
            "groupoid"} <= set(census), census
    idle = sorted(kind for kind, (n, k) in census.items() if n <= k)
    assert idle == [], census

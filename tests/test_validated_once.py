"""Validation with no registry of what passed: every groupoid, S-action,
partial group action, space action and functor given to its validator is
checked in full, whatever passed before, with the witness it gets on its
own.  The builders whose laws are proved make born validated groupoids,
equal to the universal one where the paper identifies them; the universal
groupoid is memoized on its semigroup and the groupoid space on its
S-action; a space action that passed ``validate_space_action`` is not
checked again by ``semidirect_product``; two ``germ_groupoid`` builds of
one action are equal; and a verify run reduces the anchors of each action
once."""

import json

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
from test_kernels import outcome


@pytest.fixture(scope="module")
def S():
    # E-unitary, with a 32-arrow universal groupoid: Light's test runs on
    # spanning-tree generators, not on every arrow
    return fx.direct_product(fx.chain(8), fx.cyclic_group(4))


@pytest.fixture(scope="module")
def g(S):
    return germs.universal_groupoid(S)


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


def test_the_builders_of_one_fixture_make_equal_born_groupoids(S, full):
    # equal copies that skip their checks: the universal groupoid and the
    # builders whose laws are proved are born validated, with equal arrays
    universal = germs.universal_groupoid(S)
    beta = germs.beta_action(S)
    ga, g = germs.gspace_from_saction(beta)
    others = [pa.partial_trans_groupoid(pa.theta_from_sigma(S)),
              germs.germ_groupoid(beta), gpd.semidirect_product(ga)]
    assert full == [] and universal.validated and g is universal
    for h in others:
        assert h.validated and h.generators is None
        for field in ("dom", "ran", "inv", "identity", "products"):
            assert np.array_equal(getattr(h, field), getattr(universal, field)), field


@pytest.mark.parametrize("case", range(10))
def test_a_twin_that_differs_in_one_entry_is_validated_in_full(g, full, case):
    # after an equal copy of g passes, a copy one entry off still gets the
    # witness it gets on its own
    name, build = mutants(g)[case]
    expect = outcome(gpd.validate_groupoid, build())
    assert expect[0] != "ok", name
    gpd.validate_groupoid(copy_of(g))
    full.clear()
    assert outcome(gpd.validate_groupoid, build()) == expect, name
    assert len(full) == 1


def test_a_failing_validation_keeps_nothing(g, full):
    # nothing is kept of a failing check: it fails again, in full
    _, build = mutants(g)[0]
    for _ in range(2):
        with pytest.raises(errors.CompositionNotAssociative):
            gpd.validate_groupoid(build())
    assert len(full) == 2
    good = gpd.validate_groupoid(copy_of(g))
    assert full[-1] is good


def test_one_verify_of_the_same_file_twice_validates_each_fixture_in_full(
        S, full, tmp_path, capsys, monkeypatch):
    # every groupoid of this fixture is born validated: a fixture validates
    # nothing by check_laws, and builds its own universal groupoid, memoized
    # on its own semigroup
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


@pytest.mark.parametrize("kind", CHECKED)
def test_an_equal_input_over_equal_but_other_objects_is_checked_in_full(
        S, g, kind, monkeypatch):
    # over equal copies of S, G or the groupoid (g2 shares only g's
    # products), equal inputs are each checked
    S2 = fx.direct_product(fx.chain(8), fx.cyclic_group(4))
    g2 = gpd.validate_groupoid(copy_of(g))
    assert g2.products is g.products
    target, array, validate = kinds(S, g)[kind]
    _, other_array, validate_other = kinds(S2, g2)[kind]
    assert np.array_equal(array, other_array)
    full = spy_on(monkeypatch, target)
    validate(np.array(array))
    validate_other(np.array(array))
    assert len(full) == 2


def test_a_space_action_over_a_groupoid_sharing_only_its_products_is_checked(
        S, monkeypatch):
    # the groupoid of the action and a copy built from its products: the
    # same action over each is two checks
    ga = germs.gspace_from_saction(germs.beta_action(S))[0]
    h = ga.groupoid
    h2 = gpd.validate_groupoid(copy_of(h))
    assert h2.products is h.products
    full = spy_on(monkeypatch, (gpd, "first_failing_pair"))
    for groupoid in (h, h2):
        gpd.validate_space_action(gpd.GroupoidSpaceAction(
            groupoid, ga.point_labels, ga.anchor, np.array(ga.act)))
    assert len(full) == 2


@pytest.mark.parametrize("kind", CHECKED)
def test_no_twin_is_taken_outside_a_scope(S, g, kind, monkeypatch):
    target, array, validate = kinds(S, g)[kind]
    full = spy_on(monkeypatch, target)
    for _ in range(4):
        validate(np.array(array))
    assert len(full) == 4


@pytest.mark.parametrize("kind", CHECKED)
def test_an_input_one_entry_off_is_checked_in_full(S, g, kind):
    _, array, validate = kinds(S, g)[kind]
    copies = one_entry_off(array)
    expect = [outcome(validate, copy) for copy in copies]
    assert all(e[0] != "ok" for e in expect), expect
    validate(np.array(array))
    assert [outcome(validate, copy) for copy in copies] == expect


@pytest.mark.parametrize("kind", CHECKED)
def test_a_failing_input_enters_no_scope(S, g, kind):
    _, array, validate = kinds(S, g)[kind]
    bad = one_entry_off(array)[0]
    expect = outcome(validate, bad)
    # were it kept, the second call would pass
    assert outcome(validate, bad) == outcome(validate, bad) == expect


def test_a_space_action_with_another_anchor_is_checked_in_full(S, g):
    ga = germs.gspace_from_saction(germs.beta_action(S))[0]
    anchor = list(ga.anchor)
    anchor[0] = (anchor[0] + 1) % ga.groupoid.n_units
    made = lambda a: gpd.GroupoidSpaceAction(ga.groupoid, ga.point_labels, a, ga.act)
    expect = outcome(gpd.validate_space_action, made(anchor))
    assert expect[0] == "InvalidAction"
    gpd.validate_space_action(made(ga.anchor))
    assert outcome(gpd.validate_space_action, made(anchor)) == expect


def test_a_functor_with_another_unit_map_is_checked_in_full(g):
    units = np.arange(g.n_units)
    units[0] = 1
    expect = outcome(gpd.groupoid_functor, g, g, units, range(g.n_arrows))
    assert expect[0] == "NotAFunctor"
    helpers.identity_functor(g)
    assert outcome(gpd.groupoid_functor, g, g, units, range(g.n_arrows)) == expect


# -- germ builds of one action ----------------------------------------------------------

def test_two_germ_builds_of_one_action_are_equal_groupoids(S, monkeypatch):
    beta = germs.beta_action(S)
    action = germs.SAction(S, beta.point_labels, beta.maps)
    full = spy_on(monkeypatch, (gpd, "check_laws"))
    first = germs.germ_groupoid(action, name="first")
    again = germs.germ_groupoid(action, name="again")
    assert len(full) == 2                   # an action never validated: full
    assert again is not first and (first.name, again.name) == ("first", "again")
    assert again.validated and again.action is action
    born = germs.germ_groupoid(beta)        # beta passed validate_saction
    assert len(full) == 2 and born.validated and born.generators is None
    assert born.name == f"{S.name}|germs"
    for h in (again, born):
        for field in ("dom", "ran", "inv", "identity", "arrow_at", "arrow_pairs",
                      "products"):
            assert np.array_equal(getattr(h, field), getattr(first, field)), field
            assert not getattr(h, field).flags.writeable
        assert h.arrow_labels == first.arrow_labels


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


# -- one anchor reduction per action --------------------------------------------------

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


def test_verify_reduces_the_anchors_once_per_action(monkeypatch):
    # the verify_mid pair of the benchmark: the round trip of its equiv
    # checks gives back maps equal to beta's, so beta itself.  The anchors
    # are those of beta of CHAIN8 x Z16 and of its ks T-space,
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
    # the maps of the way back, one image moved: they differ from beta's,
    # so they are validated, and the validator names the moved image
    S = fx.brandt(fx.cyclic_group(4), 4)
    path = tmp_path / "bz4x4.json"
    path.write_text(S.to_json())
    back = germs.underlying_maps

    def moved(gaction):
        maps = np.array(back(gaction))
        s, x = np.argwhere(maps >= 0)[-1]
        maps[s, x] = (maps[s, x] + 1) % gaction.n_points
        return maps
    monkeypatch.setattr(germs, "underlying_maps", moved)
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
        validate(np.array(good))
        assert outcome(validate, bad) == expect


# -- the universal groupoid memoized on its semigroup, the groupoid space on
#    its S-action --------------------------------

def test_a_universal_groupoid_is_built_once_per_semigroup_and_flag(
        full, monkeypatch):
    # each call passes its groupoid through validate_groupoid, which returns
    # a groupoid born validated as it is; an equal semigroup builds its own
    S, T = (fx.direct_product(fx.chain(8), fx.cyclic_group(4)) for _ in range(2))
    passed = spy_on(monkeypatch, (germs, "validate_groupoid"))
    built = spy_on(monkeypatch, (germs, "UniversalGroupoid"))
    first = germs.universal_groupoid(S)
    again = germs.universal_groupoid(S, contracted=0)
    assert again is first
    assert [args[0] for args in passed] == [first, first]
    assert len(built) == 1 and full == []
    other = germs.universal_groupoid(T)
    assert other is not first and len(built) == 2 and full == []
    assert other.validated and np.array_equal(other.products, first.products)


def test_a_semigroup_from_the_raw_constructor_gets_its_groupoid_checked(S, full):
    # the table build is proved only from a validated table
    raw = sg.InvSemigroup(S.names, np.array(S.table), S.zero, np.array(S.star))
    assert S.validated and not raw.validated
    g = germs.universal_groupoid(raw)
    assert full == [g] and g.validated
    assert np.array_equal(g.products, germs.universal_groupoid(S).products)


def test_the_universal_memo_keeps_the_flags_and_semigroups_apart(full):
    B2 = fx.b2()
    other = fx.b2()
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
    # the table; the same group as a one-unit groupoid, validated in full,
    # equals it, generators included
    make, _ = group_image()
    G = make()
    g = germs.universal_groupoid(G)
    assert full == [] and g.validated
    h = helpers.groupoid_from_group(G)
    assert full == [h] and h.validated
    assert np.array_equal(h.products, g.products)
    assert np.array_equal(h.generators, g.generators)
    assert not g.generators.flags.writeable
    assert np.array_equal(g.generators, oracles.generating_arrows(g))
    assert oracles.composition_closure(g, np.flatnonzero(g.generators)) \
        == set(range(len(G)))
    assert np.array_equal(oracles.comp_table(g), G.table)


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
    germs.universal_groupoid(make())        # the one-unit groupoid, born
    full.clear()
    bad = build()
    assert outcome(gpd.validate_groupoid, bad) == expect
    assert full == [bad]


def test_an_equal_saction_of_the_same_semigroup_is_converted_once(monkeypatch):
    # the round trip of verify_equiv_roundtrip gives back maps equal to
    # beta's: they are beta, validated once, whose groupoid space is
    # memoized on it; an equal copy is converted again
    S = fx.direct_product(fx.chain(8), fx.cyclic_group(4))
    beta = germs.beta_action(S)
    checked = spy_on(monkeypatch, (germs, "validate_space_action"))
    validated = spy_on(monkeypatch, (germs, "validate_saction"))
    ok, _ = germs.verify_equiv_roundtrip(beta)
    assert ok and len(checked) == 1 and validated == []
    ga, g = germs.gspace_from_saction(beta)
    assert germs.gspace_from_saction(beta) == (ga, g)
    assert len(checked) == 1
    copy = germs.SAction(S, list(beta.point_labels), np.array(beta.maps))
    assert germs.gspace_from_saction(copy)[0] is not ga
    assert len(checked) == 2


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
    ga, _ = germs.gspace_from_saction(beta)
    checked = spy_on(monkeypatch, (germs, "validate_space_action"))
    assert [outcome(germs.gspace_from_saction, make()) for make in cases] == expect
    assert len(checked) == 2
    assert germs.gspace_from_saction(cases[0]())[0] is not ga
    assert germs.gspace_from_saction(beta)[0] is ga         # memoized on beta

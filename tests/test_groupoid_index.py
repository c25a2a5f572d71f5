"""Groupoid validation from one arrows-by-range index: the spanning-tree
generators of Light's test, the composable pairs and their products,
the generators a validated groupoid keeps for the space-action and functor
checks, and the kernels they replaced (``oracles.generating_arrows``,
``oracles.endpoint_law_holds``, ``oracles.associativity_by_hom_sets``)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from germoid import errors
from germoid import fixtures as fx
from germoid import groupoids as gpd
from germoid.verify import groupoid_variant
from test_golden import FIXTURES, GOLDEN
from test_json_text import variants
from test_kernels import outcome, tree_generators, with_table


def reductions(g, rng, k=3):
    """k reductions of g to random unit subsets, validated."""
    out = []
    for _ in range(k):
        units = [u for u in range(g.n_units) if rng.random() < 0.6]
        out.append(gpd.validate_groupoid(gpd.reduction(g, units)))
    return out


@pytest.fixture(scope="module")
def built(random_eunitary):
    """The golden groupoids, every preset in all four variants, the random
    corpus, pair groupoids and reductions of them to unit subsets."""
    out = [helpers.pair_groupoid(k) for k in (1, 2, 4, 11)]
    out += [groupoid_variant(FIXTURES[f](), v) for f, v in
            sorted({g[:2] for g in GOLDEN})]
    for preset in sorted(fx.PRESETS):
        out += variants(fx.PRESETS[preset]())
    for S in random_eunitary:
        out += variants(S)
    rng = random.Random(13)
    out += [r for g in list(out) if g.n_units > 1 for r in reductions(g, rng)]
    return out


def components(g):
    """The units of each component of g, as sorted tuples."""
    classes, _ = gpd.connected_components(g.n_units, g.dom, g.ran)
    return [tuple(c.tolist()) for c in classes]


def test_the_corpus_has_components_of_several_units(built):
    # the spanning trees are more than the bases' isotropy
    assert any(sum(len(c) > 1 for c in components(g)) > 1 for g in built)
    assert any(g.n_arrows > 25 for g in built)


def test_tree_generators_and_identities_generate(built):
    for g in built:
        gens = tree_generators(g)
        seeds = np.flatnonzero(gens).tolist() + g.identity.tolist()
        assert oracles.composition_closure(g, seeds) == set(range(g.n_arrows))


def test_tree_generators_are_tree_arrows_and_base_loops(built):
    # every generator is a loop at the least unit x of its component, or
    # goes between x and another unit; each other unit is an end of two
    for g in built:
        base = np.zeros(g.n_units, dtype=np.int64)
        for c in components(g):
            base[list(c)] = c[0]
        gens = np.flatnonzero(tree_generators(g))
        dom, ran = g.dom[gens], g.ran[gens]
        loop = dom == ran
        assert (base[dom[loop]] == dom[loop]).all()
        dom, ran = dom[~loop], ran[~loop]
        assert ((dom == base[ran]) | (ran == base[dom])).all()
        other = np.where(dom == base[dom], ran, dom)
        assert np.array_equal(np.bincount(other, minlength=g.n_units),
                              2 * (base != np.arange(g.n_units)))


def test_validation_keeps_the_defined_pairs(built):
    for g in built + [gpd.FiniteGroupoid([], [], [], [], [], [])]:
        h = copy_of(g)
        gpd.validate_groupoid(h)
        assert h.composable_pairs is h.composable_pairs and "products" in vars(h)
        a, b = h.composable_pairs
        table = oracles.comp_table(g)
        expect = np.nonzero(table >= 0)
        assert np.array_equal(a, expect[0]) and np.array_equal(b, expect[1])
        assert a.dtype == expect[0].dtype and b.dtype == expect[1].dtype
        assert np.array_equal(h.products, table[a, b])


@pytest.fixture(scope="module")
def associative(built):
    """Groupoids with a composable pair (a, b) of non-identities, b not the
    inverse of a, and a second arrow with the endpoints of ab."""
    return [g for g in built if g.n_arrows <= 64 and len(rewritable(g)[0])]


def rewritable(g):
    """The pairs (a, b) whose product can be changed to another arrow with
    the same ends while the endpoint, identity and inverse laws hold."""
    (a, b), ab = g.composable_pairs, g.products
    hom = np.bincount(g.ran * g.n_units + g.dom, minlength=g.n_units ** 2)
    is_id = np.zeros(g.n_arrows, dtype=bool)
    is_id[g.identity] = True
    keep = ~is_id[a] & ~is_id[b] & (g.inv[a] != b) & \
        (hom[g.ran[ab] * g.n_units + g.dom[ab]] > 1)
    return a[keep], b[keep]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_broken_product_gives_the_oracles_witness(associative, data):
    # one product moved to another arrow with its endpoints: every law but
    # associativity still holds, so only Light's test can see it
    g = data.draw(st.sampled_from(associative), label="g")
    a, b = rewritable(g)
    i = data.draw(st.integers(0, len(a) - 1), label="pair")
    ab = g.product(a[i], b[i])
    others = np.flatnonzero((g.dom == g.dom[ab]) & (g.ran == g.ran[ab]) &
                            (np.arange(g.n_arrows) != ab))
    table = oracles.comp_table(g)
    table[a[i], b[i]] = data.draw(st.sampled_from(others.tolist()), label="c")
    h = with_table(g, table)
    expect = outcome(oracles.validate_groupoid_loops, h)
    assert outcome(gpd.validate_groupoid, h) == expect
    bad = oracles.associativity_by_hom_sets(h)
    assert expect == (("ok", "") if bad is None else (
        "CompositionNotAssociative", str(errors.CompositionNotAssociative(*bad))))


def copy_of(g):
    """g as a new groupoid built by hand, not yet validated."""
    return gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran, g.products,
                              g.inv, g.identity)


def test_validation_records_the_generators(built):
    for g in built + [gpd.FiniteGroupoid([], [], [], [], [], [])]:
        h = copy_of(g)
        assert h.generators is None
        gpd.validate_groupoid(h)
        expect = tree_generators(h) if h.n_arrows > 25 else \
            np.ones(h.n_arrows, dtype=bool)
        assert np.array_equal(h.generators, expect)
        assert not h.generators.flags.writeable


def test_a_failing_validation_records_no_generators(associative):
    for g in associative[:10]:
        a, b = rewritable(g)
        ab = g.product(a[0], b[0])
        other = np.flatnonzero((g.dom == g.dom[ab]) & (g.ran == g.ran[ab]) &
                               (np.arange(g.n_arrows) != ab))[0]
        table = oracles.comp_table(g)
        table[a[0], b[0]] = other
        h = with_table(g, table)
        with pytest.raises(errors.CompositionNotAssociative):
            gpd.validate_groupoid(h)
        assert h.generators is None and not h.validated


def unit_action(g):
    """g acting on its units: a sends dom a to ran a."""
    act = np.full((g.n_arrows, g.n_units), -1)
    act[np.arange(g.n_arrows), g.dom] = g.ran
    return gpd.GroupoidSpaceAction(g, g.unit_labels, range(g.n_units), act)


def spied(monkeypatch):
    """The ``generators`` that each call of ``first_failing_pair`` gets."""
    seen, scan = [], gpd.first_failing_pair

    def spy(g, bad, width=1, generators=None):
        seen.append(generators)
        return scan(g, bad, width, generators)
    monkeypatch.setattr(gpd, "first_failing_pair", spy)
    return seen


def test_a_reduction_has_no_generators_and_its_checks_scan_every_pair(
        built, monkeypatch):
    big = [g for g in built if g.n_arrows > 25 and g.n_units > 2]
    assert big
    seen = spied(monkeypatch)
    for g in big[:6]:
        red = gpd.reduction(g, range(0, g.n_units, 2))
        assert red.generators is None
        seen.clear()
        gpd.validate_space_action(unit_action(red))
        helpers.inclusion_of_reduction(red, g)
        assert seen == [None, None]
        gpd.validate_space_action(unit_action(g))
        helpers.identity_functor(g)
        assert seen[2] is g.generators and seen[3] is g.generators


def test_the_pair_scan_sees_only_generator_pairs_unless_one_fails(built):
    for g in [g for g in built if g.n_arrows > 25][:6]:
        a, b = g.composable_pairs
        middle = g.generators[b]
        seen = []

        def none_fail(pa, pb, pab):
            seen.append(len(pa))
            return np.zeros(len(pa), dtype=bool)
        assert gpd.first_failing_pair(g, none_fail, 1, g.generators) is None
        assert sum(seen) == np.count_nonzero(middle) < len(a)
        seen.clear()
        assert gpd.first_failing_pair(g, none_fail) is None
        assert sum(seen) == len(a)
        # failures at every pair from the j-th on: the generator pairs alone
        # see none past the last of them; otherwise all pairs are scanned,
        # and the first failing one is named even when b is no generator
        key, last = a * g.n_arrows + b, np.flatnonzero(middle)[-1]

        def from_pair(j):
            return lambda pa, pb, pab: pa * g.n_arrows + pb >= key[j]
        if last + 1 < len(a):
            assert gpd.first_failing_pair(g, from_pair(last + 1), 1,
                                          g.generators) is None
        j = np.flatnonzero(~middle[:last])[0]
        assert gpd.first_failing_pair(g, from_pair(j), 1, g.generators) == \
            (int(a[j]), int(b[j]), 0)


@pytest.mark.parametrize("preset", ["b2", "s3", "i2"])
def test_an_image_outside_the_points_is_an_invalid_action(preset):
    from germoid import germs
    ga, g = germs.gspace_from_saction(germs.beta_action(fx.PRESETS[preset]()))
    is_id = np.zeros(g.n_arrows, dtype=bool)
    is_id[g.identity] = True
    a, x = np.argwhere((ga.act >= 0) & ~is_id[:, None])[0]
    act = np.array(ga.act)
    act[a, x] = ga.n_points
    bad = gpd.GroupoidSpaceAction(g, ga.point_labels, ga.anchor, act)
    expect = ("InvalidAction",
              f"arrow {a} sends point {x} outside the points")
    assert outcome(gpd.validate_space_action, bad) == expect
    assert outcome(oracles.validate_space_action_loops, bad) == expect
    for shape in (act[:-1], act[:, :-1], act.ravel()):
        wrong = gpd.GroupoidSpaceAction(g, ga.point_labels, ga.anchor, shape)
        expect = ("InvalidParams", "need an image per arrow and point")
        assert outcome(gpd.validate_space_action, wrong) == expect
        assert outcome(oracles.validate_space_action_loops, wrong) == expect


def test_functor_maps_are_tuples_of_python_ints():
    g = helpers.pair_groupoid(3)
    F = gpd.groupoid_functor(g, g, np.arange(3), np.arange(9, dtype=np.int32))
    assert F.unit_map == (0, 1, 2) and F.arrow_map == tuple(range(9))
    assert all(type(x) is int for x in F.unit_map + F.arrow_map)
    assert repr(F.arrow_map) == repr(tuple(range(9)))


@pytest.mark.parametrize("n", range(6))
def test_symmetric_inverse_matches_the_loops(n):
    names, table = oracles.symmetric_inverse_loops(n)
    S = fx.symmetric_inverse(n)
    assert list(S.names) == names and S.table.tolist() == table.tolist()
    assert S.zero == 0 and S.name == f"I{n}"

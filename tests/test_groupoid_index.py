"""Groupoid validation from one arrows-by-range index: the spanning-tree
generators of Light's test, the composable pairs kept as ``defined_pairs``,
and the kernels they replaced (``oracles.generating_arrows``,
``oracles.endpoint_law_holds``, ``oracles.associativity_by_hom_sets``)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from germoid import errors
from germoid import fixtures as fx
from germoid import groupoids as gpd
from germoid.verify import groupoid_variant
from test_golden import FIXTURES, GOLDEN
from test_json_text import variants
from test_kernels import outcome, tree_generators


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
    out = [gpd.pair_groupoid(k) for k in (1, 2, 4, 11)]
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
    for g in built + [gpd.FiniteGroupoid([], [], [], {}, [], [])]:
        h = gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran, g.comp_table,
                               g.inv, g.identity)
        gpd.validate_groupoid(h)
        assert "defined_pairs" in vars(h)
        a, b = h.defined_pairs
        expect = np.nonzero(g.comp_table >= 0)
        assert np.array_equal(a, expect[0]) and np.array_equal(b, expect[1])
        assert a.dtype == expect[0].dtype and b.dtype == expect[1].dtype


@pytest.fixture(scope="module")
def associative(built):
    """Groupoids with a composable pair (a, b) of non-identities, b not the
    inverse of a, and a second arrow with the endpoints of ab."""
    return [g for g in built if g.n_arrows <= 64 and len(rewritable(g)[0])]


def rewritable(g):
    """The pairs (a, b) whose product can be changed to another arrow with
    the same ends while the endpoint, identity and inverse laws hold."""
    a, b = g.defined_pairs
    ab = g.comp_table[a, b]
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
    ab = g.comp_table[a[i], b[i]]
    others = np.flatnonzero((g.dom == g.dom[ab]) & (g.ran == g.ran[ab]) &
                            (np.arange(g.n_arrows) != ab))
    table = np.array(g.comp_table)
    table[a[i], b[i]] = data.draw(st.sampled_from(others.tolist()), label="c")
    h = gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran, table, g.inv,
                           g.identity)
    expect = outcome(oracles.validate_groupoid_loops, h)
    assert outcome(gpd.validate_groupoid, h) == expect
    bad = oracles.associativity_by_hom_sets(h)
    assert expect == (("ok", "") if bad is None else (
        "CompositionNotAssociative", str(errors.CompositionNotAssociative(*bad))))


def test_functor_maps_are_tuples_of_python_ints():
    g = gpd.pair_groupoid(3)
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

"""The vectorized kernels against the loop oracles they replaced.

Each kernel must give its oracle's verdict and, on failure, the same error
type and message, so the same witness.  Inputs are the named fixtures, the
random E-unitary semidirect products, and single-entry mutations of
multiplication tables, action maps and groupoid compositions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from germoid import errors
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import partial_actions as pa
from germoid import semigroups as sg

EXAMPLES = settings(max_examples=150, deadline=None)
FEW = settings(max_examples=12, deadline=None)


def outcome(fn, *args):
    """("ok", "") or the error type and message a call raises."""
    try:
        fn(*args)
    except errors.GermoidError as exc:
        return type(exc).__name__, str(exc)
    return "ok", ""


def chain_by_cyclic(k, m):
    return fx.direct_product(fx.chain(k), fx.cyclic_group(m))


@pytest.fixture(scope="module")
def semigroups(corpus, random_eunitary):
    return list(corpus.values()) + random_eunitary[:12] + \
        [fx.symmetric_inverse(3), fx.brandt(fx.cyclic_group(2), 2)]


@pytest.fixture(scope="module")
def groupoids(corpus, random_eunitary):
    out = [germs.universal_groupoid(S) for S in corpus.values()]
    with_zero = [S for S in corpus.values() if S.zero is not None]
    out += [germs.universal_groupoid(S, contracted=True) for S in with_zero]
    out += [germs.tight_groupoid(S) for S in with_zero]
    out += [pa.partial_trans_groupoid(pa.theta_from_sigma(S))
            for S in random_eunitary[:12]]
    out += [gpd.pair_groupoid(3)]
    return [g for g in out if g.n_arrows <= 40]


@pytest.fixture(scope="module")
def actions(corpus, random_eunitary):
    out = []
    for S in list(corpus.values()) + random_eunitary[:12]:
        out.append(germs.beta_action(S))
        if S.zero is not None:
            action = germs.beta_action(S, contracted=True)
            out += [action, action.restrict(germs.tight_spectrum(action.space))]
    return out


# -- associativity: Light's test and the slab scan -------------------------------

def mutated_table(data, S):
    table = np.array(S.table)
    if data.draw(st.booleans(), label="mutate"):
        n = len(S)
        i = data.draw(st.integers(0, n - 1), label="i")
        j = data.draw(st.integers(0, n - 1), label="j")
        table[i, j] = data.draw(st.integers(0, n - 1), label="value")
    return table


@EXAMPLES
@given(data=st.data())
def test_lights_test_decides_associativity(semigroups, data):
    S = data.draw(st.sampled_from(semigroups), label="S")
    table = mutated_table(data, S)
    gens = sg.greedy_generators(table)
    assert sg.lights_test(table, gens) == \
        (oracles.first_nonassociative_triple(table) is None)


@EXAMPLES
@given(data=st.data())
def test_validate_semigroup_matches_scan(semigroups, data):
    S = data.draw(st.sampled_from(semigroups), label="S")
    table = mutated_table(data, S)
    assert outcome(sg.validate_semigroup, S.names, table, S.zero) == \
        outcome(oracles.validate_semigroup_scan, table, S.zero)


@FEW
@given(data=st.data())
def test_validate_semigroup_on_a_large_table_matches_scan(data):
    # 176 elements: Light's test decides, and the slab scan, run over many
    # slabs, only supplies the witness
    S = chain_by_cyclic(11, 16)
    table = mutated_table(data, S)
    assert outcome(sg.validate_semigroup, S.names, table, None) == \
        outcome(oracles.validate_semigroup_scan, table, None)


def test_greedy_generators_generate(semigroups):
    for S in semigroups:
        gens = sg.greedy_generators(S.table)
        closure = set(gens)
        while True:
            new = {S.mul(a, b) for a in closure for b in closure} - closure
            if not new:
                break
            closure |= new
        assert closure == set(range(len(S)))
        assert gens == sorted(gens)


def test_chain_needs_every_idempotent_as_generator():
    S = chain_by_cyclic(4, 3)
    assert len(S.generators) == 4 + 1   # f1, f2, f3, the identity, one g


# -- action validation ------------------------------------------------------------

def mutated_maps(data, maps):
    maps = np.array(maps)
    if data.draw(st.booleans(), label="mutate"):
        n, m = maps.shape
        s = data.draw(st.integers(0, n - 1), label="s")
        x = data.draw(st.integers(0, m - 1), label="x")
        maps[s, x] = data.draw(st.integers(-1, m - 1), label="value")
    return maps


@EXAMPLES
@given(data=st.data())
def test_validate_saction_matches_scan(actions, data):
    action = data.draw(st.sampled_from(actions), label="action")
    S = action.semigroup
    maps = mutated_maps(data, action.maps)
    assert outcome(germs.validate_saction, S, action.point_labels, maps) == \
        outcome(oracles.validate_saction_scan, S, maps)


@FEW
@given(data=st.data())
def test_validate_saction_on_a_large_action_matches_scan(data):
    # |S|^2 |X| = 128^2 * 8 spans many slabs of the full scan
    S = chain_by_cyclic(8, 16)
    action = germs.beta_action(S)
    maps = mutated_maps(data, action.maps)
    assert outcome(germs.validate_saction, S, action.point_labels, maps) == \
        outcome(oracles.validate_saction_scan, S, maps)


@EXAMPLES
@given(data=st.data())
def test_validate_partial_action_matches_loops(random_eunitary, data):
    S = data.draw(st.sampled_from(random_eunitary[:12]), label="S")
    theta = pa.theta_from_sigma(S)
    maps = mutated_maps(data, theta.maps)
    assert outcome(pa.validate_partial_action, theta.group,
                   theta.point_labels, maps) == \
        outcome(oracles.validate_partial_action_loops, theta.group, maps)


@pytest.fixture(scope="module")
def space_actions(corpus, random_eunitary):
    out = []
    for S in list(corpus.values()) + random_eunitary[:6]:
        ga, g = germs.gspace_from_saction(germs.beta_action(S))
        if g.n_arrows <= 40:
            out.append(ga)
        # enveloping spaces put several points over one unit
        phi = sg.hom_from_sigma(sg.max_group_image(S))
        if sg.is_locally_idempotent_pure(phi):
            out.append(gpd.enveloping_action_of_functor(
                germs.induced_functor(phi))[0])
    return out


@EXAMPLES
@given(data=st.data())
def test_validate_space_action_matches_loops(space_actions, data):
    ga = data.draw(st.sampled_from(space_actions), label="action")
    act = mutated_maps(data, ga.act)
    if data.draw(st.booleans(), label="stay in the fiber"):
        # move hx within the fiber over ran(h): anchors still match, so only
        # functoriality can fail
        a, x = data.draw(st.sampled_from(np.argwhere(act >= 0).tolist()))
        fiber = [y for y in range(ga.n_points)
                 if ga.anchor[y] == ga.groupoid.ran[a]]
        act[a, x] = data.draw(st.sampled_from(fiber), label="y")
    anchor = list(ga.anchor)
    if data.draw(st.booleans(), label="move anchor"):
        x = data.draw(st.integers(0, len(anchor) - 1), label="x")
        anchor[x] = data.draw(st.integers(0, ga.groupoid.n_units - 1))
    bad = gpd.GroupoidSpaceAction(ga.groupoid, ga.point_labels, anchor, act)
    assert outcome(gpd.validate_space_action, bad) == \
        outcome(oracles.validate_space_action_loops, bad)


# -- germ classes -------------------------------------------------------------------

def test_germ_classes_match_order_relation(actions):
    for action in actions:
        g = germs.germ_groupoid(action)
        expect = oracles.germ_classes_by_order(action.semigroup, action)
        assert [sorted(c) for c in g.germ_classes] == expect
        assert list(g.germ_reps) == [c[0] for c in expect]


def test_germ_classes_of_an_enveloping_action():
    S = fx.s4_monoid()
    res = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(S)))
    action = res.taction
    expect = oracles.germ_classes_by_order(action.semigroup, action)
    assert [sorted(c) for c in res.target.germ_classes] == expect


# -- groupoid validation ------------------------------------------------------------

def mutated_groupoid(data, g):
    n, k = g.n_arrows, g.n_units
    comp = dict(g.comp)
    dom, ran = list(g.dom), list(g.ran)
    inv, identity = list(g.inv), list(g.identity)
    arrow = st.integers(0, n - 1)
    unit = st.integers(0, k - 1)
    kind = data.draw(st.sampled_from(
        ["none", "comp", "drop", "add", "inv", "identity", "dom", "ran"]),
        label="kind")
    if kind in ("comp", "drop") and comp:
        key = data.draw(st.sampled_from(sorted(comp)), label="pair")
        if kind == "drop":
            del comp[key]
        else:
            comp[key] = data.draw(arrow, label="value")
    elif kind == "add":
        comp[(data.draw(arrow), data.draw(arrow))] = data.draw(arrow)
    elif kind == "inv":
        inv[data.draw(arrow)] = data.draw(arrow)
    elif kind == "identity":
        identity[data.draw(unit)] = data.draw(arrow)
    elif kind == "dom":
        dom[data.draw(arrow)] = data.draw(unit)
    elif kind == "ran":
        ran[data.draw(arrow)] = data.draw(unit)
    return gpd.FiniteGroupoid(g.unit_labels, dom, ran, comp, inv, identity)


@EXAMPLES
@given(data=st.data())
def test_validate_groupoid_matches_loops(groupoids, data):
    g = data.draw(st.sampled_from(groupoids), label="g")
    h = mutated_groupoid(data, g)
    assert outcome(gpd.validate_groupoid, h) == \
        outcome(oracles.validate_groupoid_loops, h)


def test_non_associative_composition_witness():
    # a five-element loop in which every element is its own inverse:
    # identity and inverse laws hold, associativity fails first at (1, 1, 2)
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    comp = {(a, b): loop[a][b] for a in range(5) for b in range(5)}
    g = gpd.FiniteGroupoid(["pt"], [0] * 5, [0] * 5, comp, range(5), [0])
    expect = ("CompositionNotAssociative", "(a1 a1) a2 != a1 (a1 a2)")
    assert outcome(gpd.validate_groupoid, g) == expect
    assert outcome(oracles.validate_groupoid_loops, g) == expect


def test_out_of_range_composition_is_a_structured_error():
    g = gpd.pair_groupoid(2)
    comp = dict(g.comp)
    comp[(0, 0)] = 7
    bad = gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran, comp, g.inv,
                             g.identity)
    with pytest.raises(errors.DomainMismatch):
        gpd.validate_groupoid(bad)


def test_endpoint_outside_units_is_a_structured_error():
    g = gpd.pair_groupoid(2)
    dom = list(g.dom)
    dom[1] = 5
    bad = gpd.FiniteGroupoid(g.unit_labels, dom, g.ran, g.comp, g.inv,
                             g.identity)
    with pytest.raises(errors.UnknownUnit):
        gpd.validate_groupoid(bad)


# -- the natural order ------------------------------------------------------------

def test_leq_matrix_matches_definition(semigroups):
    for S in semigroups:
        table = S.table.tolist()
        expect = [[oracles.leq(table, s, t) for t in range(len(S))]
                  for s in range(len(S))]
        assert S.leq_matrix().tolist() == expect

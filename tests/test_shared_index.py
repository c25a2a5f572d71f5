"""Composable-pair indexes shared between groupoids proved to have the same
ends, the partial transformation groupoid memoized on a validated theta,
and arrow labels made when first read.

The germ groupoid of S's memoized beta has the arrays of S's universal
groupoid (proved in ``germs.universal_groupoid``), and the semidirect
product of a space action anchored by the identity on H's units has H's
ends (``groupoids.semidirect_product``): each takes the other's
``_index``, and must equal the index computed again from its own ``dom``
and ``ran``.  Products stay each builder's own rule."""

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
from germoid import matrixrep as mr
from germoid import partial_actions as pa
from germoid import semigroups as sg
from test_born_validated import symmetric_group

INDEX = gpd.FiniteGroupoid.__dict__["_index"]


def index_arrays(index):
    by_ran, pairs, offsets = index
    return [*by_ran, *pairs, *offsets]


def takes_index_of(g, h):
    """g holds h's index, has h's ends, and that index is the one g's own
    ``dom`` and ``ran`` give."""
    assert g._index is h._index, (g.name, h.name)
    assert g.n_units == h.n_units
    assert np.array_equal(g.dom, h.dom) and np.array_equal(g.ran, h.ran)
    for mine, again in zip(index_arrays(g._index), index_arrays(INDEX.func(g)),
                           strict=True):
        assert np.array_equal(mine, again), g.name


def check_shared(S):
    """Per flag, the germ groupoid of beta and the semidirect product of
    beta's groupoid space take the universal groupoid's index."""
    for flag in (False, True) if S.zero is not None else (False,):
        beta = germs.beta_action(S, flag)
        ga, u = germs.gspace_from_saction(beta)
        assert u is germs.universal_groupoid(S, flag)
        takes_index_of(germs.germ_groupoid(beta), u)
        takes_index_of(gpd.semidirect_product(ga), u)


def s3_semidirect():
    """S3 permuting the three atoms of a semilattice: E-unitary, with a
    non-abelian maximal group image."""
    meet = [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4],
            [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]]
    perms = list(permutations(range(3)))
    return fx.semidirect(meet, symmetric_group(3),
                         {g: (0, *(1 + np.array(p)).tolist(), 4)
                          for g, p in enumerate(perms)})


@pytest.mark.parametrize("make", [
    *(fx.PRESETS[k] for k in sorted(fx.PRESETS)),
    *(lambda n=n: fx.symmetric_inverse(n) for n in (1, 2, 3, 4)),
    lambda: fx.adjoin_zero(fx.s4_monoid()),
    *(lambda m=m, n=n: fx.brandt(fx.cyclic_group(m), n)
      for m, n in [(1, 1), (1, 3), (2, 2), (3, 2)]),
    s3_semidirect,
], ids=[*sorted(fx.PRESETS), "I1", "I2", "I3", "I4", "S4^0",
        "B(Z1,1)", "B(Z1,3)", "B(Z2,2)", "B(Z3,2)", "S3-semidirect"])
def test_the_groupoids_of_beta_take_the_universal_index(make):
    check_shared(make())


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_eunitary_draws_take_the_universal_index(seed):
    check_shared(fx.random_eunitary_semidirect(random.Random(seed)))


def test_groupoids_not_proved_to_share_ends_keep_their_own_index():
    # a germ groupoid of beta built before the universal groupoid, one of
    # a raw copy of beta, the tight groupoid (beta restricted) and the
    # KS semidirect product, whose anchor is not the identity
    S = fx.b2()
    beta = germs.beta_action(S)
    first = germs.germ_groupoid(beta)
    u = germs.universal_groupoid(S)
    raw = germs.germ_groupoid(germs.SAction(S, beta.point_labels, beta.maps))
    tight = germs.tight_groupoid(S)
    T = fx.sd6()
    phi = sg.hom_from_sigma(sg.max_group_image(T))
    ga, _, sd, _ = gpd.enveloping_action_of_functor(germs.induced_functor(phi))
    assert first._index is not u._index and raw._index is not u._index
    assert tight._index is not germs.universal_groupoid(S, True)._index
    assert ga.anchor != tuple(range(ga.groupoid.n_units))
    assert sd._index is not ga.groupoid._index
    assert np.array_equal(first.products, u.products)


# -- one partial transformation groupoid per validated theta ------------------------

def test_a_validated_theta_gets_one_partial_transformation_groupoid():
    S = fx.direct_product(fx.chain(3), fx.cyclic_group(3))
    theta = pa.theta_from_sigma(S)
    trans = pa.partial_trans_groupoid(theta)
    assert trans.validated
    assert pa.partial_trans_groupoid(theta, name="other") is trans
    assert trans.name == "G(CHAIN3xZ3)|X"
    _, Phi, _ = pa.verify_main1(S)
    assert Phi.target is trans
    assert pa.enveloping_group_action(theta).inclusion.source is trans


def test_a_raw_theta_gets_a_fresh_groupoid_validated_in_full(full):
    theta = pa.theta_from_sigma(fx.sd6())
    raw = pa.PartialGroupAction(theta.group, theta.point_labels, theta.maps)
    one, two = pa.partial_trans_groupoid(raw), pa.partial_trans_groupoid(raw)
    assert one is not two and full == [one, two]
    assert one.generators is not None and two.generators is not None
    assert np.array_equal(one.products, pa.partial_trans_groupoid(theta).products)


# -- counts per verify run -----------------------------------------------------------

def verify_all(tmp_path, *semigroups):
    paths = []
    for i, S in enumerate(semigroups):
        paths.append(tmp_path / f"S{i}.json")
        paths[-1].write_text(S.to_json())
    return cli.main(["verify", "--suite", "all", *map(str, paths)])


def test_a_verify_mid_pass_computes_at_most_eight_indexes(tmp_path, capsys,
                                                          monkeypatch):
    # CHAIN8xZ16 and B(Z4,4), the benchmark's verify_mid fixtures: 15
    # indexes before the germ groupoid and semidirect product of beta took
    # the universal groupoid's and main1 and envelope shared G x E^
    made = []

    def spy(g):
        made.append(g.name)
        return real(g)
    real = INDEX.func
    monkeypatch.setattr(INDEX, "func", spy)
    assert verify_all(tmp_path, fx.direct_product(fx.chain(8), fx.cyclic_group(16)),
                      fx.brandt(fx.cyclic_group(4), 4)) == 0
    assert len(made) <= 8, made


@pytest.mark.parametrize("make", [
    fx.sd6, lambda: fx.direct_product(fx.chain(8), fx.cyclic_group(16))],
    ids=["sd6", "CHAIN8xZ16"])
def test_an_eunitary_verify_builds_g_x_e_once(make, tmp_path, capsys, monkeypatch):
    # one partial transformation groupoid of theta, for main1 and the
    # envelope's inclusion, and one of its globalization
    built, real = [], pa.action_groupoid

    def spy(maps, *args, **kw):
        built.append(maps)
        return real(maps, *args, **kw)
    monkeypatch.setattr(pa, "action_groupoid", spy)
    assert verify_all(tmp_path, make()) == 0
    assert len(built) == 2 and all(maps.min() >= 0 for maps in built[1:])


# -- labels made when first read ------------------------------------------------------

def test_labels_read_later_equal_the_eager_strings():
    S = fx.sd6()
    beta = germs.beta_action(S)
    ga, u = germs.gspace_from_saction(beta)
    built = {
        "germs": germs.germ_groupoid(beta),
        "semidirect": gpd.semidirect_product(ga),
        "partial": pa.partial_trans_groupoid(pa.theta_from_sigma(S)),
        "reduction": gpd.reduction(u, germs.ideal_perp(S, (4, 5))[0]),
    }
    assert not any("arrow_labels" in g.__dict__ for g in built.values())
    assert {k: g.arrow_labels for k, g in built.items()} == {
        "germs": ("[(e1,1),(e1,1)^]", "[(e1,1),(b,1)^]", "[(e1,g),(e2,1)^]",
                  "[(e1,g),(b,1)^]", "[(e2,1),(e2,1)^]", "[(e2,g),(e1,1)^]"),
        "semidirect": ("([(e1,1),(e1,1)^],(e1,1)^)", "([(e1,1),(b,1)^],(b,1)^)",
                       "([(e1,g),(e2,1)^],(e2,1)^)", "([(e1,g),(b,1)^],(b,1)^)",
                       "([(e2,1),(e2,1)^],(e2,1)^)", "([(e2,g),(e1,1)^],(e1,1)^)"),
        "partial": ("([(e1,1)],(e1,1)^)", "([(e1,1)],(e2,1)^)", "([(e1,1)],(b,1)^)",
                    "([(e1,g)],(e1,1)^)", "([(e1,g)],(e2,1)^)", "([(e1,g)],(b,1)^)"),
        "reduction": ("[(e1,1),(e1,1)^]", "[(e1,g),(e2,1)^]", "[(e2,1),(e2,1)^]",
                      "[(e2,g),(e1,1)^]"),
    }
    assert germs.tight_groupoid(fx.b2()).arrow_labels == (
        "[e11,e11^]", "[e12,e22^]", "[e21,e11^]", "[e22,e22^]")


@pytest.mark.parametrize("preset", sorted(fx.PRESETS))
def test_lazy_labels_follow_the_eager_rules(preset):
    S = fx.PRESETS[preset]()
    for flag in (False, True) if S.zero is not None else (False,):
        beta = germs.beta_action(S, flag)
        ga, u = germs.gspace_from_saction(beta)
        g, sd = germs.germ_groupoid(beta), gpd.semidirect_product(ga)
        pts = beta.point_labels
        assert g.arrow_labels == tuple(f"[{S.names[s]},{pts[x]}]"
                                       for s, x in g.arrow_pairs.tolist())
        assert g.arrow_labels == u.arrow_labels
        assert sd.arrow_labels == tuple(f"({u.arrow_labels[h]},{ga.point_labels[x]})"
                                        for h, x in sd.arrow_pairs.tolist())


def test_a_groupoid_without_labels_reads_arrow_ids():
    g = gpd.FiniteGroupoid(["u"], [0], [0], [0], [0], [0])
    h = gpd.FiniteGroupoid(["u"], [0], [0], [0], [0], [0], arrow_labels=lambda: ["x"])
    assert g.arrow_labels == ("a0",) and h.arrow_labels == ("x",)


def test_the_convolution_algebra_reads_labels_and_inverses_from_its_groupoid():
    S = fx.sd6()
    res = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(S)))
    alg = mr.convolution_algebra(res.target)
    assert "arrow_labels" not in res.target.__dict__
    assert alg.inv == (0, 1, 2, 4, 3, 5)
    assert alg.labels is res.target.arrow_labels
    assert alg.labels[:2] == ("[[(e1,1)],[[[(e1,1)],[(e1,1)]^],(e1,1)^]]",
                              "[[(e1,1)],[[[(e1,1)],[(e1,1)]^],(e2,1)^]]")
    doc = json.loads(alg.to_json())
    assert doc["inv"] == list(alg.inv) and doc["basis"] == list(alg.labels)

"""The objects derived from a semigroup alone are built and validated once
per semigroup: its idempotent semilattice, its filter spaces, the maps of
its beta actions and the actions, the partial action theta of its group
image and the anchors of an action.  Groupoids are still built on every
call.  Its sigma holds it weakly, so a semigroup whose sigma was computed
is freed by reference counting."""

import dataclasses
import gc
import sys
import weakref

import numpy as np
import pytest

from germoid import cli, errors
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import partial_actions as pa
from germoid import semigroups as sg
from germoid import spectra as sp


def flags(S):
    return (False, True) if S.zero is not None else (False,)


def spy(monkeypatch, module, name):
    """Wrap ``module.name`` wherever a germoid module binds it; returns the
    list of (args, result) of every call."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    for mod in [m for key, m in sys.modules.items() if key.startswith("germoid.")]:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_beta_action_is_built_once_per_flag(corpus):
    for S in corpus.values():
        actions = [germs.beta_action(S, flag) for flag in flags(S)]
        assert [germs.beta_action(S, flag) for flag in flags(S)] == actions
        assert len(set(map(id, actions))) == len(actions)


def test_one_filter_space_serves_beta_and_theta(eunitary_corpus):
    for S in eunitary_corpus.values():
        space = sp.enumerate_filters(S)
        assert pa.theta_from_sigma(S).space is space
        assert germs.beta_action(S).space is space
        assert germs.universal_groupoid(S).action.space is space
        assert space.semilattice is sp.idempotent_semilattice(S)
        if S.zero is not None:
            assert germs.beta_action(S, True).space is \
                sp.enumerate_filters(S, contracted=True)


def test_theta_is_memoized_only_for_the_own_sigma():
    S = fx.s4_monoid()
    sigma = sg.max_group_image(S)
    theta = pa.theta_from_sigma(S)
    assert pa.theta_from_sigma(S, sigma) is theta
    other = pa.theta_from_sigma(S, dataclasses.replace(sigma))
    assert other is not theta and other.space is theta.space
    assert np.array_equal(other.maps, theta.maps)
    assert pa.theta_from_sigma(S) is theta


def test_equal_tables_keep_separate_memos():
    S, T = fx.sd6(), fx.sd6()
    assert np.array_equal(S.table, T.table)
    beta, theta = germs.beta_action(S), pa.theta_from_sigma(S)
    assert germs.beta_action(T) is not beta
    assert germs.beta_action(T).semigroup is T
    assert pa.theta_from_sigma(T) is not theta
    assert sp.enumerate_filters(T) is not sp.enumerate_filters(S)
    assert germs.beta_action(S) is beta and pa.theta_from_sigma(S) is theta


def test_memoized_maps_stay_read_only():
    S = fx.adjoin_zero(fx.s4_monoid())
    arrays = [sp.idempotent_semilattice(S)._meet,
              pa.theta_from_sigma(fx.s4_monoid()).maps]
    for flag in flags(S):
        action = germs.beta_action(S, flag)
        arrays += [action.maps, germs.anchor_idempotents(action)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0


def test_germ_groupoids_of_one_action_have_equal_products():
    # nothing of a germ build is memoized on the action: each build derives
    # its arrays and products again, equal to the first
    action = germs.beta_action(fx.sd6())
    first, second = germs.germ_groupoid(action), germs.germ_groupoid(action)
    assert second.products is not first.products
    assert np.array_equal(second.products, first.products)
    assert second.products.dtype == np.int32


def test_products_copy_an_array_they_could_not_share():
    g = germs.universal_groupoid(fx.sd6())
    writable = np.array(g.products)
    for given, shared in ((g.products, True), (writable, False),
                          (g.products.astype(np.int64), False),
                          (g.products.tolist(), False)):
        h = gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran, given, g.inv, g.identity)
        assert (h.products is given) is shared
        assert h.products.dtype == np.int32 and not h.products.flags.writeable
        assert np.array_equal(h.products, g.products)
    assert writable.flags.writeable
    with pytest.raises(errors.InvalidParams):
        gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran, g.products[1:], g.inv,
                           g.identity).products


def test_anchor_idempotents_is_memoized_on_the_action(corpus):
    for S in corpus.values():
        action = germs.beta_action(S)
        anchor = germs.anchor_idempotents(action)
        assert germs.anchor_idempotents(action) is anchor
        restricted = action.restrict(range(action.n_points))
        assert germs.anchor_idempotents(restricted) is not anchor
        assert np.array_equal(germs.anchor_idempotents(restricted), anchor)


def test_failures_are_not_memoized():
    B2, chain2 = fx.b2(), fx.chain2()   # not E-unitary; no zero
    for _ in range(2):
        with pytest.raises(errors.NotEUnitary):
            pa.theta_from_sigma(B2)
        with pytest.raises(errors.ContractedWithoutZero):
            sp.enumerate_filters(chain2, contracted=True)


def test_a_born_validated_group_finds_its_generators_once_on_first_read(
        monkeypatch):
    G = sg.max_group_image(fx.direct_product(fx.chain(3), fx.cyclic_group(6))).group
    assert G.validated and G._generators is None
    real, calls = sg.greedy_generators, []

    def spy(table, tt=None):
        calls.append(table)
        return real(table, tt)
    monkeypatch.setattr(sg, "greedy_generators", spy)
    expect = tuple(real(G.table))
    assert G.generators == expect and G.generators == expect
    assert len(calls) == 1 and calls[0] is G.table


def test_verify_all_validates_each_beta_once(tmp_path, monkeypatch):
    # CHAIN8 x Z16 has no zero: beta is built for it, with the plain flag
    # only, by the equiv suite; the universal groupoid of its group image
    # Z16, the ks target, is read off Z16's table and needs no beta
    S = fx.direct_product(fx.chain(8), fx.cyclic_group(16))
    path = tmp_path / "CHAIN8xZ16.json"
    path.write_text(S.to_json())
    sactions = spy(monkeypatch, germs, "validate_saction")
    groupoids = spy(monkeypatch, germs, "validate_groupoid")
    assert cli.main(["verify", "--suite", "all", str(path)]) == 0
    # a beta action carries its filter space; saction_from_gspace's do not
    betas = [(id(action.semigroup), action.space.contracted)
             for _, action in sactions if hasattr(action, "space")]
    assert len(betas) == len(set(betas)) == 1
    assert {len(action.semigroup) for _, action in sactions
            if hasattr(action, "space")} == {128}
    assert len(groupoids) == 12


def test_theta_reads_the_maps_of_the_memoized_beta(tmp_path, monkeypatch):
    # the maps of beta are made once per semigroup and flag: for CHAIN8 x Z16
    # by theta_from_sigma in main1, and read again by verify_main1's mask
    # and by beta_action in equiv; its group image Z16 needs none
    S = fx.direct_product(fx.chain(8), fx.cyclic_group(16))
    path = tmp_path / "CHAIN8xZ16.json"
    path.write_text(S.to_json())
    maps = spy(monkeypatch, germs, "beta_maps")
    assert cli.main(["verify", "--suite", "all", str(path)]) == 0
    assert [len(args[0]) for args, _ in maps] == [128, 128, 128]
    assert all(r is maps[0][1] for _, r in maps)
    assert not maps[0][1].flags.writeable


def test_a_semigroup_whose_sigma_was_computed_is_freed_by_reference_counting():
    gc.disable()
    try:
        S = fx.direct_product(fx.chain(3), fx.cyclic_group(6))
        sigma = sg.max_group_image(S)
        assert sigma.source is S and sg.max_group_image(S) is sigma
        ref = weakref.ref(S)
        del S
        assert ref() is None
        with pytest.raises(ReferenceError):
            sigma.source
    finally:
        gc.enable()

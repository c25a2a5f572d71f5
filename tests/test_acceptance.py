"""Acceptance suite: one test per exit criterion, each printing a single
pass/fail line.  Representation identities and center dimensions are exact
integer computations, so no tolerance is pinned.  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

import numpy as np
import pytest

import helpers
import oracles
from conftest import b2_cover
from germoid import errors
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import matrixrep as mr
from germoid import partial_actions as pa
from germoid import semigroups as sg
from germoid import spectra as sp

RUNTIME_BUDGET_S = 10.0


def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(20240811)
    return [fx.random_eunitary_semidirect(rng) for _ in range(50)]


@pytest.fixture(scope="module")
def named_eunitary():
    return {
        "S4": fx.s4_monoid(),
        "SD6": fx.sd6(),
        "S3": fx.s3_monoid(),
        "CHAIN2": fx.chain2(),
        "CHAIN3": fx.chain(3),
        "CHAIN4": fx.chain(4),
        "Z1": fx.cyclic_group(1),
        "Z2": fx.cyclic_group(2),
        "Z3": fx.cyclic_group(3),
        "Z4": fx.cyclic_group(4),
        "covB2": b2_cover()[0],
    }


def test_criterion_1_main1_suite(named_eunitary, random_corpus):
    t0 = time.perf_counter()
    counts = {}
    for name, S in named_eunitary.items():
        ok, Phi, Psi = pa.verify_main1(S)
        assert ok, name
        for a in range(Phi.source.n_arrows):
            assert Psi(Phi(a)) == a
        for a in range(Psi.source.n_arrows):
            assert Phi(Psi(a)) == a
        counts[name] = (Phi.source.n_arrows, Phi.target.n_arrows)
    for S in random_corpus:
        assert len(S) <= 64
        ok, Phi, Psi = pa.verify_main1(S)
        assert ok, S.name
        assert all(Psi(Phi(a)) == a for a in range(Phi.source.n_arrows))
        assert all(Phi(Psi(a)) == a for a in range(Psi.source.n_arrows))
    elapsed = time.perf_counter() - t0
    assert counts["S4"] == (4, 4)
    assert counts["SD6"] == (6, 6)
    assert elapsed < RUNTIME_BUDGET_S
    _line(1, True,
          f"main1 exact on {len(named_eunitary)} named + 50 random fixtures "
          f"(S4 4/4, SD6 6/6 arrows) in {elapsed:.2f}s")


def test_criterion_2_main1reduced_suite(named_eunitary, random_corpus):
    t0 = time.perf_counter()
    for name, S in named_eunitary.items():
        assert mr.verify_intertwining(S), name
    for S in random_corpus:
        assert mr.verify_intertwining(S), S.name
    # mutation controls on a representative fixture: every single-entry
    # change of u or of l[s] fails; covariant mutations are pinned on every
    # column that the intertwiner reaches
    S = fx.sd6()
    sigma = sg.max_group_image(S)
    u = np.array(mr.intertwiner_u(S, sigma))
    l = np.array(mr.left_regular_rep(S))
    a = np.array(mr.covariant_rep(S, sigma))
    dim = a.shape[1]
    mutations = failures = 0
    for t in range(len(u)):
        for v in range(dim):
            if v != u[t]:
                mut = u.copy()
                mut[t] = v
                mutations += 1
                failures += not mr.intertwines(mut, l, a)
    for s in (0, 1, S.names.index("(b,g)")):
        for t in range(len(S)):
            for v in range(-1, len(S)):
                if v != l[s, t]:
                    mut = l.copy()
                    mut[s, t] = v
                    mutations += 1
                    failures += not mr.intertwines(u, mut, a)
    for s in (0, S.names.index("(e1,g)")):
        for col in set(u.tolist()):
            for v in range(-1, dim):
                if v != a[s, col]:
                    mut = a.copy()
                    mut[s, col] = v
                    mutations += 1
                    failures += not mr.intertwines(u, l, mut)
    elapsed = time.perf_counter() - t0
    assert failures == mutations
    assert elapsed < RUNTIME_BUDGET_S
    _line(2, True,
          f"exact intertwining on {len(named_eunitary)} named + "
          f"{len(random_corpus)} random fixtures; "
          f"{failures}/{mutations} mutation controls fail in {elapsed:.2f}s")


def test_criterion_3_reduction_suite(named_eunitary):
    fixtures = {
        "B2": fx.b2(),
        "I2": fx.i2(),
        "CHAIN2^0": fx.adjoin_zero(fx.chain2()),
        "S4^0": fx.adjoin_zero(fx.s4_monoid()),
        "SD6^0": fx.adjoin_zero(fx.sd6()),
        "E(B2)": sg.validate_semigroup(
            ["e11", "e22", "0"], [[0, 2, 2], [2, 1, 2], [2, 2, 2]], zero=2),
    }
    checked = 0
    for name, S in fixtures.items():
        assert S.zero is not None and len(S) <= 12
        for I in sg.enumerate_proper_ideals(S):
            ok, functor = germs.verify_reduction_iso(S, I)
            assert ok, (name, I)
            assert gpd.verify_isomorphism(functor)
            checked += 1
    _line(3, True,
          f"reduction isomorphism exact for all {checked} proper ideals "
          f"of {len(fixtures)} zero fixtures")


def test_criterion_4_tight_suite():
    B2 = fx.b2()
    A = germs.universal_groupoid(B2, contracted=True)
    gt = germs.tight_groupoid(B2)
    assert (A.n_units, A.n_arrows) == (2, 4)
    assert (gt.n_units, gt.n_arrows) == (2, 4)
    assert A.germ_reps == gt.germ_reps  # same arrows, arrow-for-arrow
    pair = oracles.find_isomorphism(A, helpers.pair_groupoid(2))
    assert pair is not None

    # the restricted partial action of the cover reproduces it arrow-for-arrow
    T, I, iso, _, _ = b2_cover()
    okr, F_red_quot = germs.verify_reduction_iso(T, I)
    assert okr
    quot = F_red_quot.target
    red = F_red_quot.source

    # relabel the quotient's groupoid onto A through the cover isomorphism
    qspace = quot.action.space
    umap = [A.action.space.index_of(iso(m)) for m in qspace.mins]
    amap = [A.germ(iso(s), umap[x]) for s, x in quot.germ_reps]
    F_quot_A = gpd.groupoid_functor(quot, A, umap, amap)
    assert gpd.verify_isomorphism(F_quot_A)

    # restrict the partial transformation groupoid of the cover to the perp
    theta = pa.theta_from_sigma(T)
    perp, _ = germs.ideal_perp(T, I, contracted=False)
    GY = pa.partial_trans_groupoid(helpers.restrict_partial_action(theta, perp))
    pos = {x: i for i, x in enumerate(perp)}
    okT, PhiT, PsiT = pa.verify_main1(T)
    assert okT
    red_umap = [pos[u] for u in red.parent_units]
    red_amap = []
    for a in red.parent_arrows:
        g, x = PhiT.target.arrow_pairs[PhiT(a)]
        red_amap.append(GY.arrow_at[g, pos[x]])
    F_red_GY = gpd.groupoid_functor(red, GY, red_umap, red_amap)
    assert gpd.verify_isomorphism(F_red_GY)

    # chain: A -> quot -> red -> G x Y, all explicit, arrow-for-arrow
    chain = helpers.compose_functors(
        F_red_GY, helpers.compose_functors(
            helpers.invert_functor(F_red_quot), helpers.invert_functor(F_quot_A)))
    assert gpd.verify_isomorphism(chain)
    assert GY.n_arrows == 4

    alg = mr.convolution_algebra(A)
    assert alg.dim == 4
    assert mr.center_dimension(alg) == 1
    _line(4, True,
          "B2: contracted = tight = pair groupoid (4 arrows); cover "
          "restriction reproduced arrow-for-arrow; algebra dim 4, center 1")


def test_criterion_5_equiv_suite(named_eunitary, random_corpus):
    fixtures = dict(named_eunitary)
    fixtures.update({"B2": fx.b2(), "I2": fx.i2(),
                     "S4^0": fx.adjoin_zero(fx.s4_monoid())})
    checked = 0
    for name, S in fixtures.items():
        ok, _ = germs.verify_equiv_roundtrip(germs.beta_action(S))
        assert ok, name
        checked += 1
        if S.zero is not None:
            ok, _ = germs.verify_equiv_roundtrip(
                germs.beta_action(S, contracted=True))
            assert ok, name
            checked += 1
    for S in random_corpus[:10]:
        ok, _ = germs.verify_equiv_roundtrip(germs.beta_action(S))
        assert ok
        checked += 1
    _line(5, True, f"S-space correspondence roundtrip exact on {checked} actions")


def test_criterion_6_ks_suite():
    S3 = fx.s3_monoid()
    res3 = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(S3)))
    assert res3.ok
    assert res3.sizes["space_points"] == 3
    assert res3.sizes["target_arrows"] == 6
    assert res3.sizes["source_arrows"] == 3
    c_src = mr.center_dimension(mr.convolution_algebra(res3.source))
    c_tgt = mr.center_dimension(mr.convolution_algebra(res3.target))
    assert (c_src, c_tgt) == (3, 3)
    assert mr.convolution_algebra(res3.source).dim == 3
    assert mr.convolution_algebra(res3.target).dim == 6

    S4 = fx.s4_monoid()
    res4 = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(S4)))
    assert res4.ok and gpd.verify_isomorphism(res4.alpha)

    T, I, iso, B2, _ = b2_cover()
    perp, _ = germs.ideal_perp(T, I, contracted=False)
    resC = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(T)),
                          contract_to=perp)
    assert resC.ok
    assert oracles.find_isomorphism(resC.target, helpers.pair_groupoid(2)) is not None
    _line(6, True,
          "ks pipeline: S3 (3 pts, 6 arrows, centers 3=3), S4 (isomorphism), "
          "B2 cover contracted to the perp (pair groupoid)")


def test_criterion_7_order_and_invariance_properties(named_eunitary, random_corpus):
    # the meet formula t s* s equals the brute-force meet on every
    # sigma-matched pair of every E-unitary fixture
    pairs = 0
    for S in list(named_eunitary.values()) + random_corpus[:12]:
        sigma = sg.max_group_image(S)
        table = S.table.tolist()
        for s in range(len(S)):
            for t in range(len(S)):
                if sigma(s) != sigma(t):
                    continue
                u = helpers.meet_sigma(S, s, t, sigma)
                assert u == oracles.max_lower_bound(table, s, t)
                assert S.mul(S.inv(u), u) == \
                    S.mul(S.mul(S.inv(s), s), S.mul(S.inv(t), t))
                pairs += 1

    # the comparison triple map of the induced functor is
    # injective for every locally idempotent pure fixture morphism
    morphisms = []
    for S in (fx.b2(), fx.s3_monoid(), fx.s4_monoid(), fx.sd6(),
              b2_cover()[0]):
        morphisms.append(sg.hom_from_sigma(sg.max_group_image(S)))
        morphisms.append(sg.semigroup_hom(S, S, range(len(S))))
    faithful_checked = 0
    for phi in morphisms:
        if not sg.is_locally_idempotent_pure(phi):
            continue
        F = germs.induced_functor(phi)
        _, inj = oracles.cocycle_faithfulness_map(F)
        assert inj and gpd.is_faithful(F)
        faithful_checked += 1

    # the perp of every proper ideal is invariant under beta
    perp_checked = 0
    for S in (fx.b2(), fx.i2(), fx.adjoin_zero(fx.s4_monoid()), b2_cover()[0]):
        for I in sg.enumerate_proper_ideals(S):
            flag = S.zero is not None
            perp, space = germs.ideal_perp(S, I, contracted=flag)
            action = germs.beta_action(S, contracted=flag)
            pset = set(perp)
            for s in range(len(S)):
                for x in perp:
                    y = action(s, x)
                    assert y is None or y in pset
            perp_checked += 1

    # F-morphism corners: certificates are the singletons {e u f}
    f_checked = 0
    for S in (fx.s4_monoid(), fx.s3_monoid(), fx.cyclic_group(4)):
        phi = sg.hom_from_sigma(sg.max_group_image(S))
        assert helpers.is_f_morphism(phi)
        certs = sp.check_ks_condition(phi)
        for (e, f, t), cert in certs.items():
            if not cert.downset:
                continue
            fiber = [s for s in range(len(S)) if phi(s) == t]
            u = next(u for u in fiber
                     if all(helpers.natural_leq(S, s, u) for s in fiber))
            assert cert.generators == (helpers.mul_all(S, e, u, f),)
            f_checked += 1
    _line(7, True,
          f"meets agree on {pairs} sigma-pairs; {faithful_checked} faithful "
          f"maps injective; {perp_checked} ideal perps invariant; "
          f"{f_checked} F-morphism corners principal")


def test_criterion_8_structural_property_suites(random_corpus):
    # validator verdict matches the brute-force axiom oracle under mutation
    rng = random.Random(99)
    fixtures = [fx.chain(3), fx.b2(), fx.s4_monoid(), fx.cyclic_group(4)]
    mutations = 0
    for S in fixtures:
        n = len(S)
        for _ in range(25):
            table = [row[:] for row in S.table.tolist()]
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            expect, _ = oracles.is_inverse_semigroup_table(table, S.zero)
            try:
                sg.validate_semigroup(S.names, table, S.zero)
                got = True
            except errors.ValidationError:
                got = False
            assert got == expect
            mutations += 1

    # groupoid axioms hold for every constructed groupoid on a fixture tour
    constructed = 0
    for S in (fx.b2(), fx.s3_monoid(), fx.s4_monoid(), fx.sd6()) + \
            tuple(random_corpus[:5]):
        g = germs.universal_groupoid(S)
        gpd.validate_groupoid(g)
        constructed += 1
        if sg.is_e_unitary(S):
            gpd.validate_groupoid(
                pa.partial_trans_groupoid(pa.theta_from_sigma(S)))
            constructed += 1
        if S.zero is not None:
            gpd.validate_groupoid(germs.tight_groupoid(S))
            constructed += 1

    # filter counting identity and D-set intersection law, exhaustively
    for S in (fx.b2(), fx.i2(), fx.sd6(), fx.s4_monoid(), fx.chain(4)):
        space = sp.enumerate_filters(S)
        assert len(space) == len(S.idempotents)
        if S.zero is not None:
            assert len(sp.enumerate_filters(S, contracted=True)) == \
                len(S.idempotents) - 1
        for e in S.idempotents:
            for f in S.idempotents:
                assert helpers.d_set(space, e) & helpers.d_set(space, f) == \
                    helpers.d_set(space, S.mul(e, f))
    _line(8, True,
          f"validator matched oracle on {mutations} mutations; "
          f"{constructed} constructed groupoids re-validated; filter "
          f"identities exhaustive")

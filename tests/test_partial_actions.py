import numpy as np
import pytest

import helpers
import oracles
from conftest import b2_cover
from germoid import errors
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import partial_actions as pa
from germoid import semigroups as sg
from germoid import spectra as sp


class TestValidatePartialAction:
    def test_global_actions_validate(self):
        G = fx.cyclic_group(2)
        pa.validate_partial_action(G, ["x", "y"], [[0, 1], [1, 0]])

    def test_theta_from_s3_domain(self):
        theta = pa.theta_from_sigma(fx.s3_monoid())
        f_idx = theta.space.index_of(1)
        assert theta.domain(1) == {f_idx}
        assert theta(1, f_idx) == f_idx

    def test_identity_must_be_total(self):
        G = fx.cyclic_group(2)
        with pytest.raises(errors.IdentityNotTotal):
            pa.validate_partial_action(G, ["x"], [[-1], [0]])

    def test_inverse_mismatch(self):
        G = fx.cyclic_group(2)
        with pytest.raises(errors.InverseMismatch):
            pa.validate_partial_action(G, ["x", "y"], [[0, 1], [1, -1]])

    def test_dual_prehom_violation(self):
        # theta(g) theta(g) must restrict theta(1): build a family where the
        # square moves a fixed point
        G = fx.cyclic_group(2)
        with pytest.raises((errors.NotDualPrehom, errors.InverseMismatch,
                            errors.NotBijective)):
            pa.validate_partial_action(G, ["x", "y", "z"],
                                       [[0, 1, 2], [1, 2, 0]])


class TestPartialTransGroupoid:
    def test_global_swap_four_arrows(self):
        G = fx.cyclic_group(2)
        theta = pa.validate_partial_action(G, ["x", "y"], [[0, 1], [1, 0]])
        g = pa.partial_trans_groupoid(theta)
        assert g.n_arrows == 4
        assert g.n_arrows == sum(len(theta.domain(h)) for h in range(2))

    def test_s3_three_arrows(self):
        g = pa.partial_trans_groupoid(pa.theta_from_sigma(fx.s3_monoid()))
        assert (g.n_units, g.n_arrows) == (2, 3)

    def test_trivial_group_unit_groupoid(self):
        G = fx.cyclic_group(1)
        theta = pa.validate_partial_action(G, ["x", "y"], [[0, 1]])
        g = pa.partial_trans_groupoid(theta)
        assert g.n_arrows == 2 and g.isotropy_orders() == (1, 1)


class TestThetaFromSigma:
    def test_s4_identity_on_both_filters(self):
        theta = pa.theta_from_sigma(fx.s4_monoid())
        assert theta.is_global()
        for g in range(2):
            for x in range(theta.n_points):
                assert theta(g, x) == x

    def test_sd6_swaps_atom_filters_total(self):
        SD6 = fx.sd6()
        theta = pa.theta_from_sigma(SD6)
        assert theta.is_global()
        E = sp.idempotent_semilattice(SD6)
        e1, e2, b = E.elements
        space = theta.space
        assert theta(1, space.index_of(e1)) == space.index_of(e2)
        assert theta(1, space.index_of(b)) == space.index_of(b)

    def test_requires_e_unitary(self):
        with pytest.raises(errors.NotEUnitary):
            pa.theta_from_sigma(fx.i2())

    def test_fiber_members_agree_on_overlaps(self, corpus, random_eunitary):
        # well-definedness of the fiber union: beta_s and beta_t with the same
        # sigma value agree on D(s*s) n D(t*t) = D(u*u) for u the meet
        pool = [corpus["S4"], corpus["SD6"], corpus["S3"]] + random_eunitary[:8]
        for S in pool:
            sigma = sg.max_group_image(S)
            action = germs.beta_action(S)
            space = action.space
            for s in range(len(S)):
                for t in range(len(S)):
                    if sigma(s) != sigma(t):
                        continue
                    overlap = action.domain(s) & action.domain(t)
                    u = helpers.meet_sigma(S, s, t, sigma)
                    assert overlap == helpers.d_set(
                        space, S.mul(S.inv(u), u))
                    for x in overlap:
                        assert action(s, x) == action(t, x)


class TestMain1:
    def test_s4(self):
        ok, Phi, Psi = pa.verify_main1(fx.s4_monoid())
        assert ok
        assert Phi.source.n_arrows == Phi.target.n_arrows == 4

    def test_sd6(self):
        ok, Phi, Psi = pa.verify_main1(fx.sd6())
        assert ok and Phi.source.n_arrows == 6

    def test_groups_and_semilattices(self):
        for S in (fx.cyclic_group(2), fx.cyclic_group(4),
                  fx.chain2(), fx.chain(4)):
            ok, Phi, Psi = pa.verify_main1(S)
            assert ok
            assert Phi.source.n_arrows == len(S)

    def test_functors_mutually_inverse_exactly(self):
        ok, Phi, Psi = pa.verify_main1(fx.sd6())
        for a in range(Phi.source.n_arrows):
            assert Psi(Phi(a)) == a
        for a in range(Psi.source.n_arrows):
            assert Phi(Psi(a)) == a
        assert list(Phi.unit_map) == list(range(Phi.source.n_units))

    def test_requires_e_unitary(self):
        with pytest.raises(errors.NotEUnitary):
            pa.verify_main1(fx.b2())


class TestRestrictPartialAction:
    def test_whole_space_identity(self):
        theta = pa.theta_from_sigma(fx.sd6())
        r = helpers.restrict_partial_action(theta, range(theta.n_points))
        assert np.array_equal(r.maps, theta.maps)

    def test_cover_perp_reproduces_contracted_b2_groupoid(self):
        T, I, iso, B2, _ = b2_cover()
        theta = pa.theta_from_sigma(T)
        perp, space = germs.ideal_perp(T, I)
        r = helpers.restrict_partial_action(theta, perp)
        g = pa.partial_trans_groupoid(r)
        assert g.n_arrows == 4
        tight = germs.universal_groupoid(B2, contracted=True)
        assert oracles.find_isomorphism(g, tight) is not None

    def test_restriction_commutes_with_reduction(self):
        T, I, iso, B2, _ = b2_cover()
        theta = pa.theta_from_sigma(T)
        perp, _ = germs.ideal_perp(T, I)
        r = helpers.restrict_partial_action(theta, perp)
        direct = pa.partial_trans_groupoid(r)
        reduced = gpd.reduction(pa.partial_trans_groupoid(theta), perp)
        assert direct.n_arrows == reduced.n_arrows
        assert [tuple(p) for p in zip(direct.dom, direct.ran)] == \
            [tuple(p) for p in zip(reduced.dom, reduced.ran)]

    def test_tight_restriction_matches_tight_groupoid(self):
        # on the cover, restricting to the perp of the kernel and then to
        # tight filters of B2 matches the tight groupoid of B2
        T, I, iso, B2, _ = b2_cover()
        gt = germs.tight_groupoid(B2)
        theta = pa.theta_from_sigma(T)
        perp, _ = germs.ideal_perp(T, I)
        r = helpers.restrict_partial_action(theta, perp)
        g = pa.partial_trans_groupoid(r)
        assert oracles.find_isomorphism(g, gt) is not None

    def test_not_invariant_rejected(self):
        theta = pa.theta_from_sigma(fx.sd6())
        E = sp.idempotent_semilattice(fx.sd6())
        atom = theta.space.index_of(E.elements[0])
        with pytest.raises(errors.NotInvariant):
            helpers.restrict_partial_action(theta, [atom])


class TestEnvelope:
    def test_global_action_envelope_is_identity_sized(self):
        theta = pa.theta_from_sigma(fx.s4_monoid())
        env = pa.enveloping_group_action(theta)
        assert len(env.classes) == theta.n_points
        assert env.report["weak_equivalence"]

    def test_s3_envelope_three_points(self):
        theta = pa.theta_from_sigma(fx.s3_monoid())
        env = pa.enveloping_group_action(theta)
        assert len(env.classes) == 3
        glob = env.global_action
        assert glob.is_global()
        orbits = set()
        for x in range(glob.n_points):
            orbits.add(frozenset(glob(g, x) for g in range(2)))
        assert sorted(len(o) for o in orbits) == [1, 2]
        assert env.report["weak_equivalence"]

    def test_restriction_recovers_theta(self, random_eunitary):
        for S in random_eunitary[:6]:
            theta = pa.theta_from_sigma(S)
            env = pa.enveloping_group_action(theta)
            glob, emb = env.global_action, env.embedding
            embset = set(emb)
            for g in range(len(theta.group)):
                for x in range(theta.n_points):
                    y = theta(g, x)
                    gx = glob(g, emb[x])
                    if y is not None:
                        assert gx == emb[y]
                    else:
                        assert gx not in embset

    def test_image_meets_every_orbit(self, corpus):
        for name in ("S3", "S4", "SD6"):
            theta = pa.theta_from_sigma(corpus[name])
            env = pa.enveloping_group_action(theta)
            glob = env.global_action
            emb = set(env.embedding)
            for y in range(glob.n_points):
                orbit = {glob(g, y) for g in range(len(glob.group))}
                assert orbit & emb


class TestKSPipeline:
    def test_s3(self):
        S3 = fx.s3_monoid()
        res = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(S3)))
        assert res.ok
        assert res.sizes["source_arrows"] == 3
        assert res.sizes["space_points"] == 3
        assert res.sizes["target_arrows"] == 6

    def test_s4_global_case_isomorphism(self):
        S4 = fx.s4_monoid()
        res = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(S4)))
        assert res.ok
        assert gpd.verify_isomorphism(res.alpha)

    def test_b2_cover_contracted(self):
        T, I, iso, B2, _ = b2_cover()
        phi = sg.hom_from_sigma(sg.max_group_image(T))
        perp, _ = germs.ideal_perp(T, I)
        res = pa.ks_pipeline(phi, contract_to=perp)
        assert res.ok
        assert res.sizes["source_arrows"] == 4
        pair = helpers.pair_groupoid(2)
        assert oracles.find_isomorphism(res.target, pair) is not None

    def test_b2_to_trivial_group(self):
        # locally idempotent pure but far from injective: the pipeline lands
        # on a two-point unit groupoid, Morita shadow of M2 + C vs C^2
        B2 = fx.b2()
        phi = sg.hom_from_sigma(sg.max_group_image(B2))
        res = pa.ks_pipeline(phi)
        assert res.ok
        assert res.sizes["space_points"] == 2
        assert res.sizes["target_arrows"] == 2

    def test_center_dimensions_agree(self, corpus):
        from germoid.matrixrep import center_dimension, convolution_algebra
        for name in ("S3", "S4", "SD6", "B2"):
            phi = sg.hom_from_sigma(sg.max_group_image(corpus[name]))
            if not sg.is_locally_idempotent_pure(phi):
                continue
            res = pa.ks_pipeline(phi)
            assert res.ok
            assert center_dimension(convolution_algebra(res.source)) == \
                center_dimension(convolution_algebra(res.target))

    def test_rejects_non_locally_idempotent_pure(self):
        I2 = fx.i2()
        phi = sg.hom_from_sigma(sg.max_group_image(I2))
        with pytest.raises(errors.NotLocallyIdempotentPure):
            pa.ks_pipeline(phi)

    def test_projection_recovers_cocycle(self):
        SD6 = fx.sd6()
        res = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(SD6)))
        assert res.ok  # the projection identity is asserted inside

    def test_report_json(self):
        import json
        S3 = fx.s3_monoid()
        res = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(S3)))
        data = json.loads(res.to_json())
        assert data["pass"] is True
        assert data["sizes"]["space_points"] == 3
        assert data["conditions"]["weak_equivalence"] is True
        assert all(isinstance(v, list) for v in data["certificates"].values())

    def test_cover_route_on_random_fixtures(self, random_eunitary):
        # adjoin a zero to a random E-unitary fixture, build its cover along
        # the extended maximal group homomorphism, and run the contracted
        # pipeline on the kernel perp
        small = [S for S in random_eunitary if len(S) <= 14][:3]
        for S in small:
            S0 = fx.adjoin_zero(S)
            sigma = sg.max_group_image(S)
            mapping = [sigma(s) for s in range(len(S))] + [None]
            theta = sg.partial_group_hom(S0, sigma.group, mapping)
            T, I, iso = sg.eunitary_cover(S0, theta)
            assert sg.is_e_unitary(T)
            ok, _ = germs.verify_reduction_iso(T, I)
            assert ok
            perp, _ = germs.ideal_perp(T, I)
            res = pa.ks_pipeline(
                sg.hom_from_sigma(sg.max_group_image(T)), contract_to=perp)
            assert res.ok

import numpy as np
import pytest

import oracles
from conftest import b2_cover
from germoid import errors
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import matrixrep as mr
from germoid import partial_actions as pa
from germoid import semigroups as sg


class TestLeftRegularRep:
    def test_idempotent_gives_diagonal_projection(self, corpus):
        for S in corpus.values():
            lams = mr.left_regular_rep(S)
            for e in S.idempotents:
                mat = lams[e]
                assert np.array_equal(mat, np.diag(np.diag(mat)))
                for t in range(len(S)):
                    assert mat[t, t] == (S.mul(e, t) == t)

    def test_b2_e12_partial_permutation(self):
        # table evaluation: e21 -> e11 and e22 -> e12, plus the fixed zero
        # basis vector (0 = e22 0); the contracted reading drops the latter
        B2 = fx.b2()
        lams = mr.left_regular_rep(B2)
        e12 = B2.names.index("e12")
        mat = lams[e12]
        e21, e22, e11 = (B2.names.index(n) for n in ("e21", "e22", "e11"))
        assert mat[e11, e21] == 1 and mat[e12, e22] == 1
        assert mat[B2.zero, B2.zero] == 1
        assert mat.sum() == 3

    def test_star_representation_laws(self, corpus):
        for S in corpus.values():
            lams = mr.left_regular_rep(S)
            for s in range(len(S)):
                assert set(np.unique(lams[s])) <= {0, 1}
                assert np.array_equal(lams[S.inv(s)], lams[s].T)
                for t in range(len(S)):
                    assert np.array_equal(lams[s] @ lams[t],
                                          lams[S.mul(s, t)])


class TestIntertwiner:
    def test_group_case_is_permutation(self):
        G = fx.cyclic_group(3)
        U = mr.intertwiner_u(G)
        assert U.shape == (3, 3)
        assert np.array_equal(U @ U.T, np.eye(3, dtype=np.int64))

    def test_s4_columns_distinct(self):
        U = mr.intertwiner_u(fx.s4_monoid())
        assert U.shape == (4, 4)
        cols = {tuple(U[:, s]) for s in range(4)}
        assert len(cols) == 4

    def test_isometry_for_every_eunitary_fixture(self, eunitary_corpus):
        for S in eunitary_corpus.values():
            U = mr.intertwiner_u(S)
            assert np.array_equal(U.T @ U, np.eye(len(S), dtype=np.int64))

    def test_uut_projects_onto_reached_pairs(self):
        S3 = fx.s3_monoid()
        sigma = sg.max_group_image(S3)
        U = mr.intertwiner_u(S3, sigma)
        proj = U @ U.T
        index, _ = mr.pair_basis(S3, sigma)
        reached = {index[(S3.mul(S3.inv(s), s), sigma(s))]
                   for s in range(len(S3))}
        expect = np.zeros_like(proj)
        for i in reached:
            expect[i, i] = 1
        assert np.array_equal(proj, expect)

    def test_requires_e_unitary(self):
        with pytest.raises(errors.NotEUnitary):
            mr.intertwiner_u(fx.b2())


class TestCovariantRep:
    def test_idempotent_projects_like_lambda_through_u(self):
        S = fx.s4_monoid()
        sigma = sg.max_group_image(S)
        U = mr.intertwiner_u(S, sigma)
        lams = mr.left_regular_rep(S)
        covs = mr.covariant_rep(S, sigma)
        for e in S.idempotents:
            assert np.array_equal(U @ lams[e], covs[e] @ U)
            assert np.array_equal(covs[e], np.diag(np.diag(covs[e])))

    def test_undefined_translation_kills_basis_vector(self):
        S3 = fx.s3_monoid()
        sigma = sg.max_group_image(S3)
        covs = mr.covariant_rep(S3, sigma)
        index, _ = mr.pair_basis(S3, sigma)
        t = S3.names.index("t")
        # theta(g) is undefined at 1^, so A_t annihilates e_1 (x) e_1bar
        col = index[(0, sigma.group.identity)]
        assert not covs[t][:, col].any()

    def test_proof_route_agreement(self, eunitary_corpus):
        # the evaluated form: A_s (e_{t*t} (x) e_{sigma t}) =
        # [t*t <= t* s*s t] e_{t*t} (x) e_{sigma(st)} on the image of U
        for S in eunitary_corpus.values():
            sigma = sg.max_group_image(S)
            covs = mr.covariant_rep(S, sigma)
            index, _ = mr.pair_basis(S, sigma)
            G = sigma.group
            for s in range(len(S)):
                for t in range(len(S)):
                    tt = S.mul(S.inv(t), t)
                    col = index[(tt, sigma(t))]
                    w = S.mul_all(S.inv(t), S.inv(s), s, t)
                    out = covs[s][:, col]
                    if S.mul(tt, w) == tt:
                        row = index[(tt, G.mul(sigma(s), sigma(t)))]
                        assert out[row] == 1 and out.sum() == 1
                    else:
                        assert not out.any()


class TestIntertwining:
    def test_all_eunitary_fixtures(self, eunitary_corpus):
        for S in eunitary_corpus.values():
            assert mr.verify_intertwining(S), S.name

    def test_three_conditions_equivalent(self, corpus):
        for S in corpus.values():
            assert mr.check_rep_conditions(S)

    def test_u_mutations_fail(self):
        S = fx.s4_monoid()
        sigma = sg.max_group_image(S)
        U = mr.intertwiner_u(S, sigma)
        lams = mr.left_regular_rep(S)
        covs = mr.covariant_rep(S, sigma)
        assert mr.check_intertwining(U, lams, covs)
        for i in range(U.shape[0]):
            for j in range(U.shape[1]):
                mut = np.array(U)
                mut[i, j] ^= 1
                assert not mr.check_intertwining(mut, lams, covs), (i, j)

    def test_u_column_permutation_fails(self):
        S = fx.sd6()
        sigma = sg.max_group_image(S)
        U = np.array(mr.intertwiner_u(S, sigma))
        lams = mr.left_regular_rep(S)
        covs = mr.covariant_rep(S, sigma)
        U[:, [0, 1]] = U[:, [1, 0]]
        assert not mr.check_intertwining(U, lams, covs)

    def test_lambda_mutations_fail(self):
        S = fx.sd6()
        sigma = sg.max_group_image(S)
        U = mr.intertwiner_u(S, sigma)
        lams = mr.left_regular_rep(S)
        covs = mr.covariant_rep(S, sigma)
        for s in range(len(S)):
            for i in range(len(S)):
                for j in range(len(S)):
                    mut = {k: v for k, v in lams.items()}
                    m = np.array(mut[s])
                    m[i, j] ^= 1
                    mut[s] = m
                    assert not mr.check_intertwining(U, mut, covs)

    def test_covariant_mutations_fail_on_reached_columns(self):
        # entries in columns that U reaches are pinned by the identity;
        # columns off the image of U are not constrained by it
        S = fx.s3_monoid()
        sigma = sg.max_group_image(S)
        U = mr.intertwiner_u(S, sigma)
        lams = mr.left_regular_rep(S)
        covs = mr.covariant_rep(S, sigma)
        index, _ = mr.pair_basis(S, sigma)
        reached = {index[(S.mul(S.inv(s), s), sigma(s))]
                   for s in range(len(S))}
        dim = len(index)
        for s in range(len(S)):
            for col in reached:
                for row in range(dim):
                    mut = dict(covs)
                    m = np.array(mut[s])
                    m[row, col] ^= 1
                    mut[s] = m
                    assert not mr.check_intertwining(U, lams, mut)


class TestConvolutionAlgebra:
    def test_pair_groupoid_is_matrix_algebra(self):
        alg = mr.convolution_algebra(gpd.pair_groupoid(2))
        assert alg.dim == 4
        assert mr.center_dimension(alg) == 1
        # structure constants match matrix units: e_ij e_kl = [j = k] e_il
        pg = gpd.pair_groupoid(2)
        for a in range(4):
            for b in range(4):
                c = alg.groupoid.compose(a, b)
                if pg.dom[a] == pg.ran[b]:
                    assert c is not None
                    assert pg.ran[c] == pg.ran[a] and pg.dom[c] == pg.dom[b]
                else:
                    assert c is None

    def test_unit_groupoid_is_commutative(self):
        g = germs.universal_groupoid(fx.chain(4))
        alg = mr.convolution_algebra(g)
        assert alg.dim == 4 and mr.center_dimension(alg) == 4

    def test_group_algebra(self):
        alg = mr.convolution_algebra(gpd.groupoid_from_group(fx.cyclic_group(2)))
        assert alg.dim == 2 and mr.center_dimension(alg) == 2

    def test_sd6_center_three(self):
        alg = mr.convolution_algebra(germs.universal_groupoid(fx.sd6()))
        assert alg.dim == 6
        assert mr.center_dimension(alg) == 3  # M2 + C + C = 4 + 1 + 1

    def test_dimension_is_arrow_count(self, corpus):
        for name in ("B2", "S4", "SD6"):
            g = germs.universal_groupoid(corpus[name])
            assert mr.convolution_algebra(g).dim == g.n_arrows


class TestAlgebraMapFromFunctor:
    def test_main1_functor_transports_structure(self):
        ok, Phi, Psi = pa.verify_main1(fx.s4_monoid())
        mat = mr.algebra_map_from_functor(Phi)
        assert mat.shape == (4, 4)
        assert np.array_equal(mat @ mat.T, np.eye(4, dtype=np.int64))

    def test_identity_functor(self):
        g = gpd.pair_groupoid(2)
        mat = mr.algebra_map_from_functor(gpd.identity_functor(g))
        assert np.array_equal(mat, np.eye(4, dtype=np.int64))

    def test_tight_b2_matches_pair_groupoid_algebra(self):
        gt = germs.tight_groupoid(fx.b2())
        pair = gpd.pair_groupoid(2)
        F = oracles.find_isomorphism(gt, pair)
        mat = mr.algebra_map_from_functor(F)
        a1 = mr.convolution_algebra(gt)
        assert mr.center_dimension(a1) == 1
        assert mat.sum() == 4

    def test_center_invariant_under_relabeling(self):
        ok, Phi, _ = pa.verify_main1(fx.sd6())
        mr.algebra_map_from_functor(Phi)
        c1 = mr.center_dimension(mr.convolution_algebra(Phi.source))
        c2 = mr.center_dimension(mr.convolution_algebra(Phi.target))
        assert c1 == c2 == 3

    def test_rejects_non_bijective(self):
        g = gpd.pair_groupoid(2)
        t = gpd.groupoid_from_group(fx.cyclic_group(1))
        F = gpd.groupoid_functor(g, t, [0, 0], [0, 0, 0, 0])
        with pytest.raises(errors.NotBijective):
            mr.algebra_map_from_functor(F)


class TestMoritaShadow:
    def test_weak_equivalences_preserve_center_dimension(self, corpus):
        # the finite shadow of strong Morita equivalence: equal block counts
        from germoid.matrixrep import center_dimension, convolution_algebra
        pairs = []
        for name in ("S3", "S4", "SD6"):
            res = pa.ks_pipeline(
                sg.hom_from_sigma(sg.max_group_image(corpus[name])))
            pairs.append((res.source, res.target))
        theta = pa.theta_from_sigma(corpus["S3"])
        env = pa.enveloping_group_action(theta)
        pairs.append((env.inclusion.source, env.inclusion.target))
        for src, tgt in pairs:
            assert center_dimension(convolution_algebra(src)) == \
                center_dimension(convolution_algebra(tgt))


class TestGelfand:
    def test_chain2_rank_two(self):
        assert mr.gelfand_check(fx.chain2())

    def test_singleton(self):
        assert mr.gelfand_check(fx.cyclic_group(1))

    def test_sd6_rank_three(self):
        assert mr.gelfand_check(fx.sd6())

    def test_whole_corpus(self, corpus):
        for S in corpus.values():
            assert mr.gelfand_check(S)


class TestExports:
    def test_matrix_json(self):
        U = mr.intertwiner_u(fx.s4_monoid())
        text = mr.matrix_to_json(U, [f"r{i}" for i in range(4)],
                                 [f"c{i}" for i in range(4)])
        assert '"entries"' in text and text == mr.matrix_to_json(
            U, [f"r{i}" for i in range(4)], [f"c{i}" for i in range(4)])

    def test_algebra_json_deterministic(self):
        alg = mr.convolution_algebra(gpd.pair_groupoid(2))
        assert alg.to_json() == mr.convolution_algebra(
            gpd.pair_groupoid(2)).to_json()

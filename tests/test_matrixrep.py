import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reached_columns(S, sigma):
    """The basis indices (s*s, sigma(s)) that the intertwiner reaches."""
    index = oracles.pair_basis(S, sigma)
    return {index[(S.mul(S.inv(s), s), sigma(s))] for s in range(len(S))}


class TestLeftRegularRep:
    def test_idempotent_gives_diagonal_projection(self, corpus):
        for S in corpus.values():
            l = mr.left_regular_rep(S)
            for e in S.idempotents:
                for t in range(len(S)):
                    assert l[e, t] == (t if S.mul(e, t) == t else -1)

    def test_b2_e12_partial_permutation(self):
        # table evaluation: e21 -> e11 and e22 -> e12, plus the fixed zero
        # basis vector (0 = e22 0); the contracted reading drops the latter
        B2 = fx.b2()
        l = mr.left_regular_rep(B2)
        e12 = B2.names.index("e12")
        e21, e22, e11 = (B2.names.index(n) for n in ("e21", "e22", "e11"))
        assert l[e12, e21] == e11 and l[e12, e22] == e12
        assert l[e12, B2.zero] == B2.zero
        assert (l[e12] >= 0).sum() == 3

    def test_star_representation_laws(self, corpus):
        # L_s L_t = L_st composes the partial maps, and L_{s*} = L_s^T
        # inverts the injective partial map L_s
        for S in corpus.values():
            n = len(S)
            l = mr.left_regular_rep(S)
            assert l.shape == (n, n) and not l.flags.writeable
            assert ((l >= -1) & (l < n)).all()
            for s in range(n):
                assert np.array_equal(np.where(l >= 0, l[s, l], -1),
                                      l[S.table[s]])
                defined = np.flatnonzero(l[s] >= 0)
                inverse = np.full(n, -1)
                inverse[l[s, defined]] = defined
                assert len(np.unique(l[s, defined])) == len(defined)
                assert np.array_equal(l[S.inv(s)], inverse)


class TestIntertwiner:
    def test_group_case_is_permutation(self):
        G = fx.cyclic_group(3)
        u = mr.intertwiner_u(G)
        assert u.shape == (3,)
        assert sorted(u.tolist()) == [0, 1, 2]

    def test_s4_columns_distinct(self):
        u = mr.intertwiner_u(fx.s4_monoid())
        assert u.shape == (4,)
        assert len(set(u.tolist())) == 4

    def test_isometry_for_every_eunitary_fixture(self, eunitary_corpus):
        for S in eunitary_corpus.values():
            sigma = sg.max_group_image(S)
            u = mr.intertwiner_u(S)
            dim = len(S.idempotents) * len(sigma.group)
            assert not u.flags.writeable
            assert ((u >= 0) & (u < dim)).all()
            assert len(np.unique(u)) == len(S)
            U = oracles.dense(u, dim)
            assert np.array_equal(U.T @ U, np.eye(len(S), dtype=np.int64))

    def test_uut_projects_onto_reached_pairs(self):
        S3 = fx.s3_monoid()
        sigma = sg.max_group_image(S3)
        u = mr.intertwiner_u(S3)
        assert set(u.tolist()) == reached_columns(S3, sigma)

    def test_requires_e_unitary(self):
        with pytest.raises(errors.NotEUnitary):
            mr.intertwiner_u(fx.b2())


class TestCovariantRep:
    def test_idempotent_projects_like_lambda_through_u(self):
        S = fx.s4_monoid()
        u = mr.intertwiner_u(S)
        l = mr.left_regular_rep(S)
        a = mr.covariant_rep(S)
        cols = np.arange(a.shape[1])
        for e in S.idempotents:
            assert np.array_equal(np.where(l[e] >= 0, u[l[e]], -1), a[e, u])
            assert ((a[e] == cols) | (a[e] == -1)).all()

    def test_undefined_translation_kills_basis_vector(self):
        S3 = fx.s3_monoid()
        sigma = sg.max_group_image(S3)
        a = mr.covariant_rep(S3)
        index = oracles.pair_basis(S3, sigma)
        t = S3.names.index("t")
        # theta(g) is undefined at 1^, so A_t annihilates e_1 (x) e_1bar
        col = index[(0, sigma.group.identity)]
        assert a[t, col] == -1

    def test_proof_route_agreement(self, eunitary_corpus):
        # the evaluated form: A_s (e_{t*t} (x) e_{sigma t}) =
        # [t*t <= t* s*s t] e_{t*t} (x) e_{sigma(st)} on the image of U
        for S in eunitary_corpus.values():
            sigma = sg.max_group_image(S)
            a = mr.covariant_rep(S)
            index = oracles.pair_basis(S, sigma)
            G = sigma.group
            for s in range(len(S)):
                for t in range(len(S)):
                    tt = S.mul(S.inv(t), t)
                    col = index[(tt, sigma(t))]
                    w = helpers.mul_all(S, S.inv(t), S.inv(s), s, t)
                    if S.mul(tt, w) == tt:
                        assert a[s, col] == index[(tt, G.mul(sigma(s), sigma(t)))]
                    else:
                        assert a[s, col] == -1


def rep_inputs(S):
    sigma = sg.max_group_image(S)
    return (sigma, np.array(mr.intertwiner_u(S)),
            np.array(mr.left_regular_rep(S)), np.array(mr.covariant_rep(S)))


class TestIntertwining:
    def test_all_eunitary_fixtures(self, eunitary_corpus):
        for S in eunitary_corpus.values():
            assert mr.verify_intertwining(S), S.name

    def test_three_conditions_equivalent(self, corpus):
        for S in corpus.values():
            assert oracles.check_rep_conditions_loops(S)

    def test_u_mutations_fail(self):
        _, u, l, a = rep_inputs(fx.s4_monoid())
        assert mr.intertwines(u, l, a)
        for t in range(len(u)):
            for v in range(a.shape[1]):
                if v != u[t]:
                    mut = u.copy()
                    mut[t] = v
                    assert not mr.intertwines(mut, l, a), (t, v)

    def test_u_column_permutation_fails(self):
        _, u, l, a = rep_inputs(fx.sd6())
        u[[0, 1]] = u[[1, 0]]
        assert not mr.intertwines(u, l, a)

    def test_lambda_mutations_fail(self):
        _, u, l, a = rep_inputs(fx.sd6())
        for s, t in np.ndindex(l.shape):
            for v in range(-1, len(u)):
                if v != l[s, t]:
                    mut = l.copy()
                    mut[s, t] = v
                    assert not mr.intertwines(u, mut, a), (s, t, v)

    def test_covariant_mutations_fail_on_reached_columns(self):
        # entries in columns that U reaches are pinned by the identity;
        # columns off the image of U are not constrained by it
        S = fx.s3_monoid()
        sigma, u, l, a = rep_inputs(S)
        for s in range(len(S)):
            for col in reached_columns(S, sigma):
                for v in range(-1, a.shape[1]):
                    if v != a[s, col]:
                        mut = a.copy()
                        mut[s, col] = v
                        assert not mr.intertwines(u, l, mut), (s, col, v)

    def test_512_elements_stay_small(self):
        # the dense stacks of L_s and A_s took 1 GiB each at this size, and
        # five int64 |S| x |S| arrays held at once 9.4 MiB; the int32 l and
        # a with row-blocked temporaries take 3.7 MiB
        S = fx.direct_product(fx.chain(32), fx.cyclic_group(16))
        tracemalloc.start()
        try:
            assert mr.verify_intertwining(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20, peak


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_conditions_hold_on_every_validated_semigroup(corpus,
                                                          random_eunitary, data):
    # the proof in verify_intertwining's docstring, on the corpus, the random
    # E-unitary family and their Rees quotients by a principal ideal SsS
    S = data.draw(st.sampled_from(list(corpus.values()) + random_eunitary),
                  label="S")
    assert oracles.check_rep_conditions_loops(S)
    s = data.draw(st.integers(0, len(S) - 1), label="s")
    ideal = np.unique(S.table[S.table[:, s]]).tolist()
    if len(ideal) < len(S):
        assert oracles.check_rep_conditions_loops(sg.rees_quotient(S, ideal)[0])


class TestConvolutionAlgebra:
    def test_pair_groupoid_is_matrix_algebra(self):
        alg = mr.convolution_algebra(helpers.pair_groupoid(2))
        assert alg.dim == 4
        assert mr.center_dimension(alg) == 1
        # structure constants match matrix units: e_ij e_kl = [j = k] e_il
        pg, compose = helpers.pair_groupoid(2), oracles.composer(alg.groupoid)
        for a in range(4):
            for b in range(4):
                c = compose(a, b)
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
        alg = mr.convolution_algebra(helpers.groupoid_from_group(fx.cyclic_group(2)))
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
        mat = oracles.algebra_map_from_functor_loops(Phi)
        assert mat.shape == (4, 4)
        assert np.array_equal(mat @ mat.T, np.eye(4, dtype=np.int64))

    def test_identity_functor(self):
        g = helpers.pair_groupoid(2)
        mat = oracles.algebra_map_from_functor_loops(helpers.identity_functor(g))
        assert np.array_equal(mat, np.eye(4, dtype=np.int64))

    def test_tight_b2_matches_pair_groupoid_algebra(self):
        gt = germs.tight_groupoid(fx.b2())
        pair = helpers.pair_groupoid(2)
        F = oracles.find_isomorphism(gt, pair)
        mat = oracles.algebra_map_from_functor_loops(F)
        a1 = mr.convolution_algebra(gt)
        assert mr.center_dimension(a1) == 1
        assert mat.sum() == 4

    def test_center_invariant_under_relabeling(self):
        ok, Phi, _ = pa.verify_main1(fx.sd6())
        oracles.algebra_map_from_functor_loops(Phi)
        c1 = mr.center_dimension(mr.convolution_algebra(Phi.source))
        c2 = mr.center_dimension(mr.convolution_algebra(Phi.target))
        assert c1 == c2 == 3

    def test_rejects_non_bijective(self):
        g = helpers.pair_groupoid(2)
        t = helpers.groupoid_from_group(fx.cyclic_group(1))
        F = gpd.groupoid_functor(g, t, [0, 0], [0, 0, 0, 0])
        with pytest.raises(errors.NotBijective):
            oracles.algebra_map_from_functor_loops(F)


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
        assert oracles.gelfand_check_loops(fx.chain2())

    def test_singleton(self):
        assert oracles.gelfand_check_loops(fx.cyclic_group(1))

    def test_sd6_rank_three(self):
        assert oracles.gelfand_check_loops(fx.sd6())

    def test_whole_corpus(self, corpus):
        for S in corpus.values():
            assert oracles.gelfand_check_loops(S)


class TestExports:
    def test_algebra_json_deterministic(self):
        alg = mr.convolution_algebra(helpers.pair_groupoid(2))
        assert alg.to_json() == mr.convolution_algebra(
            helpers.pair_groupoid(2)).to_json()

    @pytest.mark.parametrize("build", [
        lambda: helpers.pair_groupoid(2),
        lambda: germs.universal_groupoid(fx.b2()),
        lambda: germs.universal_groupoid(fx.s3_monoid()),
    ], ids=["pair2", "b2", "s3"])
    def test_algebra_json_matches_json_dumps(self, build):
        alg = mr.convolution_algebra(build())
        assert alg.to_json() == oracles.convolution_algebra_json(alg)

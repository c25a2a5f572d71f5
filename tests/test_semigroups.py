import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from germoid import errors
from germoid import fixtures as fx
from germoid import semigroups as sg


class TestValidation:
    def test_chain2_is_valid_with_identity_star(self):
        S = fx.chain2()
        assert [S.inv(s) for s in range(2)] == [0, 1]

    def test_b2_star_swaps_offdiagonal(self):
        B2 = fx.b2()
        byname = {n: i for i, n in enumerate(B2.names)}
        assert B2.inv(byname["e12"]) == byname["e21"]
        assert B2.inv(byname["e21"]) == byname["e12"]
        assert B2.inv(byname["e11"]) == byname["e11"]
        # frozen from the exhaustive oracle over all (s, t) pairs
        for s in range(5):
            assert oracles.inverse_of(B2.table.tolist(), s) == B2.inv(s)

    def test_left_zero_table_has_no_unique_inverse(self):
        # ab = a, ba = b: every element is a candidate inverse of every other
        ok, reason = oracles.is_inverse_semigroup_table([[0, 0], [1, 1]])
        assert not ok and reason == "inverses"
        with pytest.raises(errors.NoUniqueInverse):
            sg.validate_semigroup(["a", "b"], [[0, 0], [1, 1]])

    def test_nonassociative_rejected(self):
        with pytest.raises(errors.NotAssociative):
            sg.validate_semigroup(["a", "b"], [[1, 0], [0, 0]])

    def test_zero_must_absorb(self):
        with pytest.raises(errors.ZeroNotAbsorbing):
            sg.validate_semigroup(["1", "f"], [[0, 1], [1, 1]], zero=0)

    def test_size_guard(self, monkeypatch):
        monkeypatch.setenv("GERMOID_SIZE_LIMIT", "3")
        with pytest.raises(errors.SizeLimitExceeded):
            fx.s4_monoid()
        monkeypatch.setenv("GERMOID_SIZE_LIMIT", "4096")
        assert len(fx.s4_monoid()) == 4

    def test_star_properties(self, corpus):
        for S in corpus.values():
            for s in range(len(S)):
                assert S.inv(S.inv(s)) == s
                assert helpers.mul_all(S, s, S.inv(s), s) == s
                ss = S.mul(S.inv(s), s)
                assert S.is_idempotent(ss)


class TestNaturalOrder:
    def test_chain2(self):
        S = fx.chain2()
        assert helpers.natural_leq(S, 1, 0)
        assert not helpers.natural_leq(S, 0, 1)

    def test_b2_reflexive_and_incomparable(self):
        B2 = fx.b2()
        e12 = B2.names.index("e12")
        e11 = B2.names.index("e11")
        assert helpers.natural_leq(B2, e12, e12)
        assert not helpers.natural_leq(B2, e12, e11)

    def test_zero_below_everything(self):
        B2 = fx.b2()
        assert all(helpers.natural_leq(B2, B2.zero, s) for s in range(len(B2)))

    def test_agrees_with_defining_condition(self, corpus):
        for S in corpus.values():
            m = S.leq_matrix()
            for s in range(len(S)):
                for t in range(len(S)):
                    assert m[s, t] == oracles.leq(S.table.tolist(), s, t)

    def test_partial_order_and_meet_on_idempotents(self, corpus):
        for S in corpus.values():
            m = S.leq_matrix()
            n = len(S)
            assert all(m[s, s] for s in range(n))
            for s in range(n):
                for t in range(n):
                    if m[s, t] and m[t, s]:
                        assert s == t
                    for u in range(n):
                        if m[s, t] and m[t, u]:
                            assert m[s, u]
            for e in S.idempotents:
                for f in S.idempotents:
                    assert m[e, f] == (S.mul(e, f) == e)


class TestMaxGroupImage:
    def test_s4_classes_match_definition(self):
        S4 = fx.s4_monoid()
        sigma = sg.max_group_image(S4)
        assert len(sigma.group) == 2
        expected = oracles.sigma_classes(S4.table.tolist())
        got = {}
        for s, c in enumerate(sigma.classmap):
            got.setdefault(c, set()).add(s)
        assert sorted(map(frozenset, got.values())) == sorted(expected)

    def test_group_maps_to_itself(self):
        G = fx.cyclic_group(3)
        sigma = sg.max_group_image(G)
        assert len(sigma.group) == 3
        assert len(set(sigma.classmap)) == 3

    def test_zero_gives_trivial_group(self, corpus):
        for name in ("B2", "I2", "S4^0", "SD6^0", "CHAIN3"):
            S = corpus[name]
            if S.zero is None:
                continue
            assert len(sg.max_group_image(S).group) == 1

    def test_classmap_is_homomorphism_with_partitioning_fibers(self, corpus):
        for S in corpus.values():
            sigma = sg.max_group_image(S)
            G = sigma.group
            for s in range(len(S)):
                for t in range(len(S)):
                    assert sigma(S.mul(s, t)) == G.mul(sigma(s), sigma(t))
            fiber1 = {s for s in range(len(S)) if sigma(s) == G.identity}
            assert set(S.idempotents) <= fiber1

    def test_universality_on_a_witness(self):
        # any morphism to a group factors through sigma: witness with SD6 -> Z2
        SD6 = fx.sd6()
        sigma = sg.max_group_image(SD6)
        Z2 = fx.cyclic_group(2)
        direct = [1 if n.endswith("g)") else 0 for n in SD6.names]
        phi = sg.semigroup_hom(SD6, Z2, direct)
        # the factorization G(SD6) -> Z2 exists and is well defined on classes
        for s in range(len(SD6)):
            for t in range(len(SD6)):
                if sigma(s) == sigma(t):
                    assert phi(s) == phi(t)


class TestEUnitary:
    def test_examples(self, corpus):
        assert sg.is_e_unitary(corpus["S4"])
        assert not sg.is_e_unitary(corpus["I2"])
        assert sg.is_e_unitary(corpus["CHAIN2"])
        assert sg.is_e_unitary(corpus["CHAIN3"])

    def test_both_formulations_agree(self, corpus, random_eunitary):
        for S in list(corpus.values()) + random_eunitary[:10]:
            assert sg.is_e_unitary(S) == oracles.e_unitary_by_cancellation(S)


class TestZeroEUnitary:
    def test_b2(self):
        assert sg.is_zero_e_unitary(fx.b2())

    def test_semilattice_with_zero(self):
        chain_z = sg.validate_semigroup(
            ["1", "f", "0"], [[0, 1, 2], [1, 1, 2], [2, 2, 2]], zero=2)
        assert sg.is_zero_e_unitary(chain_z)

    def test_symmetric_inverse_monoids(self):
        # I2 satisfies the condition vacuously: no non-zero idempotent sits
        # below a non-idempotent element.  I3 has the 3-cycle-free witness
        # (a transposition fixing a point), which fails it.
        assert sg.is_zero_e_unitary(fx.i2())
        assert not sg.is_zero_e_unitary(fx.symmetric_inverse(3))

    def test_literal_condition(self, corpus):
        for S in corpus.values():
            if S.zero is None:
                continue
            expect = all(
                S.is_idempotent(s)
                for s in range(len(S))
                for e in S.idempotents
                if e != S.zero and oracles.leq(S.table.tolist(), e, s))
            assert sg.is_zero_e_unitary(S) == expect

    def test_requires_zero(self):
        with pytest.raises(errors.NoZero):
            sg.is_zero_e_unitary(fx.s4_monoid())


class TestMeetSigma:
    def test_meet_of_element_with_itself(self):
        S4 = fx.s4_monoid()
        for s in range(len(S4)):
            assert helpers.meet_sigma(S4, s, s) == s

    def test_s4_frozen_value(self):
        S4 = fx.s4_monoid()
        one_g = S4.names.index("(1,g)")
        f_g = S4.names.index("(f,g)")
        assert helpers.meet_sigma(S4, one_g, f_g) == f_g

    def test_against_brute_force_meet(self, corpus, random_eunitary):
        pool = [corpus["S4"], corpus["SD6"], corpus["S3"]] + random_eunitary[:8]
        for S in pool:
            sigma = sg.max_group_image(S)
            table = S.table.tolist()
            for s in range(len(S)):
                for t in range(len(S)):
                    if sigma(s) != sigma(t):
                        continue
                    u = helpers.meet_sigma(S, s, t)
                    assert u == oracles.max_lower_bound(table, s, t)
                    uu = S.mul(S.inv(u), u)
                    assert uu == helpers.mul_all(S, S.inv(s), s,
                                                 S.mul(S.inv(t), t))

    def test_preconditions(self):
        S4 = fx.s4_monoid()
        with pytest.raises(errors.SigmaMismatch):
            helpers.meet_sigma(S4, 0, S4.names.index("(1,g)"))
        with pytest.raises(errors.NotEUnitary):
            helpers.meet_sigma(fx.i2(), 1, 1)


class TestReesQuotient:
    def test_collapse_zero_is_identity_shape(self):
        B2 = fx.b2()
        Q, qmap = sg.rees_quotient(B2, [0])
        assert len(Q) == 5 and Q.zero == 0
        assert [qmap(s) for s in range(5)] == [0, 1, 2, 3, 4]

    def test_adjoined_zero_identity_quotient(self):
        S = fx.adjoin_zero(fx.s4_monoid())
        Q, qmap = sg.rees_quotient(S, [S.zero])
        assert len(Q) == len(S)

    def test_quotient_map_is_homomorphism_collapsing_exactly_I(self, corpus):
        for S in corpus.values():
            for I in sg.enumerate_proper_ideals(S)[:4]:
                Q, qmap = sg.rees_quotient(S, I)
                for s in range(len(S)):
                    for t in range(len(S)):
                        assert qmap(S.mul(s, t)) == Q.mul(qmap(s), qmap(t))
                assert {qmap(i) for i in I} == {Q.zero}
                survivors = [s for s in range(len(S)) if s not in set(I)]
                assert len({qmap(s) for s in survivors}) == len(survivors)

    def test_rejects_non_ideals_and_improper(self):
        B2 = fx.b2()
        with pytest.raises(errors.NotAnIdeal):
            sg.rees_quotient(B2, [1])
        with pytest.raises(errors.ImproperIdeal):
            sg.rees_quotient(B2, range(5))


class TestPartialHomsAndCover:
    def theta_b2(self):
        B2 = fx.b2()
        G = fx.cyclic_group(2)
        mapping = [None, 0, 1, 1, 0]
        return B2, G, sg.partial_group_hom(B2, G, mapping)

    def test_idempotent_pure_examples(self):
        B2, G, theta = self.theta_b2()
        assert sg.is_idempotent_pure_partial_hom(theta)
        trivial = sg.partial_group_hom(B2, fx.cyclic_group(1),
                                       [None, 0, 0, 0, 0])
        assert not sg.is_idempotent_pure_partial_hom(trivial)
        lattice = sg.validate_semigroup(["1", "0"], [[0, 1], [1, 1]], zero=1)
        assert sg.is_idempotent_pure_partial_hom(
            sg.partial_group_hom(lattice, fx.cyclic_group(1), [0, None]))

    def test_partial_hom_validation(self):
        B2 = fx.b2()
        G = fx.cyclic_group(2)
        with pytest.raises(errors.NotAHomomorphism):
            sg.partial_group_hom(B2, G, [None, 0, 1, 0, 0])  # e21 -> 1 breaks st

    def test_cover_of_b2(self):
        B2, G, theta = self.theta_b2()
        T, I, iso = sg.eunitary_cover(B2, theta)
        assert len(T) == 6 and len(I) == 2
        assert sg.is_e_unitary(T)
        assert len(sg.max_group_image(T).group) == 2
        # iso: T/I -> B2 is a bijective homomorphism fixing names
        assert sorted(iso.map) == list(range(5))

    def test_cover_of_eunitary_with_adjoined_zero(self):
        S4 = fx.s4_monoid()
        S = fx.adjoin_zero(S4)
        sigma4 = sg.max_group_image(S4)
        mapping = [sigma4(s) for s in range(len(S4))] + [None]
        theta = sg.partial_group_hom(S, sigma4.group, mapping)
        T, I, iso = sg.eunitary_cover(S, theta)
        assert len(T) == len(S4) + 2  # S4 x {pt} plus {0} x Z2
        assert sg.is_e_unitary(T)

    def test_cover_of_semilattice_trivial_group(self):
        lattice = sg.validate_semigroup(["1", "0"], [[0, 1], [1, 1]], zero=1)
        theta = sg.partial_group_hom(lattice, fx.cyclic_group(1), [0, None])
        T, I, iso = sg.eunitary_cover(lattice, theta)
        assert len(T) == len(lattice)

    def test_cover_rejects_impure(self):
        B2 = fx.b2()
        trivial = sg.partial_group_hom(B2, fx.cyclic_group(1),
                                       [None, 0, 0, 0, 0])
        with pytest.raises(errors.NotIdempotentPure):
            sg.eunitary_cover(B2, trivial)

    def test_cover_quotient_isomorphic_to_s(self):
        # the constructed witness is a homomorphism, and an independent
        # brute-force bijection search also finds an isomorphism
        B2, G, theta = self.theta_b2()
        T, I, iso = sg.eunitary_cover(B2, theta)
        Q, qmap = sg.rees_quotient(T, I)
        for a in range(len(Q)):
            for b in range(len(Q)):
                assert iso(Q.mul(a, b)) == B2.mul(iso(a), iso(b))
        found = oracles.find_table_isomorphism(
            Q.table.tolist(), B2.table.tolist(), Q.zero, B2.zero)
        assert found is not None


class TestMorphismPredicates:
    def test_sigma_s4_is_f_morphism(self):
        S4 = fx.s4_monoid()
        assert helpers.is_f_morphism(sg.hom_from_sigma(sg.max_group_image(S4)))

    def test_identity_is_f_morphism(self, corpus):
        for S in corpus.values():
            ident = sg.semigroup_hom(S, S, range(len(S)))
            assert helpers.is_f_morphism(ident)

    def test_sigma_sd6_is_not_f_morphism(self):
        SD6 = fx.sd6()
        assert not helpers.is_f_morphism(sg.hom_from_sigma(sg.max_group_image(SD6)))

    def test_locally_idempotent_pure_examples(self, corpus):
        B2 = corpus["B2"]
        assert sg.is_locally_idempotent_pure(
            sg.hom_from_sigma(sg.max_group_image(B2)))
        S4 = corpus["S4"]
        assert sg.is_locally_idempotent_pure(
            sg.hom_from_sigma(sg.max_group_image(S4)))
        I2 = corpus["I2"]
        assert not sg.is_locally_idempotent_pure(
            sg.hom_from_sigma(sg.max_group_image(I2)))

    def test_hom_validation(self):
        S4 = fx.s4_monoid()
        Z2 = fx.cyclic_group(2)
        with pytest.raises(errors.NotAHomomorphism):
            sg.semigroup_hom(S4, Z2, [0, 0, 0, 1])


class TestGenerateFixture:
    def test_brandt_trivial_2(self):
        S = fx.generate_fixture("brandt", n=2)
        assert len(S) == 5 and S.zero == 0

    def test_symmetric_inverse_counts(self):
        assert len(fx.generate_fixture("symmetric_inverse", n=2)) == 7
        assert len(fx.symmetric_inverse(3)) == 34

    def test_symmetric_inverse_size_is_checked_exactly(self, monkeypatch):
        # |I_4| = 1 + 16 + 72 + 96 + 24 = 209
        monkeypatch.setenv("GERMOID_SIZE_LIMIT", "209")
        assert len(fx.symmetric_inverse(4)) == 209
        monkeypatch.setenv("GERMOID_SIZE_LIMIT", "208")
        with pytest.raises(errors.SizeLimitExceeded) as info:
            fx.symmetric_inverse(4)
        assert info.value.size == 209

    def test_size_limit_message_of_a_huge_size(self):
        # the size of I_2000 has 5773 digits, more than Python prints
        with pytest.raises(errors.SizeLimitExceeded,
                           match=r"^size about 10\^5772 exceeds limit 4096;"):
            fx.symmetric_inverse(2000)

    def test_sd6_preset(self):
        S = fx.generate_fixture("semidirect", preset="sd6")
        assert len(S) == 6 and sg.is_e_unitary(S)

    def test_direct_product_and_adjoin_zero(self):
        S = fx.generate_fixture(
            "direct_product", left=fx.chain2(), right=fx.cyclic_group(2))
        assert len(S) == 4
        S0 = fx.generate_fixture("adjoin_zero", semigroup=S)
        assert len(S0) == 5 and S0.zero == 4

    def test_action_must_be_by_automorphisms(self):
        G = fx.cyclic_group(2)
        with pytest.raises(errors.ActionNotByAutomorphisms):
            # swapping an atom with the bottom does not preserve the meet
            fx.semidirect(fx.v3_meet_table(), G, {0: (0, 1, 2), 1: (2, 1, 0)})

    def test_invalid_params(self):
        with pytest.raises(errors.InvalidParams):
            fx.generate_fixture("nonsense")


class TestValidatorMatchesOracle:
    """Criterion 8: the validator's verdict equals the brute-force axioms
    under random single-entry table mutation."""

    @staticmethod
    def _verdict(names, table, zero):
        try:
            sg.validate_semigroup(names, table, zero)
            return True
        except errors.ValidationError:
            return False

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_fixture_tables(self, data):
        base = data.draw(st.sampled_from(["chain3", "b2", "s4", "z4", "i2"]))
        S = {"chain3": lambda: fx.chain(3),
             "b2": fx.b2,
             "s4": fx.s4_monoid,
             "z4": lambda: fx.cyclic_group(4),
             "i2": fx.i2}[base]()
        n = len(S)
        table = [row[:] for row in S.table.tolist()]
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        table[i][j] = v
        ok, _ = oracles.is_inverse_semigroup_table(table, S.zero)
        assert self._verdict(S.names, table, S.zero) == ok

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_small_tables(self, data):
        n = data.draw(st.integers(1, 3))
        table = [[data.draw(st.integers(0, n - 1)) for _ in range(n)]
                 for _ in range(n)]
        ok, _ = oracles.is_inverse_semigroup_table(table)
        assert self._verdict([str(i) for i in range(n)], table, None) == ok

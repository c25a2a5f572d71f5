import numpy as np
import pytest

import helpers
import oracles
from conftest import b2_cover
from germoid import errors
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import semigroups as sg
from germoid import spectra as sp


class TestValidateSAction:
    def test_beta_actions_validate(self, corpus):
        for S in corpus.values():
            germs.beta_action(S)

    def test_trivial_semilattice_action_on_point(self):
        E = fx.chain2()
        germs.validate_saction(E, ["pt"], [[0], [0]])

    def test_mutated_action_rejected(self):
        S4 = fx.s4_monoid()
        action = germs.beta_action(S4)
        bad = np.array(action.maps)
        s = next(s for s in range(len(S4)) if (bad[s] >= 0).sum() == 2)
        bad[s, 0], bad[s, 1] = bad[s, 1], bad[s, 0]
        with pytest.raises((errors.NotAHomomorphism, errors.NotBijective)):
            germs.validate_saction(S4, action.point_labels, bad)

    def test_uncovered_point_rejected(self):
        E = fx.chain2()
        with pytest.raises(errors.DomainsDontCover):
            germs.validate_saction(E, ["a", "b"], [[0, -1], [0, -1]])


class TestBetaAction:
    def test_idempotents_act_as_identity_on_their_d_set(self, corpus):
        for S in corpus.values():
            action = germs.beta_action(S)
            for e in S.idempotents:
                dse = helpers.d_set(action.space, e)
                for x in range(action.n_points):
                    expect = x if x in dse else None
                    assert action(e, x) == expect

    def test_b2_translation(self):
        B2 = fx.b2()
        action = germs.beta_action(B2, contracted=True)
        e12 = B2.names.index("e12")
        e11 = B2.names.index("e11")
        e22 = B2.names.index("e22")
        src = action.space.index_of(e22)
        assert action(e12, src) == action.space.index_of(e11)

    def test_matches_semicharacter_oracle(self, corpus):
        for S in corpus.values():
            action = germs.beta_action(S)
            space = action.space
            for s in range(len(S)):
                for i, m in enumerate(space.mins):
                    upset = helpers.upset(space, i)
                    expect = oracles.semicharacter_beta(S, upset, s)
                    got = action(s, i)
                    if expect is None:
                        assert got is None
                    else:
                        assert helpers.upset(space, got) == expect

    def test_beta_inverse_and_range(self, corpus):
        for S in corpus.values():
            action = germs.beta_action(S)
            space = action.space
            for s in range(len(S)):
                si = S.inv(s)
                dss = helpers.d_set(space, S.mul(si, s))
                rss = helpers.d_set(space, S.mul(s, si))
                assert action.domain(s) == dss
                assert {action(s, x) for x in dss} == set(rss)
                for x in dss:
                    assert action(si, action(s, x)) == x


class TestGermGroupoid:
    def test_germ_outside_the_germ_set_raises(self):
        g = germs.universal_groupoid(fx.s4_monoid())
        n, m = g.arrow_at.shape
        s, x = np.argwhere(g.arrow_at < 0)[0]
        for bad in ((n, 0), (-1, 0), (0, m), (s, x)):
            with pytest.raises(errors.UnknownElement, match=r"\(.*\) is not in"):
                g.germ(*bad)
        # an array lookup names its first pair outside the germ set
        good = np.argwhere(g.arrow_at >= 0)[0]
        with pytest.raises(errors.UnknownElement, match=f"^\\({n},0\\) is not"):
            g.germ([good[0], n], [good[1], 0])
        assert g.germ(*good) == g.arrow_at[tuple(good)]

    def test_semilattice_gives_unit_groupoid(self):
        for E in (fx.chain2(), fx.chain(3)):
            g = germs.universal_groupoid(E)
            assert g.n_arrows == g.n_units == len(E.idempotents)

    def test_s4_four_arrows_two_units(self):
        g = germs.universal_groupoid(fx.s4_monoid())
        assert (g.n_units, g.n_arrows) == (2, 4)
        assert g.isotropy_orders() == (2, 2)

    def test_sd6_six_arrows_three_units(self):
        g = germs.universal_groupoid(fx.sd6())
        assert (g.n_units, g.n_arrows) == (3, 6)
        assert g.isotropy_orders() == (1, 1, 2)

    def test_classes_match_definition_oracle(self, corpus):
        for name in ("S4", "SD6", "B2", "S3", "I2"):
            S = corpus[name]
            action = germs.beta_action(S)
            classes = helpers.germ_classes(germs.germ_groupoid(action))
            for x in range(action.n_points):
                expect = sorted(oracles.germ_classes_at_point(S, action, x))
                got = sorted(frozenset(s for s, _ in cls)
                             for cls in classes
                             if next(iter(cls))[1] == x
                             and all(p[1] == x for p in cls))
                assert got == expect

    def test_composition_independent_of_representatives(self, corpus):
        for name in ("S4", "SD6", "B2"):
            S = corpus[name]
            action = germs.beta_action(S)
            g = germs.germ_groupoid(action)
            classes = helpers.germ_classes(g)
            for i in range(g.n_arrows):
                for j in range(g.n_arrows):
                    if g.dom[i] != g.ran[j]:
                        continue
                    results = set()
                    for (s, x) in classes[i]:
                        for (t, y) in classes[j]:
                            if action(t, y) == x:
                                results.add(g.germ(S.mul(s, t), y))
                    assert results == {int(g.product(i, j))}

    def test_inverse_matches_formula_and_is_involutive(self, corpus):
        for name in ("S4", "SD6", "B2"):
            S = corpus[name]
            g = germs.universal_groupoid(S)
            action = g.action
            for i, (s, x) in enumerate(g.germ_reps):
                assert g.inv[g.inv[i]] == i
                assert g.inv[i] == g.germ(S.inv(s), action(s, x))

    def test_omega_partitioned(self, corpus):
        for S in corpus.values():
            g = germs.universal_groupoid(S)
            action = g.action
            omega = {(s, x) for s in range(len(S))
                     for x in range(action.n_points)
                     if action(S.mul(S.inv(s), s), x) is not None}
            assert omega == set(helpers.germ_of(g))
            counted = sum(len(c) for c in helpers.germ_classes(g))
            assert counted == len(omega)


class TestUniversalGroupoid:
    def test_one_element_zero_semigroup(self):
        # the contracted picture of {0} is empty; the plain one is a point
        Z = sg.validate_semigroup(["0"], [[0]], zero=0)
        g = germs.universal_groupoid(Z, contracted=True)
        assert (g.n_units, g.n_arrows) == (0, 0)
        assert (germs.tight_groupoid(Z).n_units,
                germs.tight_groupoid(Z).n_arrows) == (0, 0)
        gu = germs.universal_groupoid(Z, contracted=False)
        assert (gu.n_units, gu.n_arrows) == (1, 1)
        ok, _ = germs.verify_equiv_roundtrip(
            germs.beta_action(Z, contracted=True))
        assert ok

    def test_group_is_itself(self):
        for n in (1, 2, 3, 4):
            g = germs.universal_groupoid(fx.cyclic_group(n))
            assert g.n_units == 1 and g.n_arrows == n

    def test_b2_contracted_is_pair_groupoid(self):
        g = germs.universal_groupoid(fx.b2(), contracted=True)
        assert (g.n_units, g.n_arrows) == (2, 4)
        assert oracles.find_isomorphism(g, helpers.pair_groupoid(2)) is not None

    def test_b2_plain_has_isolated_zero_filter(self):
        g = germs.universal_groupoid(fx.b2(), contracted=False)
        assert (g.n_units, g.n_arrows) == (3, 5)
        zero_unit = g.action.space.index_of(fx.b2().zero)
        at_zero = [a for a in range(g.n_arrows)
                   if g.dom[a] == zero_unit or g.ran[a] == zero_unit]
        assert len(at_zero) == 1  # the collapsed zero germ only

    def test_contracted_needs_zero(self):
        with pytest.raises(errors.ContractedWithoutZero):
            germs.universal_groupoid(fx.s4_monoid(), contracted=True)


class TestTightGroupoid:
    def test_b2(self):
        g = germs.tight_groupoid(fx.b2())
        assert (g.n_units, g.n_arrows) == (2, 4)

    def test_chain_with_zero_single_unit(self):
        chain_z = sg.validate_semigroup(
            ["1", "f", "0"], [[0, 1, 2], [1, 1, 2], [2, 2, 2]], zero=2)
        g = germs.tight_groupoid(chain_z)
        assert (g.n_units, g.n_arrows) == (1, 1)

    def test_i2_reduction_to_two_maximal_filters(self):
        g = germs.tight_groupoid(fx.i2())
        assert g.n_units == 2
        # frozen from enumeration: the two singleton-domain partial
        # identities are the atoms; germs connect and rotate them
        assert g.n_arrows == 4
        assert oracles.find_isomorphism(g, helpers.pair_groupoid(2)) is not None

    def test_tight_units_invariant_under_beta(self, corpus):
        for name in ("B2", "I2", "SD6^0", "S4^0", "CHAIN2^0"):
            S = corpus[name]
            action = germs.beta_action(S, contracted=True)
            tight = set(sp.tight_spectrum(action.space))
            for s in range(len(S)):
                for x in tight:
                    y = action(s, x)
                    if y is not None:
                        assert y in tight

    def test_needs_zero(self):
        with pytest.raises(errors.NoZero):
            germs.tight_groupoid(fx.s4_monoid())


class TestIdealPerp:
    def test_zero_ideal_gives_contracted_space(self):
        B2 = fx.b2()
        perp, space = germs.ideal_perp(B2, [0])
        assert space.contracted and len(perp) == 2

    def test_whole_semigroup_rejected(self):
        with pytest.raises(errors.ImproperIdeal):
            germs.ideal_perp(fx.b2(), range(5))

    def test_non_ideal_rejected(self):
        with pytest.raises(errors.NotAnIdeal):
            germs.ideal_perp(fx.b2(), [1, 2])

    def test_cover_kernel_matches_contracted_b2_space(self):
        T, I, iso, B2, theta = b2_cover()
        perp, space = germs.ideal_perp(T, I)
        assert len(perp) == 2
        mins = {space.mins[i] for i in perp}
        assert all(m not in set(I) for m in mins)

    def test_perp_invariant_under_beta(self, corpus):
        for name in ("B2", "I2", "S4^0", "SD6^0"):
            S = corpus[name]
            for I in sg.enumerate_proper_ideals(S):
                flag = S.zero is not None
                perp, space = germs.ideal_perp(S, I)
                action = germs.beta_action(S, contracted=flag)
                pset = set(perp)
                for s in range(len(S)):
                    for x in perp:
                        y = action(s, x)
                        if y is not None:
                            assert y in pset


class TestReductionIso:
    def test_b2_zero_ideal(self):
        ok, functor = germs.verify_reduction_iso(fx.b2(), [0])
        assert ok and functor.source.n_arrows == 4

    def test_cover_kernel_gives_b2(self):
        T, I, iso, B2, theta = b2_cover()
        ok, functor = germs.verify_reduction_iso(T, I)
        assert ok
        assert functor.source.n_arrows == 4  # the pair groupoid again

    def test_all_ideals_of_small_fixtures(self, corpus):
        for name in ("B2", "I2", "CHAIN3", "S4^0", "SD6^0", "S3", "SD6"):
            S = corpus[name]
            for I in sg.enumerate_proper_ideals(S):
                ok, _ = germs.verify_reduction_iso(S, I)
                assert ok, (name, I)

    def test_random_semidirect_principal_ideals(self, random_eunitary):
        # randomized regression: the principal ideal of each generator works
        # at any corpus size, exhaustive enumeration only at small size
        def principal(S, s):
            n = len(S)
            J = {s}
            J |= {S.mul(x, s) for x in range(n)}
            J |= {S.mul(s, x) for x in range(n)}
            J |= {helpers.mul_all(S, x, s, y) for x in range(n) for y in range(n)}
            return sorted(J)

        for S in random_eunitary[:8]:
            seen = set()
            for s in range(0, len(S), max(1, len(S) // 3)):
                I = tuple(principal(S, s))
                if len(I) == len(S) or I in seen:
                    continue
                seen.add(I)
                ok, _ = germs.verify_reduction_iso(S, I)
                assert ok, (S.name, I)
            if len(S) <= 12:
                for I in sg.enumerate_proper_ideals(S):
                    ok, _ = germs.verify_reduction_iso(S, I)
                    assert ok


class TestEquivCorrespondence:
    def test_roundtrip_on_beta_of_every_fixture(self, corpus):
        for S in corpus.values():
            ok, _ = germs.verify_equiv_roundtrip(germs.beta_action(S))
            assert ok, S.name
            if S.zero is not None:
                ok, _ = germs.verify_equiv_roundtrip(
                    germs.beta_action(S, contracted=True))
                assert ok, S.name

    def test_semilattice_unit_groupoids_both_sides(self):
        action = germs.beta_action(fx.chain2())
        ok, functor = germs.verify_equiv_roundtrip(action)
        assert ok
        assert functor.source.n_arrows == functor.target.n_arrows == 2

    def test_s4_both_sides_four_arrows(self):
        action = germs.beta_action(fx.s4_monoid())
        ok, functor = germs.verify_equiv_roundtrip(action)
        assert ok and functor.source.n_arrows == 4

    def test_anchor_is_the_filter_of_defined_idempotents(self, corpus):
        for name in ("S4", "B2", "SD6"):
            S = corpus[name]
            action = germs.beta_action(S)
            ga, g = germs.gspace_from_saction(action)
            space = g.action.space
            for x in range(action.n_points):
                containing = {e for e in S.idempotents
                              if action(e, x) is not None}
                m = space.mins[ga.anchor[x]]
                assert containing == {e for e in S.idempotents
                                      if helpers.natural_leq(S, m, e)}

    def test_wrong_groupoid_rejected(self):
        pair = helpers.pair_groupoid(2)
        action = gpd.GroupoidSpaceAction(
            pair, ["x", "y"], [0, 1],
            np.array([[int(pair.ran[a]) if pair.dom[a] == x else -1
                       for x in range(2)] for a in range(4)]))
        with pytest.raises(errors.WrongGroupoid):
            germs.saction_from_gspace(action)


class TestExports:
    def test_saction_json_shape(self):
        import json
        action = germs.beta_action(fx.s4_monoid())
        data = helpers.saction_dict(action)
        assert data["semigroup"] == "S4"
        assert len(data["points"]) == 2
        parsed = json.loads(json.dumps(data, sort_keys=True))
        for s, pairs in parsed["maps"].items():
            for x, y in pairs:
                assert action(int(s), x) == y

    def test_germ_groupoid_json_carries_germ_annotations(self):
        import json
        g = germs.universal_groupoid(fx.sd6())
        data = json.loads(g.to_json())
        for arrow in data["arrows"]:
            s, x = arrow["germ"]
            assert g.germ(s, x) == arrow["id"]

    def test_charspace_json_shape(self):
        B2 = fx.b2()
        space = sp.enumerate_filters(B2, contracted=True)
        data = helpers.space_dict(space, tight=sp.tight_spectrum(space))
        assert data["contracted"] is True
        assert data["filters"] == [{"min": 1}, {"min": 4}]
        assert data["tight"] == [0, 1]


class TestInducedFunctor:
    def test_identity_hom_gives_identity_functor(self, corpus):
        for name in ("S4", "B2", "CHAIN2"):
            S = corpus[name]
            ident = sg.semigroup_hom(S, S, range(len(S)))
            F = germs.induced_functor(ident)
            assert list(F.unit_map) == list(range(F.source.n_units))
            assert list(F.arrow_map) == list(range(F.source.n_arrows))

    def test_s3_projection_faithful(self):
        S3 = fx.s3_monoid()
        phi = sg.hom_from_sigma(sg.max_group_image(S3))
        F = germs.induced_functor(phi)
        assert F.target.n_arrows == 2
        _, inj = oracles.cocycle_faithfulness_map(F)
        assert inj and gpd.is_faithful(F)

    def test_composite_functoriality(self, corpus):
        S4 = corpus["S4"]
        sigma = sg.max_group_image(S4)
        phi = sg.hom_from_sigma(sigma)        # S4 -> Z2
        psi = sg.semigroup_hom(sigma.group, fx.cyclic_group(1), [0, 0])
        comp = sg.semigroup_hom(S4, psi.target,
                                [psi(phi(s)) for s in range(len(S4))])
        F1 = germs.induced_functor(phi)
        F2 = germs.induced_functor(psi)
        Fc = germs.induced_functor(comp)
        chained = helpers.compose_functors(F2, F1)
        assert chained.arrow_map == Fc.arrow_map
        assert chained.unit_map == Fc.unit_map

    def test_unit_action_compatibility(self, corpus):
        # phi^(s F) = phi(s) phi^(F), read off the functor's equivariance
        for name in ("S4", "SD6", "B2"):
            S = corpus[name]
            phi = sg.hom_from_sigma(sg.max_group_image(S))
            F = germs.induced_functor(phi)
            gs, gt = F.source, F.target
            for a in range(gs.n_arrows):
                assert F.unit_map[gs.ran[a]] == gt.ran[F(a)]

    def test_triple_map_injective_for_locally_idempotent_pure(self, corpus):
        morphisms = []
        for name in ("S4", "SD6", "S3", "B2", "CHAIN2", "CHAIN3"):
            S = corpus[name]
            morphisms.append(sg.hom_from_sigma(sg.max_group_image(S)))
            morphisms.append(sg.semigroup_hom(S, S, range(len(S))))
        for phi in morphisms:
            if not sg.is_locally_idempotent_pure(phi):
                continue
            F = germs.induced_functor(phi)
            _, inj = oracles.cocycle_faithfulness_map(F)
            assert inj and gpd.is_faithful(F)


class TestBlockImageCertificates:
    def test_certificate_identity_on_fixture_morphisms(self, corpus):
        # the image of the whole arrow set over a compact block (D(e) x D(f)
        # x (t, D(t*t))) equals the image of the arrows covered by the
        # certificate generators s_i of e S f n phi^{-1}(t down)
        for name in ("S4", "S3", "SD6"):
            S = corpus[name]
            phi = sg.hom_from_sigma(sg.max_group_image(S))
            F = germs.induced_functor(phi)
            gs, gt = F.source, F.target
            space_s = gs.action.space
            space_t = gt.action.space
            classes = helpers.germ_classes(gt)
            certs = sp.check_ks_condition(phi)
            T = phi.target
            for (e, f, t), cert in certs.items():
                de = helpers.d_set(space_s, e)
                df = helpers.d_set(space_s, f)
                dtt = helpers.d_set(space_t, T.mul(T.inv(t), t))
                lhs = set()
                for a in range(gs.n_arrows):
                    img = F(a)
                    in_block = (
                        int(gs.ran[a]) in de and int(gs.dom[a]) in df
                        and int(gt.dom[img]) in dtt
                        and any(u == t for u, _ in classes[img]))
                    if in_block:
                        lhs.add((int(gs.ran[a]), int(gs.dom[a]), img))
                rhs = set()
                for si in cert.generators:
                    dsi = helpers.d_set(space_s, S.mul(S.inv(si), si))
                    for x in dsi:
                        a = gs.germ(si, x)
                        rhs.add((int(gs.ran[a]), int(gs.dom[a]), F(a)))
                assert lhs == rhs, (name, e, f, t)


class TestLocallyCoherentCertificateConstruction:
    def test_proof_construction_yields_valid_generators(self, corpus):
        # e_i = e s_i* s_i generates {x in E : x <= e, phi(x) <= f} whenever
        # the s_i generate phi^{-1}(f down)
        for name in ("S4", "SD6", "S3", "B2"):
            S = corpus[name]
            phi = sg.hom_from_sigma(sg.max_group_image(S))
            T = phi.target
            P = oracles.Poset.of_semigroup(S)
            for f in T.idempotents:
                pre = {s for s in range(len(S))
                       if helpers.natural_leq(T, phi(s), f)}
                gens = oracles.downset_generators(P, pre).generators
                for e in S.idempotents:
                    eis = {helpers.mul_all(S, e, S.inv(si), si) for si in gens}
                    closure = {x for ei in eis for x in S.idempotents
                               if helpers.natural_leq(S, x, ei)}
                    target = {x for x in S.idempotents
                              if helpers.natural_leq(S, x, e)
                              and helpers.natural_leq(T, phi(x), f)}
                    assert closure == target

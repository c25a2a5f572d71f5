import json

import numpy as np
import pytest

import helpers
import oracles
from germoid import errors
from germoid import fixtures as fx
from germoid import groupoids as gpd
from germoid import semigroups as sg


def z2_groupoid():
    return helpers.groupoid_from_group(fx.cyclic_group(2))


def swap_action_groupoid():
    """Z2 swapping two points, as a transformation groupoid."""
    from germoid.partial_actions import (
        partial_trans_groupoid,
        validate_partial_action,
    )
    G = fx.cyclic_group(2)
    theta = validate_partial_action(G, ["x", "y"], [[0, 1], [1, 0]])
    return partial_trans_groupoid(theta)


class TestValidateGroupoid:
    def test_group_as_one_unit_groupoid(self):
        g = z2_groupoid()
        assert g.n_units == 1 and g.n_arrows == 2

    def test_pair_groupoid(self):
        g = helpers.pair_groupoid(2)
        assert g.n_units == 2 and g.n_arrows == 4
        gpd.validate_groupoid(g)

    def test_missing_inverse_detected(self):
        g = helpers.pair_groupoid(2)
        bad = gpd.FiniteGroupoid(
            g.unit_labels, g.dom, g.ran, g.products,
            [0 if a == g.inv[a] else a for a in range(4)],  # break inverses
            g.identity)
        with pytest.raises(errors.MissingInverse):
            gpd.validate_groupoid(bad)

    def test_domain_mismatch_detected(self):
        # a triple at a pair that does not compose: only a groupoid file
        # can give one
        g = helpers.pair_groupoid(2)
        a = next(a for a in range(4) if g.dom[a] != g.ran[a])
        b = next(b for b in range(4) if g.dom[a] != g.ran[b])
        data = json.loads(g.to_json())
        data["comp"].append([a, b, a])
        with pytest.raises(errors.DomainMismatch):
            gpd.groupoid_from_json(json.dumps(data))

    def test_json_roundtrip(self):
        g = helpers.pair_groupoid(3)
        h = gpd.groupoid_from_json(g.to_json())
        assert h.n_units == 3 and h.n_arrows == 9
        assert oracles.find_isomorphism(g, h) is not None


class TestReduction:
    def test_full_reduction_is_identity(self):
        g = helpers.pair_groupoid(2)
        r = gpd.reduction(g, range(2))
        assert r.n_arrows == g.n_arrows

    def test_pair3_to_pair2(self):
        g = helpers.pair_groupoid(3)
        r = gpd.reduction(g, [0, 2])
        assert r.n_units == 2 and r.n_arrows == 4
        assert oracles.find_isomorphism(r, helpers.pair_groupoid(2)) is not None

    def test_empty_reduction(self):
        r = gpd.reduction(helpers.pair_groupoid(2), [])
        assert r.n_units == 0 and r.n_arrows == 0

    def test_unknown_unit(self):
        with pytest.raises(errors.UnknownUnit):
            gpd.reduction(helpers.pair_groupoid(2), [5])


class TestSemidirectProduct:
    def test_group_acting_trivially_on_two_points(self):
        h = z2_groupoid()
        action = gpd.GroupoidSpaceAction(
            h, ["x", "y"], [0, 0],
            np.array([[0, 1], [0, 1]]))
        sd = gpd.semidirect_product(action)
        assert sd.n_units == 2 and sd.n_arrows == 4
        assert sd.isotropy_orders() == (2, 2)

    def test_groupoid_acting_on_own_units(self):
        h = helpers.pair_groupoid(2)
        action = gpd.GroupoidSpaceAction(
            h, ["0", "1"], [0, 1],
            np.array([[int(h.ran[a]) if h.dom[a] == x else -1
                       for x in range(2)] for a in range(4)]))
        sd = gpd.semidirect_product(action)
        assert oracles.find_isomorphism(sd, h) is not None

    def test_swap_is_pair_groupoid(self):
        sd = swap_action_groupoid()
        assert sd.n_arrows == 4
        assert oracles.find_isomorphism(sd, helpers.pair_groupoid(2)) is not None

    def test_invalid_action_rejected(self):
        h = z2_groupoid()
        with pytest.raises(errors.InvalidAction):
            gpd.validate_space_action(gpd.GroupoidSpaceAction(
                h, ["x", "y"], [0, 0], np.array([[0, 1], [1, 1]])))

    def test_reduction_to_saturated_subset_commutes_with_restriction(self):
        # Z2 swapping x, y and fixing z; {z} and {x, y} are saturated
        h = z2_groupoid()
        action = gpd.GroupoidSpaceAction(
            h, ["x", "y", "z"], [0, 0, 0],
            np.array([[0, 1, 2], [1, 0, 2]]))
        sd = gpd.semidirect_product(action)
        for subset in ([2], [0, 1]):
            sub = gpd.GroupoidSpaceAction(
                h, [action.point_labels[x] for x in subset],
                [action.anchor[x] for x in subset],
                np.array([[subset.index(action(a, x))
                           if action(a, x) in subset else -1
                           for x in subset] for a in range(h.n_arrows)]))
            direct = gpd.semidirect_product(sub)
            reduced = gpd.reduction(sd, subset)
            assert direct.n_arrows == reduced.n_arrows
            assert [tuple(p) for p in zip(direct.dom, direct.ran)] == \
                [tuple(p) for p in zip(reduced.dom, reduced.ran)]


class TestFunctorReport:
    def test_identity_functor(self):
        g = helpers.pair_groupoid(2)
        rep = gpd.functor_report(helpers.identity_functor(g))
        assert all(rep.values())

    def test_unit_inclusion_into_pair_groupoid(self):
        unit = gpd.reduction(helpers.pair_groupoid(2), [0])
        F = helpers.inclusion_of_reduction(unit, helpers.pair_groupoid(2))
        rep = gpd.functor_report(F)
        assert rep["fully_faithful"] and rep["essentially_surjective"]
        assert rep["weak_equivalence"]

    def test_constant_functor_from_pair_groupoid(self):
        # trivial isotropy keeps the comparison map injective: the collapse
        # of the pair groupoid to the point is a weak equivalence
        g = helpers.pair_groupoid(2)
        t = helpers.groupoid_from_group(fx.cyclic_group(1))
        F = gpd.groupoid_functor(g, t, [0, 0], [0, 0, 0, 0])
        rep = gpd.functor_report(F)
        assert rep["full"] and rep["essentially_surjective"]
        assert rep["faithful"] and rep["weak_equivalence"]

    def test_constant_functor_with_isotropy_not_faithful(self):
        g = z2_groupoid()
        t = helpers.groupoid_from_group(fx.cyclic_group(1))
        F = gpd.groupoid_functor(g, t, [0], [0, 0])
        rep = gpd.functor_report(F)
        assert rep["full"] and rep["essentially_surjective"]
        assert not rep["faithful"]

    def test_weak_equivalences_compose(self):
        pair = helpers.pair_groupoid(3)
        one = gpd.reduction(pair, [0])
        two = gpd.reduction(pair, [0, 1])
        f1 = helpers.inclusion_of_reduction(one, two)
        f2 = helpers.inclusion_of_reduction(two, pair)
        assert gpd.functor_report(f1)["weak_equivalence"]
        assert gpd.functor_report(f2)["weak_equivalence"]
        assert gpd.functor_report(helpers.compose_functors(f2, f1))["weak_equivalence"]

    def test_faithful_composes(self):
        g = swap_action_groupoid()
        pair = helpers.pair_groupoid(2)
        iso = oracles.find_isomorphism(g, pair)
        assert gpd.functor_report(iso)["faithful"]
        back = oracles.find_isomorphism(pair, g)
        comp = helpers.compose_functors(back, iso)
        assert gpd.functor_report(comp)["faithful"]

    def test_reduction_meeting_every_orbit_is_weak_equivalence(self):
        # two-component groupoid: Z2 disjoint union with a pair groupoid
        from germoid.germs import universal_groupoid
        g = universal_groupoid(fx.s4_monoid())  # Z2 u Z2, two orbits
        incl = helpers.inclusion_of_reduction(gpd.reduction(g, [0, 1]), g)
        assert gpd.functor_report(incl)["weak_equivalence"]
        partial = helpers.inclusion_of_reduction(gpd.reduction(g, [0]), g)
        assert not gpd.functor_report(partial)["essentially_surjective"]


class TestIsomorphism:
    def test_identity(self):
        g = helpers.pair_groupoid(2)
        assert gpd.verify_isomorphism(helpers.identity_functor(g),
                                      helpers.identity_functor(g))

    def test_pair_vs_swap_transformation_groupoid(self):
        assert oracles.find_isomorphism(
            swap_action_groupoid(), helpers.pair_groupoid(2)) is not None

    def test_pair_vs_two_copies_of_z2(self):
        h = z2_groupoid()
        action = gpd.GroupoidSpaceAction(
            h, ["x", "y"], [0, 0], np.array([[0, 1], [0, 1]]))
        two_z2 = gpd.semidirect_product(action)
        assert oracles.find_isomorphism(helpers.pair_groupoid(2), two_z2) is None

    def test_non_bijective_rejected(self):
        g = helpers.pair_groupoid(2)
        t = helpers.groupoid_from_group(fx.cyclic_group(1))
        F = gpd.groupoid_functor(g, t, [0, 0], [0, 0, 0, 0])
        assert not gpd.verify_isomorphism(F)

    def test_size_guard(self):
        big = helpers.pair_groupoid(9)  # 81 arrows
        with pytest.raises(errors.SizeLimitExceeded):
            oracles.find_isomorphism(big, big)

    def test_search_distinguishes_equal_invariant_groups(self):
        # Z4 and the Klein four-group agree on every cheap invariant, so the
        # search itself must refute the isomorphism
        z4 = helpers.groupoid_from_group(fx.cyclic_group(4))
        klein = helpers.groupoid_from_group(sg.validate_group(
            ["1", "a", "b", "ab"],
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]))
        assert z4.isotropy_orders() == klein.isotropy_orders()
        assert oracles.find_isomorphism(z4, klein) is None
        assert oracles.find_isomorphism(z4, z4) is not None
        assert oracles.find_isomorphism(klein, klein) is not None

    def test_search_finds_iso_of_shuffled_copy(self):
        from germoid.germs import universal_groupoid
        g = universal_groupoid(fx.sd6())
        aperm = [3, 0, 5, 1, 4, 2]
        uperm = [2, 0, 1]
        (a, b), ab = g.composable_pairs, g.products
        comp = {(aperm[x], aperm[y]): aperm[c]
                for x, y, c in zip(a.tolist(), b.tolist(), ab.tolist())}
        dom = [0] * g.n_arrows
        ran = [0] * g.n_arrows
        inv = [0] * g.n_arrows
        for a in range(g.n_arrows):
            dom[aperm[a]] = uperm[g.dom[a]]
            ran[aperm[a]] = uperm[g.ran[a]]
            inv[aperm[a]] = aperm[g.inv[a]]
        identity = [0] * g.n_units
        for u in range(g.n_units):
            identity[uperm[u]] = aperm[g.identity[u]]
        shuffled = gpd.validate_groupoid(gpd.FiniteGroupoid(
            ["x", "y", "z"], dom, ran, oracles.rule_of(comp), inv, identity))
        F = oracles.find_isomorphism(g, shuffled)
        assert F is not None and gpd.verify_isomorphism(F)


class TestCocycleFaithfulness:
    def test_identity_injective(self):
        g = helpers.pair_groupoid(2)
        F = helpers.identity_functor(g)
        _, inj = oracles.cocycle_faithfulness_map(F)
        assert inj and gpd.is_faithful(F)

    def test_constant_from_pair_groupoid_not_injective_with_isotropy(self):
        g = z2_groupoid()
        t = helpers.groupoid_from_group(fx.cyclic_group(1))
        F = gpd.groupoid_functor(g, t, [0], [0, 0])
        _, inj = oracles.cocycle_faithfulness_map(F)
        assert not inj and not gpd.is_faithful(F)


class TestEnvelopingActionOfFunctor:
    def test_identity_functor_weak_equivalence(self):
        for g in (helpers.pair_groupoid(2), z2_groupoid()):
            action, alpha, sd, classes = gpd.enveloping_action_of_functor(
                helpers.identity_functor(g))
            rep = gpd.functor_report(alpha)
            assert rep["weak_equivalence"]

    def test_s3_projection(self):
        from germoid.germs import universal_groupoid
        S3 = fx.s3_monoid()
        sigma = sg.max_group_image(S3)
        g = universal_groupoid(S3)
        h = helpers.groupoid_from_group(sigma.group)
        F = gpd.groupoid_functor(
            g, h, [0] * g.n_units,
            [sigma(s) for s, _ in g.germ_reps])
        action, alpha, sd, classes = gpd.enveloping_action_of_functor(F)
        assert action.n_points == 3
        assert sd.n_arrows == 6
        assert gpd.functor_report(alpha)["weak_equivalence"]
        # the factorization recovers F through the projection
        proj = gpd.semidirect_projection(sd, h)
        assert all(proj(alpha(a)) == F(a) for a in range(g.n_arrows))

    def test_unit_inclusion_into_pair_groupoid(self):
        pair = helpers.pair_groupoid(2)
        unit = gpd.reduction(pair, [0])
        F = helpers.inclusion_of_reduction(unit, pair)
        action, alpha, sd, classes = gpd.enveloping_action_of_functor(F)
        assert gpd.functor_report(alpha)["weak_equivalence"]
        assert action.n_points == 2  # no collapsing: trivial isotropy

    def test_requires_faithful(self):
        g = z2_groupoid()
        t = helpers.groupoid_from_group(fx.cyclic_group(1))
        F = gpd.groupoid_functor(g, t, [0], [0, 0])
        with pytest.raises(errors.NotFaithful):
            gpd.enveloping_action_of_functor(F)


class TestExports:
    def test_dot_contains_units_and_arrows(self):
        g = helpers.pair_groupoid(2)
        dot = g.to_dot()
        assert "digraph" in dot and "u0 -> u1" in dot

    def test_json_deterministic(self):
        a = helpers.pair_groupoid(2).to_json()
        b = helpers.pair_groupoid(2).to_json()
        assert a == b

import tracemalloc

import pytest

import helpers
import oracles
from germoid import errors
from germoid import fixtures as fx
from germoid import semigroups as sg
from germoid import spectra as sp
from germoid import verify


def semilattice_of(S):
    return sp.idempotent_semilattice(S)


def hat_of(phi, S, T):
    """(filter space of S, filter space of T, hat map) of phi: E(S) -> E(T)."""
    src, tgt = sp.enumerate_filters(S), sp.enumerate_filters(T)
    return src, tgt, sp.hat_map(phi, src, tgt)


class TestEnumerateFilters:
    def test_chain2_two_filters(self):
        space = sp.enumerate_filters(fx.chain2())
        assert len(space) == 2
        ups = sorted(helpers.upset(space, i) for i in range(len(space)))
        assert ups == sorted([frozenset({0}), frozenset({0, 1})])

    def test_b2_contracted_two_filters(self, corpus):
        space = sp.enumerate_filters(corpus["B2"], contracted=True)
        assert len(space) == 2
        assert all(m != corpus["B2"].zero for m in space.mins)

    def test_singleton(self):
        space = sp.enumerate_filters(fx.cyclic_group(1))
        assert len(space) == 1

    def test_matches_brute_force_filter_enumeration(self, corpus):
        for S in corpus.values():
            E = semilattice_of(S)
            expect = sorted(oracles.all_filters(E.elements, E.meet))
            space = sp.enumerate_filters(S)
            got = sorted(helpers.upset(space, i) for i in range(len(space)))
            assert got == expect

    def test_count_identity(self, corpus):
        for S in corpus.values():
            assert len(sp.enumerate_filters(S)) == len(S.idempotents)
            if S.zero is not None:
                assert len(sp.enumerate_filters(S, contracted=True)) == \
                    len(S.idempotents) - 1

    def test_contracted_needs_zero(self):
        with pytest.raises(errors.ContractedWithoutZero):
            sp.enumerate_filters(fx.s4_monoid(), contracted=True)


class TestDSets:
    def test_chain2(self):
        space = sp.enumerate_filters(fx.chain2())
        assert helpers.d_set(space, 0) == {0, 1}
        assert helpers.d_set(space, 1) == {space.index_of(1)}

    def test_d_zero_empty_in_contracted(self, corpus):
        B2 = corpus["B2"]
        space = sp.enumerate_filters(B2, contracted=True)
        assert helpers.d_set(space, B2.zero) == frozenset()

    def test_intersection_identity_exhaustive(self, corpus):
        for name in ("SD6", "B2", "I2", "S4"):
            S = corpus[name]
            space = sp.enumerate_filters(S)
            for e in S.idempotents:
                for f in S.idempotents:
                    assert helpers.d_set(space, e) & helpers.d_set(space, f) == \
                        helpers.d_set(space, S.mul(e, f))

    def test_union_covers_space(self, corpus):
        for S in corpus.values():
            space = sp.enumerate_filters(S)
            union = set()
            for e in S.idempotents:
                union |= helpers.d_set(space, e)
            assert union == set(range(len(space)))

    def test_unknown_element(self):
        space = sp.enumerate_filters(fx.chain2())
        with pytest.raises(errors.UnknownElement):
            helpers.d_set(space, 99)


class TestTightSpectrum:
    def test_b2_both_tight(self, corpus):
        space = sp.enumerate_filters(corpus["B2"], contracted=True)
        assert sp.tight_spectrum(space) == (0, 1)

    def test_chain_keeps_only_bottom_filter(self):
        chain_z = sg.validate_semigroup(
            ["1", "f", "0"], [[0, 1, 2], [1, 1, 2], [2, 2, 2]], zero=2)
        space = sp.enumerate_filters(chain_z, contracted=True)
        tight = sp.tight_spectrum(space)
        assert [space.mins[i] for i in tight] == [1]  # f^ only

    def test_atom_fan(self):
        # antichain of 3 atoms over a zero: all principal filters are tight
        table = [[0, 3, 3, 3], [3, 1, 3, 3], [3, 3, 2, 3], [3, 3, 3, 3]]
        S = sg.validate_semigroup(["a", "b", "c", "0"], table, zero=3)
        space = sp.enumerate_filters(S, contracted=True)
        assert len(sp.tight_spectrum(space)) == 3

    def test_maximality_oracle(self, corpus):
        for name in ("B2", "I2", "SD6^0"):
            S = corpus[name]
            E = semilattice_of(S)
            space = sp.enumerate_filters(S, contracted=True)
            proper = [F for F in oracles.all_filters(E.elements, E.meet)
                      if S.zero not in F]
            maximal = [F for F in proper
                       if not any(G > F for G in proper)]
            got = {helpers.upset(space, i) for i in sp.tight_spectrum(space)}
            assert got == set(maximal)

    def test_requires_contracted(self):
        space = sp.enumerate_filters(fx.b2(), contracted=False)
        with pytest.raises(errors.ContractedWithoutZero):
            sp.tight_spectrum(space)


class TestDownsets:
    def test_principal(self):
        E = semilattice_of(fx.sd6())
        P = oracles.Poset.of_semilattice(E)
        cert = oracles.downset_generators(
            P, oracles.principal_downset(P, E.elements[0]))
        assert cert.generators == (E.elements[0],)

    def test_sd6_atoms(self):
        SD6 = fx.sd6()
        E = semilattice_of(SD6)
        P = oracles.Poset.of_semilattice(E)
        e1, e2, b = E.elements  # ids of (e1,1), (e2,1), (b,1)
        cert = oracles.downset_generators(P, {e1, e2, b})
        assert set(cert.generators) == {e1, e2}

    def test_empty(self):
        P = oracles.Poset.of_semilattice(semilattice_of(fx.chain2()))
        assert oracles.downset_generators(P, frozenset()).generators == ()

    def test_not_a_downset(self):
        E = semilattice_of(fx.chain2())
        P = oracles.Poset.of_semilattice(E)
        with pytest.raises(errors.NotADownset):
            oracles.downset_generators(P, {0})  # top without the bottom

    def test_generators_form_antichain_with_right_closure(self, corpus):
        for S in corpus.values():
            E = semilattice_of(S)
            P = oracles.Poset.of_semilattice(E)
            down = oracles.principal_downset(P, E.elements[-1])
            cert = oracles.downset_generators(P, down)
            for a in cert.generators:
                for b in cert.generators:
                    if a != b:
                        assert not P.leq(a, b)
            closure = {y for gen in cert.generators
                       for y in oracles.principal_downset(P, gen)}
            assert closure == set(cert.downset)


def collapse_sd6_to_chain2():
    """E(SD6) -> CHAIN2 sending both atoms and the bottom to the bottom."""
    SD6 = fx.sd6()
    E1 = semilattice_of(SD6)
    E2 = semilattice_of(fx.chain2())
    mapping = {e: 1 for e in E1.elements}
    return sp.semilattice_hom(E1, E2, mapping), E1, E2


def preimage_certificates(phi):
    """The generating antichain of phi^{-1}(e downset), for each target e."""
    P = oracles.Poset.of_semilattice(phi.source)
    return {e: oracles.downset_generators(
                P, {x for x in phi.source.elements if phi.target.leq(phi(x), e)})
            for e in phi.target.elements}


class TestCoherence:
    def test_identity_singleton_certificates(self):
        E = semilattice_of(fx.chain2())
        ident = sp.semilattice_hom(E, E, {e: e for e in E.elements})
        for e, cert in preimage_certificates(ident).items():
            assert cert.generators == (e,)

    def test_collapse_certificate(self):
        phi, E1, E2 = collapse_sd6_to_chain2()
        certs = preimage_certificates(phi)
        e1, e2, b = E1.elements
        assert set(certs[1].generators) == {e1, e2}
        assert certs[0].generators == (e1, e2) or set(certs[0].generators) == {e1, e2}

    def test_meet_preservation_enforced(self):
        E1 = semilattice_of(fx.sd6())
        E2 = semilattice_of(fx.chain2())
        e1, e2, b = E1.elements
        with pytest.raises(errors.NotMeetPreserving):
            sp.semilattice_hom(E1, E2, {e1: 0, e2: 0, b: 1})


class TestHatMap:
    def test_identity(self):
        S = fx.chain2()
        E = semilattice_of(S)
        ident = sp.semilattice_hom(E, E, {e: e for e in E.elements})
        _, _, mapping = hat_of(ident, S, S)
        assert list(mapping) == [0, 1]

    def test_collapse_sends_atom_filters_to_bottom_filter(self):
        phi, E1, E2 = collapse_sd6_to_chain2()
        src, tgt, mapping = hat_of(phi, fx.sd6(), fx.chain2())
        e1_idx = src.index_of(E1.elements[0])
        assert tgt.mins[mapping[e1_idx]] == 1

    def test_against_upclosure_oracle(self, corpus):
        chain2 = fx.chain2()
        for S in corpus.values():
            E1 = semilattice_of(S)
            E2 = semilattice_of(chain2)
            mapping = {e: 1 for e in E1.elements}
            if S.zero is None:
                mapping[E1.elements[0]] = 1
            phi = sp.semilattice_hom(E1, E2, mapping)
            src, tgt, hat = hat_of(phi, S, chain2)
            for i in range(len(src)):
                image = oracles.upclosure(
                    E2.elements, E2.meet, {phi(x) for x in helpers.upset(src, i)})
                assert helpers.upset(tgt, hat[i]) == image

    def test_functoriality(self):
        # hat of a composite is the composite of hats; hat of id is id
        S1, S2, S3 = fx.sd6(), fx.chain2(), fx.cyclic_group(1)
        E1, E2, E3 = map(semilattice_of, (S1, S2, S3))
        phi = sp.semilattice_hom(E1, E2, {e: 1 for e in E1.elements})
        psi = sp.semilattice_hom(E2, E3, {0: 0, 1: 0})
        comp = sp.semilattice_hom(E1, E3, {e: psi(phi(e)) for e in E1.elements})
        s1, s2, h1 = hat_of(phi, S1, S2)
        s2b, s3, h2 = hat_of(psi, S2, S3)
        s1c, s3c, hc = hat_of(comp, S1, S3)
        assert [h2[h1[i]] for i in range(len(s1))] == list(hc)


class TestKSCondition:
    def test_sigma_s4(self, corpus):
        S4 = corpus["S4"]
        phi = sg.hom_from_sigma(sg.max_group_image(S4))
        certs = sp.check_ks_condition(phi)
        # every non-empty corner preimage has a generating antichain whose
        # down-closure gives it back
        P = oracles.Poset.of_semigroup(S4)
        for (e, f, t), cert in certs.items():
            closure = {y for g in cert.generators
                       for y in range(len(S4)) if P.leq(y, g)}
            assert closure == set(cert.downset)

    def test_f_morphism_certificates_are_euf(self, corpus, random_eunitary):
        # where the morphism is an F-morphism with a group target (or the
        # identity), the certificate of a non-empty corner is the singleton
        # {e u f} with u the maximum of the fiber over t
        pool = [corpus["S4"], corpus["S3"]] + random_eunitary[:5]
        for S in pool:
            sigma = sg.max_group_image(S)
            phi = sg.hom_from_sigma(sigma)
            if not helpers.is_f_morphism(phi):
                continue
            certs = sp.check_ks_condition(phi)
            for (e, f, t), cert in certs.items():
                if not cert.downset:
                    assert cert.generators == ()
                    continue
                fiber = [s for s in range(len(S)) if phi(s) == t]
                u = next(u for u in fiber
                         if all(helpers.natural_leq(S, s, u) for s in fiber))
                assert cert.generators == (helpers.mul_all(S, e, u, f),)

    def test_identity_morphism_certificates(self, corpus):
        S = corpus["SD6"]
        ident = sg.semigroup_hom(S, S, range(len(S)))
        certs = sp.check_ks_condition(ident)
        for (e, f, t), cert in certs.items():
            if cert.downset:
                assert cert.generators == (helpers.mul_all(S, e, t, f),)

    def test_sigma_sd6_certificates_enumerated(self, corpus):
        # every corner of SD6 is a principal downset (no top element), so all
        # certificates of the sigma map are singletons; frozen from enumeration
        SD6 = corpus["SD6"]
        phi = sg.hom_from_sigma(sg.max_group_image(SD6))
        certs = sp.check_ks_condition(phi)
        assert {len(c.generators) for c in certs.values()} <= {0, 1}

    def test_nonsingleton_certificate_witness(self):
        # a monoid corner can need two generators: top adjoined over the
        # {e1, e2 > b} semilattice, collapsed onto a two-chain
        table = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
        M = sg.validate_semigroup(["1", "e1", "e2", "b"], table)
        C = fx.chain2()
        phi = sg.semigroup_hom(M, C, [0, 1, 1, 1])
        certs = sp.check_ks_condition(phi)
        assert set(certs[(0, 0, 1)].generators) == {1, 2}

    def test_512_elements_keep_the_ks_digest_and_stay_small(self):
        # CHAIN32 x Z16: the ks report's certificate digest is the one the
        # per-corner kernel gave, and the certificates take 1.2 MiB to build
        # (5.9 MiB over the cover edges, 24 MiB with the per-corner products)
        S = fx.direct_product(fx.chain(32), fx.cyclic_group(16))
        (report,) = verify.suite_ks(S)
        assert report.passed
        assert report.certificate_digest == "fc8e9170bb99f588"
        phi = sg.hom_from_sigma(sg.max_group_image(S))
        tracemalloc.start()
        try:
            certs = sp.check_ks_condition(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(certs) == 32 * 32 * 16
        assert peak < 12 << 20, peak

    def test_1024_elements_keep_the_ks_digest(self):
        # CHAIN64 x Z16: the digest of the cover-edge kernel's certificates
        S = fx.direct_product(fx.chain(64), fx.cyclic_group(16))
        (report,) = verify.suite_ks(S)
        assert report.passed
        assert report.certificate_digest == "f652510e0eea2d88"

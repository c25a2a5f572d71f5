"""Constructions born validated by ``semigroups.proved``: the fixture
generators, group images and Rees quotients built from validated inputs
skip Light's test, the inverse scan and the generator search.  Each must
equal what ``validate_semigroup`` (``validate_group`` for a group) makes
of the same table; an input from the raw constructor, a literal table and
a semidirect product over a non-semilattice are validated as before, with
the same errors.  Planted controls: a defect in a born-validated table is
caught where the program reads it again, by the load path or by the
verify suites."""

import json
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germoid import cli, errors
from germoid import fixtures as fx
from germoid import semigroups as sg
from test_kernels import outcome

EXAMPLES = settings(max_examples=60, deadline=None)


def symmetric_group(k):
    """S_k by its permutations, composed as p after q, from a table."""
    perms = list(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]
    return fx.group_from_table([str(p) for p in perms], table, name=f"S{k}")


def same_as_validated(S):
    """S equals what the validator makes of its table, and its group
    image and Rees quotients are born validated the same way."""
    if isinstance(S, sg.FiniteGroup):
        V = sg.validate_group(S.names, S.table, name=S.name)
        assert S.identity == V.identity and type(S.identity) is int
    else:
        V = sg.validate_semigroup(S.names, S.table, S.zero, name=S.name)
    assert type(S) is type(V) and S.validated
    assert (S.names, S.name, S.zero) == (V.names, V.name, V.zero)
    assert S.table.dtype == S.star.dtype == np.int64
    assert np.array_equal(S.table, V.table) and np.array_equal(S.star, V.star)
    assert not S.table.flags.writeable and not S.star.flags.writeable
    assert S.idempotents == V.idempotents
    assert S.generators == V.generators
    return V


def reversed_ids(S):
    """S validated from its table with the ids in reverse order, so that id
    0 is seldom an identity: as the benchmark relabels its corpus."""
    p = np.arange(len(S))[::-1]
    return sg.validate_semigroup([S.names[a] for a in p], p[S.table[np.ix_(p, p)]],
                                 None if S.zero is None else int(p[S.zero]))


def with_quotients(S, ideals=False):
    same_as_validated(S)
    for T in (S, reversed_ids(S)):
        same_as_validated(sg.max_group_image(T).group)
        for I in sg.enumerate_proper_ideals(T) if ideals else ():
            Q, q = sg.rees_quotient(T, I)
            assert Q.zero == q(I[0])
            same_as_validated(Q)
            same_as_validated(sg.max_group_image(Q).group)


small = st.one_of(
    st.integers(1, 6).map(fx.chain),
    st.integers(1, 6).map(fx.cyclic_group),
    st.tuples(st.integers(1, 3), st.integers(1, 2)).map(
        lambda p: fx.brandt(fx.cyclic_group(p[0]), p[1])),
    st.integers(0, 2).map(fx.symmetric_inverse),
    st.sampled_from([fx.sd6, fx.s3_monoid]).map(lambda make: make()))


@EXAMPLES
@given(st.integers(1, 40), st.booleans())
def test_chains_and_cyclic_groups_equal_their_validation(n, group):
    with_quotients(fx.cyclic_group(n) if group else fx.chain(n))


@EXAMPLES
@given(st.integers(1, 5), st.integers(1, 4))
def test_brandt_semigroups_over_cyclic_groups_equal_their_validation(m, n):
    with_quotients(fx.brandt(fx.cyclic_group(m), n), ideals=m * n * n < 30)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_brandt_semigroups_over_s3_equal_their_validation(n):
    with_quotients(fx.brandt(symmetric_group(3), n), ideals=True)


@pytest.mark.parametrize("make", [lambda: fx.chain(2), fx.b2, fx.s4_monoid],
                         ids=["CHAIN2", "B2", "S4"])
def test_brandt_semigroups_over_inverse_semigroups_equal_their_validation(make):
    # the proof needs only an inverse semigroup G, not a group
    with_quotients(fx.brandt(make(), 2), ideals=True)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_symmetric_inverse_monoids_equal_their_validation(n):
    with_quotients(fx.symmetric_inverse(n), ideals=n < 4)


@EXAMPLES
@given(small, small, st.booleans())
def test_products_and_adjoined_zeros_equal_their_validation(S, T, zero):
    with_quotients(fx.adjoin_zero(S) if zero else fx.direct_product(S, T))


def test_a_semidirect_by_a_three_cycle_equals_its_validation():
    # Z6 turns three atoms over a bottom, below a top, through a 3-cycle:
    # g* acts unlike g
    meet = [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4],
            [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]]
    turn = [(0, 1, 2, 3, 4), (0, 2, 3, 1, 4), (0, 3, 1, 2, 4)]
    S = fx.semidirect(meet, fx.cyclic_group(6), {g: turn[g % 3] for g in range(6)})
    with_quotients(S, ideals=True)


def test_random_eunitary_draws_equal_their_validation(random_eunitary):
    for S in random_eunitary:
        with_quotients(S)


@pytest.mark.parametrize("preset", sorted(fx.PRESETS))
def test_presets_and_their_rees_quotients_equal_their_validation(preset):
    with_quotients(fx.PRESETS[preset](), ideals=True)


# -- what is still validated ------------------------------------------------------

def raw(S):
    """S from the raw constructor: equal, but not ``validated``."""
    if isinstance(S, sg.FiniteGroup):
        return sg.FiniteGroup(S.names, S.table, S.star, S.identity, name=S.name)
    return sg.InvSemigroup(S.names, S.table, S.zero, S.star, name=S.name)


def broken(S):
    """S from the raw constructor with the products s0*s1 and s0*s2 swapped."""
    table = np.array(S.table)
    table[0, [1, 2]] = table[0, [2, 1]]
    return sg.InvSemigroup(S.names, table, S.zero, S.star, name=S.name)


@pytest.fixture
def validations(monkeypatch):
    """The tables ``validate_semigroup`` sees, in call order."""
    seen, real = [], sg.validate_semigroup

    def spy(names, table, *args, **kwargs):
        seen.append(np.asarray(table))
        return real(names, table, *args, **kwargs)
    monkeypatch.setattr(sg, "validate_semigroup", spy)
    monkeypatch.setattr(fx, "validate_semigroup", spy)
    return seen


BUILDS = {
    "brandt": lambda G, S: fx.brandt(G, 2),
    "semidirect": lambda G, S: fx.semidirect(fx.v3_meet_table(), G,
                                             {0: (0, 1, 2), 1: (1, 0, 2)}),
    "direct_product": lambda G, S: fx.direct_product(S, fx.chain(2)),
    "adjoin_zero": lambda G, S: fx.adjoin_zero(S),
    "max_group_image": lambda G, S: sg.max_group_image(S).group,
    "rees_quotient": lambda G, S: sg.rees_quotient(S, (S.zero,))[0],
}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_a_raw_input_is_still_validated(build, validations):
    G, S = fx.cyclic_group(2), fx.adjoin_zero(fx.sd6())
    born = BUILDS[build](G, S)
    assert not validations
    again = BUILDS[build](raw(G), raw(S))
    assert len(validations) == 1 and again.validated
    assert np.array_equal(validations[0], again.table)
    assert np.array_equal(again.star, born.star) and again.names == born.names


@pytest.mark.parametrize("build", ["brandt", "direct_product", "adjoin_zero",
                                   "rees_quotient"])
def test_a_broken_raw_input_raises_what_the_validator_raises(build, validations):
    S = fx.adjoin_zero(fx.sd6())
    G = fx.cyclic_group(3)
    bad_G = sg.FiniteGroup(G.names, broken(G).table, G.star, 0, name=G.name)
    with pytest.raises(errors.ValidationError) as info:
        BUILDS[build](bad_G, broken(S))
    assert outcome(sg.validate_semigroup, [str(i) for i in range(
        len(validations[0]))], validations[0]) == \
        (type(info.value).__name__, str(info.value))


def test_a_literal_table_is_validated(validations):
    fx.s3_monoid()
    fx.group_from_table(["1", "g"], [[0, 1], [1, 0]])
    assert len(validations) == 2


@pytest.mark.parametrize("meet, expect", [
    ([[0, 0], [1, 1]], "NoUniqueInverse"),            # a left-zero band
    ([[0, 0, 2], [0, 1, 1], [2, 1, 2]], "NotAssociative"),   # rock-paper-scissors
], ids=["left-zero", "not-associative"])
def test_a_semidirect_over_a_non_semilattice_is_validated(meet, expect,
                                                          validations):
    assert not fx.is_semilattice(np.array(meet))
    k = len(meet)
    with pytest.raises(errors.ValidationError) as info:
        fx.semidirect(meet, fx.cyclic_group(1), {0: tuple(range(k))})
    # over the trivial group the product table is the meet table itself
    assert len(validations) == 1 and np.array_equal(validations[0], meet)
    assert outcome(sg.validate_semigroup, [str(i) for i in range(k)], meet) == \
        (expect, str(info.value))


def test_is_semilattice_rejects_what_is_not_a_meet_table():
    meet = np.array(fx.v3_meet_table())
    assert fx.is_semilattice(meet)
    assert not fx.is_semilattice(np.empty((0, 0), dtype=np.int64))
    for bad in (meet[:, :2], meet - 1, meet + 1, np.eye(3, dtype=np.int64)):
        assert not fx.is_semilattice(bad)


# -- planted controls -------------------------------------------------------------

def test_a_swapped_product_in_a_born_chain_is_caught_on_load(tmp_path, capsys,
                                                             monkeypatch):
    real = fx.proved

    def swapped(names, table, star, **kwargs):
        table = np.array(table)
        table[0, [1, 2]] = table[0, [2, 1]]
        return real(names, table, star, **kwargs)
    monkeypatch.setattr(fx, "proved", swapped)
    path = tmp_path / "chain4.json"
    assert cli.main(["gen", "chain", "--n", "4", "--out", str(path)]) == 0
    table = json.loads(path.read_text())["table"]
    assert table[0] == [0, 2, 1, 3]
    capsys.readouterr()
    assert cli.main(["analyze", str(path)]) == 2
    kind, witness = outcome(sg.validate_semigroup, ["1", "f1", "f2", "f3"], table)
    assert kind == "NotAssociative"
    assert capsys.readouterr().err == \
        f"error: invalid semigroup in {path}: {witness}\n"


def test_a_swapped_product_in_a_born_group_image_fails_verify(tmp_path, capsys,
                                                              monkeypatch):
    # G(SD6) is Z2; with its products 1*0 and 1*1 swapped it is the
    # right-zero band, and theta, read off sigma, is no dual prehomomorphism
    path = tmp_path / "sd6.json"
    path.write_text(fx.sd6().to_json())
    real = sg.proved

    def swapped(names, table, star, identity=None, **kwargs):
        if identity is not None:
            table = np.array(table)
            table[1] = table[1, ::-1]
        return real(names, table, star, identity=identity, **kwargs)
    monkeypatch.setattr(sg, "proved", swapped)
    assert cli.main(["verify", "--suite", "all", str(path)]) == 1
    reports = {r["check"]: r for r in map(json.loads,
                                           capsys.readouterr().out.splitlines())}
    witness = "NotDualPrehom: theta(1)theta(0) is not a restriction of theta(1 0)"
    for check in ("main1", "main1reduced", "envelope"):
        assert reports[check]["pass"] is False, check
        assert reports[check]["witness"] == witness, check

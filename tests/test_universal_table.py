"""The universal groupoid read off the table of S against the germ groupoid
of beta, ``oracles.universal_by_germs``: every array, the arrow labels, the
JSON bytes and each germ [s, x], on the presets, I4, B(Z4, 4), CHAIN8 x Z16,
the random E-unitary corpus and drawn Brandt semigroups, I_n, zeros
adjoined and direct products, with both flags where S has a zero."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from germoid import errors
from germoid import fixtures as fx
from germoid import germs


def flags(S):
    return (False, True) if S.zero is not None else (False,)


def same_as_the_germ_groupoid(S):
    for flag in flags(S):
        g = germs.universal_groupoid(S, contracted=flag)
        h = oracles.universal_by_germs(S, flag)
        assert g.validated and isinstance(g, germs.UniversalGroupoid)
        for field in ("dom", "ran", "inv", "identity", "products",
                      "arrow_pairs", "arrow_at"):
            assert np.array_equal(getattr(g, field), getattr(h, field)), field
        assert g.unit_labels == h.unit_labels
        assert g.arrow_labels == h.arrow_labels
        assert g.germ_reps == h.germ_reps
        assert g.to_json().encode() == h.to_json().encode()
        assert g.space is h.action.space and g.action is h.action


def same_germs(S):
    # every (s, x), inside the germ set or not, and pairs out of range
    for flag in flags(S):
        g = germs.universal_groupoid(S, contracted=flag)
        h = oracles.universal_by_germs(S, flag)
        n, m = len(S), g.n_units
        s, x = (a.ravel() for a in np.indices((n, m)))
        inside = h.arrow_at.ravel() >= 0
        assert np.array_equal(g.germ(s[inside], x[inside]), h.arrow_at.ravel()[inside])
        outside = list(zip(s[~inside].tolist(), x[~inside].tolist()))
        for pair in outside + [(n, 0), (-1, 0), (0, m), (0, -1)]:
            for k in (g, h):
                with pytest.raises(errors.UnknownElement) as info:
                    k.germ(*pair)
                assert str(info.value) == f"({pair[0]},{pair[1]}) is not in the germ set"


FIXED = {
    **{k: make for k, make in fx.PRESETS.items()},
    "I4": lambda: fx.symmetric_inverse(4),
    "B_Z4_4": lambda: fx.brandt(fx.cyclic_group(4), 4),
    "CHAIN8xZ16": lambda: fx.direct_product(fx.chain(8), fx.cyclic_group(16)),
}


@pytest.mark.parametrize("name", list(FIXED))
def test_the_table_build_is_the_germ_groupoid_of_beta(name):
    S = FIXED[name]()
    same_as_the_germ_groupoid(S)
    same_germs(S)


def test_the_random_eunitary_corpus(random_eunitary):
    for S in random_eunitary:
        same_as_the_germ_groupoid(S)
        same_germs(S)


small_groups = st.sampled_from([1, 2, 3, 4]).map(fx.cyclic_group)
bases = st.one_of(
    st.builds(fx.brandt, small_groups, st.integers(1, 4)),
    st.integers(1, 4).map(fx.symmetric_inverse),
    st.sampled_from(sorted(fx.PRESETS)).map(lambda k: fx.PRESETS[k]()),
    st.integers(1, 5).map(fx.chain))


@st.composite
def semigroups(draw):
    S = draw(bases)
    if len(S) <= 8 and draw(st.booleans()):
        S = fx.direct_product(S, draw(bases.filter(lambda T: len(T) <= 8)))
    if draw(st.booleans()):
        S = fx.adjoin_zero(S)
    return S


@settings(max_examples=40, deadline=None)
@given(S=semigroups())
def test_drawn_semigroups(S):
    same_as_the_germ_groupoid(S)
    same_germs(S)

"""The JSON texts written from arrays by ``semigroups.json_rows`` and
``semigroups.write_words`` against the ``json.dumps`` emitters they replaced
(``oracles.groupoid_json``, ``oracles.semigroup_json``), and the ``ks``
digest hashed block by block against the digest of the whole text."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from germoid import errors
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import semigroups as sg
from germoid import verify
from test_golden import FIXTURES, GOLDEN, chain4_by_z6_envelope

VARIANTS = ("universal", "contracted", "tight", "partial")


def variants(S):
    """Every groupoid variant S has."""
    out = []
    for variant in VARIANTS:
        try:
            out.append(verify.groupoid_variant(S, variant))
        except errors.VariantUnavailable:
            pass
    return out


def assert_texts_match(S):
    assert S.to_json() == oracles.semigroup_json(S)
    for g in variants(S):
        assert g.to_json() == oracles.groupoid_json(g), g.name


@pytest.mark.parametrize("fixture, variant", sorted({g[:2] for g in GOLDEN}))
def test_golden_groupoids_match_json_dumps(fixture, variant):
    g = verify.groupoid_variant(FIXTURES[fixture](), variant)
    assert g.to_json() == oracles.groupoid_json(g)


@pytest.mark.parametrize("preset", sorted(fx.PRESETS))
def test_every_preset_and_variant_matches_json_dumps(preset):
    S = fx.PRESETS[preset]()
    assert_texts_match(S)


def test_the_random_corpus_matches_json_dumps(random_eunitary):
    for S in random_eunitary:
        assert_texts_match(S)


def test_table_built_groupoids_match_json_dumps():
    for g in [helpers.pair_groupoid(k) for k in (1, 2, 4, 11)] + \
            [chain4_by_z6_envelope()]:
        assert g.to_json() == oracles.groupoid_json(g)


def test_ids_of_one_to_three_digits_match_json_dumps():
    # 132 elements and arrows: more than one block of comp triples and of
    # table rows
    S = fx.direct_product(fx.chain(12), fx.cyclic_group(11))
    assert len(S) == 132
    assert_texts_match(S)
    g = germs.universal_groupoid(S)
    assert len(g.products) > 1024


def test_groupoids_without_composable_pairs_match_json_dumps():
    empty = gpd.FiniteGroupoid([], [], [], [], [], [])
    assert empty.to_json() == oracles.groupoid_json(empty) == \
        '{"arrows": [], "comp": [], "inv": [], "units": []}'
    none = gpd.reduction(helpers.pair_groupoid(3), [])
    assert none.to_json() == oracles.groupoid_json(none)


def test_labels_that_are_not_strings_match_json_dumps():
    # a groupoid file may give any JSON value as an arrow label
    text = json.dumps({"units": ["u"], "comp": [[0, 0, 0]], "inv": [[0, 0]],
                       "arrows": [{"id": 0, "dom": 0, "ran": 0,
                                   "label": {"b": [1, None], "a": True}}]})
    g = gpd.groupoid_from_json(text)
    assert g.to_json() == oracles.groupoid_json(g)


def test_germ_groupoids_write_their_germs_as_data():
    # the benchmark's tracer wraps FiniteGroupoid.to_json, the one emitter
    assert "to_json" not in vars(germs.GermGroupoid)
    assert gpd.FiniteGroupoid.germ_reps is None


NAME_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ",
                     "\U0001f600", "\U00010348", "'", "/"]),
    st.characters())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_element_names_are_escaped_as_json_dumps_escapes_them(data):
    S = data.draw(st.sampled_from([fx.b2(), fx.s3_monoid(), fx.chain(3)]))
    names = data.draw(st.lists(st.text(NAME_CHARS, max_size=4), min_size=len(S),
                               max_size=len(S), unique=True))
    S = sg.validate_semigroup(names, S.table, S.zero)
    text = S.to_json()
    assert text == oracles.semigroup_json(S) and text.isascii()
    assert sg.semigroup_from_json(text).names == S.names
    for g in variants(S):
        text = g.to_json()
        assert text == oracles.groupoid_json(g) and text.isascii()
        h = gpd.groupoid_from_json(text)
        assert (h.unit_labels, h.arrow_labels) == (g.unit_labels, g.arrow_labels)
        assert (h.dom == g.dom).all() and (h.ran == g.ran).all()
        assert (h.products == g.products).all() and (h.inv == g.inv).all()


def test_write_words_gathers_numbers_and_texts():
    blocks = [np.array([0, 12, 3, 10]), np.array([11])]
    assert list(sg.write_words(blocks, 10, ["[", ", ", "]"])) == [b"0]3[", b", "]


def test_json_rows_writes_what_json_dumps_writes():
    rows = np.arange(12).reshape(4, 3)
    text = b"".join(sg.json_rows(["[", ", ", ", ", "]"], rows, 12)).decode()
    assert text == json.dumps(rows.tolist())
    assert b"".join(sg.json_rows(["[", "]"], rows[:0, :1], 1)) == b"[]"


def test_a_block_that_repr_escapes_falls_back_to_the_text():
    for text in ("it's", "a\\b", "tab\there", "\x7f"):
        assert verify._digest_chunks([b"ok", text.encode()]) is None
    assert verify._digest_chunks([b'{"a": ', b"[1, 2]}"]) == \
        verify._digest('{"a": [1, 2]}')


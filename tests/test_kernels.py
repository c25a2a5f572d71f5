"""The vectorized kernels against the loop oracles they replaced.

Each kernel must give its oracle's verdict and, on failure, the same error
type and message, so the same witness.  Inputs are the named fixtures, the
random E-unitary semidirect products, the groupoids of the Morita pipeline,
and single-entry mutations of multiplication tables, action maps, groupoid
compositions and representation matrices.
"""

import itertools
import json
import random
from collections import Counter

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
from germoid import spectra as sp
from germoid import verify

EXAMPLES = settings(max_examples=150, deadline=None)
FEW = settings(max_examples=12, deadline=None)


def outcome(fn, *args):
    """("ok", "") or the error type and message a call raises."""
    try:
        fn(*args)
    except errors.GermoidError as exc:
        return type(exc).__name__, str(exc)
    return "ok", ""


def chain_by_cyclic(k, m):
    return fx.direct_product(fx.chain(k), fx.cyclic_group(m))


@pytest.fixture(scope="module")
def semigroups(corpus, random_eunitary):
    return list(corpus.values()) + random_eunitary[:12] + \
        [fx.symmetric_inverse(3), fx.brandt(fx.cyclic_group(2), 2)]


@pytest.fixture(scope="module")
def groupoids(corpus, random_eunitary):
    out = [germs.universal_groupoid(S) for S in corpus.values()]
    with_zero = [S for S in corpus.values() if S.zero is not None]
    out += [germs.universal_groupoid(S, contracted=True) for S in with_zero]
    out += [germs.tight_groupoid(S) for S in with_zero]
    out += [pa.partial_trans_groupoid(pa.theta_from_sigma(S))
            for S in random_eunitary[:12]]
    out += [helpers.pair_groupoid(3)]
    return [g for g in out if g.n_arrows <= 40]


@pytest.fixture(scope="module")
def actions(corpus, random_eunitary):
    out = []
    for S in list(corpus.values()) + random_eunitary[:12]:
        out.append(germs.beta_action(S))
        if S.zero is not None:
            action = germs.beta_action(S, contracted=True)
            out += [action, action.restrict(germs.tight_spectrum(action.space))]
    return out


# -- associativity: Light's test and the slab scan -------------------------------

def mutated_table(data, S):
    table = np.array(S.table)
    if data.draw(st.booleans(), label="mutate"):
        n = len(S)
        i = data.draw(st.integers(0, n - 1), label="i")
        j = data.draw(st.integers(0, n - 1), label="j")
        table[i, j] = data.draw(st.integers(0, n - 1), label="value")
    return table


def lights_test_on(table, gens):
    """Light's test on a table, as ``validate_semigroup`` runs it."""
    small = sg.narrow(np.asarray(table), -1, len(table) - 1)
    return sg.lights_test(small, small, gens, sg.transposed(small))


@EXAMPLES
@given(data=st.data())
def test_lights_test_decides_associativity(semigroups, data):
    S = data.draw(st.sampled_from(semigroups), label="S")
    table = mutated_table(data, S)
    gens = sg.greedy_generators(table)
    verdict = lights_test_on(table, gens)
    assert verdict == (oracles.first_nonassociative_triple(table) is None)
    assert verdict == oracles.lights_test_by_columns(table, gens)


@FEW
@given(data=st.data())
def test_lights_test_over_many_blocks_matches_the_column_gather(data):
    # 272 elements: 272^2 entries exceed CHUNK, so 17 blocks of 16 rows
    S = chain_by_cyclic(17, 16)
    table = mutated_table(data, S)
    gens = sg.greedy_generators(table)
    assert lights_test_on(table, gens) == \
        oracles.lights_test_by_columns(table, gens)


@EXAMPLES
@given(data=st.data())
def test_validate_semigroup_matches_scan(semigroups, data):
    S = data.draw(st.sampled_from(semigroups), label="S")
    table = mutated_table(data, S)
    assert outcome(sg.validate_semigroup, S.names, table, S.zero) == \
        outcome(oracles.validate_semigroup_scan, table, S.zero)


@FEW
@given(data=st.data())
def test_validate_semigroup_on_a_large_table_matches_scan(data):
    # 176 elements: Light's test decides, and the slab scan, run over many
    # slabs, only supplies the witness
    S = chain_by_cyclic(11, 16)
    table = mutated_table(data, S)
    assert outcome(sg.validate_semigroup, S.names, table, None) == \
        outcome(oracles.validate_semigroup_scan, table, None)


@FEW
@given(data=st.data())
def test_a_failure_only_in_the_last_block_and_generator_matches_scan(data):
    # A chain of n > 256 ids under min: every id is a generator.  Setting
    # (top)(top) = v < n - 2 breaks (x top) top = x (top top) exactly for
    # the x above v, and only for t = top; with v at least one below the
    # first id of the last block of 16 rows, those x all lie in that block,
    # so lights_test with the ids in order as generators meets its failure
    # in its very last step.
    n = data.draw(st.integers(258, 320).filter(lambda n: n % 16 != 1),
                  label="n")
    last_block = (n - 1) // 16 * 16
    v = data.draw(st.integers(last_block - 1, n - 3), label="v")
    table = np.minimum.outer(np.arange(n), np.arange(n))
    assert sorted(sg.greedy_generators(table)) == list(range(n))
    table[n - 1, n - 1] = v
    small = sg.narrow(table, -1, n - 1)
    ids = list(range(n))
    assert sg.lights_test(small, small, ids[:-1], sg.transposed(small))
    assert not sg.lights_test(small, small, ids, sg.transposed(small))
    assert n - 1 in sg.greedy_generators(table)
    lhs, rhs = table[table[:, n - 1]], table[:, table[n - 1]]
    assert np.flatnonzero((lhs != rhs).any(axis=1)).min() >= last_block
    names = [str(i) for i in range(n)]
    assert outcome(sg.validate_semigroup, names, table, None) == \
        outcome(oracles.validate_semigroup_scan, table, None) == \
        ("NotAssociative", str(errors.NotAssociative(v + 1, n - 1, n - 1)))


@pytest.mark.parametrize("n, m", [(5, 3), (272, 272), (300, 1)])
def test_first_failing_product_visits_every_triple_in_blocks_of_chunk(n, m):
    # at 272 x 272 one s spans more than CHUNK entries, so the t are split
    table = np.minimum.outer(np.arange(n), np.arange(n))
    maps = np.random.default_rng(n).integers(-1, m, size=(n, m))
    sizes = []

    def never(comp, direct):
        assert comp.shape == direct.shape
        sizes.append(comp.size)
        return np.zeros(comp.shape, dtype=bool)
    assert sg.first_failing_product(table, maps, never) is None
    assert sum(sizes) == n * n * m
    assert max(sizes) <= sg.CHUNK


def closure_of(S, elements):
    closure = set(elements)
    while True:
        new = {S.mul(a, b) for a in closure for b in closure} - closure
        if not new:
            return closure
        closure |= new


def candidate_order(table):
    """The ids in ascending count of occurrences in ``table``,
    non-idempotents before idempotents among equal counts, then by id."""
    counts = Counter(np.asarray(table).ravel().tolist())
    return sorted(range(len(table)),
                  key=lambda a: (counts[a], table[a][a] == a, a))


def test_greedy_generators_generate(semigroups):
    # each candidate is a generator iff it is outside the closure of the
    # earlier generators
    for S in semigroups:
        gens = sg.greedy_generators(S.table)
        assert closure_of(S, gens) == set(range(len(S)))
        order = candidate_order(S.table)
        assert gens == [a for a in order if a in gens]
        for i, g in enumerate(gens):
            below = closure_of(S, gens[:i])
            assert g not in below
            assert set(order[:order.index(g)]) <= below | set(gens[:i])


@EXAMPLES
@given(data=st.data())
def test_greedy_generators_match_the_loop(semigroups, data):
    # on tables that need not be associative: the generators are those of
    # the loop, and they generate the magma
    S = data.draw(st.sampled_from(semigroups), label="S")
    table = mutated_table(data, S)
    small = sg.narrow(table, -1, len(S) - 1)
    gens = sg.greedy_generators(small, sg.transposed(small))
    assert gens == sg.greedy_generators(table) == \
        oracles.greedy_generators_loop(table, candidate_order(table))
    inside = set(gens)
    while True:
        grown = inside | {int(table[a, b]) for a in inside for b in inside}
        if grown == inside:
            break
        inside = grown
    assert inside == set(range(len(S)))


def test_chain_needs_every_idempotent_as_generator():
    # one generator at each of the 4 levels of the chain, each taken as a
    # non-idempotent (f, g) that generates its level
    S = chain_by_cyclic(4, 3)
    assert len(S.generators) == 4


@pytest.mark.parametrize("n", [4, 5])
def test_symmetric_inverse_needs_at_most_n_generators(n):
    assert len(fx.symmetric_inverse(n).generators) <= n


@pytest.mark.parametrize("k, m", [(1, 1), (3, 2), (5, 7), (8, 16), (32, 16)])
def test_a_chain_by_a_cyclic_group_takes_one_generator_a_level(k, m):
    assert len(chain_by_cyclic(k, m).generators) == k


# -- reading semigroup files: the byte kernel and json.loads ---------------------

LAYOUTS = {"default": {}, "compact": {"separators": (",", ":")},
           "indent": {"indent": 1}}


def read_outcome(read, text):
    """The names, zero and int64 table a reader gives, or the error type and
    message it raises."""
    try:
        S = read(text)
    except (errors.GermoidError, json.JSONDecodeError, RecursionError) as exc:
        return type(exc).__name__, str(exc)
    return S.names, S.zero, S.table.dtype, S.table.tolist()


def table_span(text):
    """Start and end of the "table" value in ``text``."""
    start = text.index('"table":') + len('"table":')
    start += len(text[start:]) - len(text[start:].lstrip())
    return start, json.JSONDecoder().raw_decode(text, start)[1]


def mutated_text(data, doc, layout):
    """``doc`` written in ``layout``, with at most one mutation of its table:
    a digit turned into another character, another character turned into
    one of those, a digit inserted anywhere, a leading 0, a 20-digit entry,
    an entry or row dropped, an entry added, a boolean, or the key spelled
    with an escape or given twice."""
    table = doc["table"]
    kind = data.draw(st.sampled_from(
        ["none", "char", "separator", "insert-digit", "leading-zero", "long",
         "drop-entry", "extra-entry", "drop-row", "true", "escaped-key",
         "key-twice"]), label="kind")
    i = data.draw(st.integers(0, len(table) - 1), label="row")
    if kind == "drop-entry":
        table[i].pop(data.draw(st.integers(0, len(table[i]) - 1), label="at"))
    elif kind == "extra-entry":
        table[i].append(data.draw(st.integers(0, len(table)), label="entry"))
    elif kind == "drop-row":
        table.pop(i)
    elif kind == "true":
        table[i][data.draw(st.integers(0, len(table[i]) - 1), label="at")] = True
    text = json.dumps(doc, **LAYOUTS[layout])
    start, end = table_span(text)
    if kind == "separator":
        others = [p for p in range(start, end) if not text[p].isdigit()]
        p = data.draw(st.sampled_from(others), label="at")
        insert = data.draw(st.sampled_from("[], -.e"), label="char")
        text = text[:p] + insert + text[p + 1:]
    elif kind == "insert-digit":
        p = data.draw(st.integers(start, end), label="at")
        text = text[:p] + data.draw(st.sampled_from("09"), label="d") + text[p:]
    elif kind in ("char", "leading-zero", "long"):
        digits = [p for p in range(start, end) if text[p].isdigit()]
        p = data.draw(st.sampled_from(digits), label="digit")
        if kind == "char":
            insert = data.draw(st.sampled_from("-.e "), label="char")
            text = text[:p] + insert + text[p + 1:]
        else:
            while text[p - 1].isdigit():
                p -= 1
            insert = "0" if kind == "leading-zero" else "1" * 20
            text = text[:p] + insert + text[p + (kind == "long"):]
    elif kind == "escaped-key":
        text = text.replace('"table"', '"t\\u0061ble"')
    elif kind == "key-twice":
        m = data.draw(st.integers(1, 4), label="m")
        other = json.dumps(data.draw(st.lists(
            st.lists(st.integers(0, len(table)), min_size=m, max_size=m),
            min_size=m, max_size=m), label="other"), **LAYOUTS[layout])
        if data.draw(st.booleans(), label="first"):
            text = f'{text[:1]}"table": {other}, {text[1:]}'
        else:
            text = f'{text[:end]}, "table": {other}{text[end:]}'
    return text


def random_doc(data, semigroups):
    """A semigroup file as a dict: a fixture, or a random n x n table."""
    if data.draw(st.booleans(), label="fixture"):
        S = data.draw(st.sampled_from(semigroups), label="S")
        return {"elements": list(S.names), "table": S.table.tolist(),
                "zero": S.zero}
    n = data.draw(st.integers(1, 6), label="n")
    cell = st.integers(0, n - 1)
    table = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                               min_size=n, max_size=n), label="table")
    zero = data.draw(st.none() | cell, label="zero")
    return {"elements": [f"s{i}" for i in range(n)], "table": table,
            "zero": zero}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_semigroup_from_json_matches_json_loads(semigroups, data):
    layout = data.draw(st.sampled_from(sorted(LAYOUTS)), label="layout")
    text = mutated_text(data, random_doc(data, semigroups), layout)
    assert read_outcome(sg.semigroup_from_json, text) == \
        read_outcome(oracles.semigroup_from_json_loads, text)


@FEW
@given(data=st.data())
def test_semigroup_from_json_over_many_blocks_matches_json_loads(data):
    # 272 elements in about 330 kB: about twenty blocks of CHUNK / 4 bytes
    S = chain_by_cyclic(17, 16)
    doc = {"elements": list(S.names), "table": S.table.tolist(), "zero": None}
    layout = data.draw(st.sampled_from(["default", "compact"]), label="layout")
    text = mutated_text(data, doc, layout)
    assert read_outcome(sg.semigroup_from_json, text) == \
        read_outcome(oracles.semigroup_from_json_loads, text)


@pytest.mark.parametrize("layout", ["default", "compact"])
def test_every_one_character_edit_of_a_file_matches_json_loads(layout):
    S = fx.PRESETS["b2"]()
    text = json.dumps({"elements": list(S.names), "table": S.table.tolist(),
                       "zero": S.zero}, **LAYOUTS[layout])
    for p in range(len(text)):
        edits = [text[:p] + text[p + 1:]]
        for c in '0[], -.e}"':
            edits += [text[:p] + c + text[p + 1:], text[:p] + c + text[p:]]
        for edited in edits:
            assert read_outcome(sg.semigroup_from_json, edited) == \
                read_outcome(oracles.semigroup_from_json_loads, edited)


@pytest.mark.parametrize("layout", ["default", "compact"])
def test_a_bad_separator_between_any_two_rows_is_unsure(layout):
    # 272 rows over about twenty blocks: some of these separators fall
    # between two blocks
    text = json.dumps(chain_by_cyclic(17, 16).table.tolist(),
                      **LAYOUTS[layout])
    sep = ", " if layout == "default" else ","
    ends = [p + 1 for p in range(len(text) - 1) if text[p:p + 2] == "]" + sep[0]]
    assert len(ends) == 271
    for p in ends:
        edited = text[:p] + "." * len(sep) + text[p + len(sep):]
        assert sg.table_from_bytes(edited.encode()) is None


def test_only_the_json_dumps_layouts_take_the_byte_path(semigroups):
    for S in semigroups:
        doc = {"elements": list(S.names), "table": S.table.tolist(),
               "zero": S.zero}
        for layout, options in LAYOUTS.items():
            data = sg.read_object(json.dumps(doc, **options))
            if layout == "indent":
                assert data is None
            else:
                assert np.array_equal(data["table"], S.table)
    # a name outside ASCII: escaped, the byte path; written as it is, not
    doc["elements"][0] = "\u2205"
    assert sg.read_object(json.dumps(doc)) is not None
    text = json.dumps(doc, ensure_ascii=False)
    assert sg.read_object(text) is None
    assert read_outcome(sg.semigroup_from_json, text) == \
        read_outcome(oracles.semigroup_from_json_loads, text)


def test_a_table_key_spelled_with_an_escape_before_the_table_is_unsure():
    # json.loads keeps the last "table"; the byte walk meets the escaped
    # key first, before the "table": it found
    S = fx.PRESETS["b2"]()
    doc = {"elements": list(S.names), "table": S.table.tolist(), "zero": S.zero}
    text = '{"t\\u0061ble": [[0]], ' + json.dumps(doc)[1:]
    assert sg.read_object(text) is None
    assert read_outcome(sg.semigroup_from_json, text) == \
        read_outcome(oracles.semigroup_from_json_loads, text)
    assert read_outcome(sg.semigroup_from_json, text)[0] == S.names


@pytest.mark.parametrize("layout", ["default", "compact"])
def test_table_from_bytes_reads_what_json_loads_reads(layout):
    rng = np.random.default_rng(7)
    tables = [rng.integers(0, 10 ** digits, size=(rows, cols)).tolist()
              for rows, cols, digits in
              [(1, 1, 1), (3, 5, 2), (40, 40, 9), (5, 20000, 4)]]
    # high digits in every place: a product kept in the uint8 or uint16 of
    # the digit bytes, as numpy 1.x promotion keeps it, would wrap
    tables.append([[987654321, 999, 300, 0], [9, 99999, 65536, 123456789],
                   [999999999, 256, 10, 100000000],
                   [1, 40000, 7777777, 88888888]])
    for table in tables:
        text = json.dumps(table, **LAYOUTS[layout])
        got, end = sg.table_from_bytes((text + ', "zero": 0}').encode())
        assert end == len(text) and got.dtype == np.int64
        assert got.tolist() == table


@pytest.mark.parametrize("text", [
    "[]", "[[]]", "[[01]]", "[[1, -1]]", "[[1.0]]", "[[1e2]]", "[[1 ]]",
    "[[1,  2]]", "[[1, 2],[3, 4]]", "[[1, 2],\n [3, 4]]", "[[1, 2], [3]]",
    "[[1], [2], [3]]", "[[1234567890]]", '[["1"]]', "[[true]]", "[[1, 2]"])
def test_table_from_bytes_is_unsure_of_every_other_text(text):
    assert sg.table_from_bytes(text.encode()) is None


# -- action validation ------------------------------------------------------------

def mutated_maps(data, maps, outside=True):
    """maps with at most one entry changed to -1, a point, or, with
    ``outside``, m, which names no point: a validation must reject it as
    its loops do."""
    maps = np.array(maps)
    if data.draw(st.booleans(), label="mutate"):
        n, m = maps.shape
        s = data.draw(st.integers(0, n - 1), label="s")
        x = data.draw(st.integers(0, m - 1), label="x")
        maps[s, x] = data.draw(st.integers(-1, m if outside else m - 1),
                               label="value")
    return maps


@EXAMPLES
@given(data=st.data())
def test_validate_saction_matches_scan(actions, data):
    action = data.draw(st.sampled_from(actions), label="action")
    S = action.semigroup
    maps = mutated_maps(data, action.maps)
    assert outcome(germs.validate_saction, S, action.point_labels, maps) == \
        outcome(oracles.validate_saction_scan, S, maps)


@FEW
@given(data=st.data())
def test_validate_saction_on_a_large_action_matches_scan(data):
    # |S|^2 |X| = 128^2 * 8 spans many slabs of the full scan
    S = chain_by_cyclic(8, 16)
    action = germs.beta_action(S)
    maps = mutated_maps(data, action.maps)
    assert outcome(germs.validate_saction, S, action.point_labels, maps) == \
        outcome(oracles.validate_saction_scan, S, maps)


def wagner_preston(S):
    """The maps of the Wagner-Preston action of S on itself: theta_s is
    y -> sy on the y with s*s y = y."""
    ss = S.table[S.star, np.arange(len(S))]
    return np.where(S.table[ss] == np.arange(len(S)), S.table, -1)


@FEW
@given(data=st.data())
def test_validate_saction_over_many_blocks_matches_scan(data):
    # 272 elements on 272 points: 17 blocks of 16 rows
    S = chain_by_cyclic(17, 16)
    maps = mutated_maps(data, wagner_preston(S))
    assert outcome(germs.validate_saction, S, range(len(S)), maps) == \
        outcome(oracles.validate_saction_scan, S, maps)


@EXAMPLES
@given(data=st.data())
def test_lights_test_on_actions_matches_the_column_gather(actions, data):
    action = data.draw(st.sampled_from(actions), label="action")
    S = action.semigroup
    # the kernel's input is narrowed to -1..m-1, which validate_saction
    # checks first
    maps = mutated_maps(data, action.maps, outside=False)
    small = sg.narrow(maps, -1, action.n_points - 1)
    assert sg.lights_test(S.table, small, S.generators,
                          sg.transposed(small)) == \
        oracles.saction_generators_hold(S, maps)


@EXAMPLES
@given(data=st.data())
def test_validate_saction_with_entries_below_minus_one_matches_scan(
        actions, data):
    # such an entry names no point, as an image >= m names none
    action = data.draw(st.sampled_from(actions), label="action")
    S = action.semigroup
    maps = np.array(action.maps)
    s = data.draw(st.integers(0, len(S) - 1), label="s")
    x = data.draw(st.integers(0, action.n_points - 1), label="x")
    maps[s, x] = data.draw(st.integers(-300, -2), label="value")
    assert outcome(germs.validate_saction, S, action.point_labels, maps) == \
        outcome(oracles.validate_saction_scan, S, maps)


@pytest.mark.parametrize("every", [True, False])
def test_an_entry_below_minus_one_is_out_of_range(every):
    # beta of B2 with its -1 entries written as -2, or only its first one
    S = fx.b2()
    action = germs.beta_action(S)
    maps = np.array(action.maps)
    if every:
        maps[maps == -1] = -2
    else:
        maps[tuple(np.argwhere(maps == -1)[0])] = -2
    assert outcome(germs.validate_saction, S, action.point_labels, maps) == \
        outcome(oracles.validate_saction_scan, S, maps) == \
        ("InvalidParams", "map image out of range")


@EXAMPLES
@given(data=st.data())
def test_validate_partial_action_matches_loops(random_eunitary, data):
    S = data.draw(st.sampled_from(random_eunitary[:12]), label="S")
    theta = pa.theta_from_sigma(S)
    maps = mutated_maps(data, theta.maps)
    assert outcome(pa.validate_partial_action, theta.group,
                   theta.point_labels, maps) == \
        outcome(oracles.validate_partial_action_loops, theta.group, maps)


@pytest.mark.parametrize("change", ["extra row", "dropped column"])
def test_partial_action_maps_of_another_shape_are_invalid(change):
    theta = pa.theta_from_sigma(fx.PRESETS["sd6"]())
    maps = np.array(theta.maps)
    maps = np.vstack([maps, maps[:1]]) if change == "extra row" else \
        maps[:, :-1]
    assert outcome(pa.validate_partial_action, theta.group,
                   theta.point_labels, maps) == \
        outcome(oracles.validate_partial_action_loops, theta.group, maps,
                theta.n_points) == \
        ("InvalidParams", "need one partial map per semigroup element")


@pytest.fixture(scope="module")
def space_actions(corpus, random_eunitary):
    out = []
    for S in list(corpus.values()) + random_eunitary[:6]:
        ga, g = germs.gspace_from_saction(germs.beta_action(S))
        if g.n_arrows <= 40:
            out.append(ga)
        # enveloping spaces put several points over one unit
        phi = sg.hom_from_sigma(sg.max_group_image(S))
        if sg.is_locally_idempotent_pure(phi):
            out.append(gpd.enveloping_action_of_functor(
                germs.induced_functor(phi))[0])
    return out


@EXAMPLES
@given(data=st.data())
def test_validate_space_action_matches_loops(space_actions, data):
    ga = data.draw(st.sampled_from(space_actions), label="action")
    act = mutated_maps(data, ga.act)
    if data.draw(st.booleans(), label="stay in the fiber"):
        # move hx within the fiber over ran(h): anchors still match, so only
        # functoriality can fail
        a, x = data.draw(st.sampled_from(np.argwhere(act >= 0).tolist()))
        fiber = [y for y in range(ga.n_points)
                 if ga.anchor[y] == ga.groupoid.ran[a]]
        act[a, x] = data.draw(st.sampled_from(fiber), label="y")
    anchor = list(ga.anchor)
    if data.draw(st.booleans(), label="move anchor"):
        x = data.draw(st.integers(0, len(anchor) - 1), label="x")
        anchor[x] = data.draw(st.integers(0, ga.groupoid.n_units - 1))
    bad = gpd.GroupoidSpaceAction(ga.groupoid, ga.point_labels, anchor, act)
    assert outcome(gpd.validate_space_action, bad) == \
        outcome(oracles.validate_space_action_loops, bad)


@EXAMPLES
@given(data=st.data())
def test_anchor_idempotents_matches_the_loop(actions, data):
    # any maps of the right shape: the product of a set of idempotents does
    # not depend on the order, so the action need not be valid
    action = data.draw(st.sampled_from(actions), label="action")
    maps = mutated_maps(data, action.maps)
    if data.draw(st.booleans(), label="a point in no domain"):
        maps[:, data.draw(st.integers(0, action.n_points - 1), label="x")] = -1
    mutant = germs.SAction(action.semigroup, action.point_labels, maps)
    got = germs.anchor_idempotents(mutant)
    assert np.array_equal(got, oracles.anchor_idempotents_loop(mutant))
    assert not got.flags.writeable


@FEW
@given(data=st.data())
def test_anchor_idempotents_over_many_blocks_matches_the_loop(data):
    # 300 idempotents by 300 points: blocks of 218 points
    S = fx.chain(300)
    maps = mutated_maps(data, wagner_preston(S))
    maps[:, data.draw(st.integers(0, len(S) - 1), label="x")] = -1
    action = germs.SAction(S, range(len(S)), maps)
    assert np.array_equal(germs.anchor_idempotents(action),
                          oracles.anchor_idempotents_loop(action))


# -- germ classes -------------------------------------------------------------------

def test_germ_classes_match_order_relation(actions):
    for action in actions:
        g = germs.germ_groupoid(action)
        expect = oracles.germ_classes_by_order(action.semigroup, action)
        assert [sorted(c) for c in helpers.germ_classes(g)] == expect
        assert list(g.germ_reps) == [c[0] for c in expect]


def test_germ_classes_of_an_enveloping_action():
    S = fx.s4_monoid()
    res = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(S)))
    action = res.taction
    expect = oracles.germ_classes_by_order(action.semigroup, action)
    assert [sorted(c) for c in helpers.germ_classes(res.target)] == expect


# -- groupoid validation ------------------------------------------------------------

def composition_dict(g):
    """{(a, b): ab} over the defined entries of the oracle table."""
    table = oracles.comp_table(g)
    a, b = np.nonzero(table >= 0)
    return dict(zip(zip(a.tolist(), b.tolist()), table[a, b].tolist()))


def mutated_groupoid(data, g):
    # the products are read off the mutated dict at the composable pairs
    # of the mutated ends: an added pair that does not compose is dropped
    n, k = g.n_arrows, g.n_units
    comp = composition_dict(g)
    dom, ran = list(g.dom), list(g.ran)
    inv, identity = list(g.inv), list(g.identity)
    arrow = st.integers(0, n - 1)
    unit = st.integers(0, k - 1)
    kind = data.draw(st.sampled_from(
        ["none", "comp", "drop", "add", "inv", "identity", "dom", "ran"]),
        label="kind")
    if kind in ("comp", "drop") and comp:
        key = data.draw(st.sampled_from(sorted(comp)), label="pair")
        if kind == "drop":
            del comp[key]
        else:
            comp[key] = data.draw(arrow, label="value")
    elif kind == "add":
        comp[(data.draw(arrow), data.draw(arrow))] = data.draw(arrow)
    elif kind == "inv":
        # -1 and n name no arrow: a missing inverse, not a wrapped index
        inv[data.draw(arrow)] = data.draw(st.integers(-1, n))
    elif kind == "identity":
        identity[data.draw(unit)] = data.draw(st.integers(-1, n))
    elif kind == "dom":
        dom[data.draw(arrow)] = data.draw(unit)
    elif kind == "ran":
        ran[data.draw(arrow)] = data.draw(unit)
    return gpd.FiniteGroupoid(g.unit_labels, dom, ran, oracles.rule_of(comp),
                              inv, identity)


@EXAMPLES
@given(data=st.data())
def test_validate_groupoid_matches_loops(groupoids, data):
    g = data.draw(st.sampled_from(groupoids), label="g")
    h = mutated_groupoid(data, g)
    assert outcome(gpd.validate_groupoid, h) == \
        outcome(oracles.validate_groupoid_loops, h)


def assert_composable_pairs(g):
    """g finds the pairs (a, b) with dom a = ran b in lexicographic order."""
    a, b = g.composable_pairs
    expect = np.nonzero(g.dom[:, None] == g.ran[None, :])
    assert np.array_equal(a, expect[0]) and np.array_equal(b, expect[1])


@EXAMPLES
@given(data=st.data())
def test_endpoint_law_on_the_defined_pairs_matches_the_row_scan(groupoids, data):
    # a mutation keeps the endpoints and products in range; where the law
    # fails, validate_groupoid names the row scan's witness
    g = data.draw(st.sampled_from(groupoids), label="g")
    h = mutated_groupoid(data, g)
    scan = outcome(oracles.scan_endpoint_law, h.dom, h.ran, oracles.comp_table(h))
    assert_composable_pairs(h)
    assert (not gpd.endpoint_failures(h).any()) == \
        oracles.endpoint_law_holds(h) == (scan == ("ok", ""))
    if scan != ("ok", ""):
        assert outcome(gpd.validate_groupoid, h) == scan


def test_endpoint_law_counts_the_composable_pairs():
    # every product given has the right endpoints, but one composable pair
    # has none
    g = helpers.pair_groupoid(3)
    comp = composition_dict(g)
    del comp[(8, 8)]
    h = gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran, oracles.rule_of(comp),
                           g.inv, g.identity)
    assert not gpd.endpoint_failures(g).any() and gpd.endpoint_failures(h).any()
    assert oracles.endpoint_law_holds(g) and not oracles.endpoint_law_holds(h)
    assert outcome(gpd.validate_groupoid, h) == \
        outcome(oracles.scan_endpoint_law, h.dom, h.ran, oracles.comp_table(h)) \
        == ("DomainMismatch", "composition of 8, 8 defined on the wrong domain")


def triple_table(n, triples):
    """The dense table of ``[a, b, ab]`` triples; a pair given twice keeps
    its last value."""
    table = np.full((n, n), -1, dtype=np.int64)
    for a, b, ab in triples:
        table[a, b] = ab
    return table


@EXAMPLES
@given(data=st.data())
def test_a_groupoid_file_gives_the_row_scan_witness(groupoids, data):
    # triples added off the composable pairs, dropped, changed, repeated
    # and shuffled: the file's witness is the row scan's of the table the
    # triples make, and past the endpoint law the loops' on that table
    g = data.draw(st.sampled_from(groupoids), label="g")
    doc = json.loads(g.to_json())
    comp, n = doc["comp"], g.n_arrows
    arrow = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        kind = data.draw(st.sampled_from(
            ["add", "drop", "value", "repeat", "shuffle"]), label="kind")
        i = data.draw(st.integers(0, len(comp) - 1), label="i") if comp else None
        if kind == "add":
            comp.append([data.draw(arrow), data.draw(arrow), data.draw(arrow)])
        elif kind == "drop" and comp:
            comp.pop(i)
        elif kind == "value" and comp:
            comp[i][2] = data.draw(arrow, label="value")
        elif kind == "repeat" and comp:
            comp.append(comp[i][:2] + [data.draw(arrow, label="value")])
        elif kind == "shuffle":
            doc["comp"] = comp = [comp[j] for j in data.draw(
                st.permutations(range(len(comp))), label="order")]
    table = triple_table(n, comp)
    expect = outcome(oracles.scan_endpoint_law, g.dom, g.ran, table)
    if expect == ("ok", ""):
        ids = np.arange(n)
        loops = ids[(g.dom == g.ran) & (table[ids, ids] == ids)]
        identity = np.full(g.n_units, -1)
        np.maximum.at(identity, g.dom[loops], loops)
        expect = outcome(oracles.validate_groupoid_loops, gpd.FiniteGroupoid(
            g.unit_labels, g.dom, g.ran, lambda a, b: table[a, b], g.inv,
            identity))
    assert outcome(gpd.groupoid_from_json, json.dumps(doc)) == expect


@pytest.fixture(scope="module")
def product_groupoids(corpus):
    """The universal, contracted and tight groupoids of the presets, Z61, a
    reduction, twins adopted inside a ``validated_once`` scope, and a
    groupoid with no arrows."""
    out = [germs.universal_groupoid(S) for S in corpus.values()]
    with_zero = [S for S in corpus.values() if S.zero is not None]
    out += [germs.universal_groupoid(S, contracted=True) for S in with_zero]
    out += [germs.tight_groupoid(S) for S in with_zero]
    out += [helpers.groupoid_from_group(fx.cyclic_group(61)),
            gpd.reduction(germs.universal_groupoid(corpus["I2"]), [0, 2, 3])]
    with gpd.validated_once():
        for g in out[:3]:
            first, twin = (gpd.validate_groupoid(gpd.FiniteGroupoid(
                g.unit_labels, g.dom, g.ran, np.array(g.products), g.inv,
                g.identity)) for _ in range(2))
            assert twin.products is first.products
            out.append(twin)
    return out + [gpd.FiniteGroupoid([], [], [], [], [], [])]


def test_product_on_every_pair_is_the_oracle_table(product_groupoids):
    for g in product_groupoids:
        ids = np.arange(g.n_arrows)
        assert np.array_equal(g.product(ids[:, None], ids[None, :]),
                              oracles.comp_table(g))


@EXAMPLES
@given(data=st.data())
def test_product_at_random_pairs_matches_the_oracle_table(product_groupoids, data):
    # most probes do not compose where there are several units
    g = data.draw(st.sampled_from(product_groupoids[:-1]), label="g")
    arrow = st.integers(0, g.n_arrows - 1)
    x = np.array(data.draw(st.lists(arrow, max_size=50), label="x"), dtype=np.int64)
    y = np.array(data.draw(st.lists(arrow, min_size=len(x), max_size=len(x)),
                           label="y"), dtype=np.int64)
    ab = g.product(x, y)
    assert ab.dtype == np.int32 and ab.shape == x.shape
    assert np.array_equal(ab, oracles.comp_table(g)[x, y])
    assert np.array_equal(ab >= 0, g.dom[x] == g.ran[y])


def test_product_of_no_arrows_is_empty():
    g = gpd.FiniteGroupoid([], [], [], [], [], [])
    none = np.zeros(0, dtype=np.int64)
    assert g.product(none, none).shape == (0,)
    assert gpd.validate_groupoid(g).products.shape == (0,)


@pytest.fixture(scope="module")
def larger_groupoids(random_eunitary):
    """Groupoids with over 25 arrows: ``validate_groupoid`` runs Light's
    test on them, and scans every triple only when it fails."""
    out = [germs.universal_groupoid(S) for S in random_eunitary]
    return [g for g in out if 25 < g.n_arrows <= 64]


@FEW
@given(data=st.data())
def test_validate_groupoid_by_generators_matches_loops(larger_groupoids, data):
    g = data.draw(st.sampled_from(larger_groupoids), label="g")
    h = mutated_groupoid(data, g)
    assert outcome(gpd.validate_groupoid, h) == \
        outcome(oracles.validate_groupoid_loops, h)


# a five-element loop in which every element is its own inverse: identity
# and inverse laws hold, associativity fails first at (1, 1, 2)
LOOP = [[0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0]]


def test_non_associative_composition_witness():
    comp = {(a, b): LOOP[a][b] for a in range(5) for b in range(5)}
    g = gpd.FiniteGroupoid(["pt"], [0] * 5, [0] * 5, oracles.rule_of(comp),
                           range(5), [0])
    expect = ("CompositionNotAssociative", "(a1 a1) a2 != a1 (a1 a2)")
    assert outcome(gpd.validate_groupoid, g) == expect
    assert outcome(oracles.validate_groupoid_loops, g) == expect


def bundle_of(fibres):
    """The bundle over one unit per fibre, a table with identity 0 in which
    every element has an inverse."""
    fibres = [np.asarray(t) for t in fibres]
    sizes = [len(t) for t in fibres]
    start = np.cumsum([0] + sizes[:-1])
    units = np.repeat(np.arange(len(fibres)), sizes)
    table = np.full((sum(sizes), sum(sizes)), -1)
    inv = np.concatenate([s + (t == 0).argmax(axis=1)
                          for s, t in zip(start, fibres)])
    for s, t in zip(start, fibres):
        table[s:s + len(t), s:s + len(t)] = s + t
    return gpd.FiniteGroupoid([f"u{u}" for u in range(len(fibres))], units,
                              units, lambda a, b: table[a, b], inv, start)


def transitive_with(fibre, k):
    """k units with an arrow (i, g, j) from j to i for each g of ``fibre``,
    a table with identity 0 in which every element has an inverse:
    (i, g, j)(j, h, l) = (i, gh, l)."""
    fibre = np.asarray(fibre)
    m = len(fibre)
    i, g, j = np.unravel_index(np.arange(k * m * k), (k, m, k))
    ids = np.arange(k * m * k).reshape(k, m, k)
    table = np.full((k * m * k, k * m * k), -1)
    a, b = np.nonzero(j[:, None] == i[None, :])
    table[a, b] = ids[i[a], fibre[g[a], g[b]], j[b]]
    inv = ids[j, (fibre == 0).argmax(axis=1)[g], i]
    return gpd.FiniteGroupoid([f"u{u}" for u in range(k)], j, i,
                              lambda a, b: table[a, b], inv,
                              ids[np.arange(k), 0, np.arange(k)])


def relabelled(g, p):
    """g with arrow a renamed p[a]."""
    p = np.asarray(p)
    q = np.argsort(p)
    a, b = g.composable_pairs
    table = np.full((g.n_arrows, g.n_arrows), -1)
    table[p[a], p[b]] = p[g.products]
    return gpd.FiniteGroupoid(g.unit_labels, g.dom[q], g.ran[q],
                              lambda a, b: table[a, b], p[g.inv[q]],
                              p[g.identity])


def cyclic(m):
    return fx.cyclic_group(m).table


def assert_first_witness(data, g):
    """g, and g with its arrows relabelled, fail associativity with the
    witness of the loop oracle."""
    h = relabelled(g, data.draw(st.permutations(range(g.n_arrows)), label="p"))
    for groupoid in (g, h):
        expect = outcome(oracles.validate_groupoid_loops, groupoid)
        assert expect[0] == "CompositionNotAssociative"
        assert outcome(gpd.validate_groupoid, groupoid) == expect


@FEW
@given(data=st.data())
def test_loop_fibre_of_a_bundle_gives_the_first_witness(data):
    orders = data.draw(st.lists(st.integers(1, 6), max_size=3), label="orders")
    fibres = [cyclic(m) for m in orders]
    fibres.insert(data.draw(st.integers(0, len(orders)), label="at"), LOOP)
    assert_first_witness(data, bundle_of(fibres))


@FEW
@given(data=st.data())
def test_loop_isotropy_of_a_transitive_groupoid_gives_the_first_witness(data):
    assert_first_witness(
        data, transitive_with(LOOP, data.draw(st.integers(3, 4), label="units")))


def test_the_builders_of_the_loop_groupoids_make_groupoids():
    # with a group in place of the loop, both are groupoids
    gpd.validate_groupoid(bundle_of([cyclic(3), cyclic(1), cyclic(4)]))
    gpd.validate_groupoid(transitive_with(cyclic(4), 3))
    gpd.validate_groupoid(relabelled(transitive_with(cyclic(2), 3),
                                     np.arange(18)[::-1]))


@pytest.fixture(scope="module")
def light_groupoids(groupoids, random_eunitary):
    return groupoids + [germs.universal_groupoid(S) for S in random_eunitary]


def tree_generators(g):
    """The mask of ``generating_arrows`` of a groupoid that passed every
    check before associativity."""
    return gpd.generating_arrows(g, gpd.end_index(g.ran, g.n_units))


def test_generating_arrows_and_identities_generate(light_groupoids):
    for g in light_groupoids:
        gens = np.flatnonzero(tree_generators(g)).tolist()
        seeds = gens + g.identity.tolist()
        assert oracles.composition_closure(g, seeds) == set(range(g.n_arrows))


@EXAMPLES
@given(data=st.data())
def test_generating_arrows_of_a_relabelled_groupoid_generate(light_groupoids,
                                                             data):
    g = data.draw(st.sampled_from(light_groupoids), label="g")
    g = relabelled(g, data.draw(st.permutations(range(g.n_arrows)), label="p"))
    seeds = np.flatnonzero(tree_generators(g)).tolist() + g.identity.tolist()
    assert oracles.composition_closure(g, seeds) == set(range(g.n_arrows))


def test_a_cyclic_fibre_needs_one_generator():
    one = germs.universal_groupoid(fx.cyclic_group(61))
    assert np.count_nonzero(tree_generators(one)) == 1
    bundle = germs.universal_groupoid(chain_by_cyclic(4, 16))
    assert np.count_nonzero(tree_generators(bundle)) == 4


def test_a_unit_without_arrows_is_a_missing_identity():
    # no arrow starts or ends at the new unit, so only the endpoints of its
    # identity show that it has none
    g = helpers.pair_groupoid(3)
    h = gpd.FiniteGroupoid(g.unit_labels + ("x3",), g.dom, g.ran, g.products,
                           g.inv, list(g.identity) + [g.identity[1]])
    expect = ("MissingIdentity", str(errors.MissingIdentity(3)))
    assert outcome(gpd.validate_groupoid, h) == expect
    assert outcome(oracles.validate_groupoid_loops, h) == expect


def test_out_of_range_composition_is_a_structured_error():
    g = helpers.pair_groupoid(2)
    comp = composition_dict(g)
    comp[(0, 0)] = 7
    bad = gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran, oracles.rule_of(comp),
                             g.inv, g.identity)
    with pytest.raises(errors.DomainMismatch):
        gpd.validate_groupoid(bad)


def test_out_of_range_table_entry_is_a_structured_error():
    g = helpers.pair_groupoid(2)
    table = oracles.comp_table(g)
    table[1, 2] = 4
    bad = gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran,
                             lambda a, b: table[a, b], g.inv, g.identity)
    expect = ("DomainMismatch",
              "composition of 1, 2 names an arrow outside the groupoid")
    assert outcome(gpd.validate_groupoid, bad) == expect


def test_endpoint_outside_units_is_a_structured_error():
    g = helpers.pair_groupoid(2)
    dom = list(g.dom)
    dom[1] = 5
    bad = gpd.FiniteGroupoid(g.unit_labels, dom, g.ran, g.products, g.inv,
                             g.identity)
    with pytest.raises(errors.UnknownUnit):
        gpd.validate_groupoid(bad)


# -- the natural order ------------------------------------------------------------

def test_leq_matrix_matches_definition(semigroups):
    for S in semigroups:
        table = S.table.tolist()
        expect = [[oracles.leq(table, s, t) for t in range(len(S))]
                  for s in range(len(S))]
        assert S.leq_matrix().tolist() == expect


# -- the representation layer ---------------------------------------------------------

@pytest.fixture(scope="module")
def eunitary(semigroups, random_eunitary):
    return [S for S in semigroups + random_eunitary[12:] if sg.is_e_unitary(S)]


def test_left_regular_rep_matches_loops(semigroups):
    for S in semigroups:
        l = mr.left_regular_rep(S)
        assert l.shape == (len(S), len(S))
        assert np.array_equal(oracles.dense(l, len(S)),
                              oracles.left_regular_rep_loops(S))


def test_covariant_rep_matches_loops(eunitary):
    for S in eunitary:
        sigma = sg.max_group_image(S)
        theta = pa.theta_from_sigma(S, sigma)
        a = mr.covariant_rep(S, sigma, theta)
        dim = len(S.idempotents) * len(sigma.group)
        assert a.shape == (len(S), dim)
        assert np.array_equal(oracles.dense(a, dim),
                              oracles.covariant_rep_loops(S, sigma, theta))


def test_intertwiner_u_matches_loops(eunitary):
    for S in eunitary:
        sigma = sg.max_group_image(S)
        u = mr.intertwiner_u(S, sigma)
        dim = len(S.idempotents) * len(sigma.group)
        assert u.shape == (len(S),)
        assert np.array_equal(oracles.dense(u, dim),
                              oracles.intertwiner_u_loops(S, sigma))


@pytest.fixture(scope="module")
def intertwining_inputs(eunitary):
    out = []
    for S in eunitary:
        sigma = sg.max_group_image(S)
        out.append((mr.intertwiner_u(S, sigma), mr.left_regular_rep(S),
                    mr.covariant_rep(S, sigma)))
    return out


def dense_inputs(u, l, a):
    """U, the stack L and the stack A as the 0/1 matrices of the oracle."""
    dim = a.shape[1]
    return oracles.dense(u, dim), oracles.dense(l, len(u)), oracles.dense(a, dim)


def test_check_intertwining_holds_on_every_fixture(intertwining_inputs):
    for u, l, a in intertwining_inputs:
        assert mr.intertwines(u, l, a)
        assert oracles.check_intertwining_dense(*dense_inputs(u, l, a))


@EXAMPLES
@given(data=st.data())
def test_check_intertwining_matches_dense_products(intertwining_inputs, data):
    # one entry of u, l or a set to any value its array can hold: a basis
    # index, or -1 (sent to 0) in l and a
    u, l, a = (np.array(x) for x in
               data.draw(st.sampled_from(intertwining_inputs), label="input"))
    which = data.draw(st.sampled_from(["u", "l", "a"]), label="which")
    arr = {"u": u, "l": l, "a": a}[which]
    i = data.draw(st.integers(0, arr.size - 1), label="entry")
    lo = 0 if which == "u" else -1
    hi = len(u) - 1 if which == "l" else a.shape[1] - 1
    arr.flat[i] = data.draw(st.integers(lo, hi), label="value")
    assert mr.intertwines(u, l, a) == \
        oracles.check_intertwining_dense(*dense_inputs(u, l, a))


def test_check_intertwining_needs_an_isometry():
    # zero operators intertwine any U; two columns on one row (U*U != I)
    # must still fail.  A column of U without a 1 has no index form.
    u = np.array([0, 0])
    l = np.full((1, 2), -1)
    a = np.full((1, 1), -1)
    assert not mr.intertwines(u, l, a)
    assert not oracles.check_intertwining_dense(*dense_inputs(u, l, a))


def test_gelfand_indicator_has_full_bareiss_rank(corpus):
    # the rank that follows from the natural order: the indicator matrix,
    # listed along a linear extension, is unitriangular
    for S in corpus.values():
        ind = oracles.gelfand_indicator(S)
        assert oracles.integer_rank(ind) == len(S.idempotents) == len(ind)


# -- centers ------------------------------------------------------------------------------

def s3_group():
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
             for p in perms]
    return fx.group_from_table([str(p) for p in perms], table, name="Sym3")


@pytest.fixture(scope="module")
def center_groupoids(corpus, random_eunitary, groupoids):
    # every groupoid whose center the other tests and the verify suites use,
    # the KS sources and targets, and non-abelian isotropy
    out = list(groupoids)
    for S in list(corpus.values()) + random_eunitary:
        phi = sg.hom_from_sigma(sg.max_group_image(S))
        if sg.is_locally_idempotent_pure(phi):
            res = pa.ks_pipeline(phi)
            out += [res.source, res.target]
    out += [pa.partial_trans_groupoid(pa.theta_from_sigma(S))
            for S in corpus.values() if sg.is_e_unitary(S)]
    env = pa.enveloping_group_action(pa.theta_from_sigma(corpus["S3"]))
    out += [env.inclusion.source, env.inclusion.target]
    sym3 = s3_group()
    out += [helpers.groupoid_from_group(sym3),
            helpers.groupoid_from_group(fx.cyclic_group(2)),
            germs.universal_groupoid(fx.brandt(sym3, 2)),
            germs.universal_groupoid(fx.symmetric_inverse(3)),
            germs.universal_groupoid(fx.chain(4))]
    out += [helpers.pair_groupoid(n) for n in (1, 2, 4)]
    return out


def test_center_dimension_matches_svd(center_groupoids):
    for g in center_groupoids:
        alg = mr.convolution_algebra(g)
        assert mr.center_dimension(alg) == oracles.center_dimension_svd(alg), g


def test_center_of_a_nonabelian_group_counts_classes():
    alg = mr.convolution_algebra(helpers.groupoid_from_group(s3_group()))
    assert alg.dim == 6 and mr.center_dimension(alg) == 3


def test_convolution_algebra_rejects_a_non_groupoid():
    g = helpers.pair_groupoid(2)
    comp = composition_dict(g)
    comp[(0, 0)] = 1
    bad = gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran, oracles.rule_of(comp),
                             g.inv, g.identity)
    with pytest.raises(errors.DomainMismatch):
        mr.convolution_algebra(bad)


# -- KS certificates ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def morphisms(semigroups, random_eunitary):
    out = []
    for S in semigroups + random_eunitary[12:]:
        out.append(sg.hom_from_sigma(sg.max_group_image(S)))
        if len(S) <= 24:
            out.append(sg.semigroup_hom(S, S, range(len(S))))
    table = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    M = sg.validate_semigroup(["1", "e1", "e2", "b"], table)
    out.append(sg.semigroup_hom(M, fx.chain2(), [0, 1, 1, 1]))
    return out


def as_pairs(certs):
    return {key: (c.generators, c.downset) for key, c in certs.items()}


def test_check_ks_condition_matches_sets(morphisms):
    for phi in morphisms:
        certs = sp.check_ks_condition(phi)
        expect = oracles.check_ks_condition_by_sets(phi)
        assert list(certs) == list(expect)
        assert as_pairs(certs) == expect
        assert all(type(x) is int for c in certs.values() for x in c.generators)


def test_check_ks_condition_matches_the_corner_scan(morphisms):
    for phi in morphisms:
        certs = sp.check_ks_condition(phi)
        expect = oracles.check_ks_condition_by_corners(phi)
        assert list(certs) == list(expect)
        assert as_pairs(certs) == expect


def test_check_ks_condition_matches_the_cover_edge_kernel(morphisms):
    # the mapping reads as the dict the cover-edge kernel built: length,
    # key order, items and single reads
    for phi in morphisms:
        certs = sp.check_ks_condition(phi)
        expect = oracles.check_ks_condition_by_cover_edges(phi)
        assert len(certs) == len(expect)
        assert list(certs) == list(expect)
        assert [(key, c.generators) for key, c in certs.items()] == \
            list(expect.items())
        assert all(certs[key].generators == gens for key, gens in expect.items())
        assert certs == {key: sp.DownsetCertificate(gens, phi.source)
                         for key, gens in expect.items()}


def test_check_ks_condition_of_a_brandt_semigroup_dedups_before_comparing(
        monkeypatch):
    # B(1, n) to the trivial group: every nonzero element is maximal, so
    # one t has n^2 generators, but a corner (e_ii, e_jj) holds only the
    # distinct candidates 0 and e_ij, and the pairwise step compares those
    widest = []
    maximal = sp._maximal_in_groups

    def spy(S, group, x, dd):
        widest.append(int(np.unique(group, return_counts=True)[1].max()))
        return maximal(S, group, x, dd)

    monkeypatch.setattr(sp, "_maximal_in_groups", spy)
    for n in (1, 3, 8, 16):
        S = fx.brandt(fx.cyclic_group(1), n)       # sigma holds S weakly
        phi = sg.hom_from_sigma(sg.max_group_image(S))
        assert len(phi.target) == 1
        certs = sp.check_ks_condition(phi)
        assert {key: c.generators for key, c in certs.items()} == \
            oracles.check_ks_condition_by_cover_edges(phi)
        assert certs.to_json() == oracles.ks_certificates_json(certs)
    assert widest and max(widest) == 2


def test_ks_certificates_text_is_the_json_dumps_of_the_dict(morphisms):
    for phi in morphisms:
        certs = sp.check_ks_condition(phi)
        assert certs.to_json() == oracles.ks_certificates_json(certs)


def test_the_ks_digest_hashed_by_blocks_is_the_digest_of_the_text(morphisms):
    for phi in morphisms:
        certs = sp.check_ks_condition(phi)
        assert verify._digest_chunks(certs.json_chunks()) == \
            verify._digest(certs.to_json())
        if sg.is_locally_idempotent_pure(phi):
            res = pa.ks_pipeline(phi)
            assert verify._digest_chunks(res.json_chunks()) == \
                verify._digest(res.to_json())


def test_ks_certificates_text_sorts_keys_as_strings():
    # ids of one, two and three digits, so "1,..." < "10,..." < "2,...";
    # corners with two generators, and the gens of a corner sorted by id
    S = chain_by_cyclic(12, 11)
    certs = sp.check_ks_condition(sg.hom_from_sigma(sg.max_group_image(S)))
    assert len(S) == 132
    assert certs.to_json() == oracles.ks_certificates_json(certs)
    table = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    M = sg.validate_semigroup(["1", "e1", "e2", "b"], table)
    certs = sp.check_ks_condition(sg.semigroup_hom(M, fx.chain2(), [0, 1, 1, 1]))
    assert certs[(0, 0, 1)].generators == (1, 2)
    assert certs.to_json() == oracles.ks_certificates_json(certs)


def test_ks_certificates_are_a_read_only_mapping(morphisms):
    phi = morphisms[0]
    certs = sp.check_ks_condition(phi)
    e = phi.source.idempotents[0]
    assert (e, e, 0) in certs and certs.get((e, e, 0)) is not None
    missing = [(e, e, len(phi.target)), (e, e, -1), (-1, e, 0), (e, e),
               (e, e, "0"), "x"]
    for key in missing:
        assert key not in certs
        with pytest.raises(KeyError):
            certs[key]
    with pytest.raises(TypeError):
        certs[(e, e, 0)] = None
    with pytest.raises(ValueError):
        certs.gens[...] = 0
    with pytest.raises(ValueError):
        certs.starts[...] = 0


def test_ks_pipeline_json_is_the_json_dumps_of_its_parts(corpus):
    for name in ("S3", "S4", "SD6"):
        res = pa.ks_pipeline(sg.hom_from_sigma(sg.max_group_image(corpus[name])))
        certs = {f"{e},{f},{t}": list(c.generators)
                 for (e, f, t), c in res.ks_certificates.items()}
        assert res.to_json() == json.dumps({
            "sizes": res.sizes, "conditions": res.report,
            "certificates": certs, "pass": res.ok}, sort_keys=True)


@EXAMPLES
@given(data=st.data())
def test_check_ks_condition_of_an_arbitrary_map_matches_sets(semigroups, data):
    # a map that does not preserve the order leaves some preimage without
    # its lower members: both sides name the same least member and element
    # below it, as a frozenset of ids below 8 iterates in increasing order
    S = data.draw(st.sampled_from([S for S in semigroups if len(S) <= 8]),
                  label="S")
    T = data.draw(st.sampled_from([fx.chain2(), fx.chain(3), fx.b2()]),
                  label="T")
    mapping = data.draw(st.lists(st.integers(0, len(T) - 1),
                                 min_size=len(S), max_size=len(S)))
    phi = sg.SemigroupHom(S, T, tuple(mapping))
    assert outcome(sp.check_ks_condition, phi) == \
        outcome(oracles.check_ks_condition_by_sets, phi)


@EXAMPLES
@given(data=st.data())
def test_check_ks_condition_of_a_mutated_hom_matches_the_corner_scan(
        morphisms, data):
    # one changed entry of a homomorphism: the first corner holding an
    # escape may come late in the scan; where none escapes, the
    # certificates are those of the cover-edge kernel
    phi = data.draw(st.sampled_from(morphisms), label="phi")
    mapping = list(phi.map)
    s = data.draw(st.integers(0, len(mapping) - 1), label="s")
    mapping[s] = data.draw(st.integers(0, len(phi.target) - 1), label="t")
    phi = sg.SemigroupHom(phi.source, phi.target, tuple(mapping))
    result = outcome(sp.check_ks_condition, phi)
    assert result == outcome(oracles.check_ks_condition_by_corners, phi)
    assert result == outcome(oracles.check_ks_condition_by_cover_edges, phi)
    if result[0] == "ok":
        assert {key: c.generators
                for key, c in sp.check_ks_condition(phi).items()} == \
            oracles.check_ks_condition_by_cover_edges(phi)


def relabelled_semigroup(S, p):
    """S with element a renamed p[a]."""
    table = np.empty_like(S.table)
    table[np.ix_(p, p)] = p[S.table]
    names = [S.names[a] for a in np.argsort(p)]
    return sg.validate_semigroup(
        names, table, None if S.zero is None else int(p[S.zero]))


@FEW
@given(data=st.data())
def test_check_ks_condition_of_a_relabelled_semigroup(semigroups, data):
    # the idempotents are not the least ids, nor in any order of the table
    S = data.draw(st.sampled_from(semigroups), label="S")
    p = np.array(data.draw(st.permutations(range(len(S))), label="p"))
    R = relabelled_semigroup(S, p)                 # sigma holds R weakly
    phi = sg.hom_from_sigma(sg.max_group_image(R))
    certs = sp.check_ks_condition(phi)
    assert {key: c.generators for key, c in certs.items()} == \
        oracles.check_ks_condition_by_cover_edges(phi)
    assert certs.to_json() == oracles.ks_certificates_json(certs)


def test_cover_edges_match_the_order(semigroups, random_eunitary):
    for S in semigroups + random_eunitary[12:]:
        low, up = oracles.cover_edges(S)
        assert sorted(zip(low.tolist(), up.tolist())) == \
            oracles.cover_edges_by_leq(S)


@FEW
@given(data=st.data())
def test_cover_edges_of_a_relabelled_semigroup_match_the_order(semigroups, data):
    S = data.draw(st.sampled_from(semigroups), label="S")
    p = np.array(data.draw(st.permutations(range(len(S))), label="p"))
    S = relabelled_semigroup(S, p)
    low, up = oracles.cover_edges(S)
    assert sorted(zip(low.tolist(), up.tolist())) == oracles.cover_edges_by_leq(S)


# -- scalar predicates and the semilattice check -----------------------------------------

def test_is_locally_idempotent_pure_matches_loops(morphisms):
    for phi in morphisms:
        assert sg.is_locally_idempotent_pure(phi) == \
            oracles.is_locally_idempotent_pure_loops(phi)


@EXAMPLES
@given(data=st.data())
def test_is_locally_idempotent_pure_of_an_arbitrary_map_matches_loops(
        semigroups, data):
    S = data.draw(st.sampled_from(semigroups), label="S")
    T = data.draw(st.sampled_from([fx.chain2(), fx.b2(), fx.cyclic_group(2),
                                   fx.cyclic_group(3)]), label="T")
    mapping = data.draw(st.lists(st.integers(0, len(T) - 1),
                                 min_size=len(S), max_size=len(S)))
    phi = sg.SemigroupHom(S, T, tuple(mapping))
    assert sg.is_locally_idempotent_pure(phi) == \
        oracles.is_locally_idempotent_pure_loops(phi)


@EXAMPLES
@given(data=st.data())
def test_semilattice_check_matches_loops(semigroups, data):
    # E(S) in any order of its ids, with at most one entry of its meet table
    # set to any id of S or just outside them
    S = data.draw(st.sampled_from(semigroups), label="S")
    order = data.draw(st.permutations(S.idempotents), label="order")
    table = np.array(S.table[np.ix_(order, order)])
    if data.draw(st.booleans(), label="mutate"):
        i = data.draw(st.integers(0, len(order) - 1), label="i")
        j = data.draw(st.integers(0, len(order) - 1), label="j")
        table[i, j] = data.draw(st.integers(-1, len(S)), label="value")
    assert outcome(sp.Semilattice, order, table) == \
        oracles.semilattice_check_loops(order, table.tolist())


def test_semilattice_rejects_a_table_of_the_wrong_shape():
    with pytest.raises(errors.InvalidParams):
        sp.Semilattice([0, 1], [[0, 0], [0, 1], [1, 1]])
    with pytest.raises(errors.InvalidParams):
        sp.Semilattice([0, 1, 2], [[0, 0], [0, 1]])
    # rock-paper-scissors: commutative, with e (e f) = e f, yet
    # (0 ^ 1) ^ 2 = 2 and 0 ^ (1 ^ 2) = 0
    rps = [[0, 0, 2], [0, 1, 1], [2, 1, 2]]
    with pytest.raises(errors.InvalidParams, match="not a meet semilattice"):
        sp.Semilattice([0, 1, 2], rps)
    assert oracles.semilattice_check_loops([0, 1, 2], rps) == \
        ("InvalidParams", "table is not a meet semilattice")


def test_is_zero_e_unitary_matches_loops(semigroups):
    pool = [S for S in semigroups if S.zero is not None] + \
        [fx.adjoin_zero(S) for S in semigroups if S.zero is None]
    for S in pool:
        assert sg.is_zero_e_unitary(S) == oracles.is_zero_e_unitary_loops(S)


def test_is_f_morphism_matches_loops(morphisms):
    for phi in morphisms:
        assert helpers.is_f_morphism(phi) == oracles.is_f_morphism_loops(phi)


@EXAMPLES
@given(data=st.data())
def test_is_f_morphism_of_an_arbitrary_map_matches_loops(semigroups, data):
    S = data.draw(st.sampled_from(semigroups), label="S")
    k = data.draw(st.integers(1, 4), label="k")
    mapping = data.draw(st.lists(st.integers(0, k - 1),
                                 min_size=len(S), max_size=len(S)))
    phi = sg.SemigroupHom(S, fx.cyclic_group(k), tuple(mapping))
    assert helpers.is_f_morphism(phi) == oracles.is_f_morphism_loops(phi)


@EXAMPLES
@given(data=st.data())
def test_semigroup_hom_matches_loops(morphisms, data):
    phi = data.draw(st.sampled_from(morphisms), label="phi")
    mapping = list(phi.map)
    if data.draw(st.booleans(), label="mutate"):
        s = data.draw(st.integers(0, len(mapping) - 1), label="s")
        mapping[s] = data.draw(st.integers(0, len(phi.target) - 1), label="t")
    assert outcome(sg.semigroup_hom, phi.source, phi.target, mapping) == \
        oracles.semigroup_hom_loops(phi.source, phi.target, mapping)


@EXAMPLES
@given(data=st.data())
def test_semilattice_hom_matches_loops(semigroups, data):
    # from E(S), its ids in any order, to E(T): e -> eg with T = S, or
    # e -> g, both meet preserving, or any map; with at most one value
    # changed to any idempotent of T
    S = data.draw(st.sampled_from(semigroups), label="S")
    kind = data.draw(st.sampled_from(["meet", "constant", "any"]),
                     label="kind")
    T = S if kind == "meet" else \
        data.draw(st.sampled_from(semigroups), label="T")
    order = data.draw(st.permutations(S.idempotents), label="order")
    E1 = sp.Semilattice(order, S.table[np.ix_(order, order)])
    E2 = sp.idempotent_semilattice(T)
    g = data.draw(st.sampled_from(E2.elements), label="g")
    if kind == "any":
        mapping = dict(zip(E1.elements, data.draw(st.lists(
            st.sampled_from(E2.elements), min_size=len(E1), max_size=len(E1)),
            label="values")))
    else:
        mapping = {e: S.mul(e, g) if kind == "meet" else g
                   for e in E1.elements}
    if data.draw(st.booleans(), label="mutate"):
        e = data.draw(st.sampled_from(E1.elements), label="e")
        mapping[e] = data.draw(st.sampled_from(E2.elements), label="value")
    assert outcome(sp.semilattice_hom, E1, E2, mapping) == \
        outcome(oracles.semilattice_hom_loops, E1, E2, mapping)


def test_semilattice_hom_of_identities_and_restrictions_matches_loops(
        morphisms):
    for phi in morphisms:
        E1 = sp.idempotent_semilattice(phi.source)
        E2 = sp.idempotent_semilattice(phi.target)
        for target, mapping in ((E1, {e: e for e in E1.elements}),
                                (E2, {e: phi(e) for e in E1.elements})):
            assert outcome(sp.semilattice_hom, E1, target, mapping) == \
                outcome(oracles.semilattice_hom_loops, E1, target, mapping) \
                == ("ok", "")


def relabelled_table(S, p, validate, **kwargs):
    """The table of S with element a renamed p[a], validated by
    ``validate``."""
    p = np.asarray(p)
    table = np.empty_like(S.table)
    table[np.ix_(p, p)] = p[S.table]
    return validate([S.names[a] for a in np.argsort(p)], table, **kwargs)


def relabelled_group(G, p):
    return relabelled_table(G, p, sg.validate_group)


def sigma_with_zero(S, p):
    """sigma of S, into its group relabelled by p, with None at the zero
    adjoined to S."""
    sigma = sg.max_group_image(S)
    return fx.adjoin_zero(S), relabelled_group(sigma.group, p), \
        [p[sigma(s)] for s in range(len(S))] + [None]


@EXAMPLES
@given(data=st.data())
def test_partial_group_hom_matches_loops(semigroups, data):
    # sigma extended by None at an adjoined zero, into its group with the
    # ids permuted, with at most one value changed to a group id or None
    S = data.draw(st.sampled_from(semigroups), label="S")
    k = len(sg.max_group_image(S).group)
    S0, G, mapping = sigma_with_zero(
        S, data.draw(st.permutations(range(k)), label="p"))
    if data.draw(st.booleans(), label="mutate"):
        s = data.draw(st.integers(0, len(S0) - 1), label="s")
        mapping[s] = data.draw(st.none() | st.integers(0, k - 1),
                               label="value")
    assert outcome(sg.partial_group_hom, S0, G, mapping) == \
        outcome(oracles.partial_group_hom_loops, S0, G, mapping)


def test_partial_group_hom_in_row_blocks_matches_loops(semigroups,
                                                       monkeypatch):
    # S with a zero adjoined as id 0 and its other ids shuffled, in blocks
    # of one row: the row of the zero is skipped, so the first failing
    # pair lies in the second block; every value in turn moved to the
    # next group id
    rng = np.random.default_rng(3)
    monkeypatch.setattr(sg, "CHUNK", 4)
    for S in semigroups:
        k = len(sg.max_group_image(S).group)
        S0, G, base = sigma_with_zero(S, list(range(k))[::-1])
        n = len(S0)
        p = np.concatenate([1 + rng.permutation(n - 1), [0]])
        S0 = relabelled_table(S0, p, sg.validate_semigroup, zero=0)
        base = [base[q] for q in np.argsort(p)]
        for s in range(1, n):
            mapping = list(base)
            mapping[s] = (mapping[s] + 1) % k
            assert outcome(sg.partial_group_hom, S0, G, mapping) == \
                outcome(oracles.partial_group_hom_loops, S0, G, mapping)


@EXAMPLES
@given(data=st.data())
def test_subgroup_generated_matches_loops(data):
    G = data.draw(st.sampled_from(
        [fx.cyclic_group(12), s3_group(), fx.cyclic_group(1)]), label="G")
    gens = data.draw(st.lists(st.integers(0, len(G) - 1), max_size=3))
    assert sg.subgroup_generated(G, gens) == \
        oracles.subgroup_generated_loops(G, gens)


def test_ideals_and_rees_quotients_match_loops(semigroups):
    for S in semigroups:
        if len(S) > 16:
            continue
        ideals = sg.enumerate_proper_ideals(S)
        assert ideals == oracles.proper_ideals_loops(S)
        for I in ideals:
            Q, q = sg.rees_quotient(S, I)
            assert (list(q.map), Q.table.tolist()) == \
                oracles.rees_quotient_loops(S, I)


@EXAMPLES
@given(data=st.data())
def test_is_ideal_matches_loops(semigroups, data):
    # the ideal SsS, or any subset, with at most one id toggled
    S = data.draw(st.sampled_from(semigroups), label="S")
    if data.draw(st.booleans(), label="principal"):
        s = data.draw(st.integers(0, len(S) - 1), label="s")
        I = {helpers.mul_all(S, x, s, y) for x in range(len(S)) for y in range(len(S))}
    else:
        I = data.draw(st.sets(st.integers(0, len(S) - 1)), label="I")
    if data.draw(st.booleans(), label="toggle"):
        I ^= {data.draw(st.integers(0, len(S) - 1), label="x")}
    assert sg.is_ideal(S, I) == oracles.is_ideal_loops(S, I)


def cyclic_action(perm):
    """The action of Z_k generated by the permutation ``perm`` of order k."""
    powers = [tuple(range(len(perm)))]
    while len(powers) == 1 or powers[-1] != powers[0]:
        powers.append(tuple(perm[i] for i in powers[-1]))
    return fx.cyclic_group(len(powers) - 1), dict(enumerate(powers[:-1]))


def test_fixture_tables_match_loops():
    for n in (1, 2, 3, 7, 16):
        assert fx.chain(n).table.tolist() == \
            [[max(i, j) for j in range(n)] for i in range(n)]
        assert fx.cyclic_group(n).table.tolist() == \
            [[(i + j) % n for j in range(n)] for i in range(n)]
    for G, n in ((fx.cyclic_group(1), 3), (fx.cyclic_group(3), 2), (s3_group(), 2)):
        assert fx.brandt(G, n).table.tolist() == oracles.brandt_table_loops(G, n)
    for S, T in ((fx.chain(3), fx.cyclic_group(4)), (fx.b2(), fx.i2()),
                 (fx.s3_monoid(), s3_group())):
        assert fx.direct_product(S, T).table.tolist() == \
            oracles.direct_product_table_loops(S, T)
    rng = random.Random(5)
    for _ in range(10):
        meet, _ = fx._random_semilattice(rng)
        auts = fx._semilattice_automorphisms(meet)
        G, action = cyclic_action(auts[rng.randrange(len(auts))])
        assert fx.semidirect(meet, G, action).table.tolist() == \
            oracles.semidirect_table_loops(meet, G, action)


def chain_meet(k):
    """The chain 0 > 1 > ... > k - 1."""
    return [[max(a, b) for b in range(k)] for a in range(k)]


def flat_meet(k):
    """k - 1 incomparable atoms over the bottom k - 1."""
    return [[a if a == b else k - 1 for b in range(k)] for a in range(k)]


# k = 1, chains 1-8, atoms over a bottom 2-8 and the Boolean lattice 2^3
SEMILATTICES = [[[0]]] + [chain_meet(k) for k in range(1, 9)] + \
    [flat_meet(k) for k in range(2, 9)] + [[[a & b for b in range(8)] for a in range(8)]]


def test_semilattice_automorphisms_match_the_scan():
    rng = random.Random(11)
    draws = [fx._random_semilattice(rng)[0] for _ in range(300)]
    assert {len(meet) for meet in draws} >= set(range(1, 10))
    for meet in draws + SEMILATTICES:
        assert fx._semilattice_automorphisms(meet) == \
            oracles.semilattice_automorphisms_scan(meet)
    counts = [len(fx._semilattice_automorphisms(meet)) for meet in SEMILATTICES]
    assert counts == [1] * 9 + [1, 2, 6, 24, 120, 720, 5040] + [6]


@pytest.fixture(scope="module")
def semilattice_actions():
    """(meet, automorphisms) of 40 seeded random semilattices and of
    ``SEMILATTICES``."""
    rng = random.Random(12)
    meets = [fx._random_semilattice(rng)[0] for _ in range(40)] + SEMILATTICES
    return [(meet, fx._semilattice_automorphisms(meet)) for meet in meets]


@EXAMPLES
@given(data=st.data())
def test_semidirect_action_checks_match_loops(semilattice_actions, data):
    # a cyclic action by a drawn automorphism, with up to three of its
    # permutations mutated: a wrong length, a repeated or out-of-range image,
    # the top moved (no automorphism fixes it then), another automorphism
    meet, auts = data.draw(st.sampled_from(semilattice_actions), label="E")
    k = len(meet)
    G, valid = cyclic_action(data.draw(st.sampled_from(auts), label="perm"))
    action = dict(valid)
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        g = data.draw(st.integers(0, len(G) - 1), label="g")
        p = list(valid[g])
        kind = data.draw(st.sampled_from(
            ["short", "long", "repeat", "range", "top", "other"]), label="kind")
        i, j = (data.draw(st.integers(0, k - 1), label=x) for x in "ij")
        if kind == "short":
            p.pop()
        elif kind == "long":
            p.append(p[i])
        elif kind == "repeat":
            p[i] = p[j]
        elif kind == "range":
            p[i] = data.draw(st.sampled_from([-1, k]), label="image")
        elif kind == "top":
            p[0], p[j] = p[j], p[0]
        else:
            p = list(data.draw(st.sampled_from(auts), label="other"))
        action[g] = tuple(p)
    expected = outcome(oracles.semidirect_action_loops, meet, G, action)
    assert outcome(fx.semidirect, meet, G, action) == expected
    if expected == ("ok", ""):
        assert fx.semidirect(meet, G, action).table.tolist() == \
            oracles.semidirect_table_loops(meet, G, action)


def test_semidirect_names_the_first_failing_action():
    G, meet = fx.cyclic_group(4), fx.v3_meet_table()
    valid = {0: (0, 1, 2), 1: (1, 0, 2), 2: (0, 1, 2), 3: (1, 0, 2)}
    for changes, message in [
            ({1: (1, 0)}, "action of 1 is not a permutation"),
            ({2: (0, 0, 2)}, "action of 2 is not a permutation"),
            ({3: (1, 0.5, 2)}, "action of 3 is not a permutation"),
            ({1: (2, 1, 0), 2: (0, 0, 2)}, "action of 1 does not preserve the meet"),
            ({1: (1, 0, 3), 2: (2, 1, 0)}, "action of 1 is not a permutation"),
            ({1: (0, 1, 2)}, "action is not a homomorphism")]:
        action = {**valid, **changes}
        expected = ("ActionNotByAutomorphisms", message)
        assert outcome(oracles.semidirect_action_loops, meet, G, action) == expected
        assert outcome(fx.semidirect, meet, G, action) == expected


def test_eunitary_cover_table_matches_loops():
    T, _, _, B2, theta = b2_cover()
    G = theta.target
    g0 = oracles.subgroup_generated_loops(
        G, [theta(s) for s in range(len(B2)) if s != B2.zero])
    pairs = sorted([(s, theta(s)) for s in range(len(B2)) if s != B2.zero] +
                   [(B2.zero, g) for g in g0])
    assert T.table.tolist() == oracles.cover_table_loops(B2, G, pairs)


# -- functors, reductions, components and envelopes ------------------------------------

def test_isotropy_orders_match_loops(center_groupoids):
    for g in center_groupoids:
        assert g.isotropy_orders() == oracles.isotropy_orders_loops(g)


@pytest.fixture(scope="module")
def envelope_sources(corpus, random_eunitary):
    """The presets and 24 random E-unitary semidirect products."""
    return list(corpus.values()) + random_eunitary[:24]


@pytest.fixture(scope="module")
def functors(envelope_sources):
    # the functors the verify suites build: Phi and Psi of main1, induced
    # functors, envelope inclusions and factorizations, projections
    out = []
    for S in envelope_sources:
        if sg.is_e_unitary(S):
            _, Phi, Psi = pa.verify_main1(S)
            out += [Phi, Psi, pa.enveloping_group_action(
                pa.theta_from_sigma(S)).inclusion]
        phi = sg.hom_from_sigma(sg.max_group_image(S))
        if sg.is_locally_idempotent_pure(phi):
            F = germs.induced_functor(phi)
            _, alpha, sd, _ = gpd.enveloping_action_of_functor(F)
            out += [F, alpha, gpd.semidirect_projection(sd, F.target)]
    pair = helpers.pair_groupoid(3)
    out += [helpers.identity_functor(pair),
            helpers.inclusion_of_reduction(gpd.reduction(pair, [0, 2]), pair)]
    return [F for F in out if F.source.n_arrows <= 40 and F.target.n_arrows <= 40]


def with_table(g, table):
    """g with the products read off a dense ``table``."""
    return gpd.FiniteGroupoid(g.unit_labels, g.dom, g.ran,
                              lambda a, b: table[a, b], g.inv, g.identity)


def hom_set_moves(F):
    """The pairs (a, h): a not an identity, h another arrow with the ends
    of F(a).  Sending a to h keeps every endpoint and identity, so only
    composition can fail."""
    src, tgt = F.source, F.target
    is_id = np.zeros(src.n_arrows, dtype=bool)
    is_id[src.identity] = True
    return [(a, h) for a in np.flatnonzero(~is_id).tolist()
            for h in np.flatnonzero((tgt.dom == tgt.dom[F(a)]) &
                                    (tgt.ran == tgt.ran[F(a)])).tolist()
            if h != F(a)]


def mutated_functor(data, F):
    src, tgt = F.source, F.target
    unit_map, arrow_map = list(F.unit_map), list(F.arrow_map)
    kind = data.draw(st.sampled_from(
        ["none", "unit", "arrow", "hom-set", "source table", "target table"]),
        label="kind")
    if kind == "hom-set" and hom_set_moves(F):
        a, h = data.draw(st.sampled_from(hom_set_moves(F)), label="move")
        arrow_map[a] = h
    elif kind == "unit":
        unit_map[data.draw(st.integers(0, src.n_units - 1))] = \
            data.draw(st.integers(-1, tgt.n_units), label="unit")
    elif kind == "arrow":
        arrow_map[data.draw(st.integers(0, src.n_arrows - 1))] = \
            data.draw(st.integers(-1, tgt.n_arrows), label="arrow")
    elif kind.endswith("table"):
        g = src if kind == "source table" else tgt
        table = oracles.comp_table(g)
        a = data.draw(st.integers(0, g.n_arrows - 1), label="a")
        b = data.draw(st.integers(0, g.n_arrows - 1), label="b")
        table[a, b] = data.draw(st.integers(-1, g.n_arrows - 1), label="ab")
        if kind == "source table":
            src = with_table(src, table)
        else:
            tgt = with_table(tgt, table)
    return src, tgt, unit_map, arrow_map


@EXAMPLES
@given(data=st.data())
def test_groupoid_functor_matches_loops(functors, data):
    F = data.draw(st.sampled_from(functors), label="F")
    args = mutated_functor(data, F)
    assert outcome(gpd.groupoid_functor, *args) == \
        outcome(oracles.groupoid_functor_loops, *args)


def larger_functors(functors):
    """Functors between validated groupoids whose source has more than 25
    arrows: their composition check starts at the source's generators."""
    return [F for F in functors if F.source.n_arrows > 25 and
            F.source.generators is not None and F.target.generators is not None]


def test_the_functor_corpus_takes_the_generator_path(functors):
    assert len(larger_functors(functors)) >= 5
    assert any(hom_set_moves(F) for F in larger_functors(functors))


@EXAMPLES
@given(data=st.data())
def test_a_functor_moved_within_a_hom_set_matches_loops(functors, data):
    # endpoints and identities kept: only composition can fail, and on the
    # larger groupoids only after the generators were checked first
    F = data.draw(st.sampled_from(larger_functors(functors)), label="F")
    a, h = data.draw(st.sampled_from(hom_set_moves(F)), label="move")
    arrow_map = list(F.arrow_map)
    arrow_map[a] = h
    args = (F.source, F.target, F.unit_map, arrow_map)
    expect = outcome(oracles.groupoid_functor_loops, *args)
    assert outcome(gpd.groupoid_functor, *args) == expect
    assert expect == ("ok", "") or expect[1].startswith("composition ")


def test_groupoid_functor_reports_a_lost_identity(functors):
    # an identity sent to another loop at the right unit keeps every
    # endpoint; the identity law is the first to fail
    cases = 0
    for F in functors:
        src, tgt = F.source, F.target
        for u in range(src.n_units):
            v = F.unit_map[u]
            loops = np.flatnonzero((tgt.dom == v) & (tgt.ran == v))
            for loop in loops[loops != tgt.identity[v]][:2].tolist():
                arrow_map = list(F.arrow_map)
                arrow_map[src.identity[u]] = loop
                args = (src, tgt, F.unit_map, arrow_map)
                expect = ("NotAFunctor", f"identity at unit {u} not preserved")
                assert outcome(gpd.groupoid_functor, *args) == expect
                assert outcome(oracles.groupoid_functor_loops, *args) == expect
                cases += 1
    assert cases > 50


def test_algebra_maps_of_the_isomorphisms_match_loops(functors):
    bijective = [F for F in functors if F.source.n_arrows == F.target.n_arrows
                 and len(set(F.arrow_map)) == F.source.n_arrows
                 and len(set(F.unit_map)) == F.source.n_units
                 and F.source.n_units == F.target.n_units]
    assert len(bijective) > 20
    lost = 0
    for F in bijective:
        # the basis relabeling: column a holds its one 1 in row F(a)
        assert np.array_equal(oracles.algebra_map_from_functor_loops(F),
                              np.eye(F.source.n_arrows, dtype=np.int64)[
                                  list(F.arrow_map)].T)
        # a target whose inverses are rolled by one keeps every product
        tgt = F.target
        rolled = gpd.GroupoidFunctor(F.source, gpd.FiniteGroupoid(
            tgt.unit_labels, tgt.dom, tgt.ran, tgt.products,
            np.roll(tgt.inv, 1), tgt.identity), F.unit_map, F.arrow_map)
        expect = outcome(oracles.algebra_map_from_functor_loops, rolled)
        assert expect in (("ok", ""), ("NotAFunctor", "involution not preserved"))
        lost += expect == ("NotAFunctor", "involution not preserved")
    assert lost > 10


def test_functor_report_matches_sets(functors):
    for F in functors:
        assert gpd.functor_report(F) == oracles.functor_report_sets(F)


@EXAMPLES
@given(data=st.data())
def test_functor_report_of_arbitrary_maps_matches_sets(functors, data):
    # any maps into the target's units and arrows, functorial or not
    F = data.draw(st.sampled_from(functors), label="F")
    src, tgt = F.source, F.target
    unit_map, arrow_map = list(F.unit_map), list(F.arrow_map)
    if data.draw(st.booleans(), label="move a unit"):
        unit_map[data.draw(st.integers(0, src.n_units - 1))] = \
            data.draw(st.integers(0, tgt.n_units - 1))
    if data.draw(st.booleans(), label="move an arrow"):
        arrow_map[data.draw(st.integers(0, src.n_arrows - 1))] = \
            data.draw(st.integers(0, tgt.n_arrows - 1))
    G = gpd.GroupoidFunctor(src, tgt, tuple(unit_map), tuple(arrow_map))
    assert gpd.functor_report(G) == oracles.functor_report_sets(G)
    assert gpd.is_faithful(G) == oracles.cocycle_faithfulness_map(G)[1]


def groupoid_fields(g):
    return (g.unit_labels, g.dom.tolist(), g.ran.tolist(),
            oracles.comp_table(g).tolist(),
            g.inv.tolist(), g.identity.tolist(), g.arrow_labels,
            g.parent_units, g.parent_arrows)


@EXAMPLES
@given(data=st.data())
def test_reduction_matches_dicts(groupoids, data):
    g = data.draw(st.sampled_from(groupoids), label="g")
    units = data.draw(st.lists(st.integers(-1, g.n_units), max_size=6),
                      label="units")
    assert outcome(gpd.reduction, g, units) == \
        outcome(oracles.reduction_dict, g, units)
    if outcome(gpd.reduction, g, units)[0] == "ok":
        assert groupoid_fields(gpd.reduction(g, units)) == \
            groupoid_fields(oracles.reduction_dict(g, units))


@EXAMPLES
@given(n=st.integers(0, 30), data=st.data())
def test_connected_components_match_union_find(n, data):
    item = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(item, item), max_size=40 if n else 0),
                      label="pairs")
    p, q = (np.array([pq[i] for pq in pairs], dtype=np.int64) for i in (0, 1))
    classes, index = gpd.connected_components(n, p, q)
    expect, expect_index = oracles.equivalence_classes_union_find(
        range(n), pairs)
    assert [c.tolist() for c in classes] == expect
    assert index.tolist() == [expect_index[x] for x in range(n)]


def test_connected_components_of_a_long_path():
    # a path labelled against the propagation direction
    n = 200
    perm = np.random.default_rng(3).permutation(n)
    classes, index = gpd.connected_components(n, perm[1:], perm[:-1])
    assert [c.tolist() for c in classes] == [list(range(n))]
    assert not index.any()


def envelope_outputs(env):
    return (env.classes, env.global_action.maps.tolist(), env.embedding,
            env.inclusion.arrow_map, env.report)


def test_enveloping_group_action_matches_loops(envelope_sources):
    for S in envelope_sources:
        if sg.is_e_unitary(S):
            theta = pa.theta_from_sigma(S)
            classes, glob, embedding, inclusion, report = \
                oracles.enveloping_group_action_loops(theta)
            assert envelope_outputs(pa.enveloping_group_action(theta)) == \
                (classes, glob.tolist(), embedding, inclusion, report)


@pytest.fixture(scope="module")
def small_thetas(envelope_sources):
    return [pa.theta_from_sigma(S) for S in envelope_sources
            if sg.is_e_unitary(S) and len(S) <= 24]


@EXAMPLES
@given(data=st.data())
def test_enveloping_group_action_of_a_mutated_action_matches_loops(
        small_thetas, data):
    theta = data.draw(st.sampled_from(small_thetas), label="theta")
    maps = mutated_maps(data, theta.maps)
    bad = pa.PartialGroupAction(theta.group, theta.point_labels, maps)
    result = outcome(pa.enveloping_group_action, bad)
    assert result == outcome(oracles.enveloping_group_action_loops, bad)
    if result[0] == "ok":
        classes, glob, embedding, inclusion, report = \
            oracles.enveloping_group_action_loops(bad)
        assert envelope_outputs(pa.enveloping_group_action(bad)) == \
            (classes, glob.tolist(), embedding, inclusion, report)


def test_enveloping_group_action_of_an_image_outside_the_points_names_it(
        small_thetas):
    for theta in small_thetas:
        n, m = theta.maps.shape
        maps = np.array(theta.maps)
        maps[n - 1, m - 1] = maps[n // 2, 0] = m
        bad = pa.PartialGroupAction(theta.group, theta.point_labels, maps)
        expect = ("InvalidAction",
                  f"theta({n // 2}) sends point 0 outside the points")
        assert outcome(pa.enveloping_group_action, bad) == expect
        assert outcome(oracles.enveloping_group_action_loops, bad) == expect


def test_enveloping_group_action_of_a_nonabelian_restriction_matches_loops():
    # Sym3 acting on {0, 1, 2}, restricted to a subset: the globalization
    # is the orbit, and g h != h g tells the two sides of the action apart
    G = s3_group()
    perms = list(itertools.permutations(range(3)))
    for X in ([0], [0, 1], [1, 2]):
        maps = [[X.index(p[x]) if p[x] in X else -1 for x in X] for p in perms]
        theta = pa.validate_partial_action(G, [str(x) for x in X], maps)
        classes, glob, embedding, inclusion, report = \
            oracles.enveloping_group_action_loops(theta)
        env = pa.enveloping_group_action(theta)
        assert envelope_outputs(env) == \
            (classes, glob.tolist(), embedding, inclusion, report)
        assert env.global_action.n_points == 3 and report["weak_equivalence"]


def test_enveloping_action_of_functor_matches_loops(functors):
    faithful = [F for F in functors if oracles.cocycle_faithfulness_map(F)[1]]
    assert len(faithful) > 20
    for F in faithful:
        action, alpha, _, classes = gpd.enveloping_action_of_functor(F)
        expect = oracles.enveloping_action_of_functor_loops(F)
        assert (list(classes.values()), list(action.point_labels),
                list(action.anchor), action.act.tolist(),
                alpha.unit_map, alpha.arrow_map) == \
            (expect[0], expect[1], expect[2], expect[3].tolist(),
             expect[4], expect[5])


def test_main1_psi_matches_search(envelope_sources):
    for S in envelope_sources:
        if sg.is_e_unitary(S):
            _, Phi, Psi = pa.verify_main1(S)
            assert Psi.arrow_map == \
                oracles.main1_psi_by_search(S, Phi.source, Phi.target)

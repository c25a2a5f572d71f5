import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from germoid import cli
from germoid import fixtures as fx
from germoid import germs
from germoid import groupoids as gpd
from germoid import semigroups as sg
from germoid import verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_brandt(self, tmp_path, capsys):
        out = tmp_path / "b2.json"
        code, _, err = run_cli(capsys, "gen", "brandt", "--n", "2",
                               "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["elements"]) == 5 and data["zero"] == 0

    def test_chain(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "chain", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["elements"] == ["1", "f"]

    def test_semidirect_preset(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "semidirect", "--preset", "sd6")
        assert code == 0
        assert len(json.loads(out)["elements"]) == 6

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "symmetric-inverse", "--n", "2")
        _, out2, _ = run_cli(capsys, "gen", "symmetric-inverse", "--n", "2")
        assert out1 == out2

    def test_direct_product_and_adjoin_zero(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(capsys, "gen", "chain", "--n", "2", "--out", str(a))
        run_cli(capsys, "gen", "group", "--n", "2", "--out", str(b))
        code, out, _ = run_cli(capsys, "gen", "direct-product",
                               "--left", str(a), "--right", str(b))
        assert code == 0 and len(json.loads(out)["elements"]) == 4
        code, out, _ = run_cli(capsys, "gen", "adjoin-zero", "--in", str(a))
        assert code == 0 and json.loads(out)["zero"] == 2

    def test_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "gen", "chain", "--n", "0")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("kind, option", [
        ("chain", "--n"), ("group", "--n"), ("brandt", "--n"),
        ("symmetric-inverse", "--n"), ("preset", "--preset"),
        ("semidirect", "--preset"), ("direct-product", "--left"),
        ("adjoin-zero", "--in")])
    def test_missing_option_exits_2(self, capsys, kind, option):
        code, out, err = run_cli(capsys, "gen", kind)
        assert code == 2 and out == ""
        assert err == f"error: gen {kind} needs {option}\n"

    @pytest.mark.parametrize("kind", ["preset", "semidirect"])
    def test_unknown_preset_exits_2(self, capsys, kind):
        code, out, err = run_cli(capsys, "gen", kind, "--preset", "nope")
        assert code == 2 and out == ""
        assert err.startswith(f"error: gen {kind} --preset must be ")
        assert err.endswith("not 'nope'\n")

    def test_symmetric_inverse_over_the_limit_exits_2_before_enumerating(
            self, capsys, monkeypatch):
        # |I_6| = sum of C(6, j)^2 j! = 13,327 elements, over 4096
        monkeypatch.delenv("GERMOID_SIZE_LIMIT", raising=False)
        monkeypatch.setattr(fx, "combinations", lambda *a: pytest.fail(
            "elements enumerated past the size limit"))
        code, out, err = run_cli(capsys, "gen", "symmetric-inverse", "--n", "6")
        assert code == 2 and out == ""
        assert err == ("error: SizeLimitExceeded: size 13327 exceeds limit "
                       "4096; set GERMOID_SIZE_LIMIT to override\n")


def test_consecutive_calls_keep_no_options(tmp_path, capsys):
    b2 = tmp_path / "b2.json"
    assert run_cli(capsys, "gen", "preset", "--preset", "b2",
                   "--out", str(b2))[0] == 0
    code, out, _ = run_cli(capsys, "gen", "chain", "--n", "2")   # no --out
    assert code == 0 and json.loads(out)["elements"] == ["1", "f"]
    assert b2.read_text() == fx.b2().to_json() + "\n"
    code, out, _ = run_cli(capsys, "analyze", str(b2))
    assert code == 0 and json.loads(out)["elements"] == 5
    code, out, _ = run_cli(capsys, "gen", "brandt", "--n", "2", "--group-n", "3")
    assert code == 0 and len(json.loads(out)["elements"]) == 13
    code, out, _ = run_cli(capsys, "gen", "brandt", "--n", "2")
    assert code == 0 and len(json.loads(out)["elements"]) == 5


class TestAnalyze:
    def test_b2(self, tmp_path, capsys):
        f = tmp_path / "b2.json"
        run_cli(capsys, "gen", "brandt", "--n", "2", "--out", str(f))
        code, out, err = run_cli(capsys, "analyze", str(f))
        assert code == 0
        rep = json.loads(out)
        assert rep["e_unitary"] is False
        assert rep["zero_e_unitary"] is True
        assert rep["group_order"] == 1
        assert rep["filters"] == {"plain": 3, "contracted": 2, "tight": 2}

    def test_s4(self, tmp_path, capsys):
        f = tmp_path / "s4.json"
        run_cli(capsys, "gen", "preset", "--preset", "s4", "--out", str(f))
        code, out, _ = run_cli(capsys, "analyze", str(f))
        rep = json.loads(out)
        assert rep["e_unitary"] is True and rep["group_order"] == 2
        assert rep["filters"]["plain"] == 2

    def test_group(self, tmp_path, capsys):
        f = tmp_path / "z3.json"
        run_cli(capsys, "gen", "group", "--n", "3", "--out", str(f))
        code, out, _ = run_cli(capsys, "analyze", str(f))
        rep = json.loads(out)
        assert rep["e_unitary"] is True and rep["filters"]["plain"] == 1

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        f.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", str(f))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "/nonexistent/x.json")
        assert code == 2


class TestGroupoidCmd:
    def test_b2_tight(self, tmp_path, capsys):
        f = tmp_path / "b2.json"
        run_cli(capsys, "gen", "brandt", "--n", "2", "--out", str(f))
        g = tmp_path / "g.json"
        code, _, err = run_cli(capsys, "groupoid", str(f), "--variant",
                               "tight", "--out", str(g))
        assert code == 0
        data = json.loads(g.read_text())
        assert len(data["units"]) == 2 and len(data["arrows"]) == 4
        assert "2 units, 4 arrows" in err

    def test_s4_partial(self, tmp_path, capsys):
        f = tmp_path / "s4.json"
        run_cli(capsys, "gen", "preset", "--preset", "s4", "--out", str(f))
        code, out, err = run_cli(capsys, "groupoid", str(f),
                                 "--variant", "partial")
        assert code == 0
        data = json.loads(out)
        assert len(data["units"]) == 2 and len(data["arrows"]) == 4

    def test_chain2_universal(self, tmp_path, capsys):
        f = tmp_path / "c.json"
        run_cli(capsys, "gen", "chain", "--n", "2", "--out", str(f))
        code, out, _ = run_cli(capsys, "groupoid", str(f),
                               "--variant", "universal")
        data = json.loads(out)
        assert len(data["units"]) == 2 and len(data["arrows"]) == 2

    def test_variant_unavailable(self, tmp_path, capsys):
        f = tmp_path / "s4.json"
        run_cli(capsys, "gen", "preset", "--preset", "s4", "--out", str(f))
        code, _, err = run_cli(capsys, "groupoid", str(f), "--variant", "tight")
        assert code == 1 and "VariantUnavailable" in err

    def test_dot_export(self, tmp_path, capsys):
        f = tmp_path / "b2.json"
        run_cli(capsys, "gen", "brandt", "--n", "2", "--out", str(f))
        g = tmp_path / "g.json"
        d = tmp_path / "g.dot"
        run_cli(capsys, "groupoid", str(f), "--variant", "tight",
                "--out", str(g), "--dot", str(d))
        assert d.read_text().startswith("digraph")
        code, out, _ = run_cli(capsys, "export-dot", str(g))
        assert code == 0 and "->" in out


class TestVerifyCmd:
    @pytest.fixture()
    def files(self, tmp_path, capsys):
        paths = {}
        for preset in ("s3", "s4", "sd6", "b2", "i2"):
            p = tmp_path / f"{preset}.json"
            run_cli(capsys, "gen", "preset", "--preset", preset,
                    "--out", str(p))
            paths[preset] = str(p)
        return paths

    def test_main1_passes(self, files, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "main1",
                                 files["s4"], files["sd6"])
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert all(l["pass"] for l in lines)
        assert lines[0]["sizes"]["arrows_source"] == 4  # s4 sorts first

    def test_skips_are_reported_not_dropped(self, files, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "main1",
                                 files["b2"])
        assert code == 0
        rep = json.loads(out.strip().splitlines()[0])
        assert rep["skipped"] and "E-unitary" in rep["reason"]

    def test_ks_on_s3(self, files, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "ks", files["s3"])
        assert code == 0
        rep = json.loads(out.strip().splitlines()[0])
        assert rep["sizes"]["source_arrows"] == 3
        assert rep["sizes"]["target_arrows"] == 6
        assert rep["sizes"]["center_source"] == rep["sizes"]["center_target"] == 3

    def test_all_suite_exit_zero(self, files, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "all",
                                 files["s3"], files["b2"])
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert all(l["pass"] for l in lines)
        # deterministic order: sorted by fixture then check
        keys = [(l["fixture"], l["check"]) for l in lines]
        assert keys == sorted(keys)

    def test_report_stream_deterministic(self, files, capsys):
        def strip_time(text):
            return [{k: v for k, v in json.loads(l).items() if k != "wall_ms"}
                    for l in text.strip().splitlines()]

        _, out1, _ = run_cli(capsys, "verify", "--suite", "equiv", files["s4"])
        _, out2, _ = run_cli(capsys, "verify", "--suite", "equiv", files["s4"])
        assert strip_time(out1) == strip_time(out2)

    def test_exit_2_on_bad_file(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        f.write_text("[1, 2")
        code, _, _ = run_cli(capsys, "verify", "--suite", "main1", str(f))
        assert code == 2

    def test_full_corpus_gate(self, tmp_path, capsys):
        # the repository gate: every suite over every shipped fixture
        paths = []
        for preset in ("chain2", "b2", "s3", "s4", "sd6", "i2"):
            p = tmp_path / f"{preset}.json"
            run_cli(capsys, "gen", "preset", "--preset", preset,
                    "--out", str(p))
            paths.append(str(p))
        p = tmp_path / "z3.json"
        run_cli(capsys, "gen", "group", "--n", "3", "--out", str(p))
        paths.append(str(p))
        code, out, err = run_cli(capsys, "verify", "--suite", "all", *paths)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert all(l["pass"] for l in lines)
        assert any(l["skipped"] for l in lines)  # skips reported, not dropped
        assert all(l["reason"] for l in lines if l["skipped"])


# -- malformed input: exit 2, never a traceback ----------------------------------

PRESET_TEXTS = [fx.PRESETS[p]().to_json() for p in ("chain2", "b2", "s3", "i2")]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) |
    st.floats(allow_nan=False) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4)


def verify_exit(path):
    """Exit code of ``verify --suite all`` on one file, output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["verify", "--suite", "all", str(path)])


def verify_text(path, text):
    path.write_text(text)
    return verify_exit(path)


MALFORMED = [
    {"elements": ["a", "b"], "table": [[0, 1], [1]], "zero": None},
    {"elements": ["0", "1"], "table": [[0, 0], [0, 1]], "zero": True},
    {"elements": ["0", "1"], "table": [[0, 0], [0, 1]], "zero": "0"},
    {"elements": ["0", "1"], "table": [[0, 0], [0, 1]], "zero": 2},
    [["0"]],
    {"elements": ["a"], "table": [["0"]]},
    {"elements": ["a", "b"], "table": [[0, 0.5], [1, 0]]},
    {"elements": ["a"], "table": [[0.0]]},
    {"elements": ["a"], "table": [[True]]},
    {"elements": ["1", "f"], "table": [[0, True], [1, 1]], "zero": None},
    {"elements": ["1", "f"], "table": [[0, 1], [1, False]], "zero": None},
    {"elements": ["a"], "table": [[2 ** 63]]},
    {"elements": [], "table": []},
    {"elements": [0], "table": [[0]]},
    {"table": [[0]]},
]


@pytest.mark.parametrize("doc", MALFORMED)
def test_malformed_semigroup_exits_2(tmp_path, doc):
    assert verify_text(tmp_path / "bad.json", json.dumps(doc)) == 2


@pytest.mark.parametrize("doc", MALFORMED)
def test_malformed_compact_semigroup_exits_2(tmp_path, doc):
    text = json.dumps(doc, separators=(",", ":"))
    assert verify_text(tmp_path / "bad.json", text) == 2


def test_analyze_rejects_a_boolean_among_integers(tmp_path, capsys):
    doc = {"elements": ["1", "f"], "table": [[0, 1], [1, 1]], "zero": None}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "analyze", str(path))[0] == 0
    doc["table"][0][1] = True
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and "integer element ids" in err


def test_names_spelling_true_and_false_are_names(tmp_path):
    doc = {"elements": ["true", "false"], "table": [[0, 1], [1, 1]], "zero": None}
    assert verify_text(tmp_path / "s.json", json.dumps(doc)) == 0


def test_undecodable_or_too_deeply_nested_file_exits_2(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe not text")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert verify_exit(binary) == 2
    assert verify_exit(deep) == 2


# -- reading fixture files as bytes: the same outputs as reading text ---------------

def b2_file(kind: str) -> bytes:
    """B2 as ``gen`` writes it, in another layout, encoding or newline."""
    text = fx.PRESETS["b2"]().to_json() + "\n"
    doc = json.loads(text)
    indent = json.dumps(doc, indent=1)
    return {
        "crlf": text.replace("\n", "\r\n").encode(),
        "cr": text.replace("\n", "\r").encode(),
        "indent": indent.encode(),
        "indent-crlf": indent.replace("\n", "\r\n").encode(),
        "bom": b"\xef\xbb\xbf" + text.encode(),
        "invalid-utf8": text.encode() + b" " * 9000 + b"\xff\n",
        "non-ascii": json.dumps(dict(doc, elements=["∅", *doc["elements"][1:]]),
                                ensure_ascii=False).encode(),
        "nested-table": json.dumps({"a": {"table": [[0]]}, **doc}).encode(),
        "cr-error": indent.replace("\n", "\r").replace(
            '"zero"', '"zero",').encode(),
        "crlf-error": text.replace("\n", "\r\n").replace(
            '"zero"', '"zero",').encode(),
    }[kind]


B2_ANALYZE = (0, '{"e_unitary": false, "elements": 5, "filters": {"contracted": 2, '
              '"plain": 3, "tight": 2}, "group_order": 1, "idempotents": 3, '
              '"name": "b2", "zero": 0, "zero_e_unitary": true}\n',
              "b2: |S|=5 |E|=3 zero=0 E-unitary=False 0-E-unitary=True |G|=1 "
              "filters=3/2/2\n")
B2_VERIFY = (0, "".join(line + "\n" for line in [
    '{"certificate": "", "check": "envelope", "fixture": "b2", "pass": true, '
    '"reason": "fixture is not E-unitary", "sizes": {}, "skipped": true, '
    '"wall_ms": 0, "witness": ""}',
    '{"certificate": "", "check": "equiv[contracted]", "fixture": "b2", '
    '"pass": true, "reason": "", "sizes": {"arrows": 4, "points": 2}, '
    '"skipped": false, "wall_ms": 0, "witness": ""}',
    '{"certificate": "", "check": "equiv[plain]", "fixture": "b2", '
    '"pass": true, "reason": "", "sizes": {"arrows": 5, "points": 3}, '
    '"skipped": false, "wall_ms": 0, "witness": ""}',
    '{"certificate": "813882da16c22ca8", "check": "ks", "fixture": "b2", '
    '"pass": true, "reason": "", "sizes": {"center_source": 2, '
    '"center_target": 2, "essentially_surjective": true, "faithful": true, '
    '"full": true, "fully_faithful": true, "source_arrows": 5, '
    '"source_units": 3, "space_points": 2, "target_arrows": 2, '
    '"target_units": 2, "weak_equivalence": true}, "skipped": false, '
    '"wall_ms": 0, "witness": ""}',
    '{"certificate": "", "check": "main1", "fixture": "b2", "pass": true, '
    '"reason": "fixture is not E-unitary", "sizes": {}, "skipped": true, '
    '"wall_ms": 0, "witness": ""}',
    '{"certificate": "", "check": "main1reduced", "fixture": "b2", '
    '"pass": true, "reason": "fixture is not E-unitary", "sizes": {}, '
    '"skipped": true, "wall_ms": 0, "witness": ""}',
    '{"certificate": "c5c25158dde5b90a", "check": "reduction[I=0]", '
    '"fixture": "b2", "pass": true, "reason": "", "sizes": {"arrows": 4, '
    '"ideal": 1}, "skipped": false, "wall_ms": 0, "witness": ""}']),
    "suite all: 4/4 passed, 3 skipped, 0 failed\n")


def read_error(message):
    return 2, "", f"error: {message}\n"


# exit code, stdout and stderr of analyze and verify --suite all, as they
# were when the CLI read every file with Path.read_text()
READER_CASES = {
    "crlf": (B2_ANALYZE, B2_VERIFY),
    "cr": (B2_ANALYZE, B2_VERIFY),
    "indent": (B2_ANALYZE, B2_VERIFY),
    "indent-crlf": (B2_ANALYZE, B2_VERIFY),
    "non-ascii": (B2_ANALYZE, B2_VERIFY),
    "nested-table": (B2_ANALYZE, B2_VERIFY),
    "bom": (read_error(
        "cannot parse PATH: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)"),) * 2,
    "invalid-utf8": (read_error(
        "cannot read PATH: 'utf-8' codec can't decode byte 0xff in position "
        "9155: invalid start byte"),) * 2,
    "cr-error": (read_error(
        "cannot parse PATH: Expecting ':' delimiter: line 46 column 8 "
        "(char 275)"),) * 2,
    "crlf-error": (read_error(
        "cannot parse PATH: Expecting ':' delimiter: line 1 column 151 "
        "(char 150)"),) * 2,
}


@pytest.mark.parametrize("kind", sorted(READER_CASES))
def test_reading_bytes_keeps_the_outputs_of_reading_text(tmp_path, capsys,
                                                         kind):
    path = tmp_path / "b2.json"
    path.write_bytes(b2_file(kind))
    got = []
    for argv in (["analyze"], ["verify", "--suite", "all"]):
        code, out, err = run_cli(capsys, *argv, str(path))
        got.append((code, re.sub(r'"wall_ms": [^,]+', '"wall_ms": 0', out),
                    err.replace(str(path), "PATH")))
    assert tuple(got) == READER_CASES[kind]


def test_malformed_size_limit_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("GERMOID_SIZE_LIMIT", "abc")
    assert verify_text(tmp_path / "ok.json", PRESET_TEXTS[0]) == 2


def test_over_size_limit_exits_2_with_one_error_line(tmp_path, capsys,
                                                    monkeypatch):
    path = tmp_path / "chain16.json"
    path.write_text(fx.chain(16).to_json())
    monkeypatch.setenv("GERMOID_SIZE_LIMIT", "10")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: SizeLimitExceeded: size 16 exceeds limit 10; " \
        "set GERMOID_SIZE_LIMIT to override\n"


def test_out_of_memory_exits_2_with_one_error_line(tmp_path, capsys,
                                                  monkeypatch):
    path = tmp_path / "chain16.json"
    path.write_text(fx.chain(16).to_json())

    def no_memory(*args):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(sg, "lights_test", no_memory)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: out of memory: " \
        "Unable to allocate 8.00 GiB for an array\n"


@pytest.mark.parametrize("argv", [
    ["gen", "chain", "--n", "6"],
    ["gen", "preset", "--preset", "sd6"],
], ids=["chain6", "sd6"])
def test_gen_streams_to_out_the_bytes_it_prints(argv, tmp_path, capsys):
    path = tmp_path / "out.json"
    code, printed, _ = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--out", str(path))[:2] == (0, "")
    assert code == 0 and path.read_bytes() == printed.encode()


def test_groupoid_streams_to_out_the_text_of_to_json(tmp_path, capsys):
    S = fx.sd6()
    src, path = tmp_path / "sd6.json", tmp_path / "universal.json"
    src.write_text(S.to_json())
    code, _, _ = run_cli(capsys, "groupoid", str(src), "--variant", "universal",
                         "--out", str(path))
    g = germs.universal_groupoid(S)
    assert code == 0 and path.read_text() == g.to_json() + "\n"


@pytest.mark.parametrize("command", ["gen", "groupoid"])
def test_a_write_that_fails_midway_leaves_no_file(command, tmp_path, capsys,
                                                  monkeypatch):
    src, path = tmp_path / "sd6.json", tmp_path / "out.json"
    src.write_text(fx.sd6().to_json())
    real = sg.json_rows

    def one_block(*args):
        yield next(real(*args))
        raise MemoryError("Unable to allocate 8.00 GiB for an array")
    monkeypatch.setattr(sg, "json_rows", one_block)
    monkeypatch.setattr(gpd, "json_rows", one_block)
    argv = ["gen", "preset", "--preset", "sd6"] if command == "gen" else \
        ["groupoid", str(src), "--variant", "universal"]
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "") and not path.exists()
    assert err == "error: out of memory: Unable to allocate 8.00 GiB for an array\n"


def verify_reports(capsys, path):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", str(path))
    return code, {r["check"]: r for r in map(json.loads, out.splitlines())}


def test_a_groupoid_over_the_size_limit_skips_its_check(tmp_path, capsys,
                                                        monkeypatch):
    # S3 has 3 elements; envelope and ks build groupoids of 6 arrows
    path = tmp_path / "s3.json"
    path.write_text(fx.PRESETS["s3"]().to_json())
    _, unlimited = verify_reports(capsys, path)
    monkeypatch.setenv("GERMOID_SIZE_LIMIT", "4")
    code, reports = verify_reports(capsys, path)
    assert code == 0 and reports.keys() == unlimited.keys()
    for check in ("envelope", "ks"):
        assert reports[check]["skipped"] and reports[check]["pass"]
        assert reports[check]["reason"] == \
            f"{check} needs 6 arrows, over the limit 4; set GERMOID_SIZE_LIMIT"
    for check in set(reports) - {"envelope", "ks"}:
        assert reports[check] == {**unlimited[check],
                                  "wall_ms": reports[check]["wall_ms"]}


def test_out_of_memory_in_a_check_skips_it_and_keeps_the_others(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "s3.json"
    path.write_text(fx.PRESETS["s3"]().to_json())

    def no_memory(*args):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(verify, "center_dimension", no_memory)
    code, reports = verify_reports(capsys, path)
    assert code == 0 and len(reports) == 6
    assert reports["ks"]["skipped"] and reports["ks"]["reason"] == \
        "out of memory: Unable to allocate 8.00 GiB for an array"
    assert not any(r["skipped"] for c, r in reports.items() if c != "ks")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_fixture_json_exits_0_or_2(tmp_path_factory, data):
    doc = json.loads(data.draw(st.sampled_from(PRESET_TEXTS), label="preset"))
    n = len(doc["elements"])
    kind = data.draw(st.sampled_from(
        ["entry", "row", "drop-entry", "zero", "name", "drop-key", "document"]),
        label="kind")
    if kind == "entry":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        doc["table"][i][j] = data.draw(json_values, label="value")
    elif kind == "row":
        doc["table"][data.draw(st.integers(0, n - 1))] = \
            data.draw(json_values, label="row")
    elif kind == "drop-entry":
        doc["table"][data.draw(st.integers(0, n - 1))].pop()
    elif kind == "zero":
        doc["zero"] = data.draw(json_values, label="zero")
    elif kind == "name":
        doc["elements"][data.draw(st.integers(0, n - 1))] = \
            data.draw(json_values, label="name")
    elif kind == "drop-key":
        del doc[data.draw(st.sampled_from(sorted(doc)), label="key")]
    else:
        doc = data.draw(json_values, label="document")
    path = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    assert verify_text(path, json.dumps(doc)) in (0, 2)


# -- malformed groupoid files: export-dot exits 2, never a traceback -------------

PAIR3 = helpers.pair_groupoid(3).to_json()


def export_exit(path, text):
    """Exit code of ``export-dot`` on a file holding ``text``."""
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["export-dot", str(path)])


def pair3_with(**changes):
    doc = json.loads(PAIR3)
    doc.update(changes)
    return doc


def one_arrow(**changes):
    """The one-arrow groupoid, with ``changes`` to its arrow or its keys."""
    arrow = {"id": 0, "dom": 0, "ran": 0}
    doc = {"units": ["x"], "arrows": [arrow], "comp": [[0, 0, 0]],
           "inv": [[0, 0]]}
    for key, value in changes.items():
        (arrow if key in arrow else doc)[key] = value
    return doc


def test_export_dot_reads_the_one_arrow_groupoid(tmp_path):
    assert export_exit(tmp_path / "one.json", json.dumps(one_arrow())) == 0


def test_export_dot_reads_its_own_json(tmp_path):
    assert export_exit(tmp_path / "pair3.json", PAIR3) == 0


def test_export_dot_reads_arrows_in_any_order(tmp_path, capsys):
    doc = json.loads(PAIR3)
    for arrow in doc["arrows"][::2]:
        del arrow["label"]                                   # default a<id>
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["export-dot", str(path)]) == 0
    in_order = capsys.readouterr().out
    doc["arrows"].reverse()
    path.write_text(json.dumps(doc))
    assert cli.main(["export-dot", str(path)]) == 0
    assert capsys.readouterr().out == in_order
    assert '[label="a2"' in in_order and '[label="(0<-1)"' in in_order


@pytest.mark.parametrize("doc", [
    [1, 2],
    "pair",
    pair3_with(comp=[["0", 0, 0]]),
    pair3_with(comp=[[0, 0]]),
    pair3_with(comp=[[0, 0, 9]]),
    pair3_with(comp=[[0, 0, 0.0]]),
    pair3_with(comp={"0": 0}),
    pair3_with(inv=[[0, -1]]),
    pair3_with(inv=[[0, 1, 2]]),
    pair3_with(units=["x0", 1, "x2"]),
    pair3_with(units="x0"),
    pair3_with(arrows=[1, 2]),
    pair3_with(arrows=[{"id": 0, "dom": 0}]),
    pair3_with(arrows=[{"id": 0, "dom": 0, "ran": 5}]),
    pair3_with(arrows=[{"id": 1, "dom": 0, "ran": 0}]),
    pair3_with(arrows=[{"id": 0.0, "dom": 0, "ran": 0}]),
    pair3_with(arrows=[{"id": 0, "dom": 0, "ran": 0}] * 2),
    {"units": ["x", "y"],                                    # a repeated id
     "arrows": [{"id": 0, "dom": 0, "ran": 0}, {"id": 0, "dom": 1, "ran": 1}],
     "comp": [[0, 0, 0], [1, 1, 1]], "inv": [[0, 0], [1, 1]]},
    {"units": ["x"], "arrows": [{"id": 0, "dom": 0, "ran": 0}], "inv": [[0, 0]]},
    pair3_with(comp=json.loads(PAIR3)["comp"][1:]),          # an axiom fails
    one_arrow(ran=False),
    one_arrow(id=False),
    one_arrow(comp=[[0, 0, False]]),
    one_arrow(inv=[[0, False]]),
    pair3_with(inv=[[a, True if a == 3 else b]
                    for a, b in json.loads(PAIR3)["inv"]]),   # [3, 1]
])
def test_malformed_groupoid_exits_2(tmp_path, doc):
    assert export_exit(tmp_path / "bad.json", json.dumps(doc)) == 2


def test_export_dot_keeps_the_last_of_repeated_entries(tmp_path):
    doc = json.loads(PAIR3)
    doc["comp"].insert(0, [0, 0, 1])                       # a wrong first value
    doc["inv"].insert(0, [1, 1])
    assert export_exit(tmp_path / "late.json", json.dumps(doc)) == 0
    doc["comp"].append([0, 0, 1])                          # a wrong last value
    assert export_exit(tmp_path / "early.json", json.dumps(doc)) == 2


def export_dot(path, doc):
    """Exit code, stdout and stderr of ``export-dot`` on a file holding
    ``doc``, with the path in stderr written as PATH."""
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["export-dot", str(path)])
    return code, out.getvalue(), err.getvalue().replace(str(path), "PATH")


def pair3_comp(*edits, drop=(), extra=()):
    """PAIR3's triples with (index, value) ``edits`` to their products, the
    triples at indices ``drop`` left out and ``extra`` ones appended."""
    comp = json.loads(PAIR3)["comp"]
    for i, value in edits:
        comp[i][2] = value
    return [t for i, t in enumerate(comp) if i not in drop] + list(extra)


# arrow (i <- j) of PAIR3 is 3 i + j: (a, b) composes iff a % 3 == b // 3;
# triple 3 a + b % 3 is the pair (a, b); each witness is the first pair in
# row order that breaks the endpoint law
@pytest.mark.parametrize("comp, witness", [
    (pair3_comp(extra=[[1, 0, 1]]),                   # (1, 0) does not compose
     "composition of 1, 0 defined on the wrong domain"),
    (pair3_comp(drop=[14]),                           # no triple at (4, 5)
     "composition of 4, 5 defined on the wrong domain"),
    (pair3_comp((14, 0)),                             # (4, 5) -> (0<-0)
     "composite of 4, 5 has the wrong endpoints"),
    (pair3_comp(extra=[[4, 5, 5], [4, 5, 0]]),        # the last one counts
     "composite of 4, 5 has the wrong endpoints"),
    (pair3_comp((14, 0), extra=[[1, 0, 1]]),          # the pair comes later
     "composition of 1, 0 defined on the wrong domain"),
    (pair3_comp(drop=[0], extra=[[1, 0, 1]]),         # the pair comes first
     "composition of 0, 0 defined on the wrong domain"),
    (pair3_comp(extra=[[8, 0, 1], [2, 1, 8]]),        # two that do not compose
     "composition of 2, 1 defined on the wrong domain"),
])
def test_a_bad_groupoid_file_names_the_first_pair_in_row_order(
        tmp_path, comp, witness):
    assert export_dot(tmp_path / "bad.json", pair3_with(comp=comp)) == \
        (2, "", f"error: invalid groupoid in PATH: {witness}\n")


def test_a_pair_given_twice_keeps_its_last_value(tmp_path):
    # the digraph is named after the file, so each lives in its own folder
    def dot(folder, comp):
        (tmp_path / folder).mkdir()
        return export_dot(tmp_path / folder / "g.json", pair3_with(comp=comp))
    good = dot("good", pair3_comp())
    assert good[0] == 0 and good[2] == ""
    assert dot("late", [[4, 5, 0]] + pair3_comp()) == good
    assert dot("early", pair3_comp(extra=[[4, 5, 0], [4, 5, 5]])) == good


@pytest.mark.parametrize("value", [9, -1])
def test_a_product_outside_the_arrows_is_malformed(tmp_path, value):
    assert export_dot(tmp_path / "bad.json",
                      pair3_with(comp=pair3_comp((14, value)))) == \
        (2, "", 'error: invalid groupoid in PATH: "comp" must hold '
                '[a, b, ab] triples of arrow ids\n')


def test_undecodable_groupoid_file_exits_2(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe not text")
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["export-dot", str(binary)]) == 2


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_groupoid_json_exits_0_or_2(tmp_path_factory, data):
    doc = json.loads(PAIR3)
    kind = data.draw(st.sampled_from(
        ["unit", "arrow-field", "comp-entry", "comp-triple", "drop-comp",
         "inv-entry", "drop-key", "document"]), label="kind")
    value = json_values
    if kind == "unit":
        doc["units"][data.draw(st.integers(0, 2))] = data.draw(value)
    elif kind == "arrow-field":
        arrow = data.draw(st.sampled_from(doc["arrows"]), label="arrow")
        arrow[data.draw(st.sampled_from(sorted(arrow)))] = data.draw(value)
    elif kind == "comp-entry":
        triple = data.draw(st.sampled_from(doc["comp"]), label="triple")
        triple[data.draw(st.integers(0, 2))] = data.draw(value)
    elif kind == "comp-triple":
        doc["comp"][data.draw(st.integers(0, len(doc["comp"]) - 1))] = \
            data.draw(value)
    elif kind == "drop-comp":
        doc["comp"].pop(data.draw(st.integers(0, len(doc["comp"]) - 1)))
    elif kind == "inv-entry":
        pair = data.draw(st.sampled_from(doc["inv"]), label="pair")
        pair[data.draw(st.integers(0, 1))] = data.draw(value)
    elif kind == "drop-key":
        del doc[data.draw(st.sampled_from(sorted(doc)), label="key")]
    else:
        doc = data.draw(value, label="document")
    path = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    assert export_exit(path, json.dumps(doc)) in (0, 2)

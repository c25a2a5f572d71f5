"""Self-tests of the benchmark: tracer coverage, traced and sampled
outputs, time scaling, seeds.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib
import json
import pkgutil
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import germoid  # noqa: E402
from germoid import fixtures  # noqa: E402

import run  # noqa: E402
from measure import REFERENCE_PROBE_S, SpeedSampler, run_op  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import setup  # noqa: E402

for _mod in pkgutil.iter_modules(germoid.__path__):
    importlib.import_module(f"germoid.{_mod.name}")


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_install_leaves_no_unwrapped_original(tracer):
    assert tracer.unwrapped_references() == []
    from germoid import germs, groupoids, partial_actions
    wrapped = groupoids.validate_groupoid
    assert wrapped.__wrapped__ in tracer.originals
    assert germs.validate_groupoid is wrapped
    assert partial_actions.validate_groupoid is wrapped
    assert all(v in tracer.originals.values()
               for v in fixtures.PRESETS.values())


def test_uninstall_restores_every_original():
    from germoid import groupoids, semigroups
    before = (groupoids.validate_groupoid, semigroups.InvSemigroup.leq_matrix,
              groupoids.FiniteGroupoid.to_json, dict(fixtures.PRESETS))
    t = Tracer()
    t.install()
    t.uninstall()
    after = (groupoids.validate_groupoid, semigroups.InvSemigroup.leq_matrix,
             groupoids.FiniteGroupoid.to_json, dict(fixtures.PRESETS))
    assert after == before


def _digests(ops, tracer=None):
    out = []
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        r = run_op(germoid.cli.main, op)
        assert r["ok"], op["key"]
        out.append((r["digest"], r["invariant"], sorted(r["walls"])))
    return out


def test_traced_outputs_equal_untraced(tmp_path):
    ops = setup("verify_corpus", 5, tmp_path / "v", fixtures)
    ops += [{"argv": ["groupoid", op["argv"][-1], "--variant", variant,
                      "--out", str(tmp_path / f"{variant}.json")],
             "out": str(tmp_path / f"{variant}.json"), "key": variant}
            for op in ops if op["argv"][-1].endswith("b2.json")
            for variant in ("universal", "contracted", "tight")]
    untraced = _digests(ops)
    t = Tracer()
    t.install()
    try:
        traced = _digests(ops, t)
    finally:
        t.uninstall()
    assert [d[:2] for d in traced] == [d[:2] for d in untraced]
    assert len(t.start) > len(ops)
    suites = set().union(*(d[2] for d in untraced))
    assert suites == {"main1", "main1reduced", "reduction", "equiv",
                      "envelope", "ks"}


def test_chain8_counts_match_the_seed_profile(tmp_path, tracer):
    S = fixtures.direct_product(fixtures.chain(8), fixtures.cyclic_group(16))
    path = tmp_path / "CHAIN8xZ16.json"
    path.write_text(S.to_json())
    tracer.op_id = 0
    assert germoid.cli.main(["verify", "--suite", "all", str(path)]) == 0
    _, calls = tracer.summary()
    assert calls["groupoids.validate_groupoid"] == 12
    assert calls["germs.universal_groupoid"] == 5
    # four builds of the fixture's own groupoid and one of its group image
    # Z16 (the KS target): two distinct builds in five calls
    assert len(tracer.universal_builds) == 2


def test_corpus_follows_the_seed(tmp_path):
    def corpus(seed, name):
        ops = setup("verify_corpus", seed, tmp_path / name, fixtures)
        return sorted(op["key"] for op in ops)

    assert corpus(3, "a") == corpus(3, "b")
    assert corpus(3, "a") != corpus(4, "c")
    assert len(corpus(3, "a")) == len(fixtures.PRESETS) + 32


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(s) for s in run.per_layer_specs()]


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90, 10)
    assert run.tail(list(range(5))) == (4, 100, 0)


def test_sampler_scales_by_the_mean_inverse_probe_time(monkeypatch):
    s = SpeedSampler()
    s.samples = [2 * REFERENCE_PROBE_S]
    monkeypatch.setattr(s, "probe",
                        lambda: s.samples.append(4 * REFERENCE_PROBE_S))
    with s.timed() as t:
        sum(range(10000))
    assert t["own"] > 0
    assert t["scaled"] == pytest.approx(t["own"] * (1 / 2 + 1 / 4) / 2)


def test_sampler_leaves_outputs_unchanged(tmp_path):
    ops = setup("verify_corpus", 2, tmp_path / "v", fixtures)[:8]
    plain = [run_op(germoid.cli.main, op)["digest"] for op in ops]
    s = SpeedSampler()
    s.start()
    try:
        sampled = [run_op(germoid.cli.main, op, s) for op in ops]
    finally:
        s.stop()
    assert [r["digest"] for r in sampled] == plain
    assert all(0 < r["latency"] and 0 < r["scaled"] for r in sampled)
    assert len(s.samples) > len(ops)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL

"""The germoid benchmark: one workload per run, measured end to end or traced.

    python3 perfbench/run.py --workload build_ladder --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; it reads ``src/germoid`` next to
this directory and writes only under ``.bench_work/`` at the checkout root.

Set-up writes the workload's fixture files; ``setup_s`` is the median of
repeated set-ups.  A fresh process (``measure.py``) then issues the
workload's ops back to back for about ``--seconds`` and checks each op's
output (see ``judge``).  End-to-end times are scaled to the reference host
by ``measure.SpeedSampler``, which samples the shared host's speed while
they are measured.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of ``tracing.Tracer``.
A table of every metric precedes the result, which is the last line of
standard output.  See README.md for the metrics and workloads.
"""

import os

# Before anything imports numpy: one BLAS thread, so the SVD behind
# center_dimension cannot borrow the second core and skew wall time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up runs at least SETUP_MIN times and for at least SETUP_MIN_S, both
# before and again after the measurement, so a slow stretch of the host at
# one end moves the median less.
SETUP_MIN = 3
SETUP_MIN_S = 1.0
RUN_LIMIT_S = 170

SELF_S = (
    "semigroups.semigroup_from_json", "semigroups.validate_semigroup",
    "semigroups.max_group_image", "semigroups.leq_matrix",
    "spectra.enumerate_filters", "spectra.tight_spectrum",
    "spectra.check_ks_condition",
    "germs.germ_groupoid", "germs.validate_saction", "germs.beta_action",
    "germs.tight_groupoid", "germs.gspace_from_saction",
    "germs.saction_from_gspace", "germs.verify_equiv_roundtrip",
    "groupoids.validate_groupoid", "groupoids.groupoid_functor",
    "groupoids.verify_isomorphism", "groupoids.functor_report",
    "groupoids.semidirect_product", "groupoids.validate_space_action",
    "groupoids.enveloping_action_of_functor", "groupoids.reduction",
    "partial_actions.theta_from_sigma", "partial_actions.partial_trans_groupoid",
    "partial_actions.enveloping_group_action", "partial_actions.verify_main1",
    "partial_actions.ks_pipeline",
    "matrixrep.left_regular_rep", "matrixrep.covariant_rep",
    "matrixrep.check_intertwining", "matrixrep.check_rep_conditions",
    "matrixrep.convolution_algebra", "matrixrep.center_dimension",
    "cli.to_json",
)
LAYERS = ("semigroups", "spectra", "germs", "groupoids", "partial_actions",
          "matrixrep", "verify", "cli")
CALLS = ("semigroups.validate_semigroup", "spectra.enumerate_filters",
         "germs.germ_groupoid", "germs.validate_saction",
         "germs.universal_groupoid", "groupoids.validate_groupoid")
COUNTS = ("germs.germ_groupoid.arrows",
          "groupoids.validate_groupoid.pairs_scanned",
          "groupoids.validate_groupoid.composable_pairs",
          "matrixrep.check_intertwining.madds",
          "matrixrep.center_dimension.svd_cells")
CHECKS = ("main1", "main1reduced", "equiv", "envelope", "ks", "reduction")


def per_layer_specs() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = [("trace_overhead_s", "s", "lower")]
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [(f"{name}.self_s", "s", "lower") for name in SELF_S]
    specs += [(f"{name}.calls", "count", "lower") for name in CALLS]
    specs += [(name, "count", "lower") for name in COUNTS]
    specs.append(("germs.universal_groupoid.distinct_ratio", "ratio", "higher"))
    specs += [(f"verify.check.{c}.wall_s", "s", "lower") for c in CHECKS]
    return specs


def tail(latencies):
    """(value, percentile, samples beyond): the highest whole percentile, by
    nearest rank, with at least ten samples beyond it.  Below twenty samples
    no percentile from the median up has ten beyond, so the maximum is given."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100, 0
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return xs[rank - 1], p, n - rank


def judge(runs, ops, refs):
    """(failed, referenced) over every op run; ``runs[i]`` are op i's runs.

    A run fails on a bad exit or report; on a digest that differs from the
    recorded one or, lacking one, from the first run of that op; or on
    relabelling-invariant results that differ from those recorded for the
    fixture's structure."""
    failed = referenced = 0
    first = {}
    for op_runs, op in zip(runs, ops):
        for r in op_runs:
            expected = refs["digests"].get(op["key"]) or \
                first.setdefault(op["key"], r["digest"])
            referenced += op["key"] in refs["digests"]
            invariant = refs["invariants"].get(op["base"], r["invariant"])
            if not r["ok"] or r["digest"] != expected or \
                    r["invariant"] != invariant:
                failed += 1
                print(f"FAILED {op['key']}: rc={r['rc']} ok={r['ok']} "
                      f"digest={r['digest'][:16]} expected={expected[:16]} "
                      f"invariant={r['invariant'][:16]} "
                      f"expected={invariant[:16]}", file=sys.stderr)
    return failed, referenced


def run_setup(workload, seed, work):
    """The ops, and the set-up times scaled to the reference host, of
    repeated set-ups into ``work``."""
    from germoid import fixtures
    from measure import SpeedSampler
    from workloads import setup
    times = []
    sampler = SpeedSampler()
    sampler.start()
    try:
        while len(times) < SETUP_MIN or sum(times) < SETUP_MIN_S:
            with sampler.timed() as t:
                ops = setup(workload, seed, work, fixtures)
            times.append(t["scaled"])
    finally:
        sampler.stop()
    return ops, times


def op_times(runs):
    """Each op's median time over its runs, scaled to the reference host."""
    return [statistics.median(r["scaled"] for r in op_runs) for op_runs in runs]


def end_to_end(result, setup_times):
    runs = result["untraced"]
    times = op_times(runs)
    value, p, beyond = tail(times)
    measured = sum(statistics.median(r["latency"] for r in op_runs)
                   for op_runs in runs)
    return {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "wall_s": (sum(times), "s", f"one pass, each op at its median of "
                   f"{min(map(len, runs))} to {max(map(len, runs))} runs; "
                   f"{measured:.4g} s as measured; {result['probes']} probes, "
                   f"median {result['probe_median_s'] * 1e3:.3g} ms"),
        "op_p50_s": (statistics.median(times), "s", f"n={len(times)} ops"),
        "op_tail_s": (value, "s",
                      f"p{p}, n={len(times)} ops, {beyond} beyond"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "measuring process"),
    }


def per_layer(result):
    """Per-layer metrics of the one traced pass.  Span times are as
    measured; ``trace_overhead_s`` compares the two passes scaled to the
    reference host by the probes taken between ops."""
    trace = result["trace"]
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    values = {"trace_overhead_s": sum(op_times(result["traced"]))
              - sum(op_times(result["untraced"]))}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + "."))
    for name in SELF_S:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in CALLS:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    ucalls = calls.get("germs.universal_groupoid", 0)
    values["germs.universal_groupoid.distinct_ratio"] = \
        trace["universal_distinct"] / ucalls if ucalls else 0.0
    for check in CHECKS:
        values[f"verify.check.{check}.wall_s"] = sum(
            r["walls"].get(check, 0.0) for op_runs in result["traced"]
            for r in op_runs)
    notes = f"one traced pass, {trace['spans']} spans"
    return {name: (values[name], unit, notes)
            for name, unit, _ in per_layer_specs()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "germoid" / "cli.py").is_file():
        print(f"error: no germoid source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import DEFAULT_SEED, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    started = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{seed}-{args.trace}"
    ops, setup_times = run_setup(args.workload, seed, work / "files")

    plan, out = work / "plan.json", work / "result.json"
    plan.write_text(json.dumps({
        "src": str(SRC), "ops": ops, "seconds": args.seconds,
        "trace": args.trace, "spans": str(work / "spans.tsv")}))
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(plan), str(out)],
            timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: measuring process timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.is_file():
        print(f"error: measuring process exited {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(out.read_text())

    refs = json.loads((HERE / "references.json").read_text())
    runs = [u + t for u, t in zip(result["untraced"],
                                  result.get("traced", [[] for _ in ops]))]
    failed, referenced = judge(runs, ops, refs)
    attempted = sum(map(len, runs))
    correct = failed == 0
    if args.trace and result["unwrapped"]:
        print(f"error: unwrapped after install: {result['unwrapped']}",
              file=sys.stderr)
        correct = False

    if args.trace:
        metrics = per_layer(result)
    else:
        setup_times += run_setup(args.workload, seed, work / "files-after")[1]
        metrics = end_to_end(result, setup_times)
    metrics["failed_ops"] = (failed / attempted, "ratio",
                             f"{failed}/{attempted}, {referenced} checked "
                             f"against recorded references")
    print(f"workload {args.workload}, seed {seed}, {len(ops)} ops per pass, "
          f"trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:6s} {note}")
    del metrics["failed_ops"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

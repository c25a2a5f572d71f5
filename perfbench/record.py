"""Record the benchmark's reference data from the current source tree.

    python3 perfbench/record.py references   # writes perfbench/references.json
    python3 perfbench/record.py baseline     # writes perfbench/baseline.json

``references`` runs every op once and stores the SHA-256 of its
deterministic output, keyed by command, fixture stem and input digest, for
the fixed fixtures and for the relabelled corpus of every seed in
``RECORDED_SEEDS``.  For each corpus structure it also stores the digest of
the results a relabelling cannot change, and stops if two seeds disagree on
it; those are checked on every seed.  Run it on a commit whose outputs are
known good.

``baseline`` runs ``run.py`` untraced on every workload for each seed in
``BASELINE_SEEDS`` and stores each end-to-end metric's values, median,
quartiles and spread (interquartile range over median); then it runs each
workload traced once, at the default seed, and stores the per-layer metrics
and the exact per-pass counts.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED_SEEDS = range(8)
BASELINE_SECONDS = 30
BASELINE_SEEDS = range(1, 11)


def record_references():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from germoid import fixtures
    from germoid.cli import main
    from measure import run_op
    from workloads import DEFAULT_SEED, WORKLOADS, setup

    digests, invariants = {}, {}
    work = ROOT / ".bench_work" / "record"
    jobs = [(w, DEFAULT_SEED) for w in WORKLOADS]
    jobs += [("verify_corpus", s) for s in RECORDED_SEEDS if s != DEFAULT_SEED]
    for workload, seed in jobs:
        for op in setup(workload, seed, work, fixtures):
            r = run_op(main, op)
            if not r["ok"]:
                raise SystemExit(f"{op['key']} failed: rc={r['rc']}")
            digests[op["key"]] = r["digest"]
            if op["base"] is not None and \
                    invariants.setdefault(op["base"], r["invariant"]) != r["invariant"]:
                raise SystemExit(f"{op['base']}: results change under relabelling")
        print(f"{workload} seed {seed}: {len(digests)} digests", file=sys.stderr)
    (HERE / "references.json").write_text(json.dumps(
        {"digests": digests, "invariants": invariants}, indent=0, sort_keys=True)
        + "\n")


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BASELINE_SECONDS),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} is not correct")
    return {k: v["value"] for k, v in res["metrics"].items()}


def record_baseline():
    sys.path.insert(0, str(HERE))
    from run import CALLS, COUNTS
    from workloads import DEFAULT_SEED, WORKLOADS

    exact = [f"{c}.calls" for c in CALLS] + list(COUNTS) + \
        ["germs.universal_groupoid.distinct_ratio"]
    untraced = {w: [] for w in WORKLOADS}
    for seed in BASELINE_SEEDS:
        for workload in WORKLOADS:
            untraced[workload].append(_run(workload, seed, 0))
        print(f"seed {seed}: done", file=sys.stderr)
    out = {"seeds": list(BASELINE_SEEDS), "traced_seed": DEFAULT_SEED,
           "seconds": BASELINE_SECONDS, "python": platform.python_version(),
           "machine": platform.machine(), "cpus": os.cpu_count(),
           "workloads": {}}
    for workload in WORKLOADS:
        end_to_end = {}
        for name in untraced[workload][0]:
            values = [r[name] for r in untraced[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median, "values": values}
        per_layer = _run(workload, DEFAULT_SEED, 1)
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "exact_counts": {k: per_layer.pop(k) for k in exact},
            "per_layer": per_layer}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    {"references": record_references,
     "baseline": record_baseline}[sys.argv[1]]()

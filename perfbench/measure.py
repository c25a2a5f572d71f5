"""Measuring process of the benchmark: runs one workload's ops as a closed
loop (one client, one thread, each op issued when the previous one ends)
through in-process ``germoid.cli.main`` calls.

Started by ``run.py`` in a fresh process that runs nothing else, so its
peak resident memory is the workload's.  Usage::

    python3 measure.py PLAN.json RESULT.json

The plan names the source tree, the ops, the seconds to measure and whether
to trace.  An untraced run gives every op at least one run (see
``run_rounds``) and samples the host's speed throughout (``SpeedSampler``).
A traced run makes one untraced pass and then one traced pass, so the
result also gives the tracing overhead; it probes the host's speed only
between ops, so the timer signal never lands inside a traced span.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# A time scaled by ``SpeedSampler`` is the time the measured work would take
# on a host where ``speed_probe``, run between the program's own work, takes
# this many seconds.  On the 2-vCPU x86-64 VM the baselines were recorded
# on, the probe takes about that long in the VM's fast state; in its slow
# state, up to twice as long.
REFERENCE_PROBE_S = 0.0005
# Seconds between speed samples; a sample costs about two probes.
SAMPLE_INTERVAL_S = 0.02

_PROBE_A = np.arange(24 * 24, dtype=np.int64).reshape(24, 24) % 7
_PROBE_IDX = np.arange(0, 24, 2)


def speed_probe() -> int:
    """A fixed piece of work of the benchmark's own, about 0.5 ms: a Python
    dict loop, a small integer matrix product and a fancy-indexed sum, the
    kinds of work ``germoid`` does.  It calls nothing of ``germoid``, so a
    change to the program cannot change it."""
    d, acc = {}, 0
    for i in range(3000):
        k = (i * 7919) % 61
        d[k] = d.get(k, 0) + i
        acc += k & 3
    b = _PROBE_A @ _PROBE_A
    return acc + int(b[np.ix_(_PROBE_IDX, _PROBE_IDX)].sum())


class SpeedSampler:
    """Samples the host's speed while ops run, to scale their times to the
    reference host.

    The host is shared: each vCPU flips between a fast state and one about
    twice as slow, for stretches from a fraction of a second to minutes.  A
    timer signal every ``SAMPLE_INTERVAL_S`` runs ``speed_probe`` twice,
    untimed then timed (so the timed run has warm caches), and records the
    timed run's seconds.  ``timed`` then reports the seconds the handler took
    inside the interval, to be taken out of the interval's time, and the
    factor that scales the rest to the reference host: ``REFERENCE_PROBE_S``
    times the mean of the inverse of the probe times in the interval.  The
    samples are evenly spaced in time, so that mean follows the work the host
    did per second over the interval."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def probe(self) -> None:
        speed_probe()
        t0 = time.perf_counter()
        speed_probe()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        if self._busy:  # a late signal inside a probe: skip it
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.probe()
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self.probe()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def timed(self):
        """Time the block; yields a dict that gets ``own`` (its seconds
        without the handler's) and ``scaled`` (``own`` on the reference
        host).  The block is bracketed by the last sample before it and one
        taken right after it, so a block too short to be sampled is still
        scaled."""
        first, spent = len(self.samples) - 1, self.spent
        out = {}
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            elapsed = time.perf_counter() - t0
            out["own"] = elapsed - (self.spent - spent)
            self.probe()
            inverse = statistics.fmean(1 / p for p in self.samples[first:])
            out["scaled"] = out["own"] * REFERENCE_PROBE_S * inverse


def check_output(op, rc, stdout):
    """(ok, digest, invariant, wall seconds per suite) for one op.

    ``digest`` covers the deterministic output: the groupoid JSON file, or
    the verify report lines without ``wall_ms``.  ``invariant`` covers only
    what a relabelling of the fixture's elements cannot change: each verify
    report's check (without the ideal's element ids), verdict, skip reason
    and sizes."""
    if rc != 0:
        return False, "", "", {}
    if op["out"] is not None:
        data = Path(op["out"]).read_bytes()
        return bool(data), hashlib.sha256(data).hexdigest(), "", {}
    ok, lines, invariant, walls = True, [], [], {}
    for line in stdout.splitlines():
        rep = json.loads(line)
        if not rep["skipped"] and rep["pass"] is not True:
            ok = False
        suite = re.sub(r"\[.*", "", rep["check"])
        walls[suite] = walls.get(suite, 0.0) + rep.pop("wall_ms") / 1000
        lines.append(json.dumps(rep, sort_keys=True))
        check = re.sub(r"\[I=.*", "", rep["check"])
        invariant.append(json.dumps([check, rep["pass"], rep["skipped"],
                                     rep["reason"], rep["sizes"]],
                                    sort_keys=True))
    return ok and bool(lines), _sha("\n".join(lines)), \
        _sha("\n".join(sorted(invariant))), walls


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(main, op, sampler=None):
    """Run and check one op.  Garbage from earlier ops is collected first,
    outside the timing: each op then starts from a clean heap, as a fresh
    ``germoid`` process does, and its time does not depend on its position
    in the pass.  ``latency`` is the op's measured seconds; with a running
    ``sampler`` they leave out its handler, and ``scaled`` gives them on the
    reference host."""
    if op["out"] is not None:
        Path(op["out"]).unlink(missing_ok=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        timer = sampler.timed() if sampler else _plain_timer()
        with timer as t:
            try:
                rc = main(list(op["argv"]))
            except Exception as exc:  # a crash is a failed op, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
    ok, digest, invariant, walls = check_output(op, rc, out.getvalue())
    return {"latency": t["own"], "scaled": t.get("scaled"), "rc": rc,
            "ok": ok, "digest": digest, "invariant": invariant,
            "walls": walls}


@contextlib.contextmanager
def _plain_timer():
    out = {}
    t0 = time.perf_counter()
    try:
        yield out
    finally:
        out["own"] = time.perf_counter() - t0


def run_rounds(main, ops, seconds, min_runs, tracer=None, sampler=None):
    """Run the ops round-robin; return each op's runs, in op order.

    Every op runs at least ``min_runs`` times.  After that, until
    ``seconds`` have passed, an op runs again only while its runs so far,
    plus one more at their mean, fit in its equal share of ``seconds``:
    cheap ops gather many runs and costly ones the minimum.  The run lasts
    about ``seconds``, or as long as ``min_runs`` rounds if that is longer."""
    share = seconds / len(ops)
    runs = [[] for _ in ops]
    start = time.perf_counter()
    while True:
        spare = time.perf_counter() - start < seconds
        todo = [i for i, r in enumerate(runs) if len(r) < min_runs or (
            spare and sum(x["latency"] for x in r) * (len(r) + 1) / len(r)
            <= share)]
        if not todo:
            return runs
        for i in todo:
            if tracer is not None:
                tracer.op_id += 1
            runs[i].append(run_op(main, ops[i], sampler))


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import germoid.cli
    if not Path(germoid.cli.__file__).resolve().is_relative_to(
            Path(plan["src"]).resolve()):
        raise SystemExit(f"germoid imported from {germoid.cli.__file__}, "
                         f"not from {plan['src']}")
    seconds, ops = plan["seconds"], plan["ops"]
    result = {}
    if not plan["trace"]:
        sampler = SpeedSampler()
        sampler.start()
        try:
            result["untraced"] = run_rounds(germoid.cli.main, ops, seconds, 1,
                                            sampler=sampler)
        finally:
            sampler.stop()
        result["probes"] = len(sampler.samples)
        result["probe_median_s"] = statistics.median(sampler.samples)
    else:
        from tracing import Tracer
        # probes between the ops only: no timer signal inside traced spans
        sampler = SpeedSampler()
        sampler.probe()
        result["untraced"] = run_rounds(germoid.cli.main, ops, 0, 1,
                                        sampler=sampler)
        tracer = Tracer()
        tracer.install()
        try:
            result["unwrapped"] = tracer.unwrapped_references()
            result["traced"] = run_rounds(germoid.cli.main, ops, 0, 1, tracer,
                                          sampler)
        finally:
            tracer.uninstall()
        self_s, calls = tracer.summary()
        result["trace"] = {
            "self_s": self_s, "calls": calls, "counts": dict(tracer.counts),
            "universal_distinct": len(tracer.universal_builds),
            "spans": len(tracer.start)}
        tracer.write_spans(plan["spans"])
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])

"""Named verification suites over semigroup fixtures, with machine-readable
reports.  These drive both the command line ``verify`` command and the
acceptance tests; a fixture that does not meet a suite's precondition is
reported as skipped, never silently dropped.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .germs import (
    beta_action,
    tight_groupoid,
    universal_groupoid,
    verify_equiv_roundtrip,
    verify_reduction_iso,
)
from .matrixrep import (
    center_dimension,
    convolution_algebra,
    verify_intertwining,
)
from .partial_actions import (
    enveloping_group_action,
    ks_pipeline,
    partial_trans_groupoid,
    theta_from_sigma,
    verify_main1,
)
from .semigroups import (
    InvSemigroup,
    enumerate_proper_ideals,
    hom_from_sigma,
    is_e_unitary,
    is_locally_idempotent_pure,
    is_zero_e_unitary,
    max_group_image,
)
from .spectra import enumerate_filters, tight_spectrum

SUITES = ("main1", "main1reduced", "reduction", "equiv", "envelope", "ks")


@dataclass
class VerifyReport:
    check: str
    fixture: str
    passed: bool
    skipped: bool = False
    reason: str = ""
    sizes: dict = field(default_factory=dict)
    certificate_digest: str = ""
    witness: str = ""
    wall_time: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "check": self.check,
            "fixture": self.fixture,
            "pass": self.passed,
            "skipped": self.skipped,
            "reason": self.reason,
            "sizes": self.sizes,
            "certificate": self.certificate_digest,
            "witness": self.witness,
            "wall_ms": round(self.wall_time * 1000, 3),
        }, sort_keys=True)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# printable ASCII but the quote and the backslash: repr() of a str made of
# these alone is that str between single quotes
_PLAIN = bytes(sorted(set(range(32, 127)) - set(b"'\\")))


def _digest_chunks(chunks):
    """``_digest`` of the text of ``chunks``, ASCII byte blocks, hashed
    block by block, so no block is kept; None if a block holds a byte
    outside ``_PLAIN``."""
    h = hashlib.sha256(b"'")
    for chunk in chunks:
        if chunk.translate(None, _PLAIN):
            return None
        h.update(chunk)
    h.update(b"'")
    return h.hexdigest()[:16]


def _timed(check, fixture, fn):
    """The report of one check: its verdict, or a skip when it builds a
    groupoid over the size limit or runs out of memory."""
    t0 = time.perf_counter()
    try:
        passed, sizes, witness, cert = fn()
    except errors.SizeLimitExceeded as exc:
        return _skip(check, fixture,
                     f"{check} needs {exc.size} arrows, over the limit "
                     f"{exc.limit}; set GERMOID_SIZE_LIMIT")
    except MemoryError as exc:
        return _skip(check, fixture, f"out of memory: {exc}")
    except errors.GermoidError as exc:
        return VerifyReport(check, fixture, False,
                            witness=f"{type(exc).__name__}: {exc}",
                            wall_time=time.perf_counter() - t0)
    return VerifyReport(check, fixture, passed, sizes=sizes,
                        witness=witness, certificate_digest=cert,
                        wall_time=time.perf_counter() - t0)


def _skip(check, fixture, reason):
    return VerifyReport(check, fixture, True, skipped=True, reason=reason)


def suite_main1(S: InvSemigroup) -> list:
    if not is_e_unitary(S):
        return [_skip("main1", S.name, "fixture is not E-unitary")]

    def run():
        ok, Phi, Psi = verify_main1(S)
        sizes = {"units": Phi.source.n_units,
                 "arrows_source": Phi.source.n_arrows,
                 "arrows_target": Phi.target.n_arrows}
        witness = "" if ok else "functors are not mutually inverse"
        return ok and Phi.source.n_arrows == Phi.target.n_arrows, \
            sizes, witness, _digest(Phi.arrow_map)

    return [_timed("main1", S.name, run)]


def suite_main1reduced(S: InvSemigroup) -> list:
    if not is_e_unitary(S):
        return [_skip("main1reduced", S.name, "fixture is not E-unitary")]

    def run():
        ok = verify_intertwining(S)
        return ok, {"dim": len(S)}, "" if ok else "intertwining identity failed", ""

    return [_timed("main1reduced", S.name, run)]


def suite_reduction(S: InvSemigroup, ideal_limit=12) -> list:
    if len(S) > ideal_limit:
        return [_skip("reduction", S.name,
                      f"|S| > {ideal_limit}: exhaustive ideal scan skipped")]
    ideals = enumerate_proper_ideals(S)
    if not ideals:
        return [_skip("reduction", S.name, "no proper ideals")]
    out = []
    for I in ideals:
        def run(I=I):
            ok, functor = verify_reduction_iso(S, I)
            return ok, {"ideal": len(I),
                        "arrows": functor.source.n_arrows}, \
                "" if ok else f"ideal {I}", _digest(functor.arrow_map)

        out.append(_timed(f"reduction[I={','.join(map(str, I))}]", S.name, run))
    return out


def suite_equiv(S: InvSemigroup) -> list:
    out = []
    variants = [("plain", False)]
    if S.zero is not None:
        variants.append(("contracted", True))
    for tag, flag in variants:
        def run(flag=flag):
            action = beta_action(S, contracted=flag)
            ok, functor = verify_equiv_roundtrip(action)
            sizes = {"points": action.n_points,
                     "arrows": functor.source.n_arrows if functor else 0}
            return ok, sizes, "" if ok else "roundtrip failed", ""

        out.append(_timed(f"equiv[{tag}]", S.name, run))
    return out


def suite_envelope(S: InvSemigroup) -> list:
    """The inclusion G x X -> G x X~ of theta's globalization is a weak
    equivalence.  A defect in ``groupoids.action_groupoid``'s product rule
    meets both sides of it, so this check cannot see one.  The source is
    the G x X memoized on theta, main1's, so ``main1``, ``equiv`` and ``ks``
    cover that rule; ``tests/test_born_groupoids.py`` pins that they do."""
    if not is_e_unitary(S):
        return [_skip("envelope", S.name, "fixture is not E-unitary")]

    def run():
        theta = theta_from_sigma(S)
        env = enveloping_group_action(theta)
        ok = env.report["weak_equivalence"]
        glob = env.global_action
        # every global orbit meets the embedded points
        embedded = np.zeros(glob.n_points + 1, dtype=bool)   # [-1] is False
        embedded[list(env.embedding)] = True
        orbit_hits = bool(embedded[glob.maps].any(axis=0).all())
        sizes = {"points": theta.n_points, "global_points": glob.n_points}
        return ok and glob.is_global() and orbit_hits, sizes, \
            "" if ok else "inclusion is not a weak equivalence", \
            _digest(env.classes)

    return [_timed("envelope", S.name, run)]


def suite_ks(S: InvSemigroup) -> list:
    sigma = max_group_image(S)
    phi = hom_from_sigma(sigma)
    if not is_locally_idempotent_pure(phi):
        return [_skip("ks", S.name,
                      "maximal group homomorphism is not locally idempotent pure")]

    def run():
        res = ks_pipeline(phi)
        ok = res.ok
        csrc = center_dimension(convolution_algebra(res.source))
        ctgt = center_dimension(convolution_algebra(res.target))
        sizes = dict(res.sizes)
        sizes.update({"center_source": csrc, "center_target": ctgt})
        sizes.update({k: bool(v) for k, v in res.report.items()})
        return ok and csrc == ctgt, sizes, \
            "" if ok else "alpha is not a weak equivalence", \
            _digest_chunks(res.json_chunks()) or _digest(res.to_json())

    return [_timed("ks", S.name, run)]


def run_suite(suite: str, fixtures) -> list:
    table = {
        "main1": suite_main1,
        "main1reduced": suite_main1reduced,
        "reduction": suite_reduction,
        "equiv": suite_equiv,
        "envelope": suite_envelope,
        "ks": suite_ks,
    }
    if suite == "all":
        names = list(SUITES)
    elif suite in table:
        names = [suite]
    else:
        raise errors.InvalidParams(f"unknown suite {suite!r}")
    reports = []
    for S in fixtures:
        for name in names:
            reports.extend(table[name](S))
    reports.sort(key=lambda r: (r.fixture, r.check))
    return reports


def analyze(S: InvSemigroup) -> dict:
    """The summary facts behind the ``analyze`` command."""
    sigma = max_group_image(S)
    plain = enumerate_filters(S, contracted=False)
    out = {
        "name": S.name,
        "elements": len(S),
        "idempotents": len(S.idempotents),
        "zero": S.zero,
        "e_unitary": is_e_unitary(S),
        "zero_e_unitary": is_zero_e_unitary(S) if S.zero is not None else None,
        "group_order": len(sigma.group),
        "filters": {"plain": len(plain), "contracted": None, "tight": None},
    }
    if S.zero is not None:
        contracted = enumerate_filters(S, contracted=True)
        out["filters"]["contracted"] = len(contracted)
        out["filters"]["tight"] = len(tight_spectrum(contracted))
    return out


def groupoid_variant(S: InvSemigroup, variant: str):
    """Build one of the four named groupoids of a fixture."""
    if variant == "universal":
        return universal_groupoid(S, contracted=False)
    if variant == "contracted":
        if S.zero is None:
            raise errors.VariantUnavailable("contracted needs a zero")
        return universal_groupoid(S, contracted=True)
    if variant == "tight":
        if S.zero is None:
            raise errors.VariantUnavailable("tight needs a zero")
        return tight_groupoid(S)
    if variant == "partial":
        if not is_e_unitary(S):
            raise errors.VariantUnavailable("partial needs an E-unitary fixture")
        return partial_trans_groupoid(theta_from_sigma(S), name=f"G({S.name})|part")
    raise errors.InvalidParams(f"unknown variant {variant!r}")

"""Span tracer that instruments germoid from outside the package.

``Tracer.install`` replaces every binding of a germoid function in every
``germoid.*`` module namespace (and in module-level dicts such as
``fixtures.PRESETS``), plus the class attributes listed in ``CLASS_METHODS``,
with a wrapper that records one span per call: name, start, end, parent span
and op id.  Spans live in flat arrays in memory and are written out once, by
``write_spans``, when the run ends.  ``uninstall`` puts every original back.

A span is named ``<layer>.<function>``, where the layer is the germoid module
that defines the function.  A layer's self time is the time of its spans
minus the time of their directly nested (wrapped) child spans.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import types
from array import array
from collections import defaultdict

# Class attributes wrapped besides the module-level functions:
# (module, class, attribute, span name).  ``FiniteGroupoid.to_json`` is the
# groupoid emit step of ``germoid groupoid``, so it is counted under ``cli``.
CLASS_METHODS = (
    ("germoid.semigroups", "InvSemigroup", "leq_matrix", "semigroups.leq_matrix"),
    ("germoid.groupoids", "FiniteGroupoid", "to_json", "cli.to_json"),
)


def germoid_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "germoid" or name.startswith("germoid.")]


def is_germoid_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) and \
        (obj.__module__ or "").startswith("germoid")


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


# -- computed counts: derived from a call's arguments or result ----------------

def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _count_germ_arrows(tracer, args, kwargs, result):
    tracer.counts["germs.germ_groupoid.arrows"] += result.n_arrows


def _count_universal(tracer, args, kwargs, result):
    S = _arg(args, kwargs, 0, "S")
    contracted = bool(_arg(args, kwargs, 1, "contracted", False))
    content = hashlib.sha256(S.table.tobytes()).hexdigest()
    tracer.universal_builds.add(
        (tracer.op_id, S.table.shape, content, S.zero, contracted))


def _count_validate_groupoid(tracer, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    tracer.counts["groupoids.validate_groupoid.pairs_scanned"] += g.n_arrows ** 2
    tracer.counts["groupoids.validate_groupoid.composable_pairs"] += len(g.comp)


def _count_intertwining(tracer, args, kwargs, result):
    # U.T @ U is n*m*n; each s adds U @ L_s (m*n*n) and A_s @ U (m*m*n).
    # An early False return skips some products, so this is then an upper bound.
    U = _arg(args, kwargs, 0, "U")
    lambdas = _arg(args, kwargs, 1, "lambdas")
    m, n = U.shape
    tracer.counts["matrixrep.check_intertwining.madds"] += \
        n * m * n + len(lambdas) * (m * n * n + m * m * n)


def _count_center(tracer, args, kwargs, result):
    # the commutant system stacks dim blocks of dim x dim: dim**3 cells
    dim = _arg(args, kwargs, 0, "alg").dim
    tracer.counts["matrixrep.center_dimension.svd_cells"] += dim ** 3


COUNTERS = {
    "germs.germ_groupoid": _count_germ_arrows,
    "germs.universal_groupoid": _count_universal,
    "groupoids.validate_groupoid": _count_validate_groupoid,
    "matrixrep.check_intertwining": _count_intertwining,
    "matrixrep.center_dimension": _count_center,
}


class Tracer:
    """Records spans of wrapped germoid calls; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self.universal_builds = set()
        self.originals = {}     # original function -> wrapper
        self._patches = []      # (setter, owner, key, original)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        names, parents, ops = self.span_name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def _wrapper_for(self, fn):
        if fn not in self.originals:
            self.originals[fn] = self.wrap(fn, span_name(fn))
        return self.originals[fn]

    def install(self) -> None:
        for mod in germoid_modules():
            for attr, obj in list(vars(mod).items()):
                if is_germoid_function(obj):
                    self._patches.append((setattr, mod, attr, obj))
                    setattr(mod, attr, self._wrapper_for(obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if is_germoid_function(value):
                            self._patches.append(
                                (dict.__setitem__, obj, key, value))
                            obj[key] = self._wrapper_for(value)
        for modname, clsname, attr, name in CLASS_METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = vars(cls)[attr]
            self._patches.append((setattr, cls, attr, orig))
            self.originals[orig] = self.wrap(orig, name)
            setattr(cls, attr, self.originals[orig])

    def uninstall(self) -> None:
        while self._patches:
            setter, owner, key, orig = self._patches.pop()
            setter(owner, key, orig)

    def _is_original(self, obj) -> bool:
        return isinstance(obj, types.FunctionType) and obj in self.originals

    def unwrapped_references(self) -> list:
        """Where a germoid module, module-level dict or class still holds an
        original that ``install`` wrapped; empty after a complete install."""
        left = []
        for mod in germoid_modules():
            for attr, obj in vars(mod).items():
                if self._is_original(obj):
                    left.append(f"{mod.__name__}.{attr}")
                elif isinstance(obj, dict):
                    left += [f"{mod.__name__}.{attr}[{k!r}]"
                             for k, v in obj.items() if self._is_original(v)]
                elif isinstance(obj, type) and \
                        (obj.__module__ or "").startswith("germoid"):
                    left += [f"{mod.__name__}.{attr}.{cattr}"
                             for cattr, cobj in vars(obj).items()
                             if self._is_original(getattr(cobj, "__func__", cobj))]
        return left

    def summary(self) -> tuple:
        """Per span name: (self seconds, calls)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n")

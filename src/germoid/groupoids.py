"""Finite groupoids, functors between them, reductions, semidirect products
with space actions, and the enveloping action of a faithful functor.

All topological qualifiers of the source material (open, closed, embedding)
are interpreted set-theoretically: finite spaces are discrete, so every map
is continuous, open and closed.  What remains testable is the combinatorics,
and that is checked exhaustively.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

import numpy as np

from . import errors
from .semigroups import CHUNK, check_size, holds_bool, json_rows


class FiniteGroupoid:
    """Arrows over a finite unit set with partial composition and inversion.

    Composition ``compose(a, b)`` is defined iff ``dom(a) == ran(b)`` and
    then ``dom(ab) = dom(b)``, ``ran(ab) = ran(a)``.  It is stored as the
    table ``comp_table``, made on first use from a mapping {(a, b): ab} or
    a builder's rule (a, b) -> ab on the :attr:`composable_pairs`.
    """

    germ_reps = None        # per arrow its germ (s, x), in groupoids of germs
    generators = None       # Light's middle arrows, once validate_groupoid passes

    def __init__(self, unit_labels, dom, ran, comp, inv, identity,
                 arrow_labels=None, name="G"):
        self.unit_labels = tuple(unit_labels)
        self.dom = np.asarray(dom, dtype=np.int64)
        self.ran = np.asarray(ran, dtype=np.int64)
        self.inv = np.asarray(inv, dtype=np.int64)
        self.identity = np.asarray(identity, dtype=np.int64)
        self.arrow_labels = tuple(arrow_labels) if arrow_labels else tuple(
            f"a{i}" for i in range(len(self.dom)))
        self.name = name
        self.validated = False     # set once validate_groupoid passes
        if isinstance(comp, np.ndarray):
            self._comp_table, self._comp = np.asarray(comp, dtype=np.int32), None
            self._comp_table.setflags(write=False)
        else:
            self._comp_table = None
            self._comp = comp if callable(comp) else MappingProxyType(dict(comp))
        for arr in (self.dom, self.ran, self.inv, self.identity):
            arr.setflags(write=False)

    @property
    def n_units(self):
        return len(self.unit_labels)

    @property
    def n_arrows(self):
        return len(self.dom)

    def __repr__(self):
        return (f"FiniteGroupoid({self.name}, units={self.n_units}, "
                f"arrows={self.n_arrows})")

    def compose(self, a: int, b: int):
        """ab if dom(a) = ran(b), else None."""
        return self.comp.get((a, b))

    @functools.cached_property
    def composable_pairs(self) -> tuple:
        """The pairs (a, b), dom a = ran b, in lexicographic order, read off
        ``by_ran``, the kept :func:`end_index` of ``ran``; endpoints in range."""
        self.by_ran = end_index(self.ran, self.n_units)
        counts, b = arrows_at(self.dom, self.by_ran)
        a = np.repeat(np.arange(self.n_arrows), counts)
        for arr in (a, b, *self.by_ran):        # a twin shares them
            arr.setflags(write=False)
        return a, b

    @functools.cached_property
    def pair_products(self) -> np.ndarray:
        """ab at each of the :attr:`composable_pairs` (a, b), or -1."""
        a, b = self.composable_pairs
        return self.comp_table[a, b]

    @functools.cached_property
    def defined_pairs(self) -> tuple:
        """The pairs (a, b) where the table is defined, in lexicographic order."""
        return np.nonzero(self.comp_table >= 0)

    @property
    def comp(self):
        """The composition as a read-only dict {(a, b): ab}."""
        if not isinstance(self._comp, MappingProxyType):
            a, b = self.defined_pairs
            self._comp = MappingProxyType(dict(zip(
                zip(a.tolist(), b.tolist()), self._comp_table[a, b].tolist())))
        return self._comp

    @property
    def comp_table(self) -> np.ndarray:
        """The dense composition table: ab at [a, b], or -1 where undefined.

        Made on first use from a product rule, or from a ``comp`` mapping,
        which raises DomainMismatch, at its first entry in its own order, if
        a key or value is not an arrow id.
        """
        if self._comp_table is None:
            n = self.n_arrows
            table = np.full((n, n), -1, dtype=np.int32)
            if callable(self._comp):                    # a product rule
                a, b = self.composable_pairs
                self.pair_products, self._comp = self._comp(a, b), None
                table[a, b] = self.pair_products
            elif self._comp:
                keys = np.array(list(self._comp), dtype=np.int64)
                values = np.array(list(self._comp.values()), dtype=np.int64)
                outside = ((keys < 0) | (keys >= n)).any(axis=1) | \
                    (values < 0) | (values >= n)
                if outside.any():
                    raise _outside(*keys[_first(outside)])
                table[keys[:, 0], keys[:, 1]] = values
            table.setflags(write=False)
            self._comp_table = table
        return self._comp_table

    def isotropy_orders(self):
        """Multiset (sorted tuple) of isotropy group orders, one per unit."""
        loops = self.dom[self.dom == self.ran]
        return tuple(sorted(np.bincount(loops, minlength=self.n_units).tolist()))

    def to_json(self) -> str:
        """``json.dumps`` with sorted keys of the units, the arrows
        ``{"dom", "germ", "id", "label", "ran"}``, the ``[a, b, ab]``
        triples of the composable pairs in order and the ``[a, inverse]``
        pairs, each array written by :func:`~germoid.semigroups.json_rows`.
        Only groupoids of germs have the key ``"germ"``, ``[s, x]``."""
        n, ids = self.n_arrows, np.arange(self.n_arrows)
        if self.germ_reps is None:
            joints = ['{"dom": ', ', "id": ', ', "label": ', ', "ran": ', "}"]
            arrows = (self.dom, ids, ids, self.ran)
        else:
            joints = ['{"dom": ', ', "germ": [', ", ", '], "id": ',
                      ', "label": ', ', "ran": ', "}"]
            s, x = np.array(self.germ_reps, dtype=np.int64).reshape(n, 2).T
            arrows = (self.dom, s, x, ids, ids, self.ran)
        arrows = np.column_stack(arrows)
        numbers = int(arrows.max(initial=0)) + 1
        arrows[:, -2] += numbers            # label a is word numbers + a
        labels = [encode_basestring_ascii(v) if isinstance(v, str) else
                  json.dumps(v, sort_keys=True) for v in self.arrow_labels]
        a, b = self.defined_pairs
        comp = np.column_stack((a, b, self.comp_table[a, b]))
        units = json.dumps(list(self.unit_labels), sort_keys=True)
        return b"".join([
            b'{"arrows": ', *json_rows(joints, arrows, numbers, labels),
            b', "comp": ', *json_rows(["[", ", ", ", ", "]"], comp, n),
            b', "inv": ', *json_rows(["[", ", ", "]"],
                                     np.column_stack((ids, self.inv)), n),
            b', "units": ', units.encode(), b"}"]).decode()

    def to_dot(self) -> str:
        lines = [f'digraph "{self.name}" {{']
        for u, lab in enumerate(self.unit_labels):
            lines.append(f'  u{u} [label="{lab}", shape=circle];')
        for a in range(self.n_arrows):
            style = ', style=dotted' if self.dom[a] == self.ran[a] and \
                self.identity[self.dom[a]] == a else ''
            lines.append(
                f'  u{self.dom[a]} -> u{self.ran[a]} '
                f'[label="{self.arrow_labels[a]}"{style}];')
        lines.append("}")
        return "\n".join(lines)


def _first(mask) -> int:
    """Flat index of the first True entry of ``mask`` (row-major)."""
    return int(np.flatnonzero(mask.ravel())[0])


def _outside(a, b):
    return errors.DomainMismatch(
        f"composition of {a}, {b} names an arrow outside the groupoid")


def end_index(ends, n_units):
    """The arrows by one end, ``ran`` or ``dom``: their ids sorted stably by
    ``ends``, and per unit how many there are and where they start."""
    order = np.argsort(ends, kind="stable")
    count = np.bincount(ends, minlength=n_units)
    return order, count, np.cumsum(count) - count


def arrows_at(units, index):
    """The arrows whose end in the :func:`end_index` ``index`` is each of
    ``units``, in id order, flattened, and ``counts``: ``counts[i]`` of them
    have the end ``units[i]``.  Returns ``(counts, arrows)``."""
    order, count, start = index
    counts = count[units]
    shift = np.repeat(start[units] - np.cumsum(counts) + counts, counts)
    return counts, order[np.arange(len(shift)) + shift]


def generating_arrows(g: FiniteGroupoid, by_ran) -> np.ndarray:
    """A mask of arrows that generate g, together with its identities,
    under composition, given ``by_ran``, the :func:`end_index` of ``ran``.
    The least (dom, id) over the arrows into unit u gives its base, the
    least unit of u's component, and the least arrow from there to u: that
    arrow and its inverse are generators where u is not its own base.  At
    all bases at once, the least loop not yet reached joins, and the loops
    reached are closed under composition by repeated squaring.  Needs what
    ``validate_groupoid`` checks before associativity."""
    order, _, start = by_ran
    n, dom, ran = g.n_arrows, g.dom, g.ran
    base, tree = np.divmod(np.minimum.reduceat(dom[order] * n + order, start), n)
    tree = tree[base != np.arange(g.n_units)]
    gens = np.zeros(n, dtype=bool)
    gens[tree] = gens[g.inv[tree]] = True
    at_base = (dom == ran) & (base[dom] == dom)
    loops = np.flatnonzero(at_base)
    a, b = g.composable_pairs
    both = at_base[a] & at_base[b]                  # loops at one base
    a, b, ab = a[both], b[both], g.pair_products[both]
    reached = np.zeros(n, dtype=bool)
    reached[g.identity] = True
    while True:
        left = loops[~reached[loops]]
        if not left.size:
            return gens
        least = left[np.unique(dom[left], return_index=True)[1]]
        gens[least] = reached[least] = True
        size = 0
        while size != (size := np.count_nonzero(reached)):     # until stable
            reached[ab[reached[a] & reached[b]]] = True


def first_failing_pair(g: FiniteGroupoid, bad, width=1, generators=None):
    """The first (a, b, j) over the composable pairs (a, b) of g, in order,
    with ``bad(pa, pb)[i, j]`` true at (pa[i], pb[i]) = (a, b), or None;
    ``bad`` gives ``width`` entries a pair, or a flat mask for one, in
    blocks of ``CHUNK``.  Given a mask of ``generators``, the pairs whose b
    is one are scanned first, and all only if one fails."""
    def scan(a, b):
        for lo in range(0, len(a), step):
            pa, pb = a[lo:lo + step], b[lo:lo + step]
            mask = bad(pa, pb)
            if mask.any():
                i, j = divmod(_first(mask), width)
                return int(pa[i]), int(pb[i]), j
        return None
    (a, b), step = g.defined_pairs, max(1, CHUNK // max(width, 1))
    if generators is not None and scan(a[generators[b]], b[generators[b]]) is None:
        return None
    return scan(a, b)


def endpoint_law_holds(g: FiniteGroupoid) -> bool:
    """Whether ab is defined, with dom b and ran a, exactly on the
    composable pairs (a, b); needs the endpoints and entries in range."""
    (a, b), ab, dom, ran = g.composable_pairs, g.pair_products, g.dom, g.ran
    return np.count_nonzero(g.comp_table >= 0) == len(a) and \
        not ((ab < 0) | (dom[ab] != dom[b]) | (ran[ab] != ran[a])).any()


def scan_endpoint_law(g: FiniteGroupoid) -> None:
    """Raise ``DomainMismatch`` at the first pair (a, b) in row order where
    ab is defined but dom a != ran b or the reverse, or ab has the wrong
    endpoints; row blocks hold at most ``CHUNK`` pairs."""
    n, dom, ran, table = g.n_arrows, g.dom, g.ran, g.comp_table
    rows = max(1, CHUNK // max(n, 1))
    for lo in range(0, n, rows):
        t = table[lo:lo + rows]
        defined = t >= 0
        wrong = defined != (dom[lo:lo + rows, None] == ran[None, :])
        c = np.where(defined, t, 0)
        ends = defined & ((dom[c] != dom[None, :]) |
                          (ran[c] != ran[lo:lo + rows, None]))
        if wrong.any() or ends.any():
            a, b = divmod(_first(wrong | ends), n)
            raise errors.DomainMismatch(
                f"composition of {a + lo}, {b} defined on the wrong domain"
                if wrong[a, b] else f"composite {a + lo}{b} has the wrong endpoints")


def check_laws(g: FiniteGroupoid) -> None:
    """The ranges, then the endpoint, identity and inverse laws, as one
    conjunction of whole-array tests; only if it fails does the order of
    the plain loops name the first failure: an endpoint or entry out of
    range, :func:`scan_endpoint_law`, an identity, an inverse."""
    n, n_units, units = g.n_arrows, g.n_units, np.arange(g.n_units)
    dom, ran, inv, identity, ids = g.dom, g.ran, g.inv, g.identity, np.arange(n)
    if all(v.min(initial=0) >= 0 and v.max(initial=-1) < top for v, top in
           ((dom, n_units), (ran, n_units), (inv, n), (identity, n))):
        table, one, back = g.comp_table, identity[dom], identity[ran]
        if table.min(initial=-1) >= -1 and table.max(initial=-1) < n and \
                endpoint_law_holds(g) and \
                ((dom[identity] == units) & (ran[identity] == units)).all() and \
                ((table[ids, one] == ids) & (table[back, ids] == ids) &
                 (dom[inv] == ran) & (ran[inv] == dom) &
                 (table[inv, ids] == one) & (table[ids, inv] == back)).all():
            return
    for outside in ((dom < 0) | (dom >= n_units), (ran < 0) | (ran >= n_units)):
        if outside.any():
            raise errors.UnknownUnit(
                f"arrow {_first(outside)} has an endpoint outside the units")
    table = g.comp_table
    if n and (table.min() < -1 or table.max() >= n):
        raise _outside(*divmod(_first((table < -1) | (table >= n)), n))
    scan_endpoint_law(g)
    has_id = (identity >= 0) & (identity < n)
    ident = np.where(has_id, identity, 0)
    has_id &= (dom[ident] == units) & (ran[ident] == units)
    bad_unit = ~has_id
    right = has_id[dom] & (table[ids, ident[dom]] != ids)    # a 1_dom(a) != a
    left = has_id[ran] & (table[ident[ran], ids] != ids)     # 1_ran(a) a != a
    bad_unit[dom[right]] = bad_unit[ran[left]] = True
    if bad_unit.any():
        raise errors.MissingIdentity(_first(bad_unit))
    has_inv = (inv >= 0) & (inv < n)
    ai = np.where(has_inv, inv, 0)
    good = has_inv & (dom[ai] == ran) & (ran[ai] == dom) & \
        (table[ai, ids] == identity[dom]) & (table[ids, ai] == identity[ran])
    if not good.all():
        raise errors.MissingInverse(_first(~good))


# the scope of validated_once: validated groupoids by their arrays, or None
_twins = contextvars.ContextVar("validated_twins", default=None)


@contextlib.contextmanager
def validated_once():
    """A scope in which :func:`validate_groupoid` checks each distinct
    groupoid once; the outer scope, or none, is restored on exit."""
    token = _twins.set({})
    try:
        yield
    finally:
        _twins.reset(token)


def same_composition(g: FiniteGroupoid, twin: FiniteGroupoid) -> bool:
    """Whether g composes exactly as ``twin``, a validated groupoid with the
    same ``dom`` and ``ran``, so with the same composable pairs: its
    ``defined_pairs``, off which the twin's table is -1.  A product rule is
    compared there, without filling g's table."""
    if g._comp_table is None and callable(g._comp):
        a, b = twin.defined_pairs
        return np.array_equal(g._comp(a, b), twin.comp_table[a, b])
    return np.array_equal(g.comp_table, twin.comp_table)


def validate_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    """Exhaustive check of the groupoid axioms; raises on any failure.

    The laws before associativity are :func:`check_laws`; then the
    composable pairs are kept as ``defined_pairs``.  Associativity uses
    Light's test, as ``validate_semigroup`` does.  Let M be the arrows b
    with (ab)c = a(bc) for all composable a and c.  Once the endpoint law
    holds, M is closed under composition: for x, y in M, (a(xy))c =
    ((ax)y)c = (ax)(yc) = a(x(yc)) = a((xy)c).  The identity law puts every
    identity in M.  So the table is associative iff M holds the
    ``generating_arrows``, and only the triples whose middle arrow is one
    of them are checked.  They suffice: for a: u -> v and the tree arrows
    t_u, t_v from the base x, the loop h = t_v^-1 (a t_u) at x is in M,
    t_v h = a t_u as t_v^-1 is in M, and (t_v h) t_u^-1 = a as t_u is.
    Only if a triple fails are all scanned, by :func:`first_failing_pair`,
    for the first failing one.  On at most 25 arrows every arrow is a
    middle one: a crossover measured on the benchmark corpus.  A groupoid
    that passes keeps its middle arrows as the mask ``generators``.

    Inside a :func:`validated_once` scope, a twin of a groupoid validated
    there, equal in its units, ``dom``, ``ran``, ``inv`` and ``identity``
    and in :func:`same_composition`, passes with the twin's read-only
    table, pairs and generators; any other groupoid is checked in full,
    and enters the scope if it passes.
    """
    n, n_units = g.n_arrows, g.n_units
    check_size(n)
    if len(g.ran) != n or len(g.inv) != n or len(g.identity) != n_units:
        raise errors.InvalidParams(
            "need one ran and inv entry per arrow and one identity per unit")
    twins = _twins.get()
    if twins is not None:
        key = (n_units, g.dom.tobytes(), g.ran.tobytes(), g.inv.tobytes(),
               g.identity.tobytes())
        twin = twins.get(key)
        if twin is not None and same_composition(g, twin):
            g._comp_table, g.by_ran = twin.comp_table, twin.by_ran
            if callable(g._comp):
                g._comp = None                      # as once the table is filled
            g.composable_pairs = g.defined_pairs = twin.defined_pairs
            g.generators, g.validated = twin.generators, True
            return g
    check_laws(g)
    g.defined_pairs = g.composable_pairs
    # c runs over row dom b of into: the arrows into a unit, padded with -1
    order, count, start = g.by_ran
    into = np.full((n_units, int(count.max(initial=0))), -1, dtype=np.int64)
    into[g.ran[order], np.arange(n) - start[g.ran[order]]] = order
    flat = g.comp_table.ravel()

    def nonassociative(a, b):
        c, ab = into[g.dom[b]], flat[a * n + b].astype(np.int64)
        bc = flat[b[:, None] * n + c]
        return (c >= 0) & (flat[ab[:, None] * n + c] != flat[a[:, None] * n + bc])
    gens = generating_arrows(g, g.by_ran) if n > 25 else np.ones(n, dtype=bool)
    bad = first_failing_pair(g, nonassociative, into.shape[1], gens)
    if bad is not None:
        a, b, j = bad
        raise errors.CompositionNotAssociative(a, b, int(into[g.dom[b], j]))
    gens.setflags(write=False)
    g.generators, g.validated = gens, True
    vars(g).pop("pair_products", None)         # the table holds them
    if twins is not None:
        twins.setdefault(key, g)
    return g


def groupoid_from_group(G, name=None) -> FiniteGroupoid:
    """A group as a one-unit groupoid."""
    n = len(G)
    g = FiniteGroupoid(["pt"], [0] * n, [0] * n, G.table, G.star,
                       [G.identity], arrow_labels=G.names,
                       name=name or G.name)
    return validate_groupoid(g)


def pair_groupoid(n: int, name=None) -> FiniteGroupoid:
    """The pair groupoid on n units: one arrow (i <- j) per ordered pair."""
    # arrow (i <- j) has id i n + j, and (i <- j)(j <- k) = (i <- k)
    ran, dom = np.divmod(np.arange(n * n), n)
    labels = [f"({i}<-{j})" for i, j in zip(ran.tolist(), dom.tolist())]
    g = FiniteGroupoid([f"x{u}" for u in range(n)], dom, ran,
                       lambda a, b: ran[a] * n + dom[b], dom * n + ran,
                       np.arange(n) * (n + 1), arrow_labels=labels,
                       name=name or f"Pair{n}")
    return validate_groupoid(g)


def _id_rows(text, rows, bounds, what):
    """A list of id rows, parsed from ``text``, as an integer array with
    column j below bounds[j]; anything else, booleans too, raises
    MalformedInput(what)."""
    bounds = np.asarray(bounds)
    try:
        ids = np.asarray(rows if rows else np.empty((0, len(bounds)), int))
    except ValueError:                                       # ragged
        ids = None
    if not isinstance(rows, list) or ids is None or ids.dtype.kind not in "iu" \
            or ids.shape[1:] != bounds.shape or (ids < 0).any() \
            or (ids >= bounds).any() or holds_bool(text, rows):
        raise errors.MalformedInput(what)
    return ids


def _last(keys):
    """The index of the last occurrence of each distinct key: an entry given
    twice counts as its last value, as in a dict."""
    return len(keys) - 1 - np.unique(keys[::-1], return_index=True)[1]


def groupoid_from_json(text: str, name="G") -> FiniteGroupoid:
    """Parse the document ``FiniteGroupoid.to_json`` writes.  Its schema
    is checked on whole arrays, raising ``MalformedInput``, before the
    groupoid axioms."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise errors.MalformedInput("a groupoid file holds one JSON object")
    units, arrows = data.get("units"), data.get("arrows")
    if not isinstance(units, list) or not all(isinstance(u, str) for u in units):
        raise errors.MalformedInput('"units" must be a list of names')
    if not isinstance(arrows, list) or \
            not all(isinstance(a, dict) for a in arrows):
        raise errors.MalformedInput('"arrows" must be a list of objects')
    n, k = len(arrows), len(units)
    ends = _id_rows(text,
                    [[a.get(key) for key in ("id", "dom", "ran")] for a in arrows],
                    (n, k, k), '"arrows" need integer "id", "dom" and "ran" in range')
    order = np.argsort(ends[:, 0])
    if (ends[order, 0] != np.arange(n)).any():
        raise errors.MalformedInput('"arrows" ids must number them 0, 1, ...')
    dom, ran = ends[order, 1], ends[order, 2]
    check_size(n)
    comp = _id_rows(text, data.get("comp"), (n, n, n),
                    '"comp" must hold [a, b, ab] triples of arrow ids')
    table = np.full((n, n), -1, dtype=np.int32)
    last = _last(comp[:, 0] * n + comp[:, 1])
    table[comp[last, 0], comp[last, 1]] = comp[last, 2]
    pairs = _id_rows(text, data.get("inv"), (n, n),
                     '"inv" must hold [a, inverse] pairs of arrow ids')
    inv = np.zeros(n, dtype=np.int64)
    last = _last(pairs[:, 0])
    inv[pairs[last, 0]] = pairs[last, 1]
    ids = np.arange(n)
    loops = np.flatnonzero((dom == ran) & (table[ids, ids] == ids))
    identity = np.full(k, -1, dtype=np.int64)
    np.maximum.at(identity, dom[loops], loops)
    labels = [arrows[j].get("label", f"a{i}") for i, j in enumerate(order.tolist())]
    g = FiniteGroupoid(units, dom, ran, table, inv, identity,
                       arrow_labels=labels, name=name)
    return validate_groupoid(g)


def reduction(g: FiniteGroupoid, unit_subset, name=None) -> FiniteGroupoid:
    """Full subgroupoid on a unit subset: arrows with both endpoints inside."""
    units = np.array(sorted(set(int(u) for u in unit_subset)), dtype=np.int64)
    outside = (units < 0) | (units >= g.n_units)
    if outside.any():
        raise errors.UnknownUnit(f"unit {units[outside][0]} out of range")
    inside = np.zeros(g.n_units, dtype=bool)
    inside[units] = True
    arrows = np.flatnonzero(inside[g.dom] & inside[g.ran])
    unew = np.full(g.n_units, -1, dtype=np.int64)
    unew[units] = np.arange(len(units))
    anew = np.full(g.n_arrows + 1, -1, dtype=np.int64)      # anew[-1] = -1
    anew[arrows] = np.arange(len(arrows))
    red = FiniteGroupoid(
        [g.unit_labels[u] for u in units.tolist()],
        unew[g.dom[arrows]], unew[g.ran[arrows]],
        anew[g.comp_table[np.ix_(arrows, arrows)]],
        anew[g.inv[arrows]], anew[g.identity[units]],
        arrow_labels=[g.arrow_labels[a] for a in arrows.tolist()],
        name=name or f"{g.name}|")
    red.parent_units = tuple(units.tolist())
    red.parent_arrows = tuple(arrows.tolist())
    return red


@dataclass(frozen=True)
class GroupoidFunctor:
    """A functor between finite groupoids, as unit and arrow maps."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    unit_map: tuple
    arrow_map: tuple

    def __call__(self, a: int) -> int:
        return self.arrow_map[a]


def groupoid_functor(src: FiniteGroupoid, tgt: FiniteGroupoid,
                     unit_map, arrow_map) -> GroupoidFunctor:
    """Validate dom/ran/composition/identity preservation, each on all
    arrows, units or composable pairs at once; the witness is the first
    failing arrow, unit, or pair (a, b) in lexicographic order.  When both
    groupoids carry ``generators``, F(ab) = F(a)F(b) is checked by
    :func:`first_failing_pair` first for b among the source's.  That
    suffices: after the endpoint and identity checks, the b for which it
    holds for all a include the identities, and, as both are associative,
    are closed under composition: F(a(bb')) = F((ab)b') = F(ab)F(b') =
    (F(a)F(b))F(b') = F(a)F(bb').
    """
    um = np.array(unit_map, dtype=np.int64)
    f = np.array(arrow_map, dtype=np.int64)
    if len(um) != src.n_units or len(f) != src.n_arrows:
        raise errors.NotAFunctor("maps must cover all units and arrows")
    ok = (f >= 0) & (f < tgt.n_arrows)
    bad = ~ok
    bad[ok] = (tgt.dom[f[ok]] != um[src.dom[ok]]) | (tgt.ran[f[ok]] != um[src.ran[ok]])
    if bad.any():
        a = _first(bad)
        raise errors.NotAFunctor(f"endpoints of arrow {a} not preserved" if ok[a]
                                 else f"arrow image {f[a]} out of range")
    # every unit's identity kept its endpoints, so um is in range
    lost = f[src.identity] != tgt.identity[um]
    if lost.any():
        raise errors.NotAFunctor(f"identity at unit {_first(lost)} not preserved")
    table, target = src.comp_table, tgt.comp_table
    bad = first_failing_pair(src, lambda a, b: target[f[a], f[b]] != f[table[a, b]], 1,
                             None if tgt.generators is None else src.generators)
    if bad is not None:
        raise errors.NotAFunctor(f"composition {bad[0]}{bad[1]} not preserved")
    return GroupoidFunctor(src, tgt, tuple(um.tolist()), tuple(f.tolist()))


def compose_functors(F: GroupoidFunctor, G: GroupoidFunctor) -> GroupoidFunctor:
    """F after G (first G, then F)."""
    if G.target is not F.source and (
            G.target.n_arrows != F.source.n_arrows):
        raise errors.NotAFunctor("functors are not composable")
    return groupoid_functor(G.source, F.target,
                            np.array(F.unit_map)[list(G.unit_map)],
                            np.array(F.arrow_map)[list(G.arrow_map)])


def identity_functor(g: FiniteGroupoid) -> GroupoidFunctor:
    return groupoid_functor(g, g, range(g.n_units), range(g.n_arrows))


def invert_functor(F: GroupoidFunctor) -> GroupoidFunctor:
    """The inverse of a bijective functor."""
    if not verify_isomorphism(F):
        raise errors.NotBijective("only bijective functors invert")
    return groupoid_functor(F.target, F.source, np.argsort(F.unit_map),
                            np.argsort(F.arrow_map))


def inclusion_of_reduction(red: FiniteGroupoid, g: FiniteGroupoid) -> GroupoidFunctor:
    return groupoid_functor(red, g, red.parent_units, red.parent_arrows)


def cocycle_faithfulness_map(F: GroupoidFunctor):
    """Materialize psi(g) = (ran g, dom g, F(g)) and report injectivity."""
    src = F.source
    triples = list(zip(src.ran.tolist(), src.dom.tolist(), F.arrow_map))
    return triples, len(set(triples)) == src.n_arrows


def functor_report(F: GroupoidFunctor) -> dict:
    """Faithful / full / fully faithful / essentially surjective / weak equivalence.

    Faithful and full are read off the comparison map psi(g) = (ran g,
    dom g, F(g)) into the pullback ``{(x, y, h) : h an arrow F(y) -> F(x)}``,
    whose size is a sum of hom-set counts; essential surjectivity asks
    every target unit to be the domain of an arrow to an image unit.
    """
    src, tgt = F.source, F.target
    um = np.array(F.unit_map, dtype=np.int64)
    f = np.array(F.arrow_map, dtype=np.int64)
    psi = (src.ran * src.n_units + src.dom) * tgt.n_arrows + f
    faithful = len(np.unique(psi)) == src.n_arrows
    inside = (tgt.dom[f] == um[src.dom]) & (tgt.ran[f] == um[src.ran])
    homs = np.bincount(tgt.dom * tgt.n_units + tgt.ran,
                       minlength=tgt.n_units ** 2).reshape(tgt.n_units, tgt.n_units)
    full = len(np.unique(psi[inside])) == homs[np.ix_(um, um)].sum()
    image = np.zeros(tgt.n_units, dtype=bool)
    image[um] = True
    reached = np.zeros(tgt.n_units, dtype=bool)
    reached[tgt.dom[image[tgt.ran]]] = True
    faithful, full, ess = bool(faithful), bool(full), bool(reached.all())
    ff = faithful and full
    return {
        "faithful": faithful,
        "full": full,
        "fully_faithful": ff,
        "essentially_surjective": ess,
        "weak_equivalence": ff and ess,
    }


def verify_isomorphism(F: GroupoidFunctor, G_back: GroupoidFunctor | None = None) -> bool:
    """True iff F is bijective on units and arrows (and G_back inverts it)."""
    bij = (sorted(F.unit_map) == list(range(F.target.n_units))
           and sorted(F.arrow_map) == list(range(F.target.n_arrows)))
    if not bij or G_back is None:
        return bij
    f, g = np.array(F.arrow_map), np.array(G_back.arrow_map)
    return np.array_equal(g[f], np.arange(len(f))) and \
        np.array_equal(f[g], np.arange(len(g)))


# -- groupoid actions on spaces and semidirect products --------------------------

class GroupoidSpaceAction:
    """An action of a groupoid H on a finite set X along an anchor p: X -> H0.

    ``act[h, x]`` is hx when dom(h) = p(x), else -1.
    """

    def __init__(self, groupoid: FiniteGroupoid, point_labels, anchor, act):
        self.groupoid = groupoid
        self.point_labels = tuple(point_labels)
        self.anchor = tuple(int(p) for p in anchor)
        self.act = np.asarray(act, dtype=np.int64)
        self.act.setflags(write=False)
        self.validated = False     # set once validate_space_action passes

    @property
    def n_points(self):
        return len(self.point_labels)

    def __call__(self, h: int, x: int):
        y = int(self.act[h, x])
        return y if y >= 0 else None


def validate_space_action(action: GroupoidSpaceAction) -> GroupoidSpaceAction:
    """Check the shape, images, anchor, identities, equivariance and hx
    functoriality, each on all arrows and points at once; the witness is
    the first failure in id order.  Functoriality, (ab)x = a(bx), is
    checked by :func:`first_failing_pair` first for b among the groupoid's
    ``generators``.  That suffices: the groupoid passed validation, and
    the b for which it holds for all a and x include the identities once
    the identity check passes, and are closed under composition:
    (a(bb'))x = ((ab)b')x = (ab)(b'x) = a(b(b'x)) = a((bb')x)."""
    h, m = action.groupoid, action.n_points
    anchor = np.asarray(action.anchor, dtype=np.int64)
    act = np.maximum(action.act, -1)
    if act.shape != (h.n_arrows, m) or anchor.shape != (m,):
        raise errors.InvalidParams("need an image per arrow and point")
    if (act >= m).any():
        a, x = divmod(_first(act >= m), m)
        raise errors.InvalidAction(f"arrow {a} sends point {x} outside the points")
    outside = (anchor < 0) | (anchor >= h.n_units)
    fixed = act[h.identity[np.where(outside, 0, anchor)], np.arange(m)] == np.arange(m)
    if (outside | ~fixed).any():
        x = _first(outside | ~fixed)
        if outside[x]:
            raise errors.InvalidAction(f"anchor of point {x} out of range")
        raise errors.InvalidAction(f"identity does not fix point {x}")
    wrong = (h.dom[:, None] == anchor[None, :]) != (act >= 0)
    moved = (act >= 0) & (anchor[act] != h.ran[:, None])
    if (wrong | moved).any():
        a, x = divmod(_first(wrong | moved), m)
        if wrong[a, x]:
            raise errors.InvalidAction(f"arrow {a} defined on the wrong points")
        raise errors.InvalidAction(
            f"anchor not equivariant at arrow {a}, point {x}")
    comp = h.comp_table
    bad = first_failing_pair(
        h, lambda pa, pb: (act[pb] >= 0) &
        (act[pa[:, None], act[pb]] != act[comp[pa, pb]]), m, h.generators)
    if bad is not None:
        raise errors.InvalidAction("action not functorial at ({},{},{})".format(*bad))
    action.validated = True
    return action


def action_groupoid(maps, product, inverse, unit_label, label_names,
                    point_labels, name) -> FiniteGroupoid:
    """The groupoid of pairs (label, x) with maps[label, x] >= 0.

    (l, x) goes from x to maps[l, x]; (k, maps[l, x])(l, x) = (kl, x) with
    kl = product[k, l]; the inverse of (l, x) is (inverse[l], maps[l, x]);
    the identity at x is (unit_label[x], x).  Arrows are numbered in
    lexicographic order of (label, x).  The result, not yet validated,
    carries ``arrow_pairs``, the (label, x) of each arrow as rows of an
    array, and ``arrow_at``, the arrow id of each (label, x) or -1.
    """
    m = len(point_labels)
    label, dom = np.nonzero(maps >= 0)
    arrow_at = np.full(maps.shape, -1, dtype=np.int64)
    arrow_at[label, dom] = np.arange(len(label))
    ran = maps[label, dom]
    g = FiniteGroupoid(
        point_labels, dom, ran,
        lambda a, b: arrow_at[product[label[a], label[b]], dom[b]],
        arrow_at[np.asarray(inverse)[label], ran],
        arrow_at[unit_label, np.arange(m)],
        arrow_labels=[f"({label_names[a]},{point_labels[x]})"
                      for a, x in zip(label.tolist(), dom.tolist())],
        name=name)
    g.arrow_pairs = np.column_stack((label, dom))
    g.arrow_at = arrow_at
    for arr in (g.arrow_pairs, g.arrow_at):
        arr.setflags(write=False)
    return g


def semidirect_product(action: GroupoidSpaceAction, name=None) -> FiniteGroupoid:
    """H x X with d(h, x) = x, r(h, x) = hx and (g, hy)(h, y) = (gh, y);
    an action that has not passed :func:`validate_space_action` is checked."""
    if not action.validated:
        validate_space_action(action)
    h = action.groupoid
    anchor = np.asarray(action.anchor, dtype=np.int64)
    return validate_groupoid(action_groupoid(
        action.act, h.comp_table, h.inv, h.identity[anchor], h.arrow_labels,
        action.point_labels, name=name or f"{h.name}|X"))


def semidirect_projection(sd: FiniteGroupoid, h: FiniteGroupoid) -> GroupoidFunctor:
    """The projection H x X -> H onto the first coordinate."""
    arrow_map = sd.arrow_pairs[:, 0]
    return groupoid_functor(sd, h, h.dom[arrow_map[sd.identity]], arrow_map)


def connected_components(n, p, q):
    """The classes of the equivalence on 0, ..., n-1 generated by p[i] ~ q[i].

    Min-label propagation with pointer jumping: each round lowers every
    root (an item labelled by itself) to the least root across a pair,
    then points every label at its root.  Labels stay in their class and
    only fall, so once every pair agrees each class is labelled by its
    least member.  Returns ``(classes, index)``: the members of each class
    in increasing order, classes ordered by least member, and the class
    number of every item.
    """
    label = np.arange(n)
    lp, lq = label[p], label[q]
    while not np.array_equal(lp, lq):
        low = np.minimum(lp, lq)
        np.minimum.at(label, lp, low)
        np.minimum.at(label, lq, low)
        while not np.array_equal(label[label], label):
            label = label[label]
        lp, lq = label[p], label[q]
    index = np.unique(label, return_inverse=True)[1]
    members = np.argsort(index, kind="stable")
    return np.split(members, np.cumsum(np.bincount(index))[:-1]) if n else [], index


def enveloping_action_of_functor(F: GroupoidFunctor):
    """The enveloping H-space of a faithful functor F: G -> H.

    Builds X = (H x_{H0} G0)/~ with (h, e) ~ (k, f) iff some g: e -> f has
    F(g) = k^{-1} h, the H-action h'[k, e] = [h'k, e], and the canonical
    factorization functor alpha(g) = (F(g), [F(dom g), dom g]), which is a
    weak equivalence.  Returns (action, alpha, semidirect, classes).
    """
    g, h = F.source, F.target
    _, injective = cocycle_faithfulness_map(F)
    if not injective:
        raise errors.NotFaithful(
            "enveloping action needs a faithful functor")
    um = np.array(F.unit_map, dtype=np.int64)
    f = np.array(F.arrow_map, dtype=np.int64)
    table = h.comp_table
    # the pairs (a, e) with dom a = F(e), numbered in lexicographic order
    pa, pe = np.nonzero(h.dom[:, None] == um[None, :])
    pair_id = np.full((h.n_arrows, g.n_units), -1, dtype=np.int64)
    pair_id[pa, pe] = np.arange(len(pa))
    # (a, e) ~ (k, ran x) with k = a F(x)^{-1}, for the arrows x from e
    counts, x = arrows_at(pe, end_index(g.dom, g.n_units))
    p = np.repeat(np.arange(len(pa)), counts)
    k = table[pa[p], h.inv[f[x]]]
    ok = k >= 0
    classes, index = connected_components(
        len(pa), p[ok], pair_id[k[ok], g.ran[x[ok]]])
    reps = np.array([c[0] for c in classes], dtype=np.int64)
    ra, re = pa[reps], pe[reps]
    labels = [f"[{h.arrow_labels[a]},{g.unit_labels[e]}]"
              for a, e in zip(ra.tolist(), re.tolist())]
    ba = table[:, ra]                              # b a for each rep (a, e)
    act = np.where(ba >= 0, index[pair_id[ba, re]], -1)
    action = validate_space_action(
        GroupoidSpaceAction(h, labels, h.ran[ra], act))
    sd = semidirect_product(action, name=f"{h.name}|env")
    unit_map = index[pair_id[h.identity[um], np.arange(g.n_units)]]
    alpha = groupoid_functor(g, sd, unit_map, sd.arrow_at[f, unit_map[g.dom]])
    return action, alpha, sd, {i: list(zip(pa[c].tolist(), pe[c].tolist()))
                               for i, c in enumerate(classes)}

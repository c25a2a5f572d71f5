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
import itertools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

import numpy as np

from . import errors
from .semigroups import (
    CHUNK, check_size, file_text, holds_bool, json_rows, write_json)


class FiniteGroupoid:
    """Arrows over a finite unit set with partial composition and inversion.

    ab is defined iff ``dom(a) == ran(b)`` and then ``dom(ab) = dom(b)``,
    ``ran(ab) = ran(a)``.  The composition is stored once, as ``products``:
    ab at each of the ``composable_pairs`` (a, b), the pairs dom a = ran b
    in lexicographic order, given as that array or as a builder's rule
    (a, b) -> ab on the pairs.  With ``by_ran``, the :func:`end_index` of
    ``ran``, and ``offsets`` = (row_start, rank), (a, b) is composable pair
    row_start[a] + rank[b], rank b being the place of b among the arrows
    into ran b; :meth:`product` reads ab at any pairs.
    """

    germ_reps = None        # per arrow its germ (s, x), in groupoids of germs
    generators = None       # Light's middle arrows, once validate_groupoid passes

    def __init__(self, unit_labels, dom, ran, products, inv, identity,
                 arrow_labels=None, name="G"):
        self.unit_labels = tuple(unit_labels)
        self.dom = np.asarray(dom, dtype=np.int64)
        self.ran = np.asarray(ran, dtype=np.int64)
        self.inv = np.asarray(inv, dtype=np.int64)
        self.identity = np.asarray(identity, dtype=np.int64)
        if arrow_labels:
            self.arrow_labels = tuple(arrow_labels)
        self.name = name
        self.validated = False     # set once validate_groupoid passes
        self._products = products
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

    @functools.cached_property
    def arrow_labels(self) -> tuple:
        """Per arrow its label, ``a<id>`` where the builder gave none."""
        return tuple(f"a{i}" for i in range(self.n_arrows))

    @functools.cached_property
    def _index(self) -> tuple:
        """``by_ran``, ``composable_pairs`` and ``offsets``, read-only, as a
        twin shares them; endpoints in range."""
        by_ran = order, count, start = end_index(self.ran, self.n_units)
        counts, b = arrows_at(self.dom, by_ran)
        a = np.repeat(np.arange(self.n_arrows), counts)
        rank = np.empty(self.n_arrows, dtype=np.int64)
        rank[order] = np.arange(self.n_arrows) - np.repeat(start, count)
        offsets = np.cumsum(counts) - counts, rank
        for arr in (*by_ran, a, b, *offsets):
            arr.setflags(write=False)
        return by_ran, (a, b), offsets

    by_ran = property(lambda self: self._index[0])
    composable_pairs = property(lambda self: self._index[1])
    offsets = property(lambda self: self._index[2])

    @functools.cached_property
    def products(self) -> np.ndarray:
        """ab at each of the :attr:`composable_pairs` (a, b), read-only int32
        (an input already so is shared), or -1 where the input gave none."""
        products, self._products = self._products, None
        if callable(products):
            products = products(*self.composable_pairs)
        if not (isinstance(products, np.ndarray) and products.dtype == np.int32
                and not products.flags.writeable):
            products = np.array(products, dtype=np.int32)
        if products.shape != self.composable_pairs[0].shape:
            raise errors.InvalidParams("need one product per composable pair")
        products.setflags(write=False)
        return products

    def product(self, a, b) -> np.ndarray:
        """ab for arrays of arrow ids a and b where dom a = ran b, else -1."""
        row_start, rank = self.offsets
        ok = self.dom[a] == self.ran[b]
        if not len(self.products):                  # then no pair composes
            return np.full(ok.shape, -1, dtype=np.int32)
        return np.where(ok, self.products.take(row_start[a] + rank[b], mode="clip"), -1)

    @property
    def comp(self):
        # {(a, b): ab}, kept only for the pair counter of perfbench/tracing.py
        a, b = self.composable_pairs
        return MappingProxyType(dict(zip(zip(a.tolist(), b.tolist()),
                                         self.products.tolist())))

    def isotropy_orders(self):
        """Multiset (sorted tuple) of isotropy group orders, one per unit."""
        loops = self.dom[self.dom == self.ran]
        return tuple(sorted(np.bincount(loops, minlength=self.n_units).tolist()))

    def to_json(self, file=None) -> str | None:
        """``json.dumps`` with sorted keys of the units, the arrows
        ``{"dom", "germ", "id", "label", "ran"}``, the ``[a, b, ab]``
        triples of the composable pairs in order and the ``[a, inverse]``
        pairs, each array written by :func:`~germoid.semigroups.json_rows`.
        Only groupoids of germs have the key ``"germ"``, ``[s, x]``.  Given
        a path ``file``, the text goes there by
        :func:`~germoid.semigroups.write_json` instead."""
        n, ids = self.n_arrows, np.arange(self.n_arrows)
        if type(self).germ_reps is None:        # not a groupoid of germs
            joints = ['{"dom": ', ', "id": ', ', "label": ', ', "ran": ', "}"]
            arrows = (self.dom, ids, ids, self.ran)
        else:
            joints = ['{"dom": ', ', "germ": [', ", ", '], "id": ',
                      ', "label": ', ', "ran": ', "}"]
            s, x = self.arrow_pairs.T
            arrows = (self.dom, s, x, ids, ids, self.ran)
        arrows = np.column_stack(arrows)
        numbers = int(arrows.max(initial=0)) + 1
        arrows[:, -2] += numbers            # label a is word numbers + a
        labels = [encode_basestring_ascii(v) if isinstance(v, str) else
                  json.dumps(v, sort_keys=True) for v in self.arrow_labels]
        comp = np.column_stack((*self.composable_pairs, self.products))
        units = json.dumps(list(self.unit_labels), sort_keys=True)
        return write_json(itertools.chain(
            [b'{"arrows": '], json_rows(joints, arrows, numbers, labels),
            [b', "comp": '], json_rows(["[", ", ", ", ", "]"], comp, n),
            [b', "inv": '], json_rows(["[", ", ", "]"],
                                      np.column_stack((ids, self.inv)), n),
            [b', "units": ', units.encode(), b"}"]), file)

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
    a, b, ab = a[both], b[both], g.products[both]
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
    with ``bad(pa, pb, pab)[i, j]`` true at (pa[i], pb[i]) = (a, b), where
    pab holds their products, or None; ``bad`` gives ``width`` entries a
    pair, or a flat mask for one, in blocks of ``CHUNK``.  Given a mask of
    ``generators``, the pairs whose b is one are scanned first, and all only
    if one fails."""
    def scan(a, b, ab):
        for lo in range(0, len(a), step):
            pa, pb = a[lo:lo + step], b[lo:lo + step]
            mask = bad(pa, pb, ab[lo:lo + step])
            if mask.any():
                i, j = divmod(_first(mask), width)
                return int(pa[i]), int(pb[i]), j
        return None
    (a, b), ab, step = g.composable_pairs, g.products, max(1, CHUNK // max(width, 1))
    if generators is not None:
        middle = generators[b]
        if scan(a[middle], b[middle], ab[middle]) is None:
            return None
    return scan(a, b, ab)


def endpoint_failures(g: FiniteGroupoid) -> np.ndarray:
    """The mask of the composable pairs (a, b) whose product is missing or
    lacks the endpoints dom b and ran a; needs the products in range."""
    (a, b), ab = g.composable_pairs, g.products
    return (ab < 0) | (g.dom[ab] != g.dom[b]) | (g.ran[ab] != g.ran[a])


def check_endpoint_law(g: FiniteGroupoid, stray=()) -> None:
    """Raise ``DomainMismatch`` at the first pair (a, b) in row order that
    breaks the endpoint law: one of the ``stray`` keys a n + b, products
    given where a pair does not compose, or a composable pair whose product
    is missing (both "on the wrong domain") or has the wrong endpoints."""
    (a, b), n, bad = g.composable_pairs, g.n_arrows, endpoint_failures(g)
    keys = np.concatenate((np.asarray(stray, dtype=np.int64), a[bad] * n + b[bad]))
    if len(keys):
        a, b = divmod(int(keys.min()), n)
        raise errors.DomainMismatch(
            f"composition of {a}, {b} defined on the wrong domain"
            if g.product(a, b) < 0 else f"composite of {a}, {b} has the wrong endpoints")


def check_laws(g: FiniteGroupoid) -> None:
    """The ranges, then the endpoint, identity and inverse laws, as one
    conjunction of whole-array tests; only if it fails does the order of
    the plain loops name the first failure: an endpoint or product out of
    range, the first composable pair that breaks the endpoint law, an
    identity, an inverse."""
    n, n_units, units = g.n_arrows, g.n_units, np.arange(g.n_units)
    dom, ran, inv, identity, ids = g.dom, g.ran, g.inv, g.identity, np.arange(n)
    if all(v.min(initial=0) >= 0 and v.max(initial=-1) < top for v, top in
           ((dom, n_units), (ran, n_units), (inv, n), (identity, n))):
        ab, one, back = g.products, identity[dom], identity[ran]
        row_start, rank = g.offsets
        # once the ends agree, a 1_dom(a) = a, 1_ran(a) a = a, a^-1 a =
        # 1_dom(a) and a a^-1 = 1_ran(a) are read off their pairs
        if ab.min(initial=-1) >= -1 and ab.max(initial=-1) < n and \
                not endpoint_failures(g).any() and \
                ((dom[identity] == units) & (ran[identity] == units)).all() and \
                ((dom[inv] == ran) & (ran[inv] == dom)).all() and \
                np.array_equal(ab[np.concatenate((
                    row_start + rank[one], row_start[back] + rank,
                    row_start[inv] + rank, row_start + rank[inv]))],
                    np.concatenate((ids, ids, one, back))):
            return
    for outside in ((dom < 0) | (dom >= n_units), (ran < 0) | (ran >= n_units)):
        if outside.any():
            raise errors.UnknownUnit(
                f"arrow {_first(outside)} has an endpoint outside the units")
    (a, b), ab = g.composable_pairs, g.products
    outside = (ab < -1) | (ab >= n)
    if outside.any():
        i = _first(outside)
        raise errors.DomainMismatch(f"composition of {a[i]}, {b[i]} names an "
                                    "arrow outside the groupoid")
    check_endpoint_law(g)
    has_id = (identity >= 0) & (identity < n)
    ident = np.where(has_id, identity, 0)
    has_id &= (dom[ident] == units) & (ran[ident] == units)
    bad_unit = ~has_id
    right = has_id[dom] & (g.product(ids, ident[dom]) != ids)    # a 1_dom(a) != a
    left = has_id[ran] & (g.product(ident[ran], ids) != ids)     # 1_ran(a) a != a
    bad_unit[dom[right]] = bad_unit[ran[left]] = True
    if bad_unit.any():
        raise errors.MissingIdentity(_first(bad_unit))
    has_inv = (inv >= 0) & (inv < n)
    ai = np.where(has_inv, inv, 0)
    good = has_inv & (dom[ai] == ran) & (ran[ai] == dom) & \
        (g.product(ai, ids) == identity[dom]) & (g.product(ids, ai) == identity[ran])
    if not good.all():
        raise errors.MissingInverse(_first(~good))


# the scope of validated_once: per key, the objects that passed there, or None
_twins = contextvars.ContextVar("validated_twins", default=None)


@contextlib.contextmanager
def validated_once():
    """A scope in which each distinct input of :func:`validate_groupoid`,
    :func:`groupoid_functor`, ``germs.validate_saction`` and
    ``partial_actions.validate_partial_action`` is checked once; the outer
    scope, or none, is restored on exit.  :func:`validate_space_action` is
    not among them: the scope's ``gspace_from_saction`` memo already
    returns every repeat before the space check.

    An input is keyed by the ``id`` of the validated objects it reads, a
    semigroup, a group or a groupoid's ``products`` (which only twins
    share), and by the shapes of its own arrays.  The scope holds every
    object that passed, so no such id is reused while it is open.  A later
    input under the same key is a twin when its arrays are exactly equal
    (``np.array_equal``) to one that passed; it skips the checks.  Nothing
    that fails enters the scope.

    A groupoid whose laws its builder proved enters the scope by
    :func:`enter_proved`, as one that passed.  Two constructions are
    adopted from what the scope already holds: ``germs.universal_groupoid``
    builds one groupoid per semigroup object and flag, and
    ``germs.gspace_from_saction`` converts one S-action per semigroup
    object, maps and point labels."""
    token = _twins.set({})
    try:
        yield
    finally:
        _twins.reset(token)


def scope_twins(key) -> list:
    """What passed under ``key`` in the current :func:`validated_once`
    scope, in order; empty outside one or for the key None."""
    twins = _twins.get()
    return [] if twins is None or key is None else twins.get(key, [])


def scope_enter(key, entry) -> None:
    """Record ``entry``, which passed its checks, under ``key`` in the
    current :func:`validated_once` scope, if there is one and the key is
    not None."""
    twins = _twins.get()
    if twins is not None and key is not None:
        twins.setdefault(key, []).append(entry)


def _twin_key(g: FiniteGroupoid) -> tuple:
    """The scope key of a groupoid: its unit count and the bytes of its
    ``dom``, ``ran``, ``inv`` and ``identity``."""
    return (g.n_units, g.dom.tobytes(), g.ran.tobytes(), g.inv.tobytes(),
            g.identity.tobytes())


def validate_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    """Exhaustive check of the groupoid axioms; raises on any failure.

    The laws before associativity are :func:`check_laws`.  Associativity
    uses Light's test, as ``validate_semigroup`` does.  Let M be the arrows
    b with (ab)c = a(bc) for all composable a and c.  Once the endpoint law
    holds, M is closed under composition: for x, y in M, (a(xy))c =
    ((ax)y)c = (ax)(yc) = a(x(yc)) = a((xy)c).  The identity law puts every
    identity in M.  So the composition is associative iff M holds the
    ``generating_arrows``, and only the triples whose middle arrow is one
    of them are checked.  They suffice: for a: u -> v and the tree arrows
    t_u, t_v from the base x, the loop h = t_v^-1 (a t_u) at x is in M,
    t_v h = a t_u as t_v^-1 is in M, and (t_v h) t_u^-1 = a as t_u is.
    Only if a triple fails are all scanned, by :func:`first_failing_pair`,
    for the first failing one.  On at most 25 arrows every arrow is a
    middle one: a crossover measured on the benchmark corpus.  A groupoid
    that passes keeps its middle arrows as the mask ``generators``.

    A groupoid that has passed, or that :func:`enter_proved` marked, whose
    arrays are read-only, is returned as it is.  Inside a
    :func:`validated_once` scope, a twin of a groupoid that passed there,
    equal in its units, ``dom``, ``ran``, ``inv`` and ``identity``, so in
    its composable pairs, and in its ``products``, passes with the twin's
    read-only pairs, products and generators; any other groupoid is checked
    in full, and enters the scope if it passes.
    """
    if g.validated:
        return g
    n, n_units = g.n_arrows, g.n_units
    check_size(n)
    if len(g.ran) != n or len(g.inv) != n or len(g.identity) != n_units:
        raise errors.InvalidParams(
            "need one ran and inv entry per arrow and one identity per unit")
    key = None
    if _twins.get() is not None:
        key = _twin_key(g)
        for twin in scope_twins(key):
            g._index = twin._index              # the same dom and ran
            if np.array_equal(g.products, twin.products):
                g.products, g.generators, g.validated = \
                    twin.products, twin.generators, True
                return g
    check_laws(g)
    # for a pair (a, b) the c run over the arrows into dom b: the j-th has
    # rank j, so bc and (ab)c are the pairs row_start[b] + j and
    # row_start[ab] + j.  Where fewer arrows than the most end at dom b,
    # slot repeats the last j, whose triple comes first in the row.
    order, count, start = g.by_ran
    row_start, rank = g.offsets
    products = g.products
    slot = np.minimum(np.arange(int(count.max(initial=0))), count[:, None] - 1)

    def nonassociative(a, b, ab):
        j = slot[g.dom[b]]
        bc = products[row_start[b][:, None] + j]
        return products[row_start[ab][:, None] + j] != \
            products[row_start[a][:, None] + rank[bc]]
    gens = middle_arrows(g)
    bad = first_failing_pair(g, nonassociative, slot.shape[1], gens)
    if bad is not None:
        a, b, j = bad
        raise errors.CompositionNotAssociative(
            a, b, int(order[start[g.dom[b]] + j]))
    g.generators, g.validated = gens, True
    scope_enter(key, g)
    return g


def middle_arrows(g: FiniteGroupoid) -> np.ndarray:
    """The read-only mask of the middle arrows of Light's test in
    :func:`validate_groupoid`: the :func:`generating_arrows`, or on at most
    25 arrows every arrow.  Needs what ``validate_groupoid`` checks before
    associativity."""
    n = g.n_arrows
    gens = generating_arrows(g, g.by_ran) if n > 25 else np.ones(n, dtype=bool)
    gens.setflags(write=False)
    return gens


def enter_proved(g: FiniteGroupoid) -> FiniteGroupoid:
    """Mark g validated, its laws being proved by its builder, and enter it
    in the current :func:`validated_once` scope, if there is one, as a
    groupoid that passed there: a twin of it is then adopted.  Returns g."""
    g.validated = True
    scope_enter(_twin_key(g) if _twins.get() is not None else None, g)
    return g


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


def groupoid_from_json(text: str | bytes, name="G") -> FiniteGroupoid:
    """Parse the document ``FiniteGroupoid.to_json`` writes, from a file's
    bytes, decoded by :func:`~germoid.semigroups.file_text`, or from its
    text.  Its schema is checked on whole arrays, raising
    ``MalformedInput``, before the groupoid axioms."""
    if isinstance(text, bytes):
        text = file_text(text)
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
    pairs = _id_rows(text, data.get("inv"), (n, n),
                     '"inv" must hold [a, inverse] pairs of arrow ids')
    inv = np.zeros(n, dtype=np.int64)
    last = _last(pairs[:, 0])
    inv[pairs[last, 0]] = pairs[last, 1]
    key = comp[:, 0] * n + comp[:, 1]
    last = _last(key)                   # one triple a pair, in row order
    key, (a, b, ab) = key[last], comp[last].T
    loops = a[(a == b) & (b == ab) & (dom[a] == ran[a])]
    identity = np.full(k, -1, dtype=np.int64)
    np.maximum.at(identity, dom[loops], loops)
    composable = dom[a] == ran[b]

    def placed(pa, pb):                 # the composable triples at their pairs
        products = np.full(len(pa), -1, dtype=np.int32)
        products[np.searchsorted(pa * n + pb, key[composable])] = ab[composable]
        return products
    labels = [arrows[j].get("label", f"a{i}") for i, j in enumerate(order.tolist())]
    g = FiniteGroupoid(units, dom, ran, placed, inv, identity,
                       arrow_labels=labels, name=name)
    check_endpoint_law(g, key[~composable])     # no triple where none composes
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
        lambda a, b: anew[g.product(arrows[a], arrows[b])],
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
    arrows, units or composable pairs with a product at once; the witness
    is the first failing arrow, unit, or pair (a, b) in lexicographic
    order.  When both groupoids carry ``generators``, F(ab) = F(a)F(b) is
    checked by :func:`first_failing_pair` first for b among the source's.  That
    suffices: after the endpoint and identity checks, the b for which it
    holds for all a include the identities, and, as both are associative,
    are closed under composition: F(a(bb')) = F((ab)b') = F(ab)F(b') =
    (F(a)F(b))F(b') = F(a)F(bb').

    Inside a :func:`validated_once` scope, maps exactly equal to those of a
    functor that passed there between the same groupoids or their twins
    (keyed by their index and ``products``: a twin shares both) give a new
    functor unchecked.
    """
    um = np.array(unit_map, dtype=np.int64)
    f = np.array(arrow_map, dtype=np.int64)
    if len(um) != src.n_units or len(f) != src.n_arrows:
        raise errors.NotAFunctor("maps must cover all units and arrows")
    key = ("functor", id(src._index), id(src.products), id(tgt._index),
           id(tgt.products), um.shape, f.shape) if src.validated and tgt.validated else None
    if any(np.array_equal(um, u) and np.array_equal(f, a)
           for u, a, _ in scope_twins(key)):
        return GroupoidFunctor(src, tgt, tuple(um.tolist()), tuple(f.tolist()))
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
    # F(a)F(b) is defined, as F keeps the endpoints: F(a) F(b) is the target
    # pair row_start[F(a)] + rank[F(b)]
    row_start, rank = tgt.offsets
    start, place, products = row_start[f], rank[f], tgt.products
    bad = first_failing_pair(
        src, lambda a, b, ab: (ab >= 0) & (products[start[a] + place[b]] != f[ab]), 1,
        None if tgt.generators is None else src.generators)
    if bad is not None:
        raise errors.NotAFunctor(f"composition of {bad[0]}, {bad[1]} not preserved")
    F = GroupoidFunctor(src, tgt, tuple(um.tolist()), tuple(f.tolist()))
    scope_enter(key, (um, f, F))
    return F


def comparison_map(F: GroupoidFunctor) -> np.ndarray:
    """psi(g) = (ran g, dom g, F(g)) of every arrow g, as one integer."""
    src = F.source
    f = np.array(F.arrow_map, dtype=np.int64)
    return (src.ran * src.n_units + src.dom) * F.target.n_arrows + f


def is_faithful(F: GroupoidFunctor) -> bool:
    """Whether F is injective on each hom-set: psi is injective."""
    psi = np.sort(comparison_map(F))
    return bool((psi[1:] != psi[:-1]).all())


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
    psi = comparison_map(F)
    inside = (tgt.dom[f] == um[src.dom]) & (tgt.ran[f] == um[src.ran])
    homs = np.bincount(tgt.dom * tgt.n_units + tgt.ran,
                       minlength=tgt.n_units ** 2).reshape(tgt.n_units, tgt.n_units)
    full = len(np.unique(psi[inside])) == homs[np.ix_(um, um)].sum()
    image = np.zeros(tgt.n_units, dtype=bool)
    image[um] = True
    reached = np.zeros(tgt.n_units, dtype=bool)
    reached[tgt.dom[image[tgt.ran]]] = True
    faithful, full, ess = is_faithful(F), bool(full), bool(reached.all())
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
    (a(bb'))x = ((ab)b')x = (ab)(b'x) = a(b(b'x)) = a((bb')x).

    Every action is checked in full, inside a :func:`validated_once` scope
    too: ``germs.gspace_from_saction``, which makes the actions a verify
    run checks, returns a repeated conversion before it gets here."""
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
    bad = first_failing_pair(
        h, lambda pa, pb, pab: (act[pb] >= 0) &
        (act[pa[:, None], act[pb]] != act[pab]), m, h.generators)
    if bad is not None:
        raise errors.InvalidAction("action not functorial at ({},{},{})".format(*bad))
    action.validated = True
    return action


def action_groupoid(maps, product, inverse, unit_label, label_names,
                    point_labels, name) -> FiniteGroupoid:
    """The groupoid of pairs (label, x) with maps[label, x] >= 0.

    (l, x) goes from x to maps[l, x]; (k, maps[l, x])(l, x) = (kl, x) with
    kl = product(k, l) for arrays of labels; the inverse of (l, x) is
    (inverse[l], maps[l, x]); the identity at x is (unit_label[x], x).
    Arrows are numbered in lexicographic order of (label, x).  The result,
    not yet validated, carries ``arrow_pairs``, the (label, x) of each
    arrow as rows of an array, and ``arrow_at``, the arrow id of each
    (label, x) or -1.
    """
    m = len(point_labels)
    label, dom = np.nonzero(maps >= 0)
    arrow_at = np.full(maps.shape, -1, dtype=np.int64)
    arrow_at[label, dom] = np.arange(len(label))
    ran = maps[label, dom]
    g = FiniteGroupoid(
        point_labels, dom, ran,
        lambda a, b: arrow_at[product(label[a], label[b]), dom[b]],
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
    # g h is asked for only where (g, hy) and (h, y) are arrows, so where
    # dom g = p(hy) = ran h: the pair row_start[g] + rank[h]
    (row_start, rank), products = h.offsets, h.products
    return validate_groupoid(action_groupoid(
        action.act, lambda k, l: products[row_start[k] + rank[l]], h.inv,
        h.identity[anchor], h.arrow_labels, action.point_labels,
        name=name or f"{h.name}|X"))


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
    if not is_faithful(F):
        raise errors.NotFaithful(
            "enveloping action needs a faithful functor")
    um = np.array(F.unit_map, dtype=np.int64)
    f = np.array(F.arrow_map, dtype=np.int64)
    # the pairs (a, e) with dom a = F(e), numbered in lexicographic order
    pa, pe = np.nonzero(h.dom[:, None] == um[None, :])
    pair_id = np.full((h.n_arrows, g.n_units), -1, dtype=np.int64)
    pair_id[pa, pe] = np.arange(len(pa))
    # (a, e) ~ (k, ran x) with k = a F(x)^{-1}, for the arrows x from e:
    # F(x)^{-1} ends at F(e) = dom a, so k is defined
    counts, x = arrows_at(pe, end_index(g.dom, g.n_units))
    p = np.repeat(np.arange(len(pa)), counts)
    row_start, rank = h.offsets
    k = h.products[row_start[pa[p]] + rank[h.inv[f[x]]]]
    classes, index = connected_components(len(pa), p, pair_id[k, g.ran[x]])
    reps = np.array([c[0] for c in classes], dtype=np.int64)
    ra, re = pa[reps], pe[reps]
    labels = [f"[{h.arrow_labels[a]},{g.unit_labels[e]}]"
              for a, e in zip(ra.tolist(), re.tolist())]
    ba = h.product(np.arange(h.n_arrows)[:, None], ra)     # b a for each rep (a, e)
    act = np.where(ba >= 0, index[pair_id[ba, re]], -1)
    action = validate_space_action(
        GroupoidSpaceAction(h, labels, h.ran[ra], act))
    sd = semidirect_product(action, name=f"{h.name}|env")
    unit_map = index[pair_id[h.identity[um], np.arange(g.n_units)]]
    alpha = groupoid_functor(g, sd, unit_map, sd.arrow_at[f, unit_map[g.dom]])
    return action, alpha, sd, {i: list(zip(pa[c].tolist(), pe[c].tolist()))
                               for i, c in enumerate(classes)}

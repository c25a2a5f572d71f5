"""Finite groupoids, functors between them, reductions, semidirect products
with space actions, and the enveloping action of a faithful functor.

All topological qualifiers of the source material (open, closed, embedding)
are interpreted set-theoretically: finite spaces are discrete, so every map
is continuous, open and closed.  What remains testable is the combinatorics,
and that is checked exhaustively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import errors
from .semigroups import CHUNK, check_size


class FiniteGroupoid:
    """Arrows over a finite unit set with partial composition and inversion.

    Composition ``compose(a, b)`` is defined iff ``dom(a) == ran(b)`` and
    then ``dom(ab) = dom(b)``, ``ran(ab) = ran(a)``.
    """

    def __init__(self, unit_labels, dom, ran, comp, inv, identity,
                 arrow_labels=None, name="G"):
        self.unit_labels = tuple(unit_labels)
        self.dom = np.asarray(dom, dtype=np.int64)
        self.ran = np.asarray(ran, dtype=np.int64)
        self.comp = dict(comp)
        self.inv = np.asarray(inv, dtype=np.int64)
        self.identity = np.asarray(identity, dtype=np.int64)
        self.arrow_labels = tuple(arrow_labels) if arrow_labels else tuple(
            f"a{i}" for i in range(len(self.dom)))
        self.name = name
        self.validated = False     # set once validate_groupoid passes
        self._comp_table = None
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

    @property
    def comp_table(self) -> np.ndarray:
        """The dense composition table: ab at [a, b], or -1 where undefined.

        Raises DomainMismatch, at the first entry of ``comp`` in its own
        order, if a key or value is not an arrow id.
        """
        if self._comp_table is None:
            n = self.n_arrows
            table = np.full((n, n), -1, dtype=np.int32)
            if self.comp:
                keys = np.array(list(self.comp), dtype=np.int64)
                values = np.array(list(self.comp.values()), dtype=np.int64)
                outside = ((keys < 0) | (keys >= n)).any(axis=1) | \
                    (values < 0) | (values >= n)
                if outside.any():
                    a, b = keys[_first(outside)]
                    raise errors.DomainMismatch(
                        f"composition of {a}, {b} names an arrow outside "
                        "the groupoid")
                table[keys[:, 0], keys[:, 1]] = values
            table.setflags(write=False)
            self._comp_table = table
        return self._comp_table

    def isotropy_orders(self):
        """Multiset (sorted tuple) of isotropy group orders, one per unit."""
        counts = []
        for u in range(self.n_units):
            counts.append(sum(1 for a in range(self.n_arrows)
                              if self.dom[a] == u and self.ran[a] == u))
        return tuple(sorted(counts))

    def orbit_of(self, u: int):
        seen = {u}
        frontier = [u]
        while frontier:
            x = frontier.pop()
            for a in range(self.n_arrows):
                if self.dom[a] == x and self.ran[a] not in seen:
                    seen.add(int(self.ran[a]))
                    frontier.append(int(self.ran[a]))
                if self.ran[a] == x and self.dom[a] not in seen:
                    seen.add(int(self.dom[a]))
                    frontier.append(int(self.dom[a]))
        return frozenset(seen)

    def to_json_dict(self) -> dict:
        return {
            "units": list(self.unit_labels),
            "arrows": [{"id": a, "dom": int(self.dom[a]), "ran": int(self.ran[a]),
                        "label": self.arrow_labels[a]}
                       for a in range(self.n_arrows)],
            "comp": sorted([a, b, c] for (a, b), c in self.comp.items()),
            "inv": [[a, int(self.inv[a])] for a in range(self.n_arrows)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

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


def arrows_at(units, ends, n_units):
    """The arrows a with ``ends[a]`` equal to each of ``units``, in id
    order, flattened; ``ends`` is ``ran`` or ``dom``.

    Returns ``(counts, arrows)``: ``counts[i]`` arrows have ``units[i]`` as
    that end, and they follow one another in ``arrows``.
    """
    by_end = np.argsort(ends, kind="stable")
    per_unit = np.bincount(ends, minlength=n_units)
    start = np.cumsum(per_unit) - per_unit
    counts = per_unit[units]
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
    return counts, by_end[np.repeat(start[units], counts) + offsets]


def compose_by_label(n_units, labels, dom, ran, product, arrow_at) -> dict:
    """The composition of arrows given as (label, point) pairs.

    Arrow a is the pair (labels[a], dom[a]) and ends at ran[a].  Each a is
    paired with the arrows b ending at dom[a], one unit at a time, and
    ab = arrow_at[product[labels[a], labels[b]], dom[b]].  Returns the
    ``comp`` dict of a :class:`FiniteGroupoid`, keyed in lexicographic
    order of (a, b).
    """
    labels, dom, ran = (np.asarray(v, dtype=np.int64) for v in (labels, dom, ran))
    counts, b = arrows_at(dom, ran, n_units)
    a = np.repeat(np.arange(len(dom)), counts)
    c = arrow_at[product[labels[a], labels[b]], dom[b]]
    return dict(zip(zip(a.tolist(), b.tolist()), c.tolist()))


def validate_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    """Exhaustive check of the groupoid axioms; raises on any failure.

    Works on the dense composition table.  Associativity is checked on the
    composable triples only: each composable pair (a, b) is extended by the
    arrows c ending at dom(b).  Every check scans in the same order as the
    plain loops over arrow ids, so the witness is the first failure in
    that order.
    """
    n, n_units = g.n_arrows, g.n_units
    check_size(n)
    dom, ran, inv, identity = g.dom, g.ran, g.inv, g.identity
    if len(ran) != n or len(inv) != n or len(identity) != n_units:
        raise errors.InvalidParams(
            "need one ran and inv entry per arrow and one identity per unit")
    for ends in (dom, ran):
        if n and (ends.min() < 0 or ends.max() >= n_units):
            raise errors.UnknownUnit(
                f"arrow {_first((ends < 0) | (ends >= n_units))} "
                "has an endpoint outside the units")
    table = g.comp_table
    ids = np.arange(n)

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
            if wrong[a, b]:
                raise errors.DomainMismatch(
                    f"composition of {a + lo}, {b} defined on the wrong domain")
            raise errors.DomainMismatch(
                f"composite {a + lo}{b} has the wrong endpoints")

    units = np.arange(n_units)
    has_id = (identity >= 0) & (identity < n)
    ident = np.where(has_id, identity, 0)
    has_id &= (dom[ident] == units) & (ran[ident] == units)
    bad_unit = ~has_id
    right = has_id[dom] & (table[ids, ident[dom]] != ids)    # a 1_dom(a) != a
    left = has_id[ran] & (table[ident[ran], ids] != ids)     # 1_ran(a) a != a
    bad_unit[dom[right]] = True
    bad_unit[ran[left]] = True
    if bad_unit.any():
        raise errors.MissingIdentity(_first(bad_unit))

    has_inv = (inv >= 0) & (inv < n)
    ai = np.where(has_inv, inv, 0)
    good = has_inv & (dom[ai] == ran) & (ran[ai] == dom) & \
        (table[ai, ids] == identity[dom]) & (table[ids, ai] == identity[ran])
    if not good.all():
        raise errors.MissingInverse(_first(~good))

    a, b = np.nonzero(table >= 0)                            # lexicographic
    per_pair = np.bincount(ran, minlength=n_units)[dom[b]]
    step = max(1, CHUNK // max(int(per_pair.max(initial=1)), 1))
    for lo in range(0, len(a), step):
        pa, pb = a[lo:lo + step], b[lo:lo + step]
        counts, tc = arrows_at(dom[pb], ran, n_units)
        ta, tb = np.repeat(pa, counts), np.repeat(pb, counts)
        bad = table[table[ta, tb], tc] != table[ta, table[tb, tc]]
        if bad.any():
            i = _first(bad)
            raise errors.CompositionNotAssociative(
                int(ta[i]), int(tb[i]), int(tc[i]))
    g.validated = True
    return g


def groupoid_from_group(G, name=None) -> FiniteGroupoid:
    """A group as a one-unit groupoid."""
    n = len(G)
    comp = {(a, b): G.mul(a, b) for a in range(n) for b in range(n)}
    g = FiniteGroupoid(["pt"], [0] * n, [0] * n, comp,
                       [G.inv(a) for a in range(n)],
                       [G.identity], arrow_labels=G.names,
                       name=name or G.name)
    return validate_groupoid(g)


def pair_groupoid(n: int, name=None) -> FiniteGroupoid:
    """The pair groupoid on n units: one arrow (i <- j) per ordered pair."""
    # arrow (i <- j) has id i n + j; it is the label i at the point j, and
    # labels multiply by keeping the left one
    arrows = [(i, j) for i in range(n) for j in range(n)]
    index = np.arange(n * n).reshape(n, n)
    ran, dom = np.divmod(np.arange(n * n), n)
    product = np.repeat(np.arange(n)[:, None], n, axis=1)
    comp = compose_by_label(n, ran, dom, ran, product, index)
    inv = index[dom, ran]
    identity = index[np.arange(n), np.arange(n)]
    g = FiniteGroupoid([f"x{u}" for u in range(n)], dom, ran, comp, inv,
                       identity, arrow_labels=[f"({i}<-{j})" for i, j in arrows],
                       name=name or f"Pair{n}")
    return validate_groupoid(g)


def groupoid_from_json(text: str, name="G") -> FiniteGroupoid:
    data = json.loads(text)
    units = data["units"]
    arrows = sorted(data["arrows"], key=lambda a: a["id"])
    dom = [a["dom"] for a in arrows]
    ran = [a["ran"] for a in arrows]
    comp = {(a, b): c for a, b, c in data["comp"]}
    inv = [0] * len(arrows)
    for a, ai in data["inv"]:
        inv[a] = ai
    identity = [-1] * len(units)
    for a in range(len(arrows)):
        if dom[a] == ran[a] and comp.get((a, a)) == a:
            identity[dom[a]] = a
    labels = [a.get("label", f"a{a['id']}") for a in arrows]
    g = FiniteGroupoid(units, dom, ran, comp, inv, identity,
                       arrow_labels=labels, name=name)
    return validate_groupoid(g)


def reduction(g: FiniteGroupoid, unit_subset, name=None) -> FiniteGroupoid:
    """Full subgroupoid on a unit subset: arrows with both endpoints inside."""
    units = sorted(set(int(u) for u in unit_subset))
    for u in units:
        if not 0 <= u < g.n_units:
            raise errors.UnknownUnit(f"unit {u} out of range")
    uset = set(units)
    unew = {u: i for i, u in enumerate(units)}
    arrows = [a for a in range(g.n_arrows)
              if g.dom[a] in uset and g.ran[a] in uset]
    anew = {a: i for i, a in enumerate(arrows)}
    comp = {(anew[a], anew[b]): anew[c]
            for (a, b), c in g.comp.items() if a in anew and b in anew}
    red = FiniteGroupoid(
        [g.unit_labels[u] for u in units],
        [unew[int(g.dom[a])] for a in arrows],
        [unew[int(g.ran[a])] for a in arrows],
        comp,
        [anew[int(g.inv[a])] for a in arrows],
        [anew[int(g.identity[u])] for u in units],
        arrow_labels=[g.arrow_labels[a] for a in arrows],
        name=name or f"{g.name}|")
    red.parent_units = tuple(units)
    red.parent_arrows = tuple(arrows)
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
    """Validate dom/ran/composition/identity preservation."""
    unit_map = tuple(int(x) for x in unit_map)
    arrow_map = tuple(int(x) for x in arrow_map)
    if len(unit_map) != src.n_units or len(arrow_map) != src.n_arrows:
        raise errors.NotAFunctor("maps must cover all units and arrows")
    for a in range(src.n_arrows):
        fa = arrow_map[a]
        if not 0 <= fa < tgt.n_arrows:
            raise errors.NotAFunctor(f"arrow image {fa} out of range")
        if tgt.dom[fa] != unit_map[src.dom[a]] or \
                tgt.ran[fa] != unit_map[src.ran[a]]:
            raise errors.NotAFunctor(f"endpoints of arrow {a} not preserved")
    for u in range(src.n_units):
        if arrow_map[src.identity[u]] != tgt.identity[unit_map[u]]:
            raise errors.NotAFunctor(f"identity at unit {u} not preserved")
    for (a, b), c in src.comp.items():
        if tgt.compose(arrow_map[a], arrow_map[b]) != arrow_map[c]:
            raise errors.NotAFunctor(f"composition {a}{b} not preserved")
    return GroupoidFunctor(src, tgt, unit_map, arrow_map)


def compose_functors(F: GroupoidFunctor, G: GroupoidFunctor) -> GroupoidFunctor:
    """F after G (first G, then F)."""
    if G.target is not F.source and (
            G.target.n_arrows != F.source.n_arrows):
        raise errors.NotAFunctor("functors are not composable")
    return groupoid_functor(
        G.source, F.target,
        [F.unit_map[G.unit_map[u]] for u in range(G.source.n_units)],
        [F.arrow_map[G.arrow_map[a]] for a in range(G.source.n_arrows)])


def identity_functor(g: FiniteGroupoid) -> GroupoidFunctor:
    return groupoid_functor(g, g, range(g.n_units), range(g.n_arrows))


def invert_functor(F: GroupoidFunctor) -> GroupoidFunctor:
    """The inverse of a bijective functor."""
    if not verify_isomorphism(F):
        raise errors.NotBijective("only bijective functors invert")
    umap = [0] * F.target.n_units
    for u, v in enumerate(F.unit_map):
        umap[v] = u
    amap = [0] * F.target.n_arrows
    for a, b in enumerate(F.arrow_map):
        amap[b] = a
    return groupoid_functor(F.target, F.source, umap, amap)


def inclusion_of_reduction(red: FiniteGroupoid, g: FiniteGroupoid) -> GroupoidFunctor:
    return groupoid_functor(red, g, red.parent_units, red.parent_arrows)


def cocycle_faithfulness_map(F: GroupoidFunctor):
    """Materialize psi(g) = (ran g, dom g, F(g)) and report injectivity."""
    src = F.source
    triples = [(int(src.ran[a]), int(src.dom[a]), F(a))
               for a in range(src.n_arrows)]
    return triples, len(set(triples)) == src.n_arrows


def functor_report(F: GroupoidFunctor) -> dict:
    """Faithful / full / fully faithful / essentially surjective / weak equivalence.

    Faithful and full are read off the comparison map into the pullback
    ``{(x, y, h) : h an arrow F(y) -> F(x)}``; essential surjectivity asks
    every target unit to be connected by an arrow to an image unit.
    """
    src, tgt = F.source, F.target
    triples, faithful = cocycle_faithfulness_map(F)
    pullback = {(x, y, h)
                for x in range(src.n_units) for y in range(src.n_units)
                for h in range(tgt.n_arrows)
                if tgt.dom[h] == F.unit_map[y] and tgt.ran[h] == F.unit_map[x]}
    full = set(triples) >= pullback
    image_units = set(F.unit_map)
    ess = all(any((tgt.dom[h] == u and int(tgt.ran[h]) in image_units)
                  for h in range(tgt.n_arrows))
              for u in range(tgt.n_units))
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
    if not bij:
        return False
    if G_back is not None:
        if any(G_back.arrow_map[F.arrow_map[a]] != a
               for a in range(F.source.n_arrows)):
            return False
        if any(F.arrow_map[G_back.arrow_map[a]] != a
               for a in range(G_back.source.n_arrows)):
            return False
    return True


def find_isomorphism(g: FiniteGroupoid, h: FiniteGroupoid,
                     arrow_limit: int = 64):
    """Brute-force isomorphism search (oracle for small groupoids).

    Returns a GroupoidFunctor or None.  Pre-checks cheap invariants (unit and
    arrow counts, isotropy multiset) before backtracking over unit bijections
    and hom-set assignments.
    """
    if g.n_arrows > arrow_limit or h.n_arrows > arrow_limit:
        raise errors.SizeLimitExceeded(max(g.n_arrows, h.n_arrows), arrow_limit)
    if g.n_units != h.n_units or g.n_arrows != h.n_arrows:
        return None
    if g.isotropy_orders() != h.isotropy_orders():
        return None

    def unit_sig(k, u):
        iso = sum(1 for a in range(k.n_arrows)
                  if k.dom[a] == u and k.ran[a] == u)
        out = sum(1 for a in range(k.n_arrows) if k.dom[a] == u)
        return (iso, out, len(k.orbit_of(u)))

    gsig = [unit_sig(g, u) for u in range(g.n_units)]
    hsig = [unit_sig(h, u) for u in range(h.n_units)]
    if sorted(gsig) != sorted(hsig):
        return None

    def hom_set(k, u, v):
        return [a for a in range(k.n_arrows)
                if k.dom[a] == u and k.ran[a] == v]

    def try_units(unit_map):
        amap = [-1] * g.n_arrows
        used = [False] * h.n_arrows
        order = sorted(range(g.n_arrows),
                       key=lambda a: (g.dom[a], g.ran[a], a))

        def consistent(a, b):
            # every composition constraint touching a: a as a factor, and a
            # as the composite of two arrows mapped earlier
            mapped = [x for x in range(g.n_arrows) if amap[x] >= 0]
            for x in mapped:
                c = g.compose(a, x)
                if c is not None and amap[c] >= 0:
                    if h.compose(b, amap[x]) != amap[c]:
                        return False
                c = g.compose(x, a)
                if c is not None and amap[c] >= 0:
                    if h.compose(amap[x], b) != amap[c]:
                        return False
            c = g.compose(a, a)
            if c is not None and amap[c] >= 0 and h.compose(b, b) != amap[c]:
                return False
            for x in mapped:
                for y in mapped:
                    if g.compose(x, y) == a and \
                            h.compose(amap[x], amap[y]) != b:
                        return False
            return True

        def backtrack(i):
            if i == len(order):
                return True
            a = order[i]
            if amap[a] >= 0:
                return backtrack(i + 1)
            du, ru = unit_map[g.dom[a]], unit_map[g.ran[a]]
            for b in hom_set(h, du, ru):
                if used[b]:
                    continue
                ai, bi = int(g.inv[a]), int(h.inv[b])
                if amap[ai] >= 0 and amap[ai] != bi:
                    continue
                if used[bi] and amap[ai] != bi:
                    continue
                amap[a] = b
                used[b] = True
                set_inv = amap[ai] < 0
                if set_inv:
                    amap[ai] = bi
                    used[bi] = True
                if consistent(a, b) and (not set_inv or consistent(ai, bi)) \
                        and backtrack(i + 1):
                    return True
                amap[a] = -1
                used[b] = False
                if set_inv:
                    amap[ai] = -1
                    used[bi] = False
            return False

        if backtrack(0):
            return amap
        return None

    def unit_backtrack(i, unit_map, taken):
        if i == g.n_units:
            amap = try_units(unit_map)
            if amap is not None:
                return groupoid_functor(g, h, unit_map, amap)
            return None
        for v in range(h.n_units):
            if taken[v] or hsig[v] != gsig[i]:
                continue
            unit_map[i] = v
            taken[v] = True
            res = unit_backtrack(i + 1, unit_map, taken)
            if res is not None:
                return res
            taken[v] = False
        return None

    return unit_backtrack(0, [-1] * g.n_units, [False] * h.n_units)


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

    @property
    def n_points(self):
        return len(self.point_labels)

    def __call__(self, h: int, x: int):
        y = int(self.act[h, x])
        return y if y >= 0 else None


def validate_space_action(action: GroupoidSpaceAction) -> GroupoidSpaceAction:
    """Check the anchor, identities, equivariance and hx functoriality.

    Each check covers all arrows and points at once (functoriality over
    the composable pairs, in chunks); the witness is the first failure in
    id order.
    """
    h = action.groupoid
    m = action.n_points
    points = np.arange(m)
    anchor = np.asarray(action.anchor, dtype=np.int64)
    act = np.maximum(action.act, -1)
    outside = (anchor < 0) | (anchor >= h.n_units)
    fixed = act[h.identity[np.where(outside, 0, anchor)], points] == points
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
    a, b = np.nonzero(h.comp_table >= 0)                     # lexicographic
    step = max(1, CHUNK // max(m, 1))
    for lo in range(0, len(a), step):
        pa, pb = a[lo:lo + step], b[lo:lo + step]
        bx = act[pb]
        ab_x = act[h.comp_table[pa, pb]]
        bad = (bx >= 0) & (act[pa[:, None], bx] != ab_x)
        if bad.any():
            i, x = divmod(_first(bad), m)
            raise errors.InvalidAction(
                f"action not functorial at ({pa[i]},{pb[i]},{x})")
    return action


def action_groupoid(maps, product, inverse, unit_label, label_names,
                    point_labels, name) -> FiniteGroupoid:
    """The groupoid of pairs (label, x) with maps[label, x] >= 0.

    (l, x) goes from x to maps[l, x]; (k, maps[l, x])(l, x) = (kl, x) with
    kl = product[k, l]; the inverse of (l, x) is (inverse[l], maps[l, x]);
    the identity at x is (unit_label[x], x).  Arrows are numbered in
    lexicographic order of (label, x).  The result, not yet validated,
    carries ``arrow_pairs`` and ``pair_index``.
    """
    m = len(point_labels)
    label, dom = np.nonzero(maps >= 0)
    arrows = list(zip(label.tolist(), dom.tolist()))
    arrow_at = np.full(maps.shape, -1, dtype=np.int64)
    arrow_at[label, dom] = np.arange(len(arrows))
    ran = maps[label, dom]
    g = FiniteGroupoid(
        point_labels, dom, ran,
        compose_by_label(m, label, dom, ran, product, arrow_at),
        arrow_at[np.asarray(inverse)[label], ran],
        arrow_at[unit_label, np.arange(m)],
        arrow_labels=[f"({label_names[a]},{point_labels[x]})"
                      for a, x in arrows],
        name=name)
    g.arrow_pairs = tuple(arrows)
    g.pair_index = dict(zip(arrows, range(len(arrows))))
    return g


def semidirect_product(action: GroupoidSpaceAction, name=None) -> FiniteGroupoid:
    """H x X with d(h, x) = x, r(h, x) = hx and (g, hy)(h, y) = (gh, y)."""
    validate_space_action(action)
    h = action.groupoid
    anchor = np.asarray(action.anchor, dtype=np.int64)
    return validate_groupoid(action_groupoid(
        action.act, h.comp_table, h.inv, h.identity[anchor], h.arrow_labels,
        action.point_labels, name=name or f"{h.name}|X"))


def semidirect_projection(sd: FiniteGroupoid, h: FiniteGroupoid) -> GroupoidFunctor:
    """The projection H x X -> H onto the first coordinate."""
    unit_map = []
    for x in range(sd.n_units):
        a, _ = sd.arrow_pairs[sd.identity[x]]
        unit_map.append(int(h.dom[a]))
    arrow_map = [a for a, _ in sd.arrow_pairs]
    return groupoid_functor(sd, h, unit_map, arrow_map)


def equivalence_classes(items, related):
    """The classes of the equivalence on ``items`` generated by the pairs in
    ``related``, by union-find.

    ``items`` must be in increasing order.  Returns ``(classes, index)``:
    ``classes`` lists each class's members in that order, so each class
    starts with its least member, and the classes are ordered by it
    whichever roots the unions chose; ``index`` maps every item to the
    number of its class.
    """
    parent = {p: p for p in items}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for p, q in related:
        rp, rq = find(p), find(q)
        parent[rp] = rq
    members = {}
    for p in items:
        members.setdefault(find(p), []).append(p)
    number = {root: i for i, root in enumerate(members)}
    return list(members.values()), {p: number[find(p)] for p in items}


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
    pairs = [(a, e) for a in range(h.n_arrows) for e in range(g.n_units)
             if h.dom[a] == F.unit_map[e]]

    def related():
        for (a, e) in pairs:
            for arr in range(g.n_arrows):
                if g.dom[arr] != e:
                    continue
                # (a, e) ~ (k, f) when F(arr) = k^{-1} a, i.e. k = a F(arr)^{-1}
                k = h.compose(a, int(h.inv[F(arr)]))
                if k is not None:
                    yield (a, e), (k, int(g.ran[arr]))

    classes, class_index = equivalence_classes(pairs, related())
    reps = [cls[0] for cls in classes]
    labels = [f"[{h.arrow_labels[a]},{g.unit_labels[e]}]" for a, e in reps]
    anchor = [int(h.ran[a]) for a, e in reps]
    act = np.full((h.n_arrows, len(reps)), -1, dtype=np.int64)
    for b in range(h.n_arrows):
        for i, (a, e) in enumerate(reps):
            if h.dom[b] == h.ran[a]:
                act[b, i] = class_index[(h.compose(b, a), e)]
    action = validate_space_action(
        GroupoidSpaceAction(h, labels, anchor, act))
    sd = semidirect_product(action, name=f"{h.name}|env")
    unit_map = [class_index[(int(h.identity[F.unit_map[e]]), e)]
                for e in range(g.n_units)]
    arrow_map = []
    for arr in range(g.n_arrows):
        x = unit_map[g.dom[arr]]
        arrow_map.append(sd.pair_index[(F(arr), x)])
    alpha = groupoid_functor(g, sd, unit_map, arrow_map)
    return action, alpha, sd, dict(enumerate(classes))

"""Inverse semigroup actions on finite sets and their germ groupoids.

Covers the canonical action on the filter space, the universal, contracted
and tight groupoids, ideal perps and the reduction isomorphism, the
correspondence between S-spaces and actions of the universal groupoid,
and functors induced by semigroup homomorphisms.

Finite sets carry the discrete topology, so every action here is special
(all domains clopen); this is asserted once and not re-checked per call.
"""

from __future__ import annotations

import functools

import numpy as np

from . import errors
from .groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    GroupoidSpaceAction,
    born_validated,
    groupoid_functor,
    middle_arrows,
    reduction,
    semidirect_product,
    validate_groupoid,
    validate_space_action,
)
from .semigroups import (
    CHUNK,
    InvSemigroup,
    SemigroupHom,
    first_failing_product,
    first_occurrence_ids,
    is_ideal,
    lights_test,
    narrow,
    transposed,
)
from .spectra import (
    enumerate_filters,
    hat_map,
    restrict_to_idempotents,
    tight_spectrum,
)


class SAction:
    """An action of an inverse semigroup on a finite set.

    ``maps[s, x]`` is theta_s(x), or -1 outside the domain of theta_s.
    """

    def __init__(self, semigroup: InvSemigroup, point_labels, maps):
        self.semigroup = semigroup
        self.point_labels = tuple(point_labels)
        self.maps = np.asarray(maps, dtype=np.int64)
        self.maps.setflags(write=False)
        self.validated = False      # set once validate_saction passes
        self._anchor = None         # memo of anchor_idempotents
        self._gspace = None         # memo of gspace_from_saction

    @property
    def n_points(self):
        return len(self.point_labels)

    def __call__(self, s: int, x: int):
        y = int(self.maps[s, x])
        return y if y >= 0 else None

    def domain(self, s: int) -> frozenset:
        return frozenset(int(x) for x in np.flatnonzero(self.maps[s] >= 0))

    def restrict(self, subset) -> "SAction":
        """Restriction to an invariant point subset (re-indexed); a subset
        that is not invariant raises :class:`~germoid.errors.NotInvariant`.
        The restriction of a validated action is validated: its maps are
        the old ones on the subset, so each law holds there, and every
        point keeps an idempotent's domain."""
        subset, sub = restrict_maps(self.maps, subset)
        act = SAction(self.semigroup,
                      [self.point_labels[x] for x in subset], sub)
        act.parent_points = tuple(subset.tolist())
        act.validated = self.validated
        return act


def anchor_idempotents(action: SAction) -> np.ndarray:
    """m_x for each point x: the product of the idempotents e with x in the
    domain of theta_e, or -1 when x lies in no such domain.

    Since theta_e theta_f = theta_ef, x lies in the domain of theta_{m_x}:
    m_x is the least idempotent whose domain holds x.  The rows
    ``where(x in dom theta_e, e, -1)`` are multiplied pairwise, halves
    against halves, with -1 as the empty product; idempotents commute, so
    any order gives the same product.  Points go in blocks of ``CHUNK``
    entries.  The read-only result is memoized on the action.
    """
    if action._anchor is None:
        S, maps = action.semigroup, action.maps
        E = np.asarray(S.idempotents, dtype=np.int64)
        m = np.full(action.n_points, -1, dtype=np.int64)
        step = max(1, CHUNK // max(len(E), 1))
        for lo in range(0, len(m), step):
            rows = np.where(maps[E, lo:lo + step] >= 0, E[:, None], -1)
            while len(rows) > 1:
                half = len(rows) // 2
                a, b = rows[:half], rows[half:2 * half]
                ab = np.where(a < 0, b, np.where(b < 0, a, S.table[a, b]))
                rows = np.concatenate((ab, rows[2 * half:]))
            m[lo:lo + step] = rows[0] if len(rows) else -1
        m.setflags(write=False)
        action._anchor = m
    return action._anchor


def inverse_defects(maps: np.ndarray, star: np.ndarray):
    """Per row s of partial maps (-1-padded images): whether theta_s repeats
    an image, whether theta_{star[s]} fails to undo theta_s, and whether
    the domain of theta_{star[s]} outgrows the image of theta_s.  An image
    outside the points is never undone."""
    m = maps.shape[1]
    defined = maps >= 0
    ordered = np.sort(np.where(defined, maps, -1), axis=1)
    repeated = ((ordered[:, 1:] == ordered[:, :-1]) &
                (ordered[:, 1:] >= 0)).any(axis=1)
    inside = defined & (maps < m)
    back = maps[star[:, None], np.where(inside, maps, 0)]
    not_undone = (defined & (~inside | (back != np.arange(m)))).any(axis=1)
    overshoots = defined[star].sum(axis=1) != defined.sum(axis=1)
    return repeated, not_undone, overshoots


def validate_saction(S: InvSemigroup, point_labels, maps) -> SAction:
    """Validate a family of partial maps as an inverse semigroup action.

    Row by row in id order, theta_s must map into the points, every entry
    a point or -1 where undefined, be injective and be inverted by
    theta_{s*}; then theta_s theta_t = theta_st must hold for all pairs
    (s, t), and every point must lie in some idempotent's domain.  The
    first failure in that order is reported.

    The pairs are checked for the generators t of S by
    :func:`~germoid.semigroups.lights_test`, the row-gather kernel of
    Light's test, on the maps in the narrowest integer type that holds
    them and on their transpose.  Only when it fails does
    :func:`~germoid.semigroups.first_failing_product` scan all pairs for
    the first (s, t) at which the two sides differ.  The action returned
    is marked ``validated``.
    """
    action = SAction(S, point_labels, np.asarray(maps))
    n, m = len(S), action.n_points
    maps = action.maps
    if maps.shape != (n, m):
        raise errors.InvalidParams("need one partial map per semigroup element")
    out_of_range = ((maps >= m) | (maps < -1)).any(axis=1)
    repeated, not_inverted, overshoots = inverse_defects(maps, S.star)
    failing = out_of_range | repeated | not_inverted | overshoots
    if failing.any():
        s = int(np.flatnonzero(failing)[0])
        si = int(S.star[s])
        if out_of_range[s]:
            raise errors.InvalidParams("map image out of range")
        if repeated[s]:
            raise errors.NotBijective(f"theta_{s} is not injective")
        if not_inverted[s]:
            raise errors.NotBijective(f"theta_{si} does not invert theta_{s}")
        raise errors.NotBijective(f"theta_{si} overshoots theta_{s}")
    # theta_s theta_t = theta_st: if it holds for every generator t it holds
    # for all t, since theta_s theta_tu = theta_st theta_u = theta_stu; only
    # when a generator fails are all pairs scanned
    small = narrow(maps, -1, m - 1)
    if not lights_test(S.table, small, S.generators, transposed(small)):
        bad = first_failing_product(S.table, maps, np.not_equal)
        if bad is not None:
            raise errors.NotAHomomorphism(
                f"theta_{bad[0]} theta_{bad[1]} != theta_{{s t}}")
    covered = (maps[list(S.idempotents)] >= 0).any(axis=0)
    if not covered.all():
        raise errors.DomainsDontCover(int(np.flatnonzero(~covered)[0]))
    action.validated = True
    return action


def beta_action(S: InvSemigroup, contracted=False) -> SAction:
    """The canonical action on the filter space: beta_s(x^) = (s x s*)^ on D(s*s).

    Pointwise this is phi |-> phi(s* _ s); on principal filters the two
    agree, which the tests check against the semi-character oracle.  The
    action, validated once, is memoized on the semigroup, one per flag, and
    its ``space`` is :func:`~germoid.spectra.enumerate_filters` of S.
    """
    contracted = bool(contracted)
    if contracted not in S._beta:
        space = enumerate_filters(S, contracted=contracted)
        action = validate_saction(S, [space.label(i) for i in range(len(space))],
                                  beta_maps(S, contracted))
        action.space = space
        S._beta[contracted] = action
    return S._beta[contracted]


def below(S: InvSemigroup, s, f):
    """Whether the idempotents f lie below s*s, for broadcast arrays s and
    f: then the filter f^ is in the domain of beta_s."""
    return S.table[f, S.table[S.star[s], s]] == f


def beta_maps(S: InvSemigroup, contracted=False) -> np.ndarray:
    """maps[s, i] = index of the filter (s m_i s*)^ when m_i <= s*s, else -1,
    where m_i is the minimum of filter i of
    :func:`~germoid.spectra.enumerate_filters` of S, in row blocks of
    ``CHUNK`` entries.  The read-only maps are memoized on the semigroup,
    one per flag: ``beta_action``, ``partial_actions.theta_from_sigma`` and
    ``partial_actions.verify_main1`` read them."""
    contracted = bool(contracted)
    if contracted not in S._beta_maps:
        space = enumerate_filters(S, contracted=contracted)
        mins = np.asarray(space.mins, dtype=np.int64)
        index = np.full(len(S), -1, dtype=np.int64)
        index[mins] = np.arange(len(mins))
        maps = np.empty((len(S), len(mins)), dtype=np.int64)
        step = max(1, CHUNK // max(len(mins), 1))
        for lo in range(0, len(S), step):
            s = np.arange(lo, min(lo + step, len(S)))[:, None]
            inside = below(S, s, mins[None, :])
            image = S.table[S.table[s, mins], S.star[s]]             # s m s*
            block = maps[lo:lo + step] = np.where(inside, index[image], -1)
            if (inside & (block < 0)).any():
                r, i = np.argwhere(inside & (block < 0))[0]
                space.index_of(int(image[r, i]))   # raises UnknownElement
        maps.setflags(write=False)
        S._beta_maps[contracted] = maps
    return S._beta_maps[contracted]


def restrict_maps(maps: np.ndarray, subset):
    """Partial maps (rows of -1-padded images) restricted to an invariant
    point subset.

    Returns ``(subset, sub)``: the sorted subset and the restricted maps,
    re-indexed to it.  The first (row, point) mapped outside the subset
    raises :class:`~germoid.errors.NotInvariant`.
    """
    subset = np.array(sorted(set(int(x) for x in subset)), dtype=np.int64)
    pos = np.full(maps.shape[1] + 1, -1, dtype=np.int64)   # pos[-1] = -1
    pos[subset] = np.arange(len(subset))
    rows = maps[:, subset]
    sub = np.where(rows >= 0, pos[rows], -1)
    if ((rows >= 0) & (sub < 0)).any():
        g, i = np.argwhere((rows >= 0) & (sub < 0))[0]
        raise errors.NotInvariant(int(g), int(subset[i]))
    return subset, sub


class GermGroupoid(FiniteGroupoid):
    """A groupoid of germs: arrow ``arrow_at[s, x]`` is the germ [s, x],
    and row a of ``arrow_pairs`` is (s, x) for the least such pair.  Its
    ``semigroup`` is the action's, and its ``space`` the action's filter
    space, or None."""

    def __init__(self, action: SAction, arrow_pairs, arrow_at, **kw):
        self.action = action
        self.semigroup = action.semigroup
        self.space = getattr(action, "space", None)
        self.arrow_pairs = arrow_pairs
        self.arrow_at = arrow_at
        for arr in (arrow_pairs, arrow_at):
            arr.setflags(write=False)
        super().__init__(**kw)

    @property
    def germ_reps(self) -> tuple:
        """Per arrow its germ (s, x): the rows of ``arrow_pairs``."""
        return tuple(map(tuple, self.arrow_pairs.tolist()))

    def germ(self, s, x):
        """Arrow id of the germ [s, x], or the array of them for arrays s
        and x; raises at the first (s, x) with x outside dom theta_s."""
        s, x = np.broadcast_arrays(np.asarray(s, dtype=np.int64),
                                   np.asarray(x, dtype=np.int64))
        known = (s >= 0) & (s < len(self.semigroup)) & (x >= 0) & (x < self.n_units)
        arrows = np.where(known, self._germs_at(s * known, x * known), -1)
        if (arrows < 0).any():
            i = int(np.flatnonzero(arrows < 0)[0])
            raise errors.UnknownElement(
                f"({s.flat[i]},{x.flat[i]}) is not in the germ set")
        return int(arrows) if arrows.ndim == 0 else arrows

    def _germs_at(self, s, x):
        """The arrows [s, x] for s and x in range, -1 outside the germ set."""
        return self.arrow_at[s, x]


class UniversalGroupoid(GermGroupoid):
    """The groupoid of :func:`universal_groupoid`: each arrow is an element
    of S, and ``arrow_of`` gives each element's arrow, or -1.  Born
    validated; beta (the ``action``), ``arrow_at``, the arrow labels and the
    ``generators`` are made when first read."""

    def __init__(self, S: InvSemigroup, space, name):
        n, table, star = len(S), S.table, S.star
        mins = self._mins = np.asarray(space.mins, dtype=np.int64)
        unit = np.full(n, -1, dtype=np.int64)
        unit[mins] = np.arange(len(mins))
        dom, label = unit[table[star, np.arange(n)]], least_above(S)
        t = np.flatnonzero(dom >= 0)        # every element but a contracted zero
        t = t[np.argsort(label[t] * len(mins) + dom[t])]
        arrow_of = self.arrow_of = np.full(n, -1, dtype=np.int64)
        arrow_of[t] = np.arange(len(t))
        self.semigroup, self.space = S, space
        self.arrow_pairs = np.column_stack((label[t], dom[t]))
        self.arrow_pairs.setflags(write=False)
        FiniteGroupoid.__init__(
            self, [space.label(i) for i in range(len(space))], dom[t],
            unit[table[t, star[t]]], lambda a, b: arrow_of[table[t[a], t[b]]],
            arrow_of[star[t]], arrow_of[mins], name=name)

    action = functools.cached_property(
        lambda self: beta_action(self.semigroup, self.space.contracted))
    generators = functools.cached_property(middle_arrows)
    arrow_labels = functools.cached_property(lambda self: tuple(
        f"[{self.semigroup.names[s]},{self.unit_labels[x]}]"
        for s, x in self.arrow_pairs.tolist()))

    @functools.cached_property
    def arrow_at(self) -> np.ndarray:
        at = self._germs_at(np.arange(len(self.semigroup))[:, None],
                            np.arange(self.n_units)[None, :])
        at.setflags(write=False)
        return at

    def _germs_at(self, s, x):          # [s, f^] is the arrow s f, f <= s*s
        f = self._mins[x]
        return np.where(below(self.semigroup, s, f),
                        self.arrow_of[self.semigroup.table[s, f]], -1)


def least_above(S: InvSemigroup) -> np.ndarray:
    """Per element t the least s >= t: the first row of ``table[:, E]``
    that holds t, as the elements below s are the s e, e in E(S).  Rows go
    in blocks of ``CHUNK`` entries.  A finite semigroup has an idempotent;
    a table with none raises :class:`~germoid.errors.InvariantViolation`."""
    n, E = len(S), np.asarray(S.idempotents, dtype=np.int64)
    if not len(E):
        raise errors.InvariantViolation("a finite semigroup must have an idempotent", S.name)
    least = np.full(n, n, dtype=np.int64)
    step = max(1, CHUNK // len(E))
    for lo in range(0, n, step):
        rows = S.table[lo:lo + step, E]
        np.minimum.at(least, rows.ravel(), np.repeat(np.arange(lo, lo + len(rows)), len(E)))
    return least


def germ_groupoid(action: SAction, name=None) -> GermGroupoid:
    """The groupoid of germs of an action.

    The germ set is Omega = {(s, x) : x in dom theta_{s*s}}, and
    (s, x) ~ (t, x) iff some u <= s, t has x in the domain of theta_{u*u};
    composition is [s, theta_t(y)][t, y] = [st, y] and the inverse of [s, x]
    is [s*, theta_s(x)].  Arrows are numbered by their least (s, x).

    Germ classes come from one key per pair.  Let m_x be the product of the
    idempotents e with x in dom theta_e (:func:`anchor_idempotents`).
    Lemma: for (s, x), (t, x) in Omega, some u <= s, t has x in
    dom theta_{u*u} iff s m_x = t m_x.  If s m_x = t m_x, take u = s m_x:
    u <= s, t, and u*u = s*s m_x, whose domain is dom theta_{s*s} n
    dom theta_{m_x}, which holds x.  Conversely, x in dom theta_{u*u} gives
    m_x <= u*u, so s m_x = s u*u m_x = u m_x = t u*u m_x = t m_x.  The proof
    needs only theta_e theta_f = theta_ef, which :func:`validate_saction`
    establishes.  So the class of (s, x) is keyed by (s m_x, x), at
    O(|S| |X|) cost.

    For an action that passed :func:`validate_saction` (or a restriction of
    one, :meth:`SAction.restrict`) of a validated S, the groupoid is born
    validated (Exel, *Inverse semigroups and combinatorial C*-algebras*,
    2008, section 4); any other is checked in full.  Of S's memoized beta,
    it has the arrays of S's memoized universal groupoid (proved in
    :func:`universal_groupoid`), and takes its composable-pair index, if
    S holds it, but not its products.  Its laws follow from S's and the
    action's.  The anchors are equivariant,
    m_{theta_t(y)} t m_y = t m_y: y lies in dom theta_e for the idempotent
    e = t* m_{theta_t(y)} t, so m_y <= e and t m_y = t e m_y = m_{theta_t(y)}
    t m_y.  So [s, theta_t(y)][t, y] = [st, y] depends only on the classes:
    st m_y = s m_{theta_t(y)} t m_y.  It is an arrow from y, as y lies in
    dom theta_s theta_t = dom theta_st, to theta_st(y) = theta_s(theta_t(y));
    associativity is S's.  [m_x, x] is an arrow, as the idempotent domains
    cover X, and the identity at x, as s m_x m_x = s m_x and
    m_{theta_s(x)} s m_x = s m_x.  [s*, theta_s(x)][s, x] = [s*s, x] =
    [m_x, x], as x in dom theta_{s*s} gives m_x <= s*s, and
    [s, x][s*, theta_s(x)] = [m_{theta_s(x)}, theta_s(x)] likewise.
    """
    S = action.semigroup
    g = GermGroupoid(action, name=name or f"{S.name}|germs", **_germ_arrays(action))
    proved = action.validated and S.validated
    for flag, beta in S._beta.items():
        if proved and beta is action and flag in S._universal:
            g._index = S._universal[flag]._index
    return validate_groupoid(born_validated(g) if proved else g)


def _germ_arrays(action: SAction) -> dict:
    """The keyword arguments of :class:`GermGroupoid` for the germs of an
    action, bar the name; ``products`` is the rule (a, b) -> ab, and
    ``arrow_labels`` a function that makes them."""
    S = action.semigroup
    n, m = len(S), action.n_points
    maps = action.maps
    anchor = anchor_idempotents(action)
    in_omega = maps[S.table[S.star, np.arange(n)]] >= 0
    key = S.table[:, anchor] * m + np.arange(m)
    s_of, x_of = np.nonzero(in_omega)                      # lexicographic
    arrow_of_pair, firsts = first_occurrence_ids(key[s_of, x_of])
    arrow_at = np.full((n, m), -1, dtype=np.int64)
    arrow_at[s_of, x_of] = arrow_of_pair
    label, dom = s_of[firsts], x_of[firsts]
    ran = maps[label, dom]
    return dict(
        arrow_pairs=np.column_stack((label, dom)), arrow_at=arrow_at,
        unit_labels=action.point_labels, dom=dom, ran=ran,
        inv=arrow_at[S.star[label], ran],
        products=lambda a, b: arrow_at[S.table[label[a], label[b]], dom[b]],
        # [e, x] = [m_x, x] for every idempotent e whose domain holds x
        identity=arrow_at[anchor, np.arange(m)],
        arrow_labels=lambda: [f"[{S.names[s]},{action.point_labels[x]}]"
                              for s, x in zip(label.tolist(), dom.tolist())])


def universal_groupoid(S: InvSemigroup, contracted=False) -> GermGroupoid:
    """Germ groupoid of the canonical action on the (contracted) filter
    space, read off the table of S in O(|S| |E|) and born validated.

    It is the inductive groupoid of S (Lawson, *Inverse Semigroups*, 1998,
    ch. 4; Steinberg, Adv. Math. 223, 2010).  Every filter is principal, so
    the units are the f^, f in E(S) (bar 0 when contracted).  By the germ
    lemma of :func:`germ_groupoid`, with beta's anchor f at f^, the class
    of (s, f^) is keyed by (s f, f^), and t = s f fixes f = t*t.  So the
    arrows are the elements t (t != 0 when contracted), with dom t =
    (t*t)^, ran t = (s f s*)^ = (t t*)^, identity f at f^, inverse
    [s*, (t t*)^] = s* t t* = t*, and, for dom t = ran u, product
    [s s', (u*u)^] = s u = s t*t u = t u.  The least (s, x) of the class of
    t is (least s >= t, dom t) (:func:`least_above`), and germ_groupoid
    numbers the arrows by it, so the arrays are exactly the same.  Its laws are
    S's: associativity is the table's, which Light's test proved; the
    endpoints of t u are u*t*t u = u*u and t u u*t* = t t*; t t*t = t gives
    the identity and inverse laws.  So, for a ``validated`` S, it is born
    validated; for S from the raw constructor it is checked in full.

    It is memoized on S, one per flag, once it passes.  Every call passes
    it through :func:`~germoid.groupoids.validate_groupoid`, which returns
    a validated groupoid as it is.
    """
    contracted = bool(contracted)
    if contracted and S.zero is None:
        raise errors.ContractedWithoutZero(S.name)
    g = S._universal.get(contracted)
    if g is None:
        tag = "c" if contracted else "u"
        g = UniversalGroupoid(S, enumerate_filters(S, contracted),
                              name=f"G({S.name},{tag})")
        g.validated = S.validated
    S._universal[contracted] = validate_groupoid(g)
    return g


def tight_groupoid(S: InvSemigroup) -> GermGroupoid:
    """Germ groupoid of the action restricted to the tight spectrum.

    The action is the restriction of beta to the tight filters, which are
    invariant, so the groupoid is born validated.  It agrees arrow-for-arrow
    with the reduction of the contracted universal groupoid to the tight
    units; a mismatch raises
    :class:`~germoid.errors.InvariantViolation` with the first differing
    arrow.
    """
    if S.zero is None:
        raise errors.NoZero(S.name)
    universal = universal_groupoid(S, contracted=True)
    tight = tight_spectrum(universal.space)
    g = germ_groupoid(universal.action.restrict(tight), name=f"Gt({S.name})")
    red = reduction(universal, tight)
    k = min(g.n_arrows, red.n_arrows)
    differ = (g.dom[:k] != red.dom[:k]) | (g.ran[:k] != red.ran[:k])
    if differ.any() or g.n_arrows != red.n_arrows:
        first = int(np.argmax(differ)) if differ.any() else k
        raise errors.InvariantViolation(
            "tight groupoid must match the reduction to tight units", first)
    return g


def ideal_perp(S: InvSemigroup, I):
    """Unit subset I-perp = {filters avoiding E n I} of the filter space.

    For principal filters these are exactly the x^ with x an idempotent not
    in I.  Returns ``(filter indices, space)``; the space is contracted iff
    S has a zero, matching how the universal groupoid of a semigroup with
    zero is taken.
    """
    I = set(I)
    if not is_ideal(S, I):
        raise errors.NotAnIdeal(f"{sorted(I)} is not an ideal")
    if len(I) == len(S):
        raise errors.ImproperIdeal("I-perp of the whole semigroup")
    space = enumerate_filters(S, contracted=S.zero is not None)
    perp = tuple(i for i, m in enumerate(space.mins) if m not in I)
    return perp, space


def verify_reduction_iso(S: InvSemigroup, I):
    """Explicit isomorphism of the quotient groupoid with the perp reduction.

    Constructs the universal groupoid of the Rees quotient (contracted) and
    the reduction of the universal groupoid of S to I-perp, and verifies the
    functor [s, F] -> [q(s), F] is an isomorphism.  Returns (ok, functor).
    """
    from .semigroups import rees_quotient

    Q, qmap = rees_quotient(S, I)
    quot = universal_groupoid(Q, contracted=True)
    big = universal_groupoid(S, contracted=S.zero is not None)
    perp, space = ideal_perp(S, I)
    red = reduction(big, perp)

    # unit of red = filter m^ of S with m not in I; in Q it is qmap(m)^
    unit_map = [quot.space.index_of(qmap(space.mins[x]))
                for x in red.parent_units]
    unit_of = np.zeros(big.n_units, dtype=np.int64)
    unit_of[list(red.parent_units)] = unit_map
    s, x = big.arrow_pairs[list(red.parent_arrows)].T
    arrow_map = quot.germ(np.asarray(qmap.map, dtype=np.int64)[s], unit_of[x])
    functor = groupoid_functor(red, quot, unit_map, arrow_map)
    from .groupoids import verify_isomorphism
    return verify_isomorphism(functor), functor


# -- the correspondence between S-spaces and universal-groupoid spaces -----------

def gspace_from_saction(action: SAction):
    """Equip the point set of an S-action with its universal-groupoid action.

    The anchor sends x to the (principal) filter {e : x in X_e}; the arrow
    [s, p(x)] acts as theta_s.  The groupoid is the contracted universal
    groupoid iff S has a zero whose domain is empty, as no filter of the
    anchor then holds the zero.  Returns ``(GroupoidSpaceAction,
    GermGroupoid)``, memoized on the action once the space action passes.
    """
    S = action.semigroup
    g = universal_groupoid(
        S, contracted=S.zero is not None and not action.domain(S.zero))
    if action._gspace is not None:
        return action._gspace
    space = g.space
    m_of = anchor_idempotents(action)
    points = np.arange(action.n_points)
    if (m_of < 0).any() or (action.maps[m_of, points] < 0).any():
        x = int(np.flatnonzero((m_of < 0) | (action.maps[m_of, points] < 0))[0])
        raise errors.NotAFilter(f"{{e : x{x} in X_e}} is not a filter")
    anchor = [space.index_of(int(m)) for m in m_of]
    # germ representatives through p(x) act alike; use s
    rep_s, rep_x = g.arrow_pairs.T
    through = rep_x[:, None] == np.array(anchor, dtype=np.int64)[None, :]
    act = np.where(through, action.maps[rep_s], -1)
    if (through & (act < 0)).any():
        raise errors.WrongGroupoid(
            "anchored point outside the domain of a representative")
    ga = validate_space_action(
        GroupoidSpaceAction(g, action.point_labels, anchor, act))
    action._gspace = ga, g
    return ga, g


def saction_from_gspace(gaction: GroupoidSpaceAction) -> SAction:
    """The S-action rho_s(x) = [s, p(x)] x underlying a universal-groupoid
    space, validated."""
    maps = underlying_maps(gaction)
    return validate_saction(gaction.groupoid.semigroup, gaction.point_labels, maps)


def underlying_maps(gaction: GroupoidSpaceAction) -> np.ndarray:
    """The maps of :func:`saction_from_gspace`, not yet validated:
    ``maps[s, x]`` is [s, p(x)] x where p(x) lies in D(s*s), else -1."""
    g = gaction.groupoid
    if not isinstance(g, GermGroupoid):
        raise errors.WrongGroupoid("expected a groupoid of germs")
    S, space = g.semigroup, g.space
    if space is None:
        raise errors.WrongGroupoid("expected the universal groupoid's action")
    anchor = np.asarray(gaction.anchor, dtype=np.int64)
    mins = np.asarray(space.mins, dtype=np.int64)[anchor]
    s, x = np.nonzero(below(S, np.arange(len(S))[:, None], mins[None, :]))  # p(x) in D(s*s)
    maps = np.full((len(S), len(anchor)), -1, dtype=np.int64)
    maps[s, x] = gaction.act[g.germ(s, anchor[x]), x]
    return maps


def verify_equiv_roundtrip(action: SAction):
    """Check the S-space / groupoid-space correspondence on one action.

    Both composites must be identities, and the germ groupoid of the action
    must be isomorphic to the semidirect product of the universal groupoid
    with the point set, via [s, x] -> ([s, p(x)], x).  Returns (ok, functor).

    Maps of the way back that equal those of a validated action are that
    action; any others are validated, so that a broken image is named.
    """
    from .groupoids import verify_isomorphism

    ga, g = gspace_from_saction(action)
    maps = underlying_maps(ga)
    back = action if action.validated and np.array_equal(maps, action.maps) \
        else validate_saction(action.semigroup, ga.point_labels, maps)
    if not np.array_equal(back.maps, action.maps):
        return False, None
    germ = germ_groupoid(action)
    sd = semidirect_product(ga)
    s, x = germ.arrow_pairs.T
    arrow_map = sd.arrow_at[g.germ(s, np.asarray(ga.anchor)[x]), x]
    functor = groupoid_functor(germ, sd, range(action.n_points), arrow_map)
    ok = verify_isomorphism(functor)
    # and back again: a groupoid space action regenerates itself
    ga2, _ = gspace_from_saction(back)
    ok = ok and np.array_equal(ga2.act, ga.act) and ga2.anchor == ga.anchor
    return ok, functor


def induced_functor(phi: SemigroupHom) -> GroupoidFunctor:
    """The functor of universal groupoids [s, F] -> [phi(s), phi^(F)].

    Local coherence of the idempotent restriction is automatic here; the
    compatibility phi^(sF) = phi(s) phi^(F) is what the functor validation
    exercises.
    """
    gs = universal_groupoid(phi.source, contracted=False)
    gt = universal_groupoid(phi.target, contracted=False)
    ehom = restrict_to_idempotents(phi)
    umap = hat_map(ehom, gs.space, gt.space)
    s, x = gs.arrow_pairs.T
    arrow_map = gt.germ(np.asarray(phi.map)[s], np.asarray(umap)[x])
    return groupoid_functor(gs, gt, umap, arrow_map)

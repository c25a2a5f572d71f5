"""Constructions the tests build on that no command or suite reaches: small
groupoids and functors, the germ classes of a groupoid of germs, dict forms
of actions and filter spaces, products of several elements, the natural
order, sigma meets, F-morphisms and restricted partial actions.  Each calls
the package's validations through their modules, so a test's spies see
them."""

import numpy as np

from germoid import errors, germs
from germoid import groupoids as gpd
from germoid import partial_actions as pa
from germoid import semigroups as sg


def pair_groupoid(n: int, name=None):
    """The pair groupoid on n units: one arrow (i <- j) per ordered pair."""
    # arrow (i <- j) has id i n + j, and (i <- j)(j <- k) = (i <- k)
    ran, dom = np.divmod(np.arange(n * n), n)
    labels = [f"({i}<-{j})" for i, j in zip(ran.tolist(), dom.tolist())]
    g = gpd.FiniteGroupoid([f"x{u}" for u in range(n)], dom, ran,
                           lambda a, b: ran[a] * n + dom[b], dom * n + ran,
                           np.arange(n) * (n + 1), arrow_labels=labels,
                           name=name or f"Pair{n}")
    return gpd.validate_groupoid(g)


def groupoid_from_group(G, name=None):
    """A group as a one-unit groupoid, validated: every pair composes, so
    the pairs in lexicographic order are the entries of its table in row
    order."""
    n = len(G)
    return gpd.validate_groupoid(gpd.FiniteGroupoid(
        ["pt"], [0] * n, [0] * n, G.table.ravel(), G.star, [G.identity],
        arrow_labels=G.names, name=name or G.name))


def compose_functors(F, G):
    """F after G (first G, then F)."""
    if G.target is not F.source and (
            G.target.n_arrows != F.source.n_arrows):
        raise errors.NotAFunctor("functors are not composable")
    return gpd.groupoid_functor(G.source, F.target,
                                np.array(F.unit_map)[list(G.unit_map)],
                                np.array(F.arrow_map)[list(G.arrow_map)])


def identity_functor(g):
    return gpd.groupoid_functor(g, g, range(g.n_units), range(g.n_arrows))


def invert_functor(F):
    """The inverse of a bijective functor."""
    if not gpd.verify_isomorphism(F):
        raise errors.NotBijective("only bijective functors invert")
    return gpd.groupoid_functor(F.target, F.source, np.argsort(F.unit_map),
                                np.argsort(F.arrow_map))


def inclusion_of_reduction(red, g):
    return gpd.groupoid_functor(red, g, red.parent_units, red.parent_arrows)


def germ_of(g) -> dict:
    """(s, x) -> arrow id of the germ [s, x], over the germ set of a
    groupoid of germs."""
    s, x = np.nonzero(g.arrow_at >= 0)
    return dict(zip(zip(s.tolist(), x.tolist()), g.arrow_at[s, x].tolist()))


def germ_classes(g) -> tuple:
    """Per arrow of a groupoid of germs, the frozenset of (s, x) pairs of
    its germ class."""
    classes = [[] for _ in range(g.n_arrows)]
    for pair, arrow in germ_of(g).items():
        classes[arrow].append(pair)
    return tuple(frozenset(c) for c in classes)


def upset(space, i: int) -> frozenset:
    """The elements of filter ``i`` of ``space``, the principal filter of
    its minimum."""
    E = space.semilattice
    return frozenset(e for e in E.elements if E.leq(space.mins[i], e))


def d_set(space, e: int) -> frozenset:
    """D(e): indices of the filters containing e, i.e. with minimum <= e."""
    E = space.semilattice
    E.position(e)
    return frozenset(i for i, m in enumerate(space.mins) if E.leq(m, e))


def saction_dict(action, semigroup_ref=None) -> dict:
    """An S-action as a dict: its semigroup's name, points and, per
    element, the [x, image] pairs of its map."""
    return {
        "semigroup": semigroup_ref or action.semigroup.name,
        "points": list(action.point_labels),
        "maps": {str(s): [[int(x), int(y)]
                          for x, y in enumerate(action.maps[s]) if y >= 0]
                 for s in range(len(action.semigroup))},
    }


def space_dict(space, tight=None) -> dict:
    """A filter space as a dict: the minima, the flag and the tight
    filters."""
    return {
        "filters": [{"min": int(m)} for m in space.mins],
        "contracted": space.contracted,
        "tight": sorted(int(i) for i in tight) if tight is not None else None,
    }


def mul_all(S, *elems: int) -> int:
    """The product of ``elems`` in S, from the left."""
    acc = elems[0]
    for t in elems[1:]:
        acc = int(S.table[acc, t])
    return acc


def natural_leq(S, s: int, t: int) -> bool:
    """s <= t in the natural partial order, via s = t s* s."""
    return mul_all(S, t, S.inv(s), s) == s


class SigmaMismatch(errors.GermoidError):
    """Two elements given to :func:`meet_sigma` lie in different sigma
    classes."""

    def __init__(self, s, t):
        super().__init__(f"elements {s}, {t} lie in different sigma classes")
        self.witness = (s, t)


def meet_sigma(S, s: int, t: int, sigma=None) -> int:
    """The meet of sigma-equivalent s, t in an E-unitary semigroup: t s* s."""
    if sigma is None:
        sigma = sg.max_group_image(S)
    if not sg.is_e_unitary(S):
        raise errors.NotEUnitary(S.name)
    if sigma(s) != sigma(t):
        raise SigmaMismatch(s, t)
    u = mul_all(S, t, S.inv(s), s)
    if u != mul_all(S, s, S.inv(t), t):
        raise errors.InvariantViolation(
            "t s*s and s t*t must agree in an E-unitary semigroup", (s, t))
    return u


def is_f_morphism(phi) -> bool:
    """Every non-empty fiber of phi has a maximum in the natural order."""
    m = np.asarray(phi.map)
    # [u]: every s in the fiber of u is <= u
    top = (phi.source.leq_matrix() | (m[:, None] != m[None, :])).all(axis=0)
    return set(m[top].tolist()) == set(m.tolist())


def restrict_partial_action(theta, subset):
    """Restriction of a partial action to an invariant point subset.

    Invariance (theta(g)(Y n X_{g^{-1}}) within Y) is checked; the
    restricted groupoid is the reduction of the unrestricted one, which
    callers can assert arrow-for-arrow.
    """
    subset, sub = germs.restrict_maps(theta.maps, subset)
    restricted = pa.validate_partial_action(
        theta.group, [theta.point_labels[x] for x in subset], sub)
    restricted.parent_points = tuple(subset.tolist())
    return restricted

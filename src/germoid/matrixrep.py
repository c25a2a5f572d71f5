"""Finite-dimensional complex-linear shadows of the operator-algebra layer:
regular representations, the basis intertwiner, covariant representations,
groupoid convolution algebras, and the center in the role of a desk-scale
Morita invariant.

The operators L_s, A_s and U send each basis vector to a basis vector or to
0, so they are stored as index arrays: entry t is the index of the image of
basis vector t, or -1 where it goes to 0.  No floating point remains: the
intertwining identity is checked by index gathers, and the center dimension
is a count of isotropy conjugacy classes.
"""

from __future__ import annotations

import json

import numpy as np

from . import errors
from .groupoids import FiniteGroupoid, arrows_at, end_index, validate_groupoid
from .partial_actions import PartialGroupAction, theta_from_sigma
from .semigroups import (
    CHUNK,
    InvSemigroup,
    SigmaMap,
    is_e_unitary,
    json_rows,
    max_group_image,
)


def left_regular_rep(S: InvSemigroup) -> np.ndarray:
    """The left regular representation as partial maps of the basis of l2(S).

    Row s is L_s: ``l[s, t] = st`` where s*s t = t, so L_s e_t = e_{st}, and
    ``l[s, t] = -1`` where L_s e_t = 0.
    """
    ids = np.arange(len(S))
    l = S.table.astype(np.int32)
    l[S.table[S.table[S.star, ids]] != ids] = -1     # s*s t != t
    l.setflags(write=False)
    return l


def intertwiner_u(S: InvSemigroup, sigma: SigmaMap | None = None) -> np.ndarray:
    """The intertwiner e_t -> e_{t*t} (x) e_{sigma(t)} as the vector
    ``u[t] = pos(t*t) |G| + sigma(t)``, with pos(e) the place of e in
    ``S.idempotents``: the basis index of the pair (t*t, sigma(t)).

    The entries are distinct exactly because S is E-unitary, so U*U = I on
    l2(S).
    """
    if not is_e_unitary(S):
        raise errors.NotEUnitary(S.name)
    if sigma is None:
        sigma = max_group_image(S)
    pos = np.zeros(len(S), dtype=np.int64)
    pos[list(S.idempotents)] = np.arange(len(S.idempotents))
    u = (pos[S.table[S.star, np.arange(len(S))]] * len(sigma.group)
         + np.asarray(sigma.classmap, dtype=np.int64)).astype(np.int32)
    u.setflags(write=False)
    return u


def covariant_rep(S: InvSemigroup, sigma: SigmaMap | None = None,
                  theta: PartialGroupAction | None = None) -> np.ndarray:
    """The operators A_s on l2(E) (x) l2(G) of the covariant representation,
    as partial maps of the basis e_e (x) e_g, whose index is pos(e) |G| + g
    with pos(e) the place of e in ``S.idempotents``.

    A_s (e_e (x) e_g) = m * (e_e (x) e_{sigma(s) g}) with m = 1 iff the
    filter-space partial action is defined on e^ at sigma(s) g and lands in
    D(ss*): the translated-projection coefficient evaluated at e^.  Row s
    holds ``a[s, pos(e) |G| + g] = pos(e) |G| + sigma(s) g`` where m = 1
    and -1 where m = 0.
    """
    if not is_e_unitary(S):
        raise errors.NotEUnitary(S.name)
    if sigma is None:
        sigma = max_group_image(S)
    if theta is None:
        theta = theta_from_sigma(S, sigma)
    G = sigma.group
    space = theta.space
    n, k, m = len(S), len(S.idempotents), len(G)
    ids = np.arange(n)
    mins = np.asarray(space.mins, dtype=np.int64)
    fe = np.array([space.index_of(e) for e in S.idempotents], dtype=np.int64)
    ssi = S.table[ids, S.star]
    in_d = S.table[mins[None, :], ssi[:, None]] == mins   # [s, x]: x in D(ss*)
    h = G.table[np.asarray(sigma.classmap)]                # h[s, g] = sigma(s) g
    base = np.arange(k)[:, None] * m
    a = np.empty((n, k * m), dtype=np.int32)
    rows = max(1, CHUNK // (k * m))
    for lo in range(0, n, rows):
        hs = h[lo:lo + rows, None, :]                      # [s, 1, g]
        img = theta.maps[hs, fe[None, :, None]]            # [s, e, g]
        hit = (img >= 0) & \
            in_d[ids[lo:lo + rows, None, None], np.maximum(img, 0)]
        a[lo:lo + rows] = np.where(hit, base + hs, -1).reshape(-1, k * m)
    a.setflags(write=False)
    return a


def intertwines(u, l, a) -> bool:
    """Exact check that U*U = I and U L_s = A_s U for every s, on the
    partial-map forms of ``intertwiner_u``, ``left_regular_rep`` and
    ``covariant_rep``.

    U has its single 1 of column t in row u[t], so U*U = I iff u is
    injective.  Column t of U L_s is e_{u[l[s, t]]}, or 0 where l[s, t] =
    -1; column t of A_s U is column u[t] of A_s, e_{a[s, u[t]]} or 0.  So
    the identity holds iff the two index arrays agree entry by entry, which
    also says that A_s has no 1 off the rows of u in the columns u reaches.
    """
    u, l, a = np.asarray(u), np.asarray(l), np.asarray(a)
    if len(np.unique(u)) != len(u) or len(a) != len(l):
        return False
    rows = max(1, CHUNK // max(len(u), 1))
    for lo in range(0, len(l), rows):
        block = l[lo:lo + rows]
        if not np.array_equal(np.where(block >= 0, u[block], -1),
                              a[lo:lo + rows, u]):
            return False
    return True


def verify_intertwining(S: InvSemigroup) -> bool:
    """U*U = I and U L_s = A_s U exactly for every s.

    The three order conditions behind the identity, s*s t = t, t*t = t*s*s t
    and t*t <= t*s*s t, agree for every pair in an inverse semigroup, so
    they are not checked.  If s*s t = t, then t*s*s t = t*t.  Conversely,
    if t*t = t*s*s t, then t = tt*t = tt*s*s t = s*s tt*t = s*s t, as the
    idempotents tt* and s*s commute.  And w = t*s*s t lies below t*t, as
    w t*t = w, so t*t <= w iff t*t = w.  ``tests/oracles.py`` checks the
    three pair by pair (``check_rep_conditions_loops``)."""
    sigma = max_group_image(S)
    return intertwines(intertwiner_u(S, sigma), left_regular_rep(S),
                       covariant_rep(S, sigma))


# -- convolution algebras ---------------------------------------------------------

class ConvolutionAlgebra:
    """The arrow-basis algebra of a finite groupoid.

    The product of basis elements is e_a e_b = e_{ab} when composable and 0
    otherwise; the involution sends e_a to e_{a^{-1}}.
    """

    def __init__(self, groupoid: FiniteGroupoid):
        self.groupoid = groupoid
        self.dim = groupoid.n_arrows
        self.inv = tuple(groupoid.inv.tolist())
        self.labels = groupoid.arrow_labels

    def to_json(self) -> str:
        """``json.dumps`` with sorted keys of the basis labels, the
        dimension, the inverses and the ``[a, b, ab]`` triples of the
        product, the integer arrays written by
        :func:`~germoid.semigroups.json_rows`."""
        g, n = self.groupoid, self.dim
        mult = np.column_stack((*g.composable_pairs, g.products))
        return b"".join([
            b'{"basis": ', json.dumps(list(self.labels), sort_keys=True).encode(),
            b', "dim": ', str(n).encode(),
            b', "inv": ', *json_rows(["", ""], np.array(self.inv, dtype=np.int64)
                                     .reshape(n, 1), n),
            b', "mult": ', *json_rows(["[", ", ", ", ", "]"], mult, n),
            b"}"]).decode()


def convolution_algebra(g: FiniteGroupoid) -> ConvolutionAlgebra:
    """Structure constants from arrow composition.

    The groupoid axioms make the product associative and the involution
    antimultiplicative, so the algebra needs only a groupoid that
    ``validate_groupoid`` has passed; one built by hand is validated here.
    """
    if not g.validated:
        validate_groupoid(g)
    return ConvolutionAlgebra(g)


def center_dimension(alg: ConvolutionAlgebra) -> int:
    """dim{z : za = az for all a}, as a count of isotropy conjugacy classes.

    The algebra of a finite groupoid is the direct sum, over its orbits, of
    matrix algebras M_k(CH_u) over the isotropy group algebras, so its
    center has dimension the sum over orbits of the number of conjugacy
    classes of H_u (Steinberg, *A groupoid approach to discrete inverse
    semigroup algebras*, Adv. Math. 223 (2010)).  Those classes, taken over
    a whole orbit, are the classes of isotropy arrows a under a -> x a x^{-1}
    with x ranging over the arrows with dom x = dom a; each class is
    labelled by its least arrow, and the labels are counted.  No linear
    algebra is involved, so the count is exact.
    """
    g = alg.groupoid
    iso = np.flatnonzero(g.dom == g.ran)
    label = np.empty(len(iso), dtype=np.int64)
    by_dom = end_index(g.dom, g.n_units)
    (row_start, rank), products = g.offsets, g.products
    step = max(1, CHUNK // max(g.n_arrows, 1))
    for lo in range(0, len(iso), step):
        a = iso[lo:lo + step]
        counts, x = arrows_at(g.dom[a], by_dom)
        # x a and (x a) x^-1 are defined: each is the pair row_start + rank
        xa = products[row_start[x] + rank[np.repeat(a, counts)]]
        conj = products[row_start[xa] + rank[g.inv[x]]]
        starts = np.cumsum(counts) - counts
        label[lo:lo + step] = np.minimum.reduceat(conj, starts)
    return len(np.unique(label))

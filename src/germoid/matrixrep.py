"""Finite-dimensional complex-linear shadows of the operator-algebra layer:
regular representations, the basis intertwiner, covariant representations,
groupoid convolution algebras, and the center in the role of a desk-scale
Morita invariant.

Representation matrices are exact 0/1 integer arrays, and no floating point
remains: the intertwining identity is checked by index gathers, the center
dimension is a count of isotropy conjugacy classes, and the one rank test is
an integer elimination.
"""

from __future__ import annotations

import json

import numpy as np

from . import errors
from .groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    arrows_at,
    validate_groupoid,
)
from .partial_actions import PartialGroupAction, theta_from_sigma
from .semigroups import (
    CHUNK,
    InvSemigroup,
    SigmaMap,
    is_e_unitary,
    max_group_image,
)
from .spectra import d_set, enumerate_filters


def left_regular_rep(S: InvSemigroup) -> dict:
    """The 0/1 matrices L_s with L_s e_t = e_{st} iff s*s t = t."""
    n = len(S)
    ids = np.arange(n)
    ss = S.table[S.star, ids]
    s, t = np.nonzero(S.table[ss] == ids)          # s*s t = t
    mats = np.zeros((n, n, n), dtype=np.int64)
    mats[s, S.table[s, t], t] = 1
    mats.setflags(write=False)
    return dict(enumerate(mats))


def pair_basis(S: InvSemigroup, sigma: SigmaMap):
    """Ordered basis (e, g) of E x G with labels; index = e_pos * |G| + g."""
    E = S.idempotents
    G = sigma.group
    labels = [f"({S.names[e]},{G.names[g]})" for e in E for g in range(len(G))]
    index = {(e, g): i for i, (e, g) in
             enumerate((e, g) for e in E for g in range(len(G)))}
    return index, labels


def intertwiner_u(S: InvSemigroup, sigma: SigmaMap | None = None) -> np.ndarray:
    """The |E||G| x |S| matrix of e_s -> e_{s*s} (x) e_{sigma(s)}.

    Columns are distinct basis vectors exactly because S is E-unitary, so
    U*U = I on l2(S).
    """
    if not is_e_unitary(S):
        raise errors.NotEUnitary(S.name)
    if sigma is None:
        sigma = max_group_image(S)
    index, _ = pair_basis(S, sigma)
    U = np.zeros((len(index), len(S)), dtype=np.int64)
    for s in range(len(S)):
        U[index[(S.mul(S.inv(s), s), sigma(s))], s] = 1
    U.setflags(write=False)
    return U


def covariant_rep(S: InvSemigroup, sigma: SigmaMap | None = None,
                  theta: PartialGroupAction | None = None) -> dict:
    """The operators A_s on l2(E) (x) l2(G) of the covariant representation.

    A_s (e_e (x) e_g) = m * (e_e (x) e_{sigma(s) g}) with m = 1 iff the
    filter-space partial action is defined on e^ at sigma(s) g and lands in
    D(ss*): the translated-projection coefficient evaluated at e^.
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
    img = theta.maps[h[:, None, :], fe[None, :, None]]     # [s, e, g]
    hit = (img >= 0) & in_d[ids[:, None, None], np.maximum(img, 0)]
    s, e, g = np.nonzero(hit)
    mats = np.zeros((n, k * m, k * m), dtype=np.int64)
    mats[s, e * m + h[s, g], e * m + g] = 1
    mats.setflags(write=False)
    return dict(enumerate(mats))


def check_rep_conditions(S: InvSemigroup) -> bool:
    """The three order conditions behind the intertwining identity agree:
    s*s t = t, t*t = t*s*s t, and t*t <= t*s*s t, for every pair.

    Each condition is a boolean |S| x |S| array over (s, t), computed in
    row blocks of at most ``CHUNK`` entries.
    """
    n = len(S)
    ids = np.arange(n)
    table, star = S.table, S.star
    ss = table[star, ids]                    # s*s, and t*t by column
    rows = max(1, CHUNK // n)
    for lo in range(0, n, rows):
        s = ids[lo:lo + rows, None]
        w = table[table[table[star[None, :], star[s]], s], ids]  # t*s*s t
        c1 = table[ss[s], ids] == ids
        c2 = w == ss
        c3 = table[ss[None, :], w] == ss     # t*t <= w, both idempotent
        if ((c1 != c2) | (c2 != c3)).any():
            return False
    return True


def check_intertwining(U, lambdas: dict, covs: dict) -> bool:
    """Exact check that U is a 0/1 isometry and U L_s = A_s U for all s.

    A 0/1 matrix U has U*U = I exactly when every column holds a single 1
    and those ones sit in distinct rows u[0], ..., u[n-1].  Such a U
    scatters basis vector j to u[j], so (U L)[u[j], t] = L[j, t] and the
    rows of U L off u are zero, while (A U)[i, t] = A[i, u[t]] gathers
    columns.  Hence U L_s = A_s U iff L_s = A_s[u][:, u] and A_s[i, u[t]]
    = 0 for every row i off u: an exact identity for any integer L_s and
    A_s, at O(|u|^2) reads per s instead of two dense products.
    """
    U = np.asarray(U)
    if not ((U == 0) | (U == 1)).all() or (U.sum(axis=0) != 1).any():
        return False
    u = U.argmax(axis=0)
    off = np.ones(U.shape[0], dtype=bool)
    off[u] = False
    if off.sum() != U.shape[0] - U.shape[1]:          # two ones in one row
        return False
    for s, lam in lambdas.items():
        A = np.asarray(covs[s])
        if not np.array_equal(lam, A[np.ix_(u, u)]) or A[off][:, u].any():
            return False
    return True


def verify_intertwining(S: InvSemigroup) -> bool:
    """U L_s = A_s U exactly for every s, plus the symbolic condition check."""
    sigma = max_group_image(S)
    U = intertwiner_u(S, sigma)
    lams = left_regular_rep(S)
    covs = covariant_rep(S, sigma)
    return check_intertwining(U, lams, covs) and check_rep_conditions(S)


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
        return json.dumps({
            "dim": self.dim,
            "basis": list(self.labels),
            "mult": self.groupoid.comp_triples(),
            "inv": list(self.inv),
        }, sort_keys=True)


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
    table = g.comp_table
    iso = np.flatnonzero(g.dom == g.ran)
    label = np.empty(len(iso), dtype=np.int64)
    step = max(1, CHUNK // max(g.n_arrows, 1))
    for lo in range(0, len(iso), step):
        a = iso[lo:lo + step]
        counts, x = arrows_at(g.dom[a], g.dom, g.n_units)
        conj = table[table[x, np.repeat(a, counts)], g.inv[x]]
        starts = np.cumsum(counts) - counts
        label[lo:lo + step] = np.minimum.reduceat(conj, starts)
    return len(np.unique(label))


def algebra_map_from_functor(F: GroupoidFunctor):
    """The basis relabeling of a bijective functor, checked to be an algebra
    isomorphism (structure constants and involution transported)."""
    src, tgt = F.source, F.target
    if sorted(F.arrow_map) != list(range(tgt.n_arrows)) or \
            sorted(F.unit_map) != list(range(tgt.n_units)):
        raise errors.NotBijective("functor must be bijective on units and arrows")
    for a in range(src.n_arrows):
        for b in range(src.n_arrows):
            c = src.compose(a, b)
            fc = tgt.compose(F(a), F(b))
            if (c is None) != (fc is None) or (c is not None and F(c) != fc):
                raise errors.NotAFunctor("structure constants not transported")
        if F(int(src.inv[a])) != int(tgt.inv[F(a)]):
            raise errors.NotAFunctor("involution not preserved")
    mat = np.zeros((tgt.n_arrows, src.n_arrows), dtype=np.int64)
    for a in range(src.n_arrows):
        mat[F(a), a] = 1
    return mat


def integer_rank(mat) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination on
    Python integers: every division is exact, so no tolerance is needed."""
    rows = [[int(x) for x in row] for row in np.asarray(mat)]
    rank, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            rows[r] = [(top[c] * x - rows[r][c] * y) // prev
                       for x, y in zip(rows[r], top)]
        prev = top[c]
        rank += 1
    return rank


def gelfand_check(S: InvSemigroup) -> bool:
    """The finite Gelfand picture for the idempotent semilattice.

    e -> indicator of D(e) must be multiplicative and of full rank |E|, and
    the regular representation of the semilattice must be simultaneously
    diagonal with diagonal entries matching those indicators under the
    principal-filter bijection.
    """
    E = S.idempotents
    space = enumerate_filters(S, contracted=False)
    k = len(E)
    if len(space) != k:
        return False
    ind = np.zeros((k, k), dtype=np.int64)
    dsets = {}
    for i, e in enumerate(E):
        dsets[e] = d_set(space, e)
        for f in dsets[e]:
            ind[i, f] = 1
    for i, e in enumerate(E):
        for j, f in enumerate(E):
            if set(dsets[e] & dsets[f]) != set(d_set(space, S.mul(e, f))):
                return False
            prod = ind[i] * ind[j]
            ef = S.mul(e, f)
            target = np.zeros(k, dtype=np.int64)
            for x in d_set(space, ef):
                target[x] = 1
            if not np.array_equal(prod, target):
                return False
    if integer_rank(ind) != k:
        return False
    # the semilattice regular representation, conjugated by the bijection
    # t -> t^, is diagonal with the indicator entries
    pos = {e: i for i, e in enumerate(E)}
    for e in E:
        mat = np.zeros((k, k), dtype=np.int64)
        for f in E:
            if S.mul(e, f) == f:
                mat[pos[f], pos[f]] = 1
        diag = np.zeros((k, k), dtype=np.int64)
        for j, f in enumerate(E):
            diag[j, j] = ind[pos[e], space.index_of(f)]
        if not np.array_equal(mat, diag):
            return False
    return True


def matrix_to_json(mat: np.ndarray, row_labels, col_labels) -> str:
    return json.dumps({
        "rows": list(row_labels),
        "cols": list(col_labels),
        "entries": np.asarray(mat).tolist(),
    }, sort_keys=True)

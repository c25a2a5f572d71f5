"""Filter spaces of finite semilattices and the coherence machinery.

Every filter of a finite semilattice is principal, so a character space
stores one minimum element per filter.  The general (up-closed, meet-closed
subset) definition survives only inside the brute-force test oracles.

Topological content (continuity, clopen-ness, closure) is trivially true at
this scale; what the operations return instead are the combinatorial
certificates: generating antichains of downsets, computed over the cover
edges of the natural order.  Set-based posets and downset scans live only
in the test oracles.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .semigroups import CHUNK, InvSemigroup, SemigroupHom


class Semilattice:
    """A finite meet semilattice over an explicit id set.

    Ids may be a subset of a parent semigroup's ids (for E(S)) or 0..k-1 for
    standalone lattices; ``meet`` always works on those ids.
    """

    def __init__(self, elements, meet_table, names=None, zero=None):
        self.elements = tuple(int(e) for e in elements)
        self._pos = {e: i for i, e in enumerate(self.elements)}
        self._meet = np.asarray(meet_table, dtype=np.int64)
        self._meet.setflags(write=False)
        self.names = tuple(names) if names else tuple(str(e) for e in self.elements)
        self.zero = zero
        # meet(e, f) = meet(f, e) and meet(e, meet(e, f)) = meet(e, f) on
        # the whole table; the first failing pair in row order raises, as
        # UnknownElement if its meet is not an element
        k, m = len(self.elements), self._meet
        if m.shape != (k, k):
            raise errors.InvalidParams(f"meet table must be {k}x{k}")
        ids = np.array(self.elements, dtype=np.int64)
        order = np.argsort(ids)
        at = order[np.minimum(np.searchsorted(ids, m, sorter=order), k - 1)]
        known, swapped = ids[at] == m, m != m.T
        bad = swapped | ~known | (m[np.arange(k)[:, None], at] != m)
        if bad.any():
            e, f = np.argwhere(bad)[0]
            if known[e, f] or swapped[e, f]:
                raise errors.InvalidParams("table is not a meet semilattice")
            raise errors.UnknownElement(f"{m[e, f]} is not in the semilattice")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._pos

    def position(self, e: int) -> int:
        if e not in self._pos:
            raise errors.UnknownElement(f"{e} is not in the semilattice")
        return self._pos[e]

    def name_of(self, e: int) -> str:
        return self.names[self.position(e)]

    def meet(self, e: int, f: int) -> int:
        return int(self._meet[self.position(e), self.position(f)])

    def leq(self, e: int, f: int) -> bool:
        return self.meet(e, f) == e

    def bottom(self) -> int:
        b = self.elements[0]
        for e in self.elements[1:]:
            b = self.meet(b, e)
        return b


def idempotent_semilattice(S: InvSemigroup) -> Semilattice:
    """E(S) with the induced meet; ids are S's element ids.  The result is
    memoized on the semigroup."""
    if S._semilattice is None:
        E = S.idempotents
        S._semilattice = Semilattice(E, S.table[np.ix_(E, E)],
                                     names=[S.names[e] for e in E], zero=S.zero)
    return S._semilattice


@dataclass(frozen=True)
class Filter:
    """A principal filter, stored by its minimum element id."""

    min: int
    space: "CharSpace" = field(repr=False, compare=False)

    def upset(self):
        E = self.space.semilattice
        return frozenset(e for e in E.elements if E.leq(self.min, e))


class CharSpace:
    """The space of filters (semi-characters) of a finite semilattice."""

    def __init__(self, semilattice: Semilattice, contracted: bool, mins):
        self.semilattice = semilattice
        self.contracted = contracted
        self.mins = tuple(mins)
        self._index = {m: i for i, m in enumerate(self.mins)}
        self.filters = tuple(Filter(m, self) for m in self.mins)

    def __len__(self):
        return len(self.mins)

    def index_of(self, min_elem: int) -> int:
        if min_elem not in self._index:
            raise errors.UnknownElement(f"no filter with minimum {min_elem}")
        return self._index[min_elem]

    def label(self, idx: int) -> str:
        return self.semilattice.name_of(self.mins[idx]) + "^"

    def to_json_dict(self, tight=None):
        return {
            "filters": [{"min": int(m)} for m in self.mins],
            "contracted": self.contracted,
            "tight": sorted(int(i) for i in tight) if tight is not None else None,
        }


def enumerate_filters(E: Semilattice | InvSemigroup, contracted=False) -> CharSpace:
    """All filters: one per element, minus the zero's when contracted.

    The filter space of E(S) is memoized on the semigroup S, one per flag.
    """
    contracted = bool(contracted)
    S = E if isinstance(E, InvSemigroup) else None
    if S is not None:
        if contracted in S._filters:
            return S._filters[contracted]
        E = idempotent_semilattice(S)
    if contracted and E.zero is None:
        raise errors.ContractedWithoutZero("contracted space needs a zero")
    mins = [e for e in E.elements if not (contracted and e == E.zero)]
    space = CharSpace(E, contracted, sorted(mins))
    if S is not None:
        S._filters[contracted] = space
    return space


def d_set(space: CharSpace, e: int) -> frozenset:
    """D(e): indices of the filters containing e, i.e. with minimum <= e."""
    E = space.semilattice
    E.position(e)
    return frozenset(i for i, m in enumerate(space.mins) if E.leq(m, e))


def tight_spectrum(space: CharSpace) -> tuple:
    """Ultrafilter indices: the maximal proper filters.

    At this scale the closure of the ultrafilters is the ultrafilters, so
    the tight spectrum is exactly the maximal proper filters; a principal
    filter is maximal iff only the zero lies strictly below its minimum.
    """
    if not space.contracted:
        raise errors.ContractedWithoutZero("tight spectrum needs the contracted space")
    E = space.semilattice
    return tuple(i for i, m in enumerate(space.mins)
                 if all(e in (E.zero, m) or not E.leq(e, m) for e in E.elements))


# -- downsets and coherence ------------------------------------------------------

@dataclass(frozen=True)
class DownsetCertificate:
    """A downset of a semigroup by its unique minimal generating antichain.

    ``downset`` is built only when read, as the down-closure of the
    generators: the elements below g are exactly g e for e in E(S).
    """

    generators: tuple
    semigroup: InvSemigroup = field(repr=False, compare=False)

    @functools.cached_property
    def downset(self) -> frozenset:
        S = self.semigroup
        return frozenset(
            S.table[np.ix_(self.generators, S.idempotents)].ravel().tolist())


@dataclass(frozen=True)
class SemilatticeHom:
    """A validated meet-preserving map between finite semilattices."""

    source: Semilattice
    target: Semilattice
    map: dict

    def __call__(self, e: int) -> int:
        return self.map[e]


def semilattice_hom(E1: Semilattice, E2: Semilattice, mapping) -> SemilatticeHom:
    """Validate a map of semilattices as meet preserving.

    phi(e ^ f) = phi(e) ^ phi(f) is one comparison over E1 x E1; the first
    failing (e, f) in row order raises.
    """
    mapping = dict(mapping)
    for e in E1.elements:
        if e not in mapping or mapping[e] not in E2:
            raise errors.NotMeetPreserving(f"map undefined or out of range at {e}")
    ids = np.array(E1.elements, dtype=np.int64)
    phi = np.array([mapping[e] for e in E1.elements], dtype=np.int64)
    pos = np.array([E2.position(v) for v in phi.tolist()], dtype=np.int64)
    order = np.argsort(ids)
    at = order[np.searchsorted(ids, E1._meet, sorter=order)]   # of e ^ f
    bad = phi[at] != E2._meet[pos[:, None], pos]
    if bad.any():
        e, f = ids[np.argwhere(bad)[0]]
        raise errors.NotMeetPreserving(
            f"phi({e} ^ {f}) != phi({e}) ^ phi({f})")
    return SemilatticeHom(E1, E2, mapping)


def restrict_to_idempotents(phi: SemigroupHom) -> SemilatticeHom:
    E1 = idempotent_semilattice(phi.source)
    E2 = idempotent_semilattice(phi.target)
    return semilattice_hom(E1, E2, {e: phi(e) for e in E1.elements})


def hat_map(phi: SemilatticeHom, source_space: CharSpace | None = None,
            target_space: CharSpace | None = None):
    """The induced map on filter spaces, x^ -> phi(x)^.

    Returns ``(source_space, target_space, mapping)`` where ``mapping`` takes
    filter indices to filter indices.
    """
    if source_space is None:
        source_space = enumerate_filters(phi.source)
    if target_space is None:
        target_space = enumerate_filters(phi.target)
    mapping = tuple(target_space.index_of(phi(m)) for m in source_space.mins)
    return source_space, target_space, mapping


def cover_edges(S: InvSemigroup):
    """The Hasse diagram of the natural order of S, as the arrays ``(s, c)``
    of the pairs where c covers s, ordered by c and then by s*s.

    For s <= c the map x -> x*x is an order isomorphism from [s, c] onto
    [s*s, c*c] (Lawson, *Inverse Semigroups*, 1998, ch. 1), so c covers s
    iff s = c f for a lower cover f of c*c in E(S).  The covers of E(S) are
    its strict order minus the square of the strict order.
    """
    E = np.asarray(S.idempotents)
    ids = np.arange(len(S))
    lt = S.table[np.ix_(E, E)] == E[:, None]         # [a, b]: e_a <= e_b
    np.fill_diagonal(lt, False)
    between = lt.astype(np.int64) @ lt.astype(np.int64)
    lower = (lt & (between == 0)).T                  # [b, a]: e_b covers e_a
    # E is in increasing id order, so searchsorted finds the place of c*c
    c, a = np.nonzero(lower[np.searchsorted(E, S.table[S.star, ids])])
    return S.table[c, E[a]], c


def _first_escape(S: InvSemigroup, pre, in_e, in_f):
    """The ``NotADownset`` a scan of the corners eSf in order meets first:
    in the least corner holding one, the least t and then the least x in
    the preimage of t with some y <= x outside it, and the least such y."""
    leq = S.leq_matrix()
    bad = pre.T & ((~pre).T.astype(np.int64) @ leq > 0)   # [t, x]
    hit = bad.any(axis=0)
    i = np.flatnonzero(in_e[:, hit].any(axis=1))[0]
    j = np.flatnonzero((in_f[:, hit] & in_e[i, hit]).any(axis=1))[0]
    t, x = np.argwhere(bad & in_e[i] & in_f[j])[0]
    y = np.flatnonzero(leq[:, x] & ~pre[:, t])[0]
    return errors.NotADownset(int(x), int(y))


def check_ks_condition(phi: SemigroupHom) -> dict:
    """Certificates for the coherence of every corner map eSf -> T: for
    each pair of idempotents e, f of the source and each t in the target,
    the generating antichain of ``{s in eSf : phi(s) <= t}``, keyed
    ``(e, f, t)``.

    One batched pass over the cover edges (s, c) of S, with no loop over
    corners: s is in eSf iff ss* <= e and s*s <= f.  The preimages
    ``pre[s, t]`` (phi(s) <= t) must be downsets, so pre[c, t] implies
    pre[s, t] on every edge, or ``NotADownset`` names what a scan of the
    corners in order would.  Corner and preimage are downsets, so the
    generators are the members with no upper cover in both.  Row blocks of
    idempotents e hold at most ``CHUNK`` entries.
    """
    S, T = phi.source, phi.target
    n, nt, k = len(S), len(T), len(S.idempotents)
    E, ids = np.asarray(S.idempotents), np.arange(n)
    pre = T.leq_matrix()[np.asarray(phi.map, dtype=np.int64)]   # [s, t]
    rr, dd = S.table[ids, S.star], S.table[S.star, ids]          # ss*, s*s
    in_e = S.table[np.ix_(E, rr)] == rr                          # [i, s]
    in_f = S.table[np.ix_(E, dd)] == dd                          # [j, s]
    low, up = cover_edges(S)
    if (pre[up] & ~pre[low]).any():
        raise _first_escape(S, pre, in_e, in_f)
    # the members (s, t) of the preimages, by t and then s, and for each
    # edge with c in the preimage of t the member (s, t) it sits above
    mt, ms = np.nonzero(pre.T)
    q, qt = np.nonzero(pre[up])
    below = np.searchsorted(mt * n + ms, qt * n + low[q])
    order = np.argsort(below, kind="stable")
    below, above = below[order], up[q][order]
    starts = np.flatnonzero(np.diff(below, prepend=-1))
    ep, fp, ea, fa = in_e[:, ms], in_f[:, ms], in_e[:, above], in_f[:, above]
    rows = max(1, CHUNK // max(k * (len(ms) + len(above)), 1))
    keys, gens = [], []
    for lo in range(0, k, rows):
        member = ep[lo:lo + rows, None] & fp[None]               # [i, j, m]
        if len(above):
            covered = np.logical_or.reduceat(
                ea[lo:lo + rows, None] & fa[None], starts, axis=2)
            member[..., below[starts]] &= ~covered
        i, j, m = np.nonzero(member)
        keys.append(((i + lo) * k + j) * nt + mt[m])
        gens.append(ms[m])
    gens = np.concatenate(gens).tolist()
    ends = np.cumsum(np.bincount(np.concatenate(keys), minlength=k * k * nt))
    spans = zip([0] + ends[:-1].tolist(), ends.tolist())
    corners = itertools.product(S.idempotents, S.idempotents, range(nt))
    return {key: DownsetCertificate(tuple(gens[a:b]), S)
            for key, (a, b) in zip(corners, spans)}

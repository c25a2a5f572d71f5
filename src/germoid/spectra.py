"""Filter spaces of finite semilattices and the coherence machinery.

Every filter of a finite semilattice is principal, so a character space
stores one minimum element per filter.  The general (up-closed, meet-closed
subset) definition survives only inside the brute-force test oracles.

Topological content (continuity, clopen-ness, closure) is trivially true at
this scale; what the operations return instead are the combinatorial
certificates: generating antichains of downsets, computed from the
maximal elements of each preimage.  Set-based posets and downset scans live
only in the test oracles.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .semigroups import (
    CHUNK,
    InvSemigroup,
    SemigroupHom,
    greedy_generators,
    lights_test,
    transposed,
    write_words,
)


def is_semilattice(meet) -> bool:
    """Whether the array ``meet`` is a table of ids in range that is
    commutative, idempotent and, by Light's test, associative."""
    k = len(meet)
    return 0 < k and meet.shape == (k, k) and 0 <= meet.min() and meet.max() < k \
        and (meet == meet.T).all() and (meet.diagonal() == np.arange(k)).all() \
        and lights_test(meet, meet, greedy_generators(meet), transposed(meet))


class Semilattice:
    """A finite meet semilattice over an explicit id set.

    Ids may be a subset of a parent semigroup's ids (for E(S)) or 0..k-1 for
    standalone lattices; ``meet`` always works on those ids.  The table is
    checked unless its builder ``proved`` it a meet table.
    """

    def __init__(self, elements, meet_table, names=None, zero=None, proved=False):
        self.elements = tuple(int(e) for e in elements)
        self._pos = {e: i for i, e in enumerate(self.elements)}
        self._meet = np.asarray(meet_table, dtype=np.int64)
        self._meet.setflags(write=False)
        self.names = tuple(names) if names else tuple(str(e) for e in self.elements)
        self.zero = zero
        if proved:
            return
        # meet(e, f) = meet(f, e) and meet(e, meet(e, f)) = meet(e, f) on
        # the whole table; the first failing pair in row order raises, as
        # UnknownElement if its meet is not an element.  Then the table of
        # positions must be idempotent and associative
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
        if k and not is_semilattice(at):
            raise errors.InvalidParams("table is not a meet semilattice")

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


def idempotent_semilattice(S: InvSemigroup) -> Semilattice:
    """E(S) with the induced meet; ids are S's element ids.  The result is
    memoized on the semigroup.  For a ``validated`` S its table is proved a
    meet table: the idempotents commute, as ``validate_semigroup`` checked,
    so ef = fe is idempotent and e(ef) = ef."""
    if S._semilattice is None:
        E = S.idempotents
        S._semilattice = Semilattice(E, S.table[np.ix_(E, E)], proved=S.validated,
                                     names=[S.names[e] for e in E], zero=S.zero)
    return S._semilattice


@dataclass(frozen=True)
class Filter:
    """A principal filter, stored by its minimum element id."""

    min: int
    space: "CharSpace" = field(repr=False, compare=False)


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


def _first_escape(S: InvSemigroup, pre):
    """The ``NotADownset`` a scan of the corners eSf in order meets first:
    in the least corner holding one, the least t and then the least x in
    the preimage of t with some y <= x outside it, and the least such y.
    s is in eSf iff ss* <= e and s*s <= f."""
    E, ids = np.asarray(S.idempotents), np.arange(len(S))
    rr, dd = S.table[ids, S.star], S.table[S.star, ids]          # ss*, s*s
    in_e = S.table[np.ix_(E, rr)] == rr                          # [i, s]
    in_f = S.table[np.ix_(E, dd)] == dd                          # [j, s]
    leq = S.leq_matrix()
    bad = pre.T & ((~pre).T.astype(np.int64) @ leq > 0)   # [t, x]
    hit = bad.any(axis=0)
    i = np.flatnonzero(in_e[:, hit].any(axis=1))[0]
    j = np.flatnonzero((in_f[:, hit] & in_e[i, hit]).any(axis=1))[0]
    t, x = np.argwhere(bad & in_e[i] & in_f[j])[0]
    y = np.flatnonzero(leq[:, x] & ~pre[:, t])[0]
    return errors.NotADownset(int(x), int(y))


class KSCertificates(Mapping):
    """The KS certificates of a map S -> T, as a read-only mapping
    ``(e, f, t) -> DownsetCertificate``.

    They are kept as arrays: the corners (e, f, t) run over E(S) x E(S) x
    T in that order, and the generators of corner c are
    ``gens[starts[c]:starts[c + 1]]``, in increasing order.  A
    :class:`DownsetCertificate` is built only when a corner is read.
    """

    def __init__(self, semigroup: InvSemigroup, n_targets: int, starts, gens):
        self.semigroup = semigroup
        self.n_targets = n_targets
        self.starts, self.gens = starts, gens
        starts.setflags(write=False)
        gens.setflags(write=False)
        self._place = {e: i for i, e in enumerate(semigroup.idempotents)}

    def __len__(self):
        return len(self.starts) - 1

    def __iter__(self):
        E = self.semigroup.idempotents
        return itertools.product(E, E, range(self.n_targets))

    def __getitem__(self, key):
        nt = self.n_targets
        try:
            e, f, t = key
            c = (self._place[e] * len(self._place) + self._place[f]) * nt + \
                operator.index(t)
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if not 0 <= t < nt:
            raise KeyError(key)
        a, b = self.starts[c:c + 2].tolist()
        return DownsetCertificate(tuple(self.gens[a:b].tolist()), self.semigroup)

    def to_json(self) -> str:
        """``json.dumps({"e,f,t": [generators, ...]}, sort_keys=True)``."""
        return b"".join(self.json_chunks()).decode()

    def json_chunks(self):
        """The text of :meth:`to_json` as ASCII byte blocks of
        :func:`~germoid.semigroups.write_words`, at most ``CHUNK`` // 8
        words each.

        The keys sort as strings, and ',' sorts below every digit, so the
        key "e,f,t" sorts as the tuple (str(e), str(f), str(t)): the order
        of the corners is one permutation of E(S) taken twice and one of T.
        """
        S, nt, starts = self.semigroup, self.n_targets, self.starts
        E = np.asarray(S.idempotents, dtype=np.int64)
        k = len(E)
        decimal = list(map(str, S.idempotents))
        by_e = np.array(sorted(range(k), key=decimal.__getitem__), dtype=np.int64)
        by_t = np.array(sorted(range(nt), key=str), dtype=np.int64)
        corners = ((by_e[:, None, None] * k + by_e[None, :, None]) * nt +
                   by_t).ravel()
        ids = max(len(S), nt)           # word v < ids is v in decimal
        first, new, comma, colon, sep, close, last, empty = range(ids, ids + 8)
        count = np.diff(starts)
        # an entry is ', "' e ',' f ',' t '": [', the generators with ', '
        # between them, and ']'; the text opens with '{"' and closes with
        # ']}'; S has an idempotent and T an element, so there is a corner.
        # The entries of a block are padded with empty words to the most
        # generators of a corner in it.
        step = max(1, CHUNK // 8 // (7 + 2 * max(int(count.max(initial=0)), 1)))

        def blocks():
            for lo in range(0, len(corners), step):
                c = corners[lo:lo + step]
                m = count[c]
                slot = np.arange(max(int(m.max()), 1)) < m[:, None]
                word = np.full((len(c), 7 + 2 * slot.shape[1]), empty,
                               dtype=np.int64)
                word[:, :7] = new, 0, comma, 0, comma, 0, colon
                i, rest = np.divmod(c, k * nt)
                word[:, 1], word[:, 3], word[:, 5] = E[i], E[rest // nt], rest % nt
                word[:, 7:-1:2][slot] = self.gens[
                    (starts[c, None] + np.arange(slot.shape[1]))[slot]]
                word[:, 8:-1:2][slot[:, 1:]] = sep
                word[:, -1] = close
                if lo == 0:
                    word[0, 0] = first
                if lo + step >= len(corners):
                    word[-1, -1] = last
                yield word.ravel()

        return write_words(blocks(), ids,
                           ['{"', ', "', ",", '": [', ", ", "]", "]}", ""])


def _maximal_in_groups(S: InvSemigroup, group, x, dd):
    """Mask of the x that lie below no other x of their group.  ``group``
    is sorted, the x of a group are distinct and ``dd[s]`` is s*s, so y
    lies below another x iff y = x y*y.  Each x is compared with the d-th
    next of its group, cyclically, for each d below the group's size.
    With the groups taken largest first, the members of the groups larger
    than d are a prefix, so the work is the sum of the squared sizes."""
    start = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    size = np.diff(np.r_[start, len(x)])
    width = np.repeat(size, size)
    place = np.arange(len(x)) - np.repeat(start, size)
    order = np.argsort(-width, kind="stable")
    wider = -width[order]                              # ascending
    keep = np.ones(len(x), dtype=bool)
    for d in range(1, int(size.max(initial=1))):
        g = order[:np.searchsorted(wider, -d)]         # groups larger than d
        y, other = x[g], x[g - place[g] + (place[g] + d) % width[g]]
        keep[g] &= S.table[other, dd[y]] != y
    return keep


def check_ks_condition(phi: SemigroupHom) -> KSCertificates:
    """Certificates for the coherence of every corner map eSf -> T: for
    each pair of idempotents e, f of the source and each t in the target,
    the generating antichain of ``{s in eSf : phi(s) <= t}``, keyed
    ``(e, f, t)``.

    The elements below s are the s e for e in E(S).  So the preimages
    ``pre[s, t]`` (phi(s) <= t) are downsets iff phi(s e) <= phi(s) for
    every s and e, and if not, ``NotADownset`` names what a scan of the
    corners in order would.  The same products s e != s mark the members
    of each preimage that are not maximal; the rest are Gen_t, the maximal
    members of the preimage of t.  For idempotents e, f, e s f is the
    greatest element of eSf below s (Lawson, *Inverse Semigroups*, 1998,
    ch. 1): a member s of eSf below g in Gen_t lies below e g f, and
    e g f <= g lies in the preimage.  So the generators of the corner are
    the maximal elements of ``{e g f : g in Gen_t}``.  The candidates are
    deduplicated, first as e g per (e, t) and then per corner, before the
    distinct ones of a corner are compared pairwise.  Blocks hold at most
    ``CHUNK`` products.
    """
    S, T = phi.source, phi.target
    n, nt, k = len(S), len(T), len(S.idempotents)
    E, ids = np.asarray(S.idempotents), np.arange(n)
    image = np.asarray(phi.map, dtype=np.int64)
    leq_t = T.leq_matrix()
    pre = leq_t[image]                                   # [s, t]
    dominated = np.zeros((n, nt), dtype=bool)            # [s, t]: s < a member
    rows = max(1, CHUNK // (k * nt))
    for lo in range(0, n, rows):
        below = S.table[lo:lo + rows][:, E]              # [s, e]: s e
        if not leq_t[image[below], image[lo:lo + rows, None]].all():
            raise _first_escape(S, pre)
        u, e = np.nonzero(below != ids[lo:lo + rows, None])
        v, t = np.nonzero(pre[u + lo])
        dominated[below[u[v], e[v]], t] = True
    gt, gs = np.nonzero((pre & ~dominated).T)            # Gen_t, by t then s
    most = int(np.bincount(gt, minlength=nt).max(initial=0))
    dd = S.table[S.star, ids]                            # s*s
    corners, gens = [], []
    rows = max(1, CHUNK // max(k * len(gs), 1))
    for lo in range(0, k, rows):
        i = np.arange(lo, min(lo + rows, k))
        eg = S.table[E[i, None], gs]                          # [i, g]
        if most == 1:       # one candidate per corner, already in order
            corners.append(((i[:, None, None] * k + np.arange(k)[:, None]) * nt +
                            gt).ravel())
            gens.append(S.table[eg[:, None, :], E[:, None]].ravel())
            continue
        # the distinct e g per (e, t), then the distinct e g f per corner,
        # keyed (corner, e g f) and so sorted as the result
        it, x = np.divmod(np.unique((i[:, None] * nt + gt) * n + eg), n)
        i, t = np.divmod(it, nt)
        corner, cand = np.divmod(np.unique(
            ((i[:, None] * k + np.arange(k)) * nt + t[:, None]) * n +
            S.table[x[:, None], E]), n)
        keep = _maximal_in_groups(S, corner, cand, dd)
        corners.append(corner[keep])
        gens.append(cand[keep])
    gens = np.concatenate(gens)
    starts = np.zeros(k * k * nt + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.concatenate(corners), minlength=k * k * nt),
              out=starts[1:])
    return KSCertificates(S, nt, starts, gens)

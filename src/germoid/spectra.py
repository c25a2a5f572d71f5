"""Filter spaces of finite semilattices and the coherence machinery.

Every filter of a finite semilattice is principal, so a character space
stores one minimum element per filter.  The general (up-closed, meet-closed
subset) definition survives only inside the brute-force test oracles.

Topological content (continuity, clopen-ness, closure) is trivially true at
this scale; what the operations return instead are the combinatorial
certificates: generating antichains of downsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors
from .semigroups import InvSemigroup, SemigroupHom


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
        for e in self.elements:
            for f in self.elements:
                if self.meet(e, f) != self.meet(f, e) or \
                        self.meet(e, self.meet(e, f)) != self.meet(e, f):
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

    def bottom(self) -> int:
        b = self.elements[0]
        for e in self.elements[1:]:
            b = self.meet(b, e)
        return b


def idempotent_semilattice(S: InvSemigroup) -> Semilattice:
    """E(S) with the induced meet; ids are S's element ids."""
    E = S.idempotents
    table = [[S.mul(e, f) for f in E] for e in E]
    return Semilattice(E, table, names=[S.names[e] for e in E], zero=S.zero)


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
    """All filters: one per element, minus the zero's when contracted."""
    if isinstance(E, InvSemigroup):
        E = idempotent_semilattice(E)
    if contracted and E.zero is None:
        raise errors.ContractedWithoutZero("contracted space needs a zero")
    mins = [e for e in E.elements if not (contracted and e == E.zero)]
    return CharSpace(E, contracted, sorted(mins))


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
    out = []
    for i, m in enumerate(space.mins):
        if all(e == E.zero or e == m or not E.leq(e, m) for e in E.elements):
            out.append(i)
    return tuple(out)


# -- downsets and coherence ------------------------------------------------------

@dataclass(frozen=True)
class DownsetCertificate:
    """A downset together with its unique minimal generating antichain."""

    generators: tuple
    downset: frozenset


class Poset:
    """A finite poset given by an explicit order relation on ids."""

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        self.leq = leq

    @staticmethod
    def of_semilattice(E: Semilattice) -> "Poset":
        return Poset(E.elements, E.leq)

    @staticmethod
    def of_semigroup(S: InvSemigroup) -> "Poset":
        m = S.leq_matrix()
        return Poset(range(len(S)), lambda s, t: bool(m[s, t]))


def downset_generators(P: Poset, X) -> DownsetCertificate:
    """Minimal generating antichain of a downset: its maximal elements."""
    X = frozenset(X)
    for x in X:
        for y in P.elements:
            if P.leq(y, x) and y not in X:
                raise errors.NotADownset(x, y)
    gens = tuple(sorted(
        x for x in X if not any(y != x and P.leq(x, y) for y in X)))
    return DownsetCertificate(gens, X)


def principal_downset(P: Poset, x) -> frozenset:
    return frozenset(y for y in P.elements if P.leq(y, x))


@dataclass(frozen=True)
class SemilatticeHom:
    """A validated meet-preserving map between finite semilattices."""

    source: Semilattice
    target: Semilattice
    map: dict

    def __call__(self, e: int) -> int:
        return self.map[e]


def semilattice_hom(E1: Semilattice, E2: Semilattice, mapping) -> SemilatticeHom:
    mapping = dict(mapping)
    for e in E1.elements:
        if e not in mapping or mapping[e] not in E2:
            raise errors.NotMeetPreserving(f"map undefined or out of range at {e}")
    for e in E1.elements:
        for f in E1.elements:
            if mapping[E1.meet(e, f)] != E2.meet(mapping[e], mapping[f]):
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


def check_ks_condition(phi: SemigroupHom):
    """Certificates for the coherence of every corner map eSf -> T.

    For each pair of idempotents e, f of the source and each t in the target,
    computes the generating antichain of ``{s in eSf : phi(s) <= t}``.  The
    boolean is vacuously true here; the antichains are the content.

    Per (e, f) everything is a boolean array over the corner: ``leq`` is the
    natural order of S on it, and ``pre[c, t]`` says phi(corner[c]) <= t,
    read off the natural order of T through ``phi.map``.  A preimage that is
    not a downset raises ``NotADownset`` at its least failing member; the
    generators of each preimage are its members with no other member above.
    """
    S, T = phi.source, phi.target
    below_t = T.leq_matrix()[np.asarray(phi.map, dtype=np.int64)]  # [s, t]
    leq_s = S.leq_matrix()
    certs = {}
    for e in S.idempotents:
        for f in S.idempotents:
            corner = np.unique(S.table[S.table[e], f])
            leq = leq_s[np.ix_(corner, corner)]           # [y, x]: y <= x
            pre = below_t[corner]                         # [c, t]
            # [t, x]: x is in the preimage of t but something below it is not
            escapes = ((~pre).T.astype(np.int64) @ leq.astype(np.int64) > 0) \
                & pre.T
            if escapes.any():
                t, x = np.argwhere(escapes)[0]
                y = np.flatnonzero(leq[:, x] & ~pre[:, t])[0]
                raise errors.NotADownset(int(corner[x]), int(corner[y]))
            above = leq & ~np.eye(len(corner), dtype=bool)  # [x, y]: x < y
            maximal = pre & (above.astype(np.int64) @ pre.astype(np.int64) == 0)
            for t in range(len(T)):
                certs[(e, f, t)] = DownsetCertificate(
                    tuple(corner[maximal[:, t]].tolist()),
                    frozenset(corner[pre[:, t]].tolist()))
    return True, certs

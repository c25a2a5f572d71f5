"""Fixture generators: chains, groups, Brandt semigroups, symmetric inverse
monoids, semilattice-by-group semidirect products, products, adjoined zeros.

All generators return validated :class:`~germoid.semigroups.InvSemigroup`
objects with deterministic element ordering: from validated inputs born
validated (:func:`~germoid.semigroups.proved`, the proof in the docstring),
else, like a literal table, checked by ``validate_semigroup``.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from . import errors
from .semigroups import (
    FiniteGroup,
    InvSemigroup,
    check_size,
    is_e_unitary,
    proved,
    validate_group,
    validate_semigroup,
)
from .spectra import is_semilattice


def chain(n: int, name=None) -> InvSemigroup:
    """Chain semilattice 1 > f1 > ... > f_{n-1}; product is the lower element.

    Born validated: max is a semilattice, each element its own inverse."""
    if n < 1:
        raise errors.InvalidParams("chain needs n >= 1")
    names = ["1"] + [f"f{i}" if n > 2 else "f" for i in range(1, n)]
    table = np.maximum.outer(np.arange(n), np.arange(n))
    return proved(names, table, np.arange(n), name=name or f"CHAIN{n}")


def cyclic_group(n: int, name=None) -> FiniteGroup:
    """Z_n, g^i at id i; born validated: addition mod n is a group with
    identity 0 and inverse -i mod n."""
    if n < 1:
        raise errors.InvalidParams("cyclic group needs n >= 1")
    names = ["1"] + [f"g{'^' + str(i) if i > 1 else ''}" for i in range(1, n)]
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    return proved(names, table, -np.arange(n) % n, identity=0,
                  name=name or f"Z{n}")


def group_from_table(names, table, name="G") -> FiniteGroup:
    return validate_group(names, table, name=name)


def brandt(G: FiniteGroup, n: int, name=None) -> InvSemigroup:
    """Brandt semigroup over G: elements 0 and (i, g, j), with
    (i,g,j)(k,h,l) = (i, gh, l) if j = k, else 0.  Born validated over a
    validated G: it is associative, regular by (i,g,j)(j,g*,i)(i,g,j) =
    (i,gg*g,j), and its idempotents 0 and (i,e,i) commute."""
    if n < 1:
        raise errors.InvalidParams("brandt needs n >= 1")
    m = len(G)
    elems = [None] + [(i, g, j) for i in range(n) for g in range(m)
                      for j in range(n)]
    # (i, g, j) has id 1 + (i m + g) n + j
    i, g, j = np.unravel_index(np.arange(n * m * n), (n, m, n))
    prod = 1 + (i[:, None] * m + G.table[g[:, None], g]) * n + j
    table = np.zeros((len(elems), len(elems)), dtype=np.int64)
    table[1:, 1:] = np.where(j[:, None] == i, prod, 0)
    if len(G) == 1:
        names = ["0"] + [f"e{i + 1}{j + 1}" for i, _, j in elems[1:]]
    else:
        names = ["0"] + [f"({i + 1},{G.names[g]},{j + 1})" for i, g, j in elems[1:]]
    name = name or f"B({G.name},{n})"
    if G.validated:
        star = np.append(0, 1 + (j * m + G.star[g]) * n + i)
        return proved(names, table, star, zero=0, name=name)
    return validate_semigroup(names, table, zero=0, name=name)


def symmetric_inverse(n: int, name=None) -> InvSemigroup:
    """The symmetric inverse monoid of all partial bijections of {1..n}.

    Its size, the sum over j of C(n, j)^2 j! partial bijections with j
    points in their domain, is checked against the size limit before any
    element is built.  Born validated: the inverse of a partial bijection
    is its inverse map, the zero the empty map (Lawson, 1998, ch. 1.1).
    """
    if n < 0:
        raise errors.InvalidParams("need n >= 0")
    size, term = 0, 1
    for j in range(n + 1):          # term = C(n, j)^2 j!
        size += term
        term = term * (n - j) ** 2 // (j + 1)
    check_size(size)
    elems = []
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                elems.append(tuple(zip(dom, img)))
    elems.sort(key=lambda e: (len(e), e))
    # an element's key has its images, n where undefined, as digits in base
    # n + 1; the key of a after b sums a(b(x)) weight[x] over the points x
    image = np.array([[d.get(x, n) for x in range(n + 1)] for d in map(dict, elems)])
    weight = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    weighted = image[:, :, None] * weight
    product = np.zeros((len(elems), len(elems)), dtype=np.int64)
    for x in range(n):
        product += weighted[:, image[:, x], x]
    element = np.empty((n + 1) ** n, dtype=np.int64)
    element[image[:, :n] @ weight] = np.arange(len(elems))
    table = element[product]
    inverse = np.full_like(image, n)      # column n takes undefined points
    np.put_along_axis(inverse, image[:, :n], np.arange(n), axis=1)

    def label(e):
        if not e:
            return "0"
        return "[" + ",".join(f"{x + 1}->{y + 1}" for x, y in e) + "]"

    return proved([label(e) for e in elems], table,
                  element[inverse[:, :n] @ weight], zero=0, name=name or f"I{n}")


def semidirect(meet_table, G: FiniteGroup, action, enames=None, name=None) -> InvSemigroup:
    """Semidirect product of a semilattice E by a group acting by automorphisms.

    Elements are pairs (e, g) with (e,g)(f,h) = (e ^ g.f, gh); the result is
    always E-unitary (asserted).  ``action[g]`` is the permutation of E given
    by g; one array pass checks them all, naming the first g that fails.
    Then, for a validated G and an E that
    :func:`~germoid.spectra.is_semilattice`, it is born validated with
    (e, g)* = (g*.e, g*) (Lawson, *Inverse Semigroups*, 1998, ch. 5.2);
    otherwise its table is validated.
    """
    meet = np.asarray(meet_table, dtype=np.int64)
    k = meet.shape[0]
    if enames is None:
        enames = [f"e{i}" for i in range(k)]
    rows = [tuple(action[g]) for g in range(len(G))]
    act = np.array([r if len(r) == k else (k,) * k for r in rows])  # k's: no permutation
    perm = (np.sort(act, axis=1) == np.arange(k)).all(axis=1)
    act = np.where(perm[:, None], act, np.arange(k)).astype(np.int64)  # others: identity
    keeps = (act[:, meet] == meet[act[:, :, None], act[:, None, :]]).all(axis=(1, 2))
    bad = np.flatnonzero(~(perm & keeps))
    if len(bad):
        raise errors.ActionNotByAutomorphisms(f"action of {bad[0]} " + (
            "does not preserve the meet" if perm[bad[0]] else "is not a permutation"))
    if (act[:, act] != act[G.table]).any():      # [g, h, e]: g.(h.e) = (gh).e
        raise errors.ActionNotByAutomorphisms("action is not a homomorphism")
    # (e, g) has id e |G| + g, and (e, g)(f, h) = (e ^ g.f, gh)
    e, g = np.divmod(np.arange(k * len(G)), len(G))
    f, h = e[None, :], g[None, :]
    table = meet[e[:, None], act[g[:, None], f]] * len(G) + G.table[g[:, None], h]
    names = [f"({enames[e]},{G.names[g]})" for e in range(k) for g in range(len(G))]
    name = name or f"E:{G.name}"
    if G.validated and is_semilattice(meet):
        S = proved(names, table, act[G.star[g], e] * len(G) + G.star[g], name=name)
    else:
        S = validate_semigroup(names, table, None, name=name)
    if not is_e_unitary(S):
        raise errors.InvariantViolation(
            "semidirect products must be E-unitary", S.name)
    return S


def direct_product(S: InvSemigroup, T: InvSemigroup, name=None) -> InvSemigroup:
    """S x T, with (s, t) at id s |T| + t; born validated from validated S
    and T, with (s, t)* = (s*, t*) and zero (0, 0) when both have one."""
    m = len(T)
    table = S.table[:, None, :, None] * m + T.table[None, :, None, :]
    table = table.reshape(len(S) * m, len(S) * m)
    names = [f"({a},{b})" for a in S.names for b in T.names]
    zero = None if S.zero is None or T.zero is None else S.zero * m + T.zero
    name = name or f"{S.name}x{T.name}"
    if S.validated and T.validated:
        star = (S.star[:, None] * m + T.star).ravel()
        return proved(names, table, star, zero=zero, name=name)
    return validate_semigroup(names, table, zero, name=name)


def adjoin_zero(S: InvSemigroup, name=None) -> InvSemigroup:
    """S with a fresh absorbing zero appended (id = len(S)); born validated
    from a validated S, the new zero its own inverse."""
    n = len(S)
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    table[:n, :n] = S.table
    table[n, :] = n
    table[:, n] = n
    names, name = list(S.names) + ["0"], name or f"{S.name}^0"
    if S.validated:
        return proved(names, table, np.append(S.star, n), zero=n, name=name)
    return validate_semigroup(names, table, zero=n, name=name)


# -- named desk-scale fixtures -------------------------------------------------

def chain2() -> InvSemigroup:
    return chain(2, name="CHAIN2")


def b2() -> InvSemigroup:
    """The 5-element Brandt semigroup of 2x2 matrix units."""
    return brandt(cyclic_group(1), 2, name="B2")


def s3_monoid() -> InvSemigroup:
    """Three-element E-unitary monoid {1, f, t} with t^2 = f and t* = t."""
    names = ["1", "f", "t"]
    table = [[0, 1, 2], [1, 1, 2], [2, 2, 1]]
    return validate_semigroup(names, table, None, name="S3")


def s4_monoid() -> InvSemigroup:
    """CHAIN2 x Z2, the 4-element E-unitary monoid with group image Z2."""
    return direct_product(chain2(), cyclic_group(2), name="S4")


def v3_meet_table():
    """Semilattice with two incomparable atoms e1, e2 over a bottom b."""
    #      e1 e2 b
    return [[0, 2, 2], [2, 1, 2], [2, 2, 2]]


def sd6() -> InvSemigroup:
    """Semidirect product of the {e1, e2 > b} semilattice by Z2 swapping atoms."""
    G = cyclic_group(2)
    return semidirect(v3_meet_table(), G, {0: (0, 1, 2), 1: (1, 0, 2)},
                      enames=["e1", "e2", "b"], name="SD6")


def i2() -> InvSemigroup:
    return symmetric_inverse(2, name="I2")


PRESETS = {
    "chain2": chain2,
    "b2": b2,
    "s3": s3_monoid,
    "s4": s4_monoid,
    "sd6": sd6,
    "i2": i2,
}


def generate_fixture(kind: str, **params) -> InvSemigroup:
    """Dispatch table for the CLI's ``gen`` command.

    A parameter the kind needs and ``params`` lacks raises ``MalformedInput``
    naming the CLI option that supplies it.
    """
    kind = kind.replace("-", "_")

    def need(key, option):
        if key not in params:
            raise errors.MalformedInput(
                f"gen {kind.replace('_', '-')} needs {option}")
        return params[key]

    if kind == "chain":
        return chain(int(need("n", "--n")))
    if kind == "group":
        if "table" in params:
            return group_from_table(params["names"], params["table"],
                                    name=params.get("name", "G"))
        return cyclic_group(int(need("n", "--n")))
    if kind == "brandt":
        G = params.get("group") or cyclic_group(int(params.get("group_n", 1)))
        return brandt(G, int(need("n", "--n")))
    if kind == "symmetric_inverse":
        return symmetric_inverse(int(need("n", "--n")))
    if kind == "semidirect":
        preset = params.get("preset")
        if preset == "sd6":
            return sd6()
        if preset is not None:
            raise errors.MalformedInput(
                f"gen semidirect --preset must be sd6, not {preset!r}")
        return semidirect(need("meet_table", "--preset"), params["group"],
                          params["action"], enames=params.get("enames"))
    if kind == "direct_product":
        return direct_product(need("left", "--left"), need("right", "--right"))
    if kind == "adjoin_zero":
        return adjoin_zero(need("semigroup", "--in"))
    if kind == "preset":
        key = need("name", "--preset").lower()
        if key not in PRESETS:
            raise errors.MalformedInput(
                f"gen preset --preset must be one of {', '.join(PRESETS)}, "
                f"not {key!r}")
        return PRESETS[key]()
    raise errors.InvalidParams(f"unknown fixture kind {kind!r}")


# -- randomized E-unitary corpus ------------------------------------------------

def _random_semilattice(rng, max_size=8):
    """A random meet-subsemilattice of a small boolean lattice, as subsets."""
    base = rng.randrange(2, 5)
    fam = {frozenset(range(base))}
    for _ in range(rng.randrange(1, 5)):
        fam.add(frozenset(x for x in range(base) if rng.random() < 0.5))
    closed = set(fam)
    while True:
        extra = {a & b for a in closed for b in closed} - closed
        if not extra:
            break
        closed |= extra
    elems = sorted(closed, key=lambda s: (-len(s), sorted(s)))[:max_size]
    # re-close after truncation
    while True:
        extra = {a & b for a in elems for b in elems} - set(elems)
        if not extra:
            break
        elems = sorted(set(elems) | extra, key=lambda s: (-len(s), sorted(s)))
    index = {s: i for i, s in enumerate(elems)}
    k = len(elems)
    meet = [[index[elems[i] & elems[j]] for j in range(k)] for i in range(k)]
    return meet, elems


def _semilattice_automorphisms(meet):
    """The automorphisms p, p[a ^ b] = p[a] ^ p[b], of a semilattice in
    lexicographic order, by a depth-first search that places p[0], p[1], ...
    with each image in increasing order and checks the pair (a, b) once, when
    the last of a, b and a ^ b is placed.  Every prefix of an automorphism
    passes and a full p has passed every pair, so the leaves are exactly the
    automorphisms, in the order of the scan over all k! permutations
    (``oracles.semilattice_automorphisms_scan``): a seeded draw is unchanged.
    """
    k = len(meet)
    triples = [(a, b, meet[a][b]) for a in range(k) for b in range(k)]
    checks = [[t for t in triples if max(t) == i] for i in range(k)]
    auts, p = [], [0] * k

    def place(i):
        if i == k:
            return auts.append(tuple(p))
        for v in range(k):
            p[i] = v
            if v not in p[:i] and all(p[c] == meet[p[a]][p[b]] for a, b, c in checks[i]):
                place(i + 1)
    place(0)
    del place           # it refers to itself: free it now, not at the next gc
    return auts


def random_eunitary_semidirect(rng, max_order=64) -> InvSemigroup:
    """A random semidirect-product E-unitary inverse semigroup, |S| <= max_order."""
    while True:
        meet, _ = _random_semilattice(rng)
        k = len(meet)
        if k * 2 > max_order:
            continue
        auts = _semilattice_automorphisms(meet)
        perm = auts[rng.randrange(len(auts))]
        powers = [tuple(range(k))]           # perm^0, perm^1, ..., perm^order
        while len(powers) == 1 or powers[-1] != powers[0]:
            powers.append(tuple(perm[i] for i in powers[-1]))
        order = len(powers) - 1
        mult = order * rng.randrange(1, max(2, max_order // (k * order) + 1))
        if k * mult > max_order:
            mult = order
        if k * mult > max_order:
            continue
        action = {g: powers[g % order] for g in range(mult)}
        return semidirect(meet, cyclic_group(mult), action, name=f"RSD{k}x{mult}")

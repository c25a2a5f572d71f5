"""Independent brute-force oracles used to freeze expected values.

Everything here chases definitions with plain python loops and stays
deliberately independent of the library's computation paths.
"""

from collections import namedtuple
from itertools import permutations, product


def is_inverse_semigroup_table(table, zero=None):
    """Definition check: associative, unique inverses, commuting idempotents,
    absorbing zero when declared.  Returns (ok, reason)."""
    n = len(table)
    for i in range(n):
        if len(table[i]) != n or any(not 0 <= x < n for x in table[i]):
            return False, "shape"
    for i, j, k in product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return False, "associativity"
    for s in range(n):
        cands = [t for t in range(n)
                 if table[table[s][t]][s] == s and table[table[t][s]][t] == t]
        if len(cands) != 1:
            return False, "inverses"
    idem = [e for e in range(n) if table[e][e] == e]
    for e in idem:
        for f in idem:
            if table[e][f] != table[f][e]:
                return False, "idempotents"
    if zero is not None:
        for s in range(n):
            if table[zero][s] != zero or table[s][zero] != zero:
                return False, "zero"
    return True, ""


def inverse_of(table, s):
    n = len(table)
    return next(t for t in range(n)
                if table[table[s][t]][s] == s and table[table[t][s]][t] == t)


def leq(table, s, t):
    """s <= t iff s = te for some idempotent e."""
    n = len(table)
    idem = [e for e in range(n) if table[e][e] == e]
    return any(table[t][e] == s for e in idem)


def max_lower_bound(table, s, t):
    """The greatest common lower bound, or None (brute force over elements)."""
    n = len(table)
    lower = [u for u in range(n) if leq(table, u, s) and leq(table, u, t)]
    for u in lower:
        if all(leq(table, v, u) for v in lower):
            return u
    return None


def sigma_classes(table):
    """Classes of s ~ t iff se = te for some idempotent e."""
    n = len(table)
    idem = [e for e in range(n) if table[e][e] == e]
    classes = []
    for s in range(n):
        cls = frozenset(t for t in range(n)
                        if any(table[s][e] == table[t][e] for e in idem))
        if cls not in classes:
            classes.append(cls)
    return classes


def e_unitary_by_cancellation(S):
    """Second formulation: s*s = t*t and sigma(s) = sigma(t) imply s = t."""
    from germoid.semigroups import max_group_image

    sigma = max_group_image(S)
    for s in range(len(S)):
        for t in range(len(S)):
            if S.mul(S.inv(s), s) == S.mul(S.inv(t), t) and \
                    sigma(s) == sigma(t) and s != t:
                return False
    return True


def all_filters(elements, meet):
    """Every non-empty, up-closed, meet-closed subset, as frozensets."""
    elements = list(elements)
    out = []
    for bits in range(1, 1 << len(elements)):
        F = frozenset(e for i, e in enumerate(elements) if bits >> i & 1)
        up = all(g in F
                 for f in F for g in elements if meet(f, g) == f)
        closed = all(meet(f, g) in F for f in F for g in F)
        if up and closed:
            out.append(F)
    return out


def upclosure(elements, meet, subset):
    return frozenset(e for e in elements
                     if any(meet(b, e) == b for b in subset))


def germ_classes_at_point(S, action, x):
    """Partition of {s : x in dom theta_{s*s}} by the germ relation at x."""
    n = len(S)
    cands = [s for s in range(n)
             if action(S.mul(S.inv(s), s), x) is not None]

    def related(s, t):
        for u in range(n):
            if leq_semigroup(S, u, s) and leq_semigroup(S, u, t) and \
                    action(S.mul(S.inv(u), u), x) is not None:
                return True
        return False

    classes = []
    for s in cands:
        for cls in classes:
            if related(s, cls[0]):
                cls.append(s)
                break
        else:
            classes.append([s])
    return [frozenset(c) for c in classes]


def leq_semigroup(S, s, t):
    return any(S.mul(t, e) == s for e in S.idempotents)


def find_table_isomorphism(table_a, table_b, zero_a=None, zero_b=None):
    """Brute-force bijection search between multiplication tables."""
    from itertools import permutations as perms

    n = len(table_a)
    if len(table_b) != n:
        return None
    for p in perms(range(n)):
        if zero_a is not None and p[zero_a] != zero_b:
            continue
        if all(p[table_a[i][j]] == table_b[p[i]][p[j]]
               for i in range(n) for j in range(n)):
            return p
    return None


def semicharacter_beta(S, phi_upset, s):
    """Pointwise beta: (s phi)(e) = phi(s* e s), on semicharacters as upsets.

    ``phi_upset`` is the set of idempotents where phi is 1.  Returns the
    transported upset, or None when phi(s*s) = 0 (outside the domain).
    """
    from helpers import mul_all

    ss = S.mul(S.inv(s), s)
    if ss not in phi_upset:
        return None
    return frozenset(e for e in S.idempotents
                     if mul_all(S, S.inv(s), e, s) in phi_upset)


# -- loop versions of the library's vectorized kernels ---------------------------
#
# These are the plain scans the kernels replaced.  They raise the same
# structured errors with the same messages, in the same scan order, so a
# kernel and its oracle must agree on the verdict, the error type and the
# witness.

def first_nonassociative_triple(table):
    """The first (i, j, k) in lexicographic order with (ij)k != i(jk), or
    None: the full slab scan over all n^3 triples."""
    import numpy as np

    table = np.asarray(table, dtype=np.int64)
    n = len(table)
    chunk = max(1, (1 << 22) // (n * n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        lhs = table[table[lo:hi, :], :]
        rhs = table[lo:hi, table]
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            return int(bad[0]) + lo, int(bad[1]), int(bad[2])
    return None


def lights_test_by_columns(table, gens):
    """Light's test as the column gather it was before the row-gather
    kernel: (xa)y = x(ay) for every generator a, in slabs of x."""
    import numpy as np

    table = np.asarray(table, dtype=np.int64)
    n = len(table)
    rows = max(1, (1 << 16) // n)
    for a in gens:
        for lo in range(0, n, rows):
            lhs = table[table[lo:lo + rows, a]]         # lhs[x,y] = (xa)y
            rhs = table[lo:lo + rows][:, table[a]]      # rhs[x,y] = x(ay)
            if not np.array_equal(lhs, rhs):
                return False
    return True


def greedy_generators_loop(table, order):
    """The generators ``greedy_generators`` picks, with its candidates
    taken in ``order``: a candidate is a generator iff it lies outside the
    closure of the earlier generators.  The closure grows one element at a
    time, each multiplied on both sides with every element already in."""
    table = [[int(v) for v in row] for row in table]
    inside, gens = set(), []
    for a in order:
        if a in inside:
            continue
        gens.append(a)
        inside.add(a)
        todo = [a]
        while todo:
            x = todo.pop()
            for y in list(inside):
                for z in (table[x][y], table[y][x]):
                    if z not in inside:
                        inside.add(z)
                        todo.append(z)
    return gens


def saction_generators_hold(S, maps):
    """theta_s theta_t = theta_st for all s and every generator t, as
    ``validate_saction`` checked it before the shared kernel: one
    column gather of all the maps per generator."""
    import numpy as np

    maps = np.asarray(maps, dtype=np.int64)
    defined = maps >= 0
    inner = np.where(defined, maps, 0)
    return all(np.array_equal(np.where(defined[t], maps[:, inner[t]], -1),
                              maps[S.table[:, t]]) for t in S.generators)


def comp_table(g):
    """The dense composition table of g: ab at [a, b], or -1.  The pairs
    with dom a = ran b, found by a loop over every (a, b) in row order,
    take ``g.products`` in turn."""
    import numpy as np

    n, dom, ran = g.n_arrows, g.dom.tolist(), g.ran.tolist()
    table = np.full((n, n), -1, dtype=np.int32)
    products = iter(g.products.tolist())
    for a in range(n):
        for b in range(n):
            if dom[a] == ran[b]:
                table[a, b] = next(products)
    assert next(products, None) is None, "more products than composable pairs"
    return table


def composer(g):
    """compose(a, b): ab read off :func:`comp_table`, or None."""
    table = comp_table(g).tolist()

    def compose(a, b):
        c = table[a][b]
        return None if c < 0 else c
    return compose


def rule_of(comp):
    """A product rule that reads ab off the dict ``comp``, or -1."""
    import numpy as np

    return lambda a, b: np.array(
        [comp.get(pair, -1) for pair in zip(a.tolist(), b.tolist())], dtype=np.int64)


def scan_endpoint_law(dom, ran, table):
    """Raise ``DomainMismatch`` at the first pair (a, b) in row order where
    ab is defined but dom a != ran b or the reverse, or ab has the wrong
    endpoints; row blocks hold at most ``CHUNK`` pairs.  ``table`` is
    dense, -1 where undefined, with entries in range."""
    import numpy as np

    from germoid import errors
    from germoid.semigroups import CHUNK

    n, dom, ran = len(table), np.asarray(dom), np.asarray(ran)
    rows = max(1, CHUNK // max(n, 1))
    for lo in range(0, n, rows):
        t = table[lo:lo + rows]
        defined = t >= 0
        wrong = defined != (dom[lo:lo + rows, None] == ran[None, :])
        c = np.where(defined, t, 0)
        ends = defined & ((dom[c] != dom[None, :]) |
                          (ran[c] != ran[lo:lo + rows, None]))
        if wrong.any() or ends.any():
            a, b = divmod(int(np.flatnonzero((wrong | ends).ravel())[0]), n)
            raise errors.DomainMismatch(
                f"composition of {a + lo}, {b} defined on the wrong domain"
                if wrong[a, b] else f"composite of {a + lo}, {b} has the wrong endpoints")


def validate_groupoid_loops(g):
    """The groupoid axioms by exhaustive loops over arrow ids."""
    from germoid import errors

    n, compose = g.n_arrows, composer(g)
    for a in range(n):
        for b in range(n):
            c = compose(a, b)
            if (g.dom[a] == g.ran[b]) != (c is not None):
                raise errors.DomainMismatch(
                    f"composition of {a}, {b} defined on the wrong domain")
            if c is not None and (g.dom[c] != g.dom[b] or g.ran[c] != g.ran[a]):
                raise errors.DomainMismatch(
                    f"composite of {a}, {b} has the wrong endpoints")
    for u in range(g.n_units):
        i = int(g.identity[u])
        if not (0 <= i < n) or g.dom[i] != u or g.ran[i] != u:
            raise errors.MissingIdentity(u)
        for a in range(n):
            if g.dom[a] == u and compose(a, i) != a:
                raise errors.MissingIdentity(u)
            if g.ran[a] == u and compose(i, a) != a:
                raise errors.MissingIdentity(u)
    for a in range(n):
        ai = int(g.inv[a])
        if not 0 <= ai < n or g.dom[ai] != g.ran[a] or g.ran[ai] != g.dom[a] or \
                compose(ai, a) != g.identity[g.dom[a]] or \
                compose(a, ai) != g.identity[g.ran[a]]:
            raise errors.MissingInverse(a)
    for a in range(n):
        for b in range(n):
            ab = compose(a, b)
            if ab is None:
                continue
            for c in range(n):
                bc = compose(b, c)
                if bc is None:
                    continue
                if compose(ab, c) != compose(a, bc):
                    raise errors.CompositionNotAssociative(a, b, c)
    return g


# The groupoid validation kernels before the arrows-by-range index: the
# triple scan sorted the arrows by ``ran`` again for every block, the
# endpoint law read the defined pairs off ``np.nonzero``, and Light's test
# took one generator per hom-set.

def arrows_at(units, ends, n_units):
    """The arrows a with ``ends[a]`` equal to each of ``units``, in id
    order, flattened; ``ends`` is ``ran`` or ``dom``.

    Returns ``(counts, arrows)``: ``counts[i]`` arrows have ``units[i]`` as
    that end, and they follow one another in ``arrows``.
    """
    import numpy as np

    by_end = np.argsort(ends, kind="stable")
    per_unit = np.bincount(ends, minlength=n_units)
    start = np.cumsum(per_unit) - per_unit
    counts = per_unit[units]
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
    return counts, by_end[np.repeat(start[units], counts) + offsets]


def generating_arrows(g):
    """A mask of arrows that generate g, together with its identities,
    under composition.

    Starting from the identities, the arrows reached so far are closed
    under composition by repeated squaring, so in O(log order) rounds, and
    then the least unreached arrow of each hom-set (ran, dom) joins as a
    generator, until every arrow is reached.  A cyclic group needs one
    generator.  Needs what ``validate_groupoid`` checks before
    associativity, not associativity itself.
    """
    import numpy as np

    table = comp_table(g)
    a, b = np.nonzero(table >= 0)
    ab = table[a, b]
    hom = g.ran * g.n_units + g.dom
    reached = np.zeros(g.n_arrows, dtype=bool)
    reached[g.identity] = True
    gens = np.zeros(g.n_arrows, dtype=bool)
    while True:
        left = np.flatnonzero(~reached)
        if not left.size:
            return gens
        least = left[np.unique(hom[left], return_index=True)[1]]
        gens[least] = reached[least] = True
        size = 0
        while size != (size := np.count_nonzero(reached)):     # until stable
            reached[ab[reached[a] & reached[b]]] = True


def first_nonassociative_groupoid_triple(g, a, b):
    """The first (a, b, c) with (ab)c != a(bc), or None: each composable
    pair (a[i], b[i]) in turn is extended by the arrows c ending at dom(b),
    in increasing order."""
    import numpy as np

    from germoid.semigroups import CHUNK

    table, dom, ran, n_units = comp_table(g), g.dom, g.ran, g.n_units
    per_pair = np.bincount(ran, minlength=n_units)[dom[b]]
    step = max(1, CHUNK // max(int(per_pair.max(initial=1)), 1))
    for lo in range(0, len(a), step):
        pa, pb = a[lo:lo + step], b[lo:lo + step]
        counts, tc = arrows_at(dom[pb], ran, n_units)
        ta, tb = np.repeat(pa, counts), np.repeat(pb, counts)
        bad = table[table[ta, tb], tc] != table[ta, table[tb, tc]]
        if bad.any():
            i = int(np.flatnonzero(bad.ravel())[0])
            return int(ta[i]), int(tb[i]), int(tc[i])
    return None


def endpoint_law_holds(g):
    """Whether ab is defined exactly when dom a = ran b, and then has
    dom(ab) = dom b and ran(ab) = ran a.

    Checked on the defined pairs alone, in blocks of ``CHUNK``: each is
    composable with the right endpoints, and there are as many as
    composable pairs, the sum over units u of |dom^-1(u)| |ran^-1(u)|.
    Needs the endpoints and the table entries in range.
    """
    import numpy as np

    from germoid.semigroups import CHUNK

    table = comp_table(g)
    a, b = np.nonzero(table >= 0)
    dom, ran = g.dom, g.ran
    composable = np.bincount(dom, minlength=g.n_units) @ \
        np.bincount(ran, minlength=g.n_units)
    if len(a) != composable:
        return False
    for lo in range(0, len(a), CHUNK):
        pa, pb = a[lo:lo + CHUNK], b[lo:lo + CHUNK]
        ab = table[pa, pb]
        if ((dom[pa] != ran[pb]) | (dom[ab] != dom[pb]) |
                (ran[ab] != ran[pa])).any():
            return False
    return True


def associativity_by_hom_sets(g):
    """The associativity step of ``validate_groupoid`` before the spanning
    tree: Light's test over one generator per hom-set, on more than 25
    arrows, then the full scan for the witness.  Returns the first failing
    triple or None.  Needs what ``validate_groupoid`` checks before
    associativity."""
    import numpy as np

    a, b = np.nonzero(comp_table(g) >= 0)
    if g.n_arrows <= 25:
        return first_nonassociative_groupoid_triple(g, a, b)
    middle = generating_arrows(g)[b]
    if first_nonassociative_groupoid_triple(g, a[middle], b[middle]) is None:
        return None
    return first_nonassociative_groupoid_triple(g, a, b)


def composition_closure(g, seeds):
    """The arrows reached from ``seeds`` by composing, as a set: each
    arrow, when it joins, is composed on both sides with every arrow
    already in."""
    inside, compose = set(seeds), composer(g)
    todo = list(inside)
    while todo:
        x = todo.pop()
        for y in list(inside):
            for z in (compose(x, y), compose(y, x)):
                if z is not None and z not in inside:
                    inside.add(z)
                    todo.append(z)
    return inside


def validate_saction_scan(S, maps):
    """The action checks row by row, then theta_s theta_t = theta_st over
    every pair (s, t), then the covering of the points."""
    import numpy as np

    from germoid import errors

    maps = np.asarray(maps, dtype=np.int64)
    n, m = maps.shape

    def compose(outer, inner):
        out = np.full_like(inner, -1)
        defined = inner >= 0
        out[defined] = outer[inner[defined]]
        return out

    idx = np.arange(m)
    for s in range(n):
        row = maps[s]
        if row.max(initial=-1) >= m or row.min(initial=-1) < -1:
            raise errors.InvalidParams("map image out of range")
        vals = row[row >= 0]
        if len(vals) != len(set(vals.tolist())):
            raise errors.NotBijective(f"theta_{s} is not injective")
        si = S.inv(s)
        back = compose(maps[si], row)
        if not np.array_equal(back >= 0, row >= 0) or \
                not np.array_equal(back[back >= 0], idx[back >= 0]):
            raise errors.NotBijective(f"theta_{si} does not invert theta_{s}")
        if (maps[si] >= 0).sum() != len(vals):
            raise errors.NotBijective(f"theta_{si} overshoots theta_{s}")
    for s in range(n):
        for t in range(n):
            if not np.array_equal(compose(maps[s], maps[t]), maps[S.mul(s, t)]):
                raise errors.NotAHomomorphism(
                    f"theta_{s} theta_{t} != theta_{{s t}}")
    covered = np.zeros(m, dtype=bool)
    for e in S.idempotents:
        covered |= maps[e] >= 0
    if not covered.all():
        raise errors.DomainsDontCover(int(np.flatnonzero(~covered)[0]))


def anchor_idempotents_loop(action):
    """m_x, the product of the idempotents e with x in dom theta_e, or -1,
    multiplied in id order by one pass over E(S); the loop that
    ``germs.anchor_idempotents`` replaced."""
    import numpy as np

    S = action.semigroup
    m = np.full(action.n_points, -1, dtype=np.int64)
    for e in S.idempotents:
        inside = action.maps[e] >= 0
        m = np.where(inside, np.where(m < 0, e, S.table[m, e]), m)
    return m


def germ_classes_by_order(S, action):
    """Germ classes from the natural order: (s, x) ~ (t, x) iff some u below
    s and t has x in dom theta_{u*u}, one matrix product per s.  Returns the
    classes as sorted lists of (s, x), ordered by least member."""
    import numpy as np

    n, m = len(S), action.n_points
    leq = np.array([[leq_semigroup(S, s, t) for t in range(n)]
                    for s in range(n)])
    below = leq.T.astype(np.int32)            # below[s, u] = (u <= s)
    dom = np.array([[action(S.mul(S.inv(u), u), x) is not None
                     for x in range(m)] for u in range(n)], dtype=np.int32)
    eq_of = {s: ((below * below[s]) @ dom) > 0 for s in range(n)}
    classes = []
    for x in range(m):
        local = []
        for s in range(n):
            if not dom[s, x]:
                continue
            for cls in local:
                if eq_of[s][cls[0], x]:
                    cls.append(s)
                    break
            else:
                local.append([s])
        classes += [[(s, x) for s in cls] for cls in local]
    return sorted(classes)


def validate_semigroup_scan(table, zero=None):
    """The semigroup checks of ``validate_semigroup`` in their order: the
    full associativity scan, unique inverses, commuting idempotents, an
    absorbing zero."""
    import numpy as np

    from germoid import errors

    table = np.asarray(table, dtype=np.int64)
    n = len(table)
    bad = first_nonassociative_triple(table)
    if bad is not None:
        raise errors.NotAssociative(*bad)
    for s in range(n):
        cands = [t for t in range(n)
                 if table[table[s, t], s] == s and table[table[t, s], t] == t]
        if len(cands) != 1:
            raise errors.NoUniqueInverse(s, len(cands))
    idem = [e for e in range(n) if table[e, e] == e]
    for e in idem:
        for f in idem:
            if table[e, f] != table[f, e]:
                raise errors.IdempotentsDontCommute(e, f)
    if zero is not None:
        for s in range(n):
            if table[zero, s] != zero or table[s, zero] != zero:
                raise errors.ZeroNotAbsorbing(s)


def semigroup_from_json_loads(text: str, name="S"):
    """``semigroup_from_json`` as it read every file before the byte
    kernel: ``json.loads`` and ``np.asarray`` of the nested list."""
    import json

    import numpy as np

    from germoid import errors
    from germoid.semigroups import holds_bool, validate_semigroup

    data = json.loads(text)
    if not isinstance(data, dict):
        raise errors.MalformedInput("a semigroup file holds one JSON object")
    names = data.get("elements")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise errors.MalformedInput('"elements" must be a list of names')
    n = len(names)
    not_square = errors.MalformedInput(
        f'"table" must be a {n}x{n} array of integer element ids')
    try:
        table = np.asarray(data.get("table"))
    except ValueError:                       # ragged nesting
        raise not_square from None
    if table.dtype.kind not in "iu" or table.shape != (n, n) or n == 0 or \
            holds_bool(text, data["table"]):
        raise not_square
    if table.min() < 0 or table.max() >= n:
        raise errors.MalformedInput('"table" entries must be ids in range')
    zero = data.get("zero")
    if zero is not None and (type(zero) is not int or not 0 <= zero < n):
        raise errors.MalformedInput('"zero" must be null or an element id')
    return validate_semigroup(names, table, zero, name=name)


def validate_partial_action_loops(G, maps, n_points=None):
    """The partial group action checks by loops over group elements and
    points, in the order of ``validate_partial_action``; the points are
    the columns of ``maps`` unless ``n_points`` is given."""
    import numpy as np

    from germoid import errors

    maps = np.asarray(maps, dtype=np.int64)
    m = maps.shape[1] if n_points is None else n_points
    if maps.shape != (len(G), m):
        raise errors.InvalidParams("need one partial map per semigroup element")

    def theta(g, x):
        y = int(maps[g, x])
        return y if y >= 0 else None

    if any(theta(G.identity, x) != x for x in range(m)):
        raise errors.IdentityNotTotal("theta(1) must be the identity of X")
    for g in range(len(G)):
        vals = [y for y in maps[g] if y >= 0]
        if len(vals) != len(set(vals)):
            raise errors.NotBijective(f"theta({g}) is not injective")
        gi = G.inv(g)
        for x in range(m):
            y = theta(g, x)          # an image outside the points is never undone
            if y is not None and (y >= m or theta(gi, y) != x):
                raise errors.InverseMismatch(g)
        if sorted(vals) != sorted(
                x for x in range(m) if theta(gi, x) is not None):
            raise errors.InverseMismatch(g)
    for g in range(len(G)):
        for h in range(len(G)):
            gh = G.mul(g, h)
            for x in range(m):
                hx = theta(h, x)
                if hx is None:
                    continue
                y = theta(g, hx)
                if y is not None and theta(gh, x) != y:
                    raise errors.NotDualPrehom(g, h)


def validate_space_action_loops(action):
    """The groupoid space action checks by loops over arrows and points."""
    import numpy as np

    from germoid import errors

    h = action.groupoid
    if np.shape(action.act) != (h.n_arrows, action.n_points) or \
            len(action.anchor) != action.n_points:
        raise errors.InvalidParams("need an image per arrow and point")
    for a in range(h.n_arrows):
        for x in range(action.n_points):
            if action.act[a, x] >= action.n_points:
                raise errors.InvalidAction(
                    f"arrow {a} sends point {x} outside the points")
    for x in range(action.n_points):
        if not 0 <= action.anchor[x] < h.n_units:
            raise errors.InvalidAction(f"anchor of point {x} out of range")
        if action(int(h.identity[action.anchor[x]]), x) != x:
            raise errors.InvalidAction(f"identity does not fix point {x}")
    for a in range(h.n_arrows):
        for x in range(action.n_points):
            defined = h.dom[a] == action.anchor[x]
            y = action(a, x)
            if defined != (y is not None):
                raise errors.InvalidAction(
                    f"arrow {a} defined on the wrong points")
            if y is not None and action.anchor[y] != h.ran[a]:
                raise errors.InvalidAction(
                    f"anchor not equivariant at arrow {a}, point {x}")
    compose = composer(h)
    for a in range(h.n_arrows):
        for b in range(h.n_arrows):
            ab = compose(a, b)
            if ab is None:
                continue
            for x in range(action.n_points):
                bx = action(b, x)
                if bx is None:
                    continue
                if action(a, bx) != action(ab, x):
                    raise errors.InvalidAction(
                        f"action not functorial at ({a},{b},{x})")


# -- the representation layer and the KS certificates, by loops and dense algebra --

def dense(rows, n_rows):
    """The 0/1 matrices of partial maps of basis vectors: M[..., i, t] = 1
    iff rows[..., t] = i.  A 1-D ``rows`` gives one matrix, a 2-D one a
    stack with one matrix per row; entries -1 give zero columns."""
    import numpy as np

    rows = np.asarray(rows)
    out = np.zeros(rows.shape[:-1] + (n_rows, rows.shape[-1]), dtype=np.int64)
    *lead, t = np.nonzero(rows >= 0)
    out[(*lead, rows[rows >= 0], t)] = 1
    return out


def pair_basis(S, sigma):
    """The index of each basis pair (e, g) of E x G: e_pos * |G| + g."""
    pairs = [(e, g) for e in S.idempotents for g in range(len(sigma.group))]
    return {pair: i for i, pair in enumerate(pairs)}


def left_regular_rep_loops(S):
    """The stack of matrices L_s e_t = e_{st} iff s*s t = t, one entry at a
    time."""
    import numpy as np

    n = len(S)
    out = np.zeros((n, n, n), dtype=np.int64)
    for s in range(n):
        ss = S.mul(S.inv(s), s)
        for t in range(n):
            if S.mul(ss, t) == t:
                out[s, S.mul(s, t), t] = 1
    return out


def covariant_rep_loops(S, sigma, theta):
    """The stack of matrices A_s (e_e (x) e_g) = [theta(sigma(s) g) maps e^
    into D(ss*)] e_e (x) e_{sigma(s) g}, one basis vector at a time."""
    import numpy as np

    from helpers import d_set

    G = sigma.group
    space = theta.space
    index = pair_basis(S, sigma)
    out = np.zeros((len(S), len(index), len(index)), dtype=np.int64)
    for s in range(len(S)):
        dss = d_set(space, S.mul(s, S.inv(s)))
        for (e, g), col in index.items():
            h = G.mul(sigma(s), g)
            img = theta(h, space.index_of(e))
            if img is not None and img in dss:
                out[s, index[(e, h)], col] = 1
    return out


def intertwiner_u_loops(S, sigma):
    """The matrix of e_s -> e_{s*s} (x) e_{sigma(s)}, one column at a time."""
    import numpy as np

    index = pair_basis(S, sigma)
    U = np.zeros((len(index), len(S)), dtype=np.int64)
    for s in range(len(S)):
        U[index[(S.mul(S.inv(s), s), sigma(s))], s] = 1
    return U


def check_rep_conditions_loops(S):
    """s*s t = t, t*t = t*s*s t and t*t <= t*s*s t agree, pair by pair: the
    three order conditions behind ``matrixrep.verify_intertwining``."""
    from helpers import mul_all

    for s in range(len(S)):
        for t in range(len(S)):
            tt = S.mul(S.inv(t), t)
            w = mul_all(S, S.inv(t), S.inv(s), s, t)
            c1 = mul_all(S, S.inv(s), s, t) == t
            c2 = tt == w
            c3 = tt == S.mul(tt, w)
            if not (c1 == c2 == c3):
                return False
    return True


def check_intertwining_dense(U, lambdas, covs):
    """U is a 0/1 isometry and U L_s = A_s U for the stacks L and A, by
    dense matrix products."""
    import numpy as np

    U = np.asarray(U)
    if not set(np.unique(U)) <= {0, 1}:
        return False
    if not np.array_equal(U.T @ U, np.eye(U.shape[1], dtype=U.dtype)):
        return False
    return all(np.array_equal(U @ lam, cov @ U)
               for lam, cov in zip(lambdas, covs))


def product_matrix(alg, a):
    """Left multiplication by basis element a, as a dim x dim matrix."""
    import numpy as np

    mat, compose = np.zeros((alg.dim, alg.dim), dtype=np.int64), composer(alg.groupoid)
    for b in range(alg.dim):
        c = compose(a, b)
        if c is not None:
            mat[c, b] = 1
    return mat


def center_dimension_svd(alg, tol=1e-10):
    """dim{z : za = az for all a}: the nullity of the stacked commutant
    system [L_a - R_a], from its singular values."""
    import numpy as np

    if alg.dim == 0:
        return 0
    rows, compose = [], composer(alg.groupoid)
    for a in range(alg.dim):
        ra = np.zeros((alg.dim, alg.dim), dtype=np.int64)
        for b in range(alg.dim):
            c = compose(b, a)
            if c is not None:
                ra[c, b] = 1
        rows.append(product_matrix(alg, a) - ra)
    sv = np.linalg.svd(np.vstack(rows).astype(np.float64), compute_uv=False)
    return alg.dim - int((sv > tol).sum())


class Poset:
    """A finite poset given by an explicit order relation on ids."""

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        self.leq = leq

    @staticmethod
    def of_semilattice(E):
        return Poset(E.elements, E.leq)

    @staticmethod
    def of_semigroup(S):
        m = S.leq_matrix()
        return Poset(range(len(S)), lambda s, t: bool(m[s, t]))


SetCertificate = namedtuple("SetCertificate", "generators downset")


def integer_rank(mat) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination on
    Python integers: every division is exact, so no tolerance is needed."""
    import numpy as np

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


def gelfand_indicator(S):
    """The matrix ind[i, j] = [filter j lies in D(e_i)] over E(S), by
    ``d_set``."""
    import numpy as np

    from germoid.spectra import enumerate_filters
    from helpers import d_set

    E = S.idempotents
    space = enumerate_filters(S, contracted=False)
    ind = np.zeros((len(E), len(space)), dtype=np.int64)
    for i, e in enumerate(E):
        for f in d_set(space, e):
            ind[i, f] = 1
    return ind


def gelfand_check_loops(S):
    """The finite Gelfand picture for E(S): e -> the indicator of D(e) is
    multiplicative and of full rank |E|, and the regular representation of
    E(S) is diagonal with those indicators, under the principal-filter
    bijection; a loop over pairs of idempotents with ``d_set`` and a
    Bareiss rank of the indicator matrix."""
    import numpy as np

    from germoid.spectra import enumerate_filters
    from helpers import d_set

    E = S.idempotents
    space = enumerate_filters(S, contracted=False)
    k = len(E)
    if len(space) != k:
        return False
    ind = gelfand_indicator(S)
    dsets = {e: d_set(space, e) for e in E}
    for i, e in enumerate(E):
        for j, f in enumerate(E):
            if set(dsets[e] & dsets[f]) != set(d_set(space, S.mul(e, f))):
                return False
            target = np.zeros(k, dtype=np.int64)
            for x in d_set(space, S.mul(e, f)):
                target[x] = 1
            if not np.array_equal(ind[i] * ind[j], target):
                return False
    if integer_rank(ind) != k:
        return False
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


def downset_generators(P, X):
    """Minimal generating antichain of a downset: its maximal elements."""
    from germoid import errors

    X = frozenset(X)
    for x in X:
        for y in P.elements:
            if P.leq(y, x) and y not in X:
                raise errors.NotADownset(x, y)
    gens = tuple(sorted(
        x for x in X if not any(y != x and P.leq(x, y) for y in X)))
    return SetCertificate(gens, X)


def principal_downset(P, x):
    return frozenset(y for y in P.elements if P.leq(y, x))


def check_ks_condition_by_sets(phi):
    """The KS certificates set by set: each corner eSf as a sub-poset and
    each preimage {s in eSf : phi(s) <= t} through ``downset_generators``."""
    from helpers import mul_all, natural_leq

    S, T = phi.source, phi.target
    PS = Poset.of_semigroup(S)
    certs = {}
    for e in S.idempotents:
        for f in S.idempotents:
            corner = sorted({mul_all(S, e, s, f) for s in range(len(S))})
            sub = Poset(corner, PS.leq)
            for t in range(len(T)):
                pre = {s for s in corner if natural_leq(T, phi(s), t)}
                certs[(e, f, t)] = downset_generators(sub, pre)
    return certs


def check_ks_condition_by_corners(phi):
    """The KS certificates corner by corner with integer matrix products:
    per eSf, ``leq`` is the natural order on the corner and ``pre[c, t]``
    says phi(corner[c]) <= t; a member escapes when something below it is
    outside its preimage, and the generators are the members with no other
    member above."""
    import numpy as np

    from germoid import errors

    S, T = phi.source, phi.target
    below_t = T.leq_matrix()[np.asarray(phi.map, dtype=np.int64)]  # [s, t]
    leq_s = S.leq_matrix()
    certs = {}
    for e in S.idempotents:
        for f in S.idempotents:
            corner = np.unique(S.table[S.table[e], f])
            leq = leq_s[np.ix_(corner, corner)]           # [y, x]: y <= x
            pre = below_t[corner]                         # [c, t]
            escapes = ((~pre).T.astype(np.int64) @ leq.astype(np.int64) > 0) \
                & pre.T
            if escapes.any():
                t, x = np.argwhere(escapes)[0]
                y = np.flatnonzero(leq[:, x] & ~pre[:, t])[0]
                raise errors.NotADownset(int(corner[x]), int(corner[y]))
            above = leq & ~np.eye(len(corner), dtype=bool)  # [x, y]: x < y
            maximal = pre & (above.astype(np.int64) @ pre.astype(np.int64) == 0)
            for t in range(len(T)):
                certs[(e, f, t)] = SetCertificate(
                    tuple(corner[maximal[:, t]].tolist()),
                    frozenset(corner[pre[:, t]].tolist()))
    return certs


def cover_edges_by_leq(S):
    """The pairs (s, c) where c covers s in the natural order, as a sorted
    list: the strict order minus its square, by the definition of s <= t."""
    n = len(S)
    lt = [[s != t and leq_semigroup(S, s, t) for t in range(n)]
          for s in range(n)]
    return sorted((s, c) for s in range(n) for c in range(n)
                  if lt[s][c] and not any(lt[s][h] and lt[h][c]
                                          for h in range(n)))


def cover_edges(S):
    """The Hasse diagram of the natural order of S, as the arrays ``(s, c)``
    of the pairs where c covers s, ordered by c and then by s*s.

    For s <= c the map x -> x*x is an order isomorphism from [s, c] onto
    [s*s, c*c] (Lawson, *Inverse Semigroups*, 1998, ch. 1), so c covers s
    iff s = c f for a lower cover f of c*c in E(S).  The covers of E(S) are
    its strict order minus the square of the strict order.
    """
    import numpy as np

    E = np.asarray(S.idempotents)
    ids = np.arange(len(S))
    lt = S.table[np.ix_(E, E)] == E[:, None]         # [a, b]: e_a <= e_b
    np.fill_diagonal(lt, False)
    between = lt.astype(np.int64) @ lt.astype(np.int64)
    lower = (lt & (between == 0)).T                  # [b, a]: e_b covers e_a
    # E is in increasing id order, so searchsorted finds the place of c*c
    c, a = np.nonzero(lower[np.searchsorted(E, S.table[S.star, ids])])
    return S.table[c, E[a]], c


def check_ks_condition_by_cover_edges(phi):
    """The KS certificates in one batched pass over the cover edges (s, c)
    of S: s is in eSf iff ss* <= e and s*s <= f.  The preimages
    ``pre[s, t]`` must be downsets, so pre[c, t] implies pre[s, t] on every
    edge, or ``NotADownset`` names the least corner, t, member and element
    below it.  Corner and preimage are downsets, so the generators are the
    members with no upper cover in both."""
    import itertools

    import numpy as np

    from germoid import errors
    from germoid.semigroups import CHUNK

    S, T = phi.source, phi.target
    n, nt, k = len(S), len(T), len(S.idempotents)
    E, ids = np.asarray(S.idempotents), np.arange(n)
    pre = T.leq_matrix()[np.asarray(phi.map, dtype=np.int64)]   # [s, t]
    rr, dd = S.table[ids, S.star], S.table[S.star, ids]          # ss*, s*s
    in_e = S.table[np.ix_(E, rr)] == rr                          # [i, s]
    in_f = S.table[np.ix_(E, dd)] == dd                          # [j, s]
    low, up = cover_edges(S)
    if (pre[up] & ~pre[low]).any():
        leq = S.leq_matrix()
        bad = pre.T & ((~pre).T.astype(np.int64) @ leq > 0)      # [t, x]
        hit = bad.any(axis=0)
        i = np.flatnonzero(in_e[:, hit].any(axis=1))[0]
        j = np.flatnonzero((in_f[:, hit] & in_e[i, hit]).any(axis=1))[0]
        t, x = np.argwhere(bad & in_e[i] & in_f[j])[0]
        y = np.flatnonzero(leq[:, x] & ~pre[:, t])[0]
        raise errors.NotADownset(int(x), int(y))
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
    return {key: tuple(gens[a:b]) for key, (a, b) in zip(corners, spans)}


def ks_certificates_json(certs):
    """The text ``KSPipelineResult.to_json`` gave the certificates: one
    ``json.dumps`` of a dict keyed "e,f,t"."""
    import json

    return json.dumps({f"{e},{f},{t}": list(map(int, c.generators))
                       for (e, f, t), c in sorted(certs.items())},
                      sort_keys=True)


def comp_triples(g):
    """[a, b, ab] for every composable pair, in lexicographic order."""
    table = comp_table(g)
    return [[a, b, int(table[a, b])] for a in range(g.n_arrows)
            for b in range(g.n_arrows) if table[a, b] >= 0]


def convolution_algebra_json(alg):
    """The text ``ConvolutionAlgebra.to_json`` gave: one ``json.dumps`` of
    a dict."""
    import json

    return json.dumps({
        "dim": alg.dim,
        "basis": list(alg.labels),
        "mult": comp_triples(alg.groupoid),
        "inv": list(alg.inv),
    }, sort_keys=True)


def groupoid_json(g):
    """The text ``FiniteGroupoid.to_json`` gave: one ``json.dumps`` of a
    dict, where a groupoid of germs adds ``"germ"`` to each arrow."""
    import json

    from germoid.germs import GermGroupoid

    ends = zip(g.dom.tolist(), g.ran.tolist(), g.arrow_labels)
    data = {
        "units": list(g.unit_labels),
        "arrows": [{"id": i, "dom": d, "ran": r, "label": label}
                   for i, (d, r, label) in enumerate(ends)],
        "comp": comp_triples(g),
        "inv": list(map(list, enumerate(g.inv.tolist()))),
    }
    if isinstance(g, GermGroupoid):
        for arrow in data["arrows"]:
            s, x = g.germ_reps[arrow["id"]]
            arrow["germ"] = [int(s), int(x)]
    return json.dumps(data, sort_keys=True)


def semigroup_json(S):
    """The text ``InvSemigroup.to_json`` gave: one ``json.dumps`` of a
    dict."""
    import json

    data = {
        "elements": list(S.names),
        "table": S.table.tolist(),
        "zero": S.zero,
    }
    return json.dumps(data, sort_keys=True)


def is_locally_idempotent_pure_loops(phi):
    """phi restricted to each local monoid eSe is idempotent pure."""
    from helpers import mul_all

    S, T = phi.source, phi.target
    for e in S.idempotents:
        local = {mul_all(S, e, s, e) for s in range(len(S))}
        for x in local:
            if T.is_idempotent(phi(x)) and not S.is_idempotent(x):
                return False
    return True


def semilattice_check_loops(elements, meet_table):
    """The meet-semilattice check of a table on the ids ``elements``, pair
    by pair: ``("ok", "")`` or the error type and message of the first
    failing pair, where meet(e, f) = meet(f, e) and
    meet(e, meet(e, f)) = meet(e, f) are checked in that order; then
    meet(e, e) = e for every e and associativity for every triple."""
    pos = {e: i for i, e in enumerate(elements)}
    for e in elements:
        for f in elements:
            ef = meet_table[pos[e]][pos[f]]
            if ef != meet_table[pos[f]][pos[e]]:
                return "InvalidParams", "table is not a meet semilattice"
            if ef not in pos:
                return "UnknownElement", f"{ef} is not in the semilattice"
            if meet_table[pos[e]][pos[ef]] != ef:
                return "InvalidParams", "table is not a meet semilattice"

    def meet(e, f):
        return meet_table[pos[e]][pos[f]]
    for e, f, g in product(elements, repeat=3):
        if meet(e, e) != e or meet(meet(e, f), g) != meet(e, meet(f, g)):
            return "InvalidParams", "table is not a meet semilattice"
    return "ok", ""


def semilattice_hom_loops(E1, E2, mapping):
    """Meet preservation by a loop of ``Semilattice.meet`` calls over
    E1 x E1 in row order."""
    from germoid import errors

    mapping = dict(mapping)
    for e in E1.elements:
        if e not in mapping or mapping[e] not in E2:
            raise errors.NotMeetPreserving(f"map undefined or out of range at {e}")
    for e in E1.elements:
        for f in E1.elements:
            if mapping[E1.meet(e, f)] != E2.meet(mapping[e], mapping[f]):
                raise errors.NotMeetPreserving(
                    f"phi({e} ^ {f}) != phi({e}) ^ phi({f})")


def partial_group_hom_loops(S, G, mapping):
    """The partial homomorphism checks by a loop over all pairs (s, t)."""
    from germoid import errors

    mapping = list(mapping)
    if len(mapping) != len(S) or mapping[S.zero] is not None:
        raise errors.NotAHomomorphism(
            "map must carry None exactly at the zero id")
    for s in range(len(S)):
        if s != S.zero and mapping[s] is None:
            raise errors.NotAHomomorphism(f"undefined at non-zero element {s}")
    for s in range(len(S)):
        for t in range(len(S)):
            if s == S.zero or t == S.zero:
                continue
            st = S.mul(s, t)
            if st != S.zero and mapping[st] != G.mul(mapping[s], mapping[t]):
                raise errors.NotAHomomorphism(
                    f"phi({s} {t}) != phi({s})phi({t})")
    for e in S.idempotents:
        if e != S.zero and mapping[e] != G.identity:
            raise errors.NotAHomomorphism(
                f"non-zero idempotent {e} does not map to the identity")


# -- scalar predicates, ideals and fixture tables, element by element -----------------

def is_zero_e_unitary_loops(S):
    """s >= e != 0 with e idempotent implies s is idempotent."""
    from helpers import natural_leq

    for s in range(len(S)):
        if S.is_idempotent(s):
            continue
        for e in S.idempotents:
            if e != S.zero and natural_leq(S, e, s):
                return False
    return True


def is_f_morphism_loops(phi):
    """Every non-empty fiber of phi has a maximum in the natural order."""
    from helpers import natural_leq

    S = phi.source
    fibers = {}
    for s in range(len(S)):
        fibers.setdefault(phi(s), []).append(s)
    return all(any(all(natural_leq(S, s, u) for s in fib) for u in fib)
               for fib in fibers.values())


def semigroup_hom_loops(S, T, mapping):
    """``("ok", "")`` or the error of the first pair (s, t), in row order,
    with phi(st) != phi(s)phi(t); ``mapping`` is defined and in range."""
    for s in range(len(S)):
        for t in range(len(S)):
            if mapping[S.mul(s, t)] != T.mul(mapping[s], mapping[t]):
                return "NotAHomomorphism", f"phi({s} {t}) != phi({s})phi({t})"
    return "ok", ""


def subgroup_generated_loops(G, gens):
    """Closure of ``gens`` and the identity under products, frontier by
    frontier."""
    seen = {G.identity}
    frontier = set(gens) | {G.identity}
    seen |= frontier
    while frontier:
        new = set()
        for a in frontier:
            for b in seen:
                for c in (G.mul(a, b), G.mul(b, a)):
                    if c not in seen:
                        new.add(c)
        seen |= new
        frontier = new
    return sorted(seen)


def is_ideal_loops(S, I):
    I = set(I)
    return bool(I) and all(S.mul(s, i) in I and S.mul(i, s) in I
                           for s in range(len(S)) for i in I)


def proper_ideals_loops(S):
    """All non-empty proper ideals: the principal ideals {s} u Ss u sS u SsS
    closed under union."""
    from helpers import mul_all

    n = len(S)
    principal = set()
    for s in range(n):
        J = {s}
        J |= {S.mul(x, s) for x in range(n)}
        J |= {S.mul(s, x) for x in range(n)}
        J |= {mul_all(S, x, s, y) for x in range(n) for y in range(n)}
        principal.add(frozenset(J))
    ideals = set(principal)
    frontier = set(principal)
    while frontier:
        new = {I | J for I in frontier for J in principal} - ideals
        ideals |= new
        frontier = new
    full = frozenset(range(n))
    return sorted(tuple(sorted(I)) for I in ideals if I != full)


def rees_quotient_loops(S, I):
    """(quotient map, quotient table) of S/I with classes numbered by their
    least member, the ideal's class by the least id of I."""
    iset = set(I)
    reps = sorted([s for s in range(len(S)) if s not in iset] + [min(I)])
    new_id = {r: idx for idx, r in enumerate(reps)}
    qmap = [new_id[s] if s not in iset else new_id[min(I)]
            for s in range(len(S))]
    qtable = [[qmap[S.mul(a, b)] for b in reps] for a in reps]
    return qmap, qtable


def direct_product_table_loops(S, T):
    elems = [(s, t) for s in range(len(S)) for t in range(len(T))]
    index = {p: x for x, p in enumerate(elems)}
    return [[index[(S.mul(s, u), T.mul(t, v))] for u, v in elems]
            for s, t in elems]


def symmetric_inverse_loops(n):
    """The names and table of the symmetric inverse monoid I_n as
    ``fixtures.symmetric_inverse`` built them: each product composes two
    dicts."""
    from itertools import combinations, permutations

    import numpy as np

    points = list(range(n))
    elems = []
    for k in range(n + 1):
        for dom in combinations(points, k):
            for img in permutations(points, k):
                elems.append(tuple(zip(dom, img)))
    elems.sort(key=lambda e: (len(e), e))
    index = {e: x for x, e in enumerate(elems)}
    m = len(elems)
    table = np.zeros((m, m), dtype=np.int64)
    for a, f in enumerate(elems):
        fd = dict(f)
        for b, g in enumerate(elems):
            gd = dict(g)
            comp = tuple(sorted((x, fd[gd[x]]) for x in gd if gd[x] in fd))
            table[a, b] = index[comp]

    def label(e):
        if not e:
            return "0"
        return "[" + ",".join(f"{x + 1}->{y + 1}" for x, y in e) + "]"

    return [label(e) for e in elems], table


def brandt_table_loops(G, n):
    elems = [None] + [(i, g, j) for i in range(n) for g in range(len(G))
                      for j in range(n)]
    index = {e: x for x, e in enumerate(elems)}
    table = [[0] * len(elems) for _ in elems]
    for a in range(1, len(elems)):
        i, g, j = elems[a]
        for b in range(1, len(elems)):
            p, h, q = elems[b]
            table[a][b] = index[(i, G.mul(g, h), q)] if j == p else 0
    return table


def semilattice_automorphisms_scan(meet):
    """The permutations p of a semilattice's ids with p[i ^ j] = p[i] ^ p[j]
    for every i, j, by a scan over all k! permutations in lexicographic
    order."""
    k = len(meet)
    auts = []
    for perm in permutations(range(k)):
        if all(perm[meet[i][j]] == meet[perm[i]][perm[j]]
               for i in range(k) for j in range(k)):
            auts.append(perm)
    return auts


def semidirect_action_loops(meet, G, action):
    """Check that ``action[g]``, for each g of G in turn, is a permutation of
    the semilattice's ids that preserves the meet, and then that g -> action[g]
    is a homomorphism; raise what ``fixtures.semidirect`` raises."""
    from germoid import errors
    k = len(meet)
    act = [tuple(action[g]) for g in range(len(G))]
    for g, perm in enumerate(act):
        if sorted(perm) != list(range(k)):
            raise errors.ActionNotByAutomorphisms(f"action of {g} is not a permutation")
        if any(perm[meet[i][j]] != meet[perm[i]][perm[j]]
               for i in range(k) for j in range(k)):
            raise errors.ActionNotByAutomorphisms(
                f"action of {g} does not preserve the meet")
    for g, h, e in product(range(len(G)), range(len(G)), range(k)):
        if act[g][act[h][e]] != act[G.mul(g, h)][e]:
            raise errors.ActionNotByAutomorphisms("action is not a homomorphism")


def semidirect_table_loops(meet, G, action):
    elems = [(e, g) for e in range(len(meet)) for g in range(len(G))]
    index = {p: x for x, p in enumerate(elems)}
    return [[index[(meet[e][action[g][f]], G.mul(g, h))] for f, h in elems]
            for e, g in elems]


def cover_table_loops(S, G, pairs):
    """The product table of the pairs (s, g) of an E-unitary cover."""
    index = {p: i for i, p in enumerate(pairs)}
    table = []
    for s, g in pairs:
        row = []
        for t, h in pairs:
            st, gh = S.mul(s, t), G.mul(g, h)
            row.append(index[(st, gh) if st != S.zero else (S.zero, gh)])
        table.append(row)
    return table


# -- groupoid functors, reductions and envelopes, by dict lookups and loops ---------

def isotropy_orders_loops(g):
    """The isotropy group orders, one count over the arrows per unit."""
    counts = []
    for u in range(g.n_units):
        counts.append(sum(1 for a in range(g.n_arrows)
                          if g.dom[a] == u and g.ran[a] == u))
    return tuple(sorted(counts))


def groupoid_functor_loops(src, tgt, unit_map, arrow_map):
    """The functor laws arrow by arrow, unit by unit, then over the defined
    entries of :func:`comp_table` in row order; returns the maps as tuples."""
    from germoid import errors

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
    table, compose = comp_table(src), composer(tgt)
    for a in range(src.n_arrows):
        for b in range(src.n_arrows):
            c = int(table[a, b])
            if c >= 0 and compose(arrow_map[a], arrow_map[b]) != arrow_map[c]:
                raise errors.NotAFunctor(f"composition of {a}, {b} not preserved")
    return unit_map, arrow_map


def functor_report_sets(F):
    """Faithful, full and essentially surjective from the comparison map
    into the pullback, both materialized as Python sets."""
    src, tgt = F.source, F.target
    triples = [(int(src.ran[a]), int(src.dom[a]), F(a))
               for a in range(src.n_arrows)]
    faithful = len(set(triples)) == src.n_arrows
    pullback = {(x, y, h)
                for x in range(src.n_units) for y in range(src.n_units)
                for h in range(tgt.n_arrows)
                if tgt.dom[h] == F.unit_map[y] and tgt.ran[h] == F.unit_map[x]}
    full = set(triples) >= pullback
    image_units = set(F.unit_map)
    ess = all(any((tgt.dom[h] == u and int(tgt.ran[h]) in image_units)
                  for h in range(tgt.n_arrows))
              for u in range(tgt.n_units))
    return {"faithful": faithful, "full": full,
            "fully_faithful": faithful and full,
            "essentially_surjective": ess,
            "weak_equivalence": faithful and full and ess}


def cocycle_faithfulness_map(F):
    """Materialize psi(g) = (ran g, dom g, F(g)) and report injectivity."""
    src = F.source
    triples = list(zip(src.ran.tolist(), src.dom.tolist(), F.arrow_map))
    return triples, len(set(triples)) == src.n_arrows


def algebra_map_from_functor_loops(F):
    """The basis relabeling of a bijective functor, checked pair by pair
    over all (a, b), then the involution at a, arrow by arrow."""
    import numpy as np

    from germoid import errors

    src, tgt = F.source, F.target
    if sorted(F.arrow_map) != list(range(tgt.n_arrows)) or \
            sorted(F.unit_map) != list(range(tgt.n_units)):
        raise errors.NotBijective("functor must be bijective on units and arrows")
    src_compose, tgt_compose = composer(src), composer(tgt)
    for a in range(src.n_arrows):
        for b in range(src.n_arrows):
            c = src_compose(a, b)
            fc = tgt_compose(F(a), F(b))
            if (c is None) != (fc is None) or (c is not None and F(c) != fc):
                raise errors.NotAFunctor("structure constants not transported")
        if F(int(src.inv[a])) != int(tgt.inv[F(a)]):
            raise errors.NotAFunctor("involution not preserved")
    mat = np.zeros((tgt.n_arrows, src.n_arrows), dtype=np.int64)
    for a in range(src.n_arrows):
        mat[F(a), a] = 1
    return mat


def reduction_dict(g, unit_subset):
    """The full subgroupoid on a unit subset, re-indexed through dicts."""
    from germoid import errors
    from germoid.groupoids import FiniteGroupoid

    units = sorted(set(int(u) for u in unit_subset))
    for u in units:
        if not 0 <= u < g.n_units:
            raise errors.UnknownUnit(f"unit {u} out of range")
    uset = set(units)
    unew = {u: i for i, u in enumerate(units)}
    arrows = [a for a in range(g.n_arrows)
              if g.dom[a] in uset and g.ran[a] in uset]
    anew = {a: i for i, a in enumerate(arrows)}
    table = comp_table(g)
    comp = {(anew[a], anew[b]): anew[int(table[a, b])]
            for a in arrows for b in arrows if table[a, b] >= 0}
    red = FiniteGroupoid(
        [g.unit_labels[u] for u in units],
        [unew[int(g.dom[a])] for a in arrows],
        [unew[int(g.ran[a])] for a in arrows],
        rule_of(comp),
        [anew[int(g.inv[a])] for a in arrows],
        [anew[int(g.identity[u])] for u in units],
        arrow_labels=[g.arrow_labels[a] for a in arrows])
    red.parent_units = tuple(units)
    red.parent_arrows = tuple(arrows)
    return red


def equivalence_classes_union_find(items, related):
    """Classes of the equivalence on ``items`` (increasing) generated by
    the pairs in ``related``: each class lists its members in order, the
    classes ordered by least member; ``index`` maps items to class numbers."""
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


def enveloping_group_action_loops(theta):
    """The globalization of a partial action pair by pair: union-find
    classes of (g, x), the global action, the embedding and its checks,
    and the inclusion of transformation groupoids through a pair dict.
    Returns (classes, glob, embedding, inclusion arrow map, report)."""
    import numpy as np

    from germoid import errors
    from germoid.groupoids import groupoid_functor
    from germoid.partial_actions import (
        partial_trans_groupoid,
        validate_partial_action,
    )

    G = theta.group
    pairs = [(g, x) for g in range(len(G)) for x in range(theta.n_points)]
    for g, x in pairs:
        if theta.maps[g, x] >= theta.n_points:
            raise errors.InvalidAction(
                f"theta({g}) sends point {x} outside the points")

    def related():
        for g, x in pairs:
            for h in range(len(G)):
                # (g, x) ~ (h, y) iff theta(h^{-1} g) is defined at x
                y = theta(G.mul(G.inv(h), g), x)
                if y is not None:
                    yield (g, x), (h, y)

    classes, cidx = equivalence_classes_union_find(pairs, related())
    reps = [cls[0] for cls in classes]
    glob = np.zeros((len(G), len(reps)), dtype=np.int64)
    for g in range(len(G)):
        for i, (h, x) in enumerate(reps):
            glob[g, i] = cidx[(G.mul(g, h), x)]
    labels = [f"[{G.names[g]},{theta.point_labels[x]}]" for g, x in reps]
    global_action = validate_partial_action(G, labels, glob)
    embedding = tuple(cidx[(G.identity, x)] for x in range(theta.n_points))
    if len(set(embedding)) != theta.n_points:
        raise errors.InvariantViolation(
            "embedding of X into its globalization must be injective",
            embedding)
    emb = set(embedding)
    for g in range(len(G)):
        for x in range(theta.n_points):
            y = theta(g, x)
            gx = int(glob[g, embedding[x]])
            if y is not None and gx != embedding[y]:
                raise errors.InvariantViolation(
                    "globalization must extend theta", (g, x))
            if y is None and gx in emb:
                raise errors.InvariantViolation(
                    "globalization must not enlarge theta inside X", (g, x))
    small = partial_trans_groupoid(theta)
    big = partial_trans_groupoid(global_action)
    index = {tuple(p): a for a, p in enumerate(big.arrow_pairs.tolist())}
    arrow_map = [index[(g, embedding[x])]
                 for g, x in small.arrow_pairs.tolist()]
    inclusion = groupoid_functor(small, big, embedding, arrow_map)
    return (tuple(map(tuple, classes)), glob, embedding, inclusion.arrow_map,
            functor_report_sets(inclusion))


def enveloping_action_of_functor_loops(F):
    """The enveloping space of a faithful functor pair by pair: union-find
    classes of (a, e), the action by lookups of composites, and alpha
    through a pair dict of the semidirect product.  Returns (classes,
    labels, anchor, act, alpha unit map, alpha arrow map)."""
    import numpy as np

    from germoid.groupoids import (
        GroupoidSpaceAction,
        groupoid_functor,
        semidirect_product,
        validate_space_action,
    )

    g, h = F.source, F.target
    compose = composer(h)
    pairs = [(a, e) for a in range(h.n_arrows) for e in range(g.n_units)
             if h.dom[a] == F.unit_map[e]]

    def related():
        for (a, e) in pairs:
            for arr in range(g.n_arrows):
                if g.dom[arr] != e:
                    continue
                # (a, e) ~ (k, f) when F(arr) = k^{-1} a, i.e. k = a F(arr)^{-1}
                k = compose(a, int(h.inv[F(arr)]))
                if k is not None:
                    yield (a, e), (k, int(g.ran[arr]))

    classes, class_index = equivalence_classes_union_find(pairs, related())
    reps = [cls[0] for cls in classes]
    labels = [f"[{h.arrow_labels[a]},{g.unit_labels[e]}]" for a, e in reps]
    anchor = [int(h.ran[a]) for a, e in reps]
    act = np.full((h.n_arrows, len(reps)), -1, dtype=np.int64)
    for b in range(h.n_arrows):
        for i, (a, e) in enumerate(reps):
            if h.dom[b] == h.ran[a]:
                act[b, i] = class_index[(compose(b, a), e)]
    action = validate_space_action(GroupoidSpaceAction(h, labels, anchor, act))
    sd = semidirect_product(action)
    index = {tuple(p): a for a, p in enumerate(sd.arrow_pairs.tolist())}
    unit_map = [class_index[(int(h.identity[F.unit_map[e]]), e)]
                for e in range(g.n_units)]
    arrow_map = [index[(F(arr), unit_map[g.dom[arr]])]
                 for arr in range(g.n_arrows)]
    alpha = groupoid_functor(g, sd, unit_map, arrow_map)
    return classes, labels, anchor, act, alpha.unit_map, alpha.arrow_map


def main1_psi_by_search(S, univ, trans):
    """Psi of ``verify_main1`` by search: (g, x) goes to [s, x] for the
    least s with sigma(s) = g and m_x <= s*s, m_x the minimum of filter x."""
    from germoid.semigroups import max_group_image

    sigma = max_group_image(S)
    psi = []
    for g, x in trans.arrow_pairs.tolist():
        m = univ.action.space.mins[x]
        s = next(s for s in range(len(S))
                 if sigma(s) == g and S.mul(m, S.mul(S.inv(s), s)) == m)
        psi.append(univ.germ(s, x))
    return tuple(psi)


# -- groupoid isomorphism by backtracking ---------------------------------------------

def orbit_of(k, u):
    """The units connected to unit u by arrows of k, by graph search."""
    seen = {u}
    frontier = [u]
    while frontier:
        x = frontier.pop()
        for a in range(k.n_arrows):
            if k.dom[a] == x and k.ran[a] not in seen:
                seen.add(int(k.ran[a]))
                frontier.append(int(k.ran[a]))
            if k.ran[a] == x and k.dom[a] not in seen:
                seen.add(int(k.dom[a]))
                frontier.append(int(k.dom[a]))
    return frozenset(seen)


def find_isomorphism(g, h, arrow_limit=64):
    """Brute-force isomorphism search between small groupoids.

    Returns a GroupoidFunctor or None.  Pre-checks cheap invariants (unit and
    arrow counts, isotropy multiset) before backtracking over unit bijections
    and hom-set assignments.
    """
    from germoid import errors
    from germoid.groupoids import groupoid_functor

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
        return (iso, out, len(orbit_of(k, u)))

    gsig = [unit_sig(g, u) for u in range(g.n_units)]
    hsig = [unit_sig(h, u) for u in range(h.n_units)]
    if sorted(gsig) != sorted(hsig):
        return None

    def hom_set(k, u, v):
        return [a for a in range(k.n_arrows)
                if k.dom[a] == u and k.ran[a] == v]

    g_compose, h_compose = composer(g), composer(h)

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
                c = g_compose(a, x)
                if c is not None and amap[c] >= 0:
                    if h_compose(b, amap[x]) != amap[c]:
                        return False
                c = g_compose(x, a)
                if c is not None and amap[c] >= 0:
                    if h_compose(amap[x], b) != amap[c]:
                        return False
            c = g_compose(a, a)
            if c is not None and amap[c] >= 0 and h_compose(b, b) != amap[c]:
                return False
            for x in mapped:
                for y in mapped:
                    if g_compose(x, y) == a and \
                            h_compose(amap[x], amap[y]) != b:
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


# -- the universal groupoid as the germ groupoid of beta -------------------------------

def universal_by_germs(S, contracted=False):
    """``germs.universal_groupoid`` as the germ construction built it: the
    groupoid of germs of beta on the (contracted) filter space, validated
    in full, under the same name."""
    from germoid.germs import GermGroupoid, _germ_arrays, beta_action
    from germoid.groupoids import validate_groupoid

    tag = "c" if contracted else "u"
    action = beta_action(S, contracted)
    return validate_groupoid(GermGroupoid(action, name=f"G({S.name},{tag})",
                                          **_germ_arrays(action)))

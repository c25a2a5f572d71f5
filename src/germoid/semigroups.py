"""Finite inverse semigroups as validated multiplication tables.

Elements are canonical integer ids 0..n-1; ``table[i][j]`` is the id of the
product ``i*j``.  Validation is eager: every constructor either returns a
validated object, whose table was checked here or whose laws its builder
proved (:func:`proved`), or raises a structured error.  All objects are
immutable after construction and every operation here is a pure function.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import re
import weakref
from dataclasses import dataclass

import numpy as np

from . import errors

DEFAULT_SIZE_LIMIT = 4096


def size_limit() -> int:
    text = os.environ.get("GERMOID_SIZE_LIMIT")
    if text is None:
        return DEFAULT_SIZE_LIMIT
    try:
        return int(text)
    except ValueError:
        raise errors.MalformedInput(
            f"GERMOID_SIZE_LIMIT must be an integer, not {text!r}") from None


def check_size(n: int) -> None:
    limit = size_limit()
    if n > limit:
        raise errors.SizeLimitExceeded(n, limit)


# Entries per vectorized step of every array kernel: bounds their memory.
CHUNK = 1 << 16


class InvSemigroup:
    """A finite inverse semigroup: names, table, optional zero, star.

    Use :func:`validate_semigroup`, or :func:`proved` for a builder that
    proved the laws; the raw constructor trusts its input.  Only a
    semigroup from those two is ``validated``: what follows from the laws
    of S is taken as proved only then.
    """

    def __init__(self, names, table, zero, star, name="S"):
        self.names = tuple(names)
        self.table = table
        self.table.setflags(write=False)
        self.zero = zero
        self.star = star
        self.star.setflags(write=False)
        self.name = name
        self.validated = False
        self._idempotents = tuple(
            int(e) for e in range(len(names)) if table[e, e] == e)
        self._leq = None
        self._generators = None
        self._sigma = None
        self._e_unitary = None
        # objects derived from S alone, each built and validated once, by
        # spectra.idempotent_semilattice, spectra.enumerate_filters,
        # germs.beta_maps, germs.beta_action and germs.universal_groupoid
        # (these four keyed by the contracted flag), and
        # partial_actions.theta_from_sigma
        self._semilattice = None
        self._filters = {}
        self._beta_maps = {}
        self._beta = {}
        self._universal = {}
        self._theta = None

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        z = "" if self.zero is None else f", zero={self.names[self.zero]}"
        return f"InvSemigroup({self.name}, n={len(self)}{z})"

    def mul(self, s: int, t: int) -> int:
        return int(self.table[s, t])

    def inv(self, s: int) -> int:
        return int(self.star[s])

    @property
    def idempotents(self):
        return self._idempotents

    @property
    def generators(self) -> tuple:
        """A generating set of S, from :func:`greedy_generators`."""
        if self._generators is None:
            self._generators = tuple(greedy_generators(self.table))
        return self._generators

    def is_idempotent(self, s: int) -> bool:
        return self.table[s, s] == s

    def leq_matrix(self) -> np.ndarray:
        """Boolean matrix of the natural partial order, leq[s, t] = (s <= t).

        s <= t iff t s*s = s, so row s compares column s*s of the table
        with s.
        """
        if self._leq is None:
            n = len(self)
            ss = self.table[self.star, np.arange(n)]
            m = self.table[:, ss].T == np.arange(n)[:, None]
            m.setflags(write=False)
            self._leq = m
        return self._leq

    def to_json(self, file=None) -> str | None:
        """``json.dumps`` of the elements, table and zero, with sorted keys;
        the table is written by :func:`json_rows`.  Given a path ``file``,
        the text goes there by :func:`write_json` instead."""
        n = len(self)
        return write_json(itertools.chain(
            [b'{"elements": ', json.dumps(list(self.names)).encode(),
             b', "table": '],
            json_rows(["["] + [", "] * (n - 1) + ["]"], self.table, n),
            [b', "zero": ', json.dumps(self.zero).encode(), b"}"]), file)


class FiniteGroup(InvSemigroup):
    """An inverse semigroup whose only idempotent is the identity."""

    def __init__(self, names, table, star, identity, name="G"):
        super().__init__(names, table, None, star, name=name)
        self.identity = identity


@dataclass(frozen=True)
class SigmaMap:
    """The maximal group homomorphism sigma: S -> G(S) as a class map.

    S memoizes its sigma, so ``source`` is held through a weak reference:
    a strong one would close a cycle, and S, with its arrays, would wait
    for the cyclic garbage collector.  Hold S while its sigma is used;
    reading ``source`` once S is freed raises ``ReferenceError``."""

    source: InvSemigroup
    group: FiniteGroup
    classmap: tuple

    def __call__(self, s: int) -> int:
        return self.classmap[s]


# the dataclass's __init__ sets the field, and eq, repr and hash read it,
# through this property
def _sigma_source(sigma):
    S = sigma._source()
    if S is None:
        raise ReferenceError("the semigroup of this sigma was freed")
    return S


SigmaMap.source = property(
    _sigma_source,
    lambda self, S: object.__setattr__(self, "_source", weakref.ref(S)))


@dataclass(frozen=True)
class SemigroupHom:
    """A validated homomorphism of inverse semigroups."""

    source: InvSemigroup
    target: InvSemigroup
    map: tuple

    def __call__(self, s: int) -> int:
        return self.map[s]


@dataclass(frozen=True)
class PartialGroupHom:
    """A partial homomorphism S\\{0} -> G: phi(st) = phi(s)phi(t) when st != 0."""

    source: InvSemigroup
    target: FiniteGroup
    map: tuple  # entry at the zero id is None

    def __call__(self, s: int) -> int:
        v = self.map[s]
        if v is None:
            raise errors.UnknownElement(f"partial hom undefined at zero ({s})")
        return v


def first_failing_product(table, maps, bad):
    """The first (s, t, x) in row order at which ``bad(comp, direct)``
    holds, or None, where ``table`` is the product of S, ``maps[s, x]`` is
    theta_s(x) or -1 where undefined, comp = theta_s(theta_t(x)), -1 where
    theta_t(x) is undefined, and direct = theta_st(x).

    The one scan behind the three product laws: associativity of a table,
    which is its own left regular action, (st)x = s(tx); the action law
    theta_s theta_t = theta_st; and the dual-prehomomorphism law
    theta(g) theta(h) <= theta(gh) of a partial group action.  ``bad``
    maps the two blocks of shape (s, t, x) to a mask.  The s run in slabs,
    and, when one s exceeds ``CHUNK`` entries, the t in blocks, so a block
    holds at most ``CHUNK`` entries or one pair (s, t).
    """
    n, m = len(table), maps.shape[1]
    rows = max(1, CHUNK // max(n * m, 1))
    cols = max(1, CHUNK // max(rows * m, 1))
    defined = maps >= 0
    inner = np.where(defined, maps, 0)
    for lo in range(0, n, rows):
        for t in range(0, n, cols):
            comp = np.where(defined[t:t + cols],
                            maps[lo:lo + rows][:, inner[t:t + cols]], -1)
            mask = bad(comp, maps[table[lo:lo + rows, t:t + cols]])
            if mask.any():
                i, j, x = np.unravel_index(np.argmax(mask), mask.shape)
                return int(i) + lo, int(j) + t, int(x)
    return None


def greedy_generators(table, tt=None):
    """Generators of the magma of ``table``: every candidate not yet in the
    closure of the earlier generators under the table product.

    The candidates come in an order that does not depend on the labels:
    ascending count of occurrences in the table, non-idempotents before
    idempotents among equal counts, then ids.  Rare products are seldom
    reached from others, so they come first, and an idempotent is usually
    some s s* of a non-idempotent.  This needs 4 generators of I4 instead of
    the 33 of id order, 5 of I5 instead of 68, and 103 over the 38
    ``verify_corpus`` fixtures instead of 140; :func:`lights_test` costs
    O(|gens| n^2).  The counts are taken in row blocks of ``CHUNK``
    entries, so a narrow table is not cast to an n^2 intp copy.

    The closure grows by frontiers: each pair is multiplied when the later
    of its two elements enters, as the frontier rows of the table and of
    ``tt``, its transpose (``table.T`` when None), taken at the closure.
    The gathers stay in the table's type, and the search ends once the
    closure is everything.
    """
    n = len(table)
    tt = table.T if tt is None else tt
    rows = max(1, CHUNK // n)
    counts = sum(np.bincount(table[lo:lo + rows].ravel(), minlength=n)
                 for lo in range(0, n, rows))
    order = np.lexsort((np.arange(n), table.diagonal() == np.arange(n), counts))
    inside = np.zeros(n, dtype=bool)
    gens = []
    for a in order.tolist():
        if inside[a]:
            continue
        gens.append(a)
        inside[a] = True
        frontier = np.array([a])
        while frontier.size:
            closure = inside.nonzero()[0]
            if len(closure) == n:
                return gens
            before = inside.copy()
            inside[table[frontier].take(closure, axis=1)] = True
            inside[tt[frontier].take(closure, axis=1)] = True
            frontier = (inside & ~before).nonzero()[0]
    return gens


def narrow(a, lo, hi):
    """``a`` as the narrowest signed integer type that holds lo..hi: on
    up to 32768 elements the gathers of :func:`lights_test` then move 1 or
    2 bytes an entry instead of 8."""
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return a.astype(dtype)
    return a.astype(np.int64)


def transposed(maps):
    """``maps.T`` as a contiguous array with a row of -1 appended: a point
    that every map sends to -1, which the index -1 selects."""
    tt = np.full((maps.shape[1] + 1, maps.shape[0]), -1, dtype=maps.dtype)
    tt[:-1] = maps.T
    return tt


# Rows x per block of lights_test when one block would exceed CHUNK
# entries.  The block of the transposed maps, the gathers from it and
# their transposed comparison then stay in the L2 cache.  At 4096
# elements Light's test took 4.5-5.0 s with 16 rows and 7-10 s with 32.
BLOCK = 16


def lights_test(table, maps, gens, tt) -> bool:
    """True iff theta_x theta_t = theta_{xt} for every x and every t in
    ``gens``, where ``table`` is the product of S, ``maps[s, y]`` is
    theta_s(y) or -1 where undefined, and ``tt = transposed(maps)``.

    For the left regular action, ``maps = table``, this is Light's test
    (xt)y = x(ty) (Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, 1961); for an action it is the generator check of
    :func:`germoid.germs.validate_saction`.  Both sides are row gathers:
    theta_{xt} is row ``table[x, t]`` of ``maps``, and theta_x(theta_t(y))
    is row ``maps[t, y]`` of the x columns of ``tt``, its sentinel row
    where theta_t(y) is undefined.  The second is compared transposed.
    The x run in blocks of ``BLOCK`` rows, or in one block when all of
    them fit in ``CHUNK`` entries, and each step takes as many generators
    as fit in ``CHUNK`` entries.
    """
    n, m = maps.shape
    rows = n if n * m <= CHUNK else BLOCK
    step = max(1, CHUNK // max(rows * m, 1))
    gens = np.asarray(gens, dtype=np.int64)
    for lo in range(0, n, rows):
        block = np.ascontiguousarray(tt[:, lo:lo + rows])
        xt = table[lo:lo + rows]
        for g in range(0, len(gens), step):
            ts = gens[g:g + step]
            lhs = maps.take(xt[:, ts].T, axis=0)     # [t, x, y]: theta_xt(y)
            rhs = block.take(maps[ts], axis=0)       # [t, y, x]: x(t(y))
            if not np.array_equal(lhs, rhs.transpose(0, 2, 1)):
                return False
    return True


def validate_semigroup(names, table, zero=None, name="S") -> InvSemigroup:
    """Validate a multiplication table as a finite inverse semigroup.

    Checks associativity, existence of a unique inverse for every element,
    commuting idempotents, and (when declared) that the zero is absorbing.

    Associativity uses Light's test, :func:`lights_test`: the elements a
    with (xa)y = x(ay) for all x, y are closed under the product, so the
    table is associative iff that identity holds for every a in a set that
    generates the table as a magma.  With a greedily built generating set
    this costs O(|gens| n^2) instead of n^3.  It runs on a copy of the
    table in the narrowest integer type that holds its ids, int16 up to
    the 4096-element limit, and on its transpose.  Only when Light's test
    fails does :func:`first_failing_product` scan all triples, with the
    table as its own left regular action, for the lexicographically first
    failing (i, j, k) as the witness.  The unique-inverse check reads both
    (st)s and (ts)t off one gather from that transpose.
    """
    n = len(names)
    check_size(n)
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (n, n):
        raise errors.InvalidParams(f"table must be {n}x{n}")
    if n == 0:
        raise errors.InvalidParams("empty semigroup")
    if table.min() < 0 or table.max() >= n:
        raise errors.InvalidParams("table entries out of range")

    small = narrow(table, -1, n - 1)
    tt = transposed(small)
    gens = tuple(greedy_generators(small, tt))
    if not lights_test(small, small, gens, tt):
        bad = first_failing_product(small, small, np.not_equal)
        if bad is not None:
            raise errors.NotAssociative(*bad)

    # unique inverse: t inverts s iff sts = s and tst = t
    ids = np.arange(n, dtype=small.dtype)
    sts = np.take_along_axis(tt[:n], small, 1)  # sts[s,t] = (st)s
    cands = (sts == ids[:, None]) & (sts.T == ids[None, :])  # and (ts)t
    counts = cands.sum(axis=1)
    if (counts != 1).any():
        s = int(np.flatnonzero(counts != 1)[0])
        raise errors.NoUniqueInverse(s, int(counts[s]))
    star = cands.argmax(axis=1).astype(np.int64)
    # star is automatically an involution once inverses are unique

    idem = np.flatnonzero(small.diagonal() == ids)
    sub = table[np.ix_(idem, idem)]
    if (sub != sub.T).any():
        i, j = np.argwhere(sub != sub.T)[0]
        raise errors.IdempotentsDontCommute(int(idem[i]), int(idem[j]))

    if zero is not None:
        if not 0 <= zero < n:
            raise errors.InvalidParams("zero id out of range")
        bad = (table[zero, :] != zero) | (table[:, zero] != zero)
        if bad.any():
            raise errors.ZeroNotAbsorbing(int(np.flatnonzero(bad)[0]))

    S = InvSemigroup(names, table, zero, star, name=name)
    S._generators, S.validated = gens, True
    return S


def proved(names, table, star, *, zero=None, identity=None,
           name="S") -> InvSemigroup:
    """A ``validated`` semigroup, or a :class:`FiniteGroup` given its
    ``identity``, whose builder proved from validated inputs, in its
    docstring, that ``table`` is an inverse semigroup with inverses
    ``star`` and absorbing ``zero``.  Only the size limit is checked, where
    :func:`validate_semigroup` checks it; no table read from a file comes
    here.  ``generators`` are found on first read."""
    check_size(len(names))
    table, star = np.asarray(table, np.int64), np.asarray(star, np.int64)
    S = InvSemigroup(names, table, zero, star, name=name) if identity is None \
        else FiniteGroup(names, table, star, identity, name=name)
    S.validated = True
    return S


def holds_bool(text: str, rows) -> bool:
    """Whether the list of rows ``rows``, parsed from ``text``, holds a
    JSON boolean, which numpy reads as 0 or 1 among integers.  The entries
    are scanned only if ``text`` holds the word true or false."""
    return ("true" in text or "false" in text) and \
        any(type(v) is bool for row in rows for v in row)


def table_from_bytes(buf: bytes, start: int = 0):
    """``(table, end)`` for the JSON array of integer rows at ``buf[start:]``,
    as ``json.dumps`` writes it, or None when unsure.

    Only ``[[d, d, ...], [...], ...]`` is taken, with ``", "`` or ``","``
    between entries and rows, at most as many rows as the first row has
    entries, every row as long as the first, and each d a run of 1 to 9
    digits with no leading zero.  ``table`` is the int64 array of the rows
    and ``end`` the index just past the array.

    Rows are found by their closing bracket and read in blocks of about
    ``CHUNK`` bytes, cut at row ends, since the cost of a block, more than
    that of a byte, sets the time: the 1.3 MB table of CHAIN32xZ16 took
    7.3 ms in these blocks and 10.3 ms in blocks a quarter of the size.
    The int64 index of a block's separators, one entry at most per byte,
    can pass the 128 KiB from which glibc's allocator maps fresh pages, but
    the peak RSS barely moves: in one process, at a fixed 150 ``build_ladder``
    and 120 ``verify_mid`` op runs, it read 41.7-42.0 and 37.5-37.6 MB with
    these blocks, against 42.1-42.2 and 37.2-37.3 MB with the quarter
    blocks (three runs each, 2-vCPU x86-64 host).  At 120 ``verify_mid``
    runs a later tree read 39.8-39.9 MB, against 39.5-39.6 MB with an int32
    index and 39.6-39.8 MB with half blocks; but numpy gathers through an
    int32 index at about a third of the speed, so the CHAIN32xZ16 parse
    took 8.1 ms with it, 6.0 ms with half blocks and 5.1-5.6 ms as it is.
    In a block, the separators are the bytes b with b - 48 at least 10 as a
    byte, and the digits are the rest.  Row by row, the separators must
    spell ``[`` and ``]`` around k - 1 entry separators, and the digits
    between two separators must all lie in the k value slots, each slot
    holding at least one.  The values are then gathered digit by digit from
    the right end of each run.
    """
    if buf[start:start + 2] != b"[[":
        return None
    end = buf.find(b"]", start)
    k = buf.count(b",", start, end) + 1
    comma = buf.find(b",", start)
    sep = b", " if buf[comma + 1:comma + 2] == b" " else b","
    step = len(sep)
    blocks, lo, rows, total = [], start + 1, 1, 1   # (start, stop, rows) each
    while buf[end + 1:end + 2] != b"]":
        if end + 1 - lo >= CHUNK:
            blocks.append((lo, end + 1, rows))
            lo, rows = end + 1 + step, 0
        end = buf.find(b"]", end + 1)
        rows, total = rows + 1, total + 1
        if end < 0 or total > k:
            return None
    blocks.append((lo, end + 1, rows))
    row = b"[" + sep * (k - 1) + b"]"
    # the separators of a row and of the row separator after it
    pattern = np.frombuffer(row + sep, np.uint8) - np.uint8(48)
    width = len(pattern)
    table = np.empty((total, k), dtype=np.int64)
    done = 0
    for lo, hi, rows in blocks:
        if hi <= end and buf[hi:hi + step] != sep:
            return None
        # the block, and the separator after its last row
        d = np.empty(hi - lo + step, dtype=np.uint8)
        np.subtract(np.frombuffer(buf, np.uint8, hi - lo, lo), np.uint8(48),
                    out=d[:hi - lo])
        d[hi - lo:] = pattern[-step:]
        at = np.flatnonzero(d >= 10)
        if len(at) != rows * width:
            return None
        at = at.reshape(rows, width)
        if not (d[at] == pattern).all():
            return None
        starts = at[:, 0:len(row) - 1:step] + 1
        ends = at[:, 1:len(row):step]
        runs = ends - starts
        # every digit in a slot: the runs add up to the digit count
        longest = int(runs.max())
        if runs.min() < 1 or longest > 9 or \
                runs.sum() != len(d) - at.size or \
                ((runs > 1) & (d[starts] == 0)).any():
            return None
        # at most 9 digits: the values fit in int32.  The products are taken
        # in an explicit int32, since numpy 1.x keeps a uint8 array times a
        # scalar in uint8, where 3 * 100 wraps
        values = d[ends - 1].astype(np.int32)
        for j in range(2, longest + 1):
            digit = d[ends - j]
            digit *= runs >= j
            values += np.multiply(digit, 10 ** (j - 1), dtype=np.int32)
        table[done:done + rows] = values
        done += rows
    return table, end + 2


def write_words(blocks, numbers: int, texts=()):
    """Yield the ASCII bytes of each nonempty int array of words in
    ``blocks``: word v < ``numbers`` is v in decimal, and word ``numbers``
    + j is ``texts[j]``, which must be ASCII.

    The bytes of every word follow one another in one buffer, so a block's
    text is one gather of it, at the start of each word plus the offset
    within it.  The callers give blocks of at most about ``CHUNK`` // 8
    words, which keeps that index small: in blocks of ``CHUNK`` words the
    8,192 ``comp`` triples of a 512-arrow groupoid took 2.2 ms instead of
    0.9 ms, most of it in fresh pages.
    """
    words = [*map(str, range(numbers)), *texts]
    length = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    first = np.cumsum(length) - length
    data = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    for word in blocks:
        n_bytes = length[word]
        end = np.cumsum(n_bytes)
        yield data[np.repeat(first[word] - end + n_bytes, n_bytes) +
                   np.arange(end[-1])].tobytes()


def json_rows(joints, cells, numbers: int, texts=()):
    """Yield, in blocks, the text ``json.dumps`` writes for a list of rows:
    ``[row, row, ...]``, or ``[]``.

    Row i is ``joints[0]``, then each ``cells[i, j]`` followed by
    ``joints[j + 1]``; a cell is a word of :func:`write_words`, v in
    decimal for v < ``numbers`` and ``texts[v - numbers]`` above.  So a
    row ``[a, b]`` has the joints ``"[", ", ", "]"`` and an object row
    has its keys in its joints.
    """
    rows, k = cells.shape
    if not rows:
        yield b"[]"
        return
    # the joints, the separator between rows, and the closing bracket
    glue = numbers + len(texts) + np.arange(k + 3)
    step = max(1, CHUNK // 8 // (2 * k + 2))

    def blocks():
        for lo in range(0, rows, step):
            c = cells[lo:lo + step]
            word = np.empty((len(c), 2 * k + 2), dtype=np.int64)
            word[:, 0:-1:2] = glue[:k + 1]
            word[:, 1:-1:2] = c
            word[:, -1] = glue[k + 1]
            if lo + step >= rows:
                word[-1, -1] = glue[-1]
            yield word.ravel()

    yield b"["
    yield from write_words(blocks(), numbers, [*texts, *joints, ", ", "]"])


def write_json(blocks, file=None) -> str | None:
    """The text of the ASCII byte ``blocks``, or, given a path ``file``,
    None, the blocks written there as they come and then a newline; a
    file whose writing fails is removed.  The file buffers 16 ``CHUNK``
    bytes: with the default 8 KiB each block was a write call of its own,
    and ``groupoid --out`` on CHAIN32xZ16 (a 182 KB text) read 4-5% slower
    in the benchmark's ``build_ladder`` (2-vCPU x86-64 host)."""
    if file is None:
        return b"".join(blocks).decode()
    f = open(file, "wb", buffering=16 * CHUNK)
    try:
        with f:
            f.writelines(blocks)
            f.write(b"\n")
    except BaseException:
        os.unlink(file)
        raise


# JSON whitespace, as the json module skips it
_SPACE = re.compile(r"[ \t\n\r]*")
# a "table" key, with the colon and the whitespace around it
_TABLE_KEY = re.compile(rb'"table"[ \t\n\r]*:[ \t\n\r]*')


def file_text(buf: bytes) -> str:
    """The str ``Path.read_text()`` gives for a file of the bytes ``buf``:
    decoded in the default text encoding, with universal newlines, and so
    with the same ``UnicodeDecodeError``, at the same position."""
    with io.TextIOWrapper(io.BytesIO(buf), encoding=io.text_encoding(None)) as f:
        return f.read()


def read_object(buf: bytes | str):
    """The top-level JSON object of the file bytes ``buf`` as ``json.loads``
    gives it from :func:`file_text`, but with the ``"table"`` value as the
    int64 array that :func:`table_from_bytes` reads from ``buf`` itself;
    None when ``buf`` is not ASCII, that kernel is unsure, or the first
    ``"table":`` of ``buf`` is not the one key of the object's table.  A
    str is read as its UTF-8 bytes.

    Only the text around the table is decoded, as two strings: the members
    up to the table's key, then the rest.  ``raw_decode`` reads every other
    value.  In ASCII, characters are bytes; and universal newlines change
    only carriage returns, which JSON allows only as whitespace between
    tokens, so they change nothing that is read.
    """
    if isinstance(buf, str):
        buf = buf.encode()
    found = buf.isascii() and _TABLE_KEY.search(buf)
    read = found and table_from_bytes(buf, found.end())
    if not read:
        return None
    head, tail = buf[:found.end()].decode(), buf[read[1]:].decode()
    decode = json.JSONDecoder().raw_decode
    space = _SPACE.match
    data = {}
    text, i = head, space(head).end()
    if text[i:i + 1] != "{":
        return None
    i = space(text, i + 1).end()
    while text[i:i + 1] == '"':
        key, i = json.decoder.scanstring(text, i + 1)
        i = space(text, i).end()
        if text[i:i + 1] != ":":
            return None
        i = space(text, i + 1).end()
        if key == "table":
            if text is not head or i != len(head):
                return None
            data[key], text, i = read[0], tail, 0
        else:
            data[key], i = decode(text, i)
        i = space(text, i).end()
        if text[i:i + 1] == "}":    # only in tail: head ends in its "table":
            return data if space(text, i + 1).end() == len(text) else None
        if text[i:i + 1] != ",":
            return None
        i = space(text, i + 1).end()
    return None


def semigroup_from_json(text: str | bytes, name="S") -> InvSemigroup:
    """Parse and validate ``{"elements": [names], "table": [[ids]], "zero":
    id or null}`` from a file's bytes, or from its text.

    The schema is checked before the algebra, on the whole table at once:
    it must convert to a square integer array with entries in range, so a
    ragged table, or one holding strings, floats or booleans, raises
    ``MalformedInput`` and is never truncated or coerced.

    A table in an ASCII file, written as ``json.dumps`` writes it with the
    default or the compact ``(",", ":")`` separators and no indent, is read
    straight from the bytes by :func:`table_from_bytes`, through
    :func:`read_object`, and the file is never decoded whole.  Any other
    layout, an indent for one, and anything that kernel is unsure of, is
    read by ``json.loads`` from the text :func:`file_text` decodes, which
    raises what ``Path.read_text()`` raised; so the result, and every error,
    is the same on every layout.  Only the names, the table and the zero
    outlive the parse.
    """
    try:
        data = read_object(text)
    except Exception:   # json.loads then reads the text, or raises, as before
        data = None
    if data is None:
        if isinstance(text, bytes):
            text = file_text(text)
        data = json.loads(text)
    if not isinstance(data, dict):
        raise errors.MalformedInput("a semigroup file holds one JSON object")
    names = data.get("elements")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise errors.MalformedInput('"elements" must be a list of names')
    n = len(names)
    not_square = errors.MalformedInput(
        f'"table" must be a {n}x{n} array of integer element ids')
    rows = data.get("table")
    try:
        table = np.asarray(rows)
    except ValueError:                       # ragged nesting
        raise not_square from None
    if table.dtype.kind not in "iu" or table.shape != (n, n) or n == 0 or \
            (rows is not table and holds_bool(text, rows)):
        raise not_square
    if table.min() < 0 or table.max() >= n:
        raise errors.MalformedInput('"table" entries must be ids in range')
    zero = data.get("zero")
    if zero is not None and (type(zero) is not int or not 0 <= zero < n):
        raise errors.MalformedInput('"zero" must be null or an element id')
    # the file and its parse are not needed by the algebra: a caller that
    # keeps no reference of its own frees them before the validation
    del text, data, rows
    return validate_semigroup(names, table, zero, name=name)


def validate_group(names, table, name="G") -> FiniteGroup:
    """Validate a table as a group: an inverse semigroup with a single
    idempotent e, which is then its identity with inverses s*, since
    ss* = s*s = e gives s = ss*s = es = se."""
    S = validate_semigroup(names, table, None, name=name)
    if len(S.idempotents) != 1:
        raise errors.NotAGroup(f"{len(S.idempotents)} idempotents, expected 1")
    G = FiniteGroup(names, S.table, S.star, S.idempotents[0], name=name)
    G._generators, G.validated = S._generators, True
    return G


def max_group_image(S: InvSemigroup) -> SigmaMap:
    """Quotient by the congruence s ~ t iff se = te for some idempotent e.

    With z the least idempotent (the product of all of them), s ~ t iff
    sz = tz: se = te gives sz = sez = tez = tz, and e = z is one choice.
    Classes are re-indexed by their least representative.

    For a ``validated`` S it is born validated (:func:`proved`): s*zs is
    an idempotent of the minimal ideal, a group, so it is z, and z is
    central (zs = ss*zs = sz); so s -> sz is a homomorphism onto the group
    zSz with kernel sigma, the identity is the class of z and the inverse
    of the class of s that of s*.  Otherwise the table is validated as a
    group.  The result is memoized on the semigroup.
    """
    if S._sigma is not None:
        return S._sigma
    z = functools.reduce(S.mul, S.idempotents)
    class_of, reps = first_occurrence_ids(S.table[:, z])
    gtable = class_of[S.table[np.ix_(reps, reps)]]
    gnames = [f"[{S.names[r]}]" for r in reps]
    if S.validated:
        G = proved(gnames, gtable, class_of[S.star[reps]],
                   identity=int(class_of[z]), name=f"G({S.name})")
    else:
        G = validate_group(gnames, gtable, name=f"G({S.name})")
    S._sigma = SigmaMap(S, G, tuple(class_of.tolist()))
    return S._sigma


def first_occurrence_ids(keys):
    """Number the distinct keys in order of first occurrence.

    Returns ``(ids, firsts)``: ``ids[i]`` is the number of ``keys[i]`` and
    ``firsts[c]`` the position where key number c first occurs.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    starts = np.ones(len(keys), dtype=bool)       # a new key in sorted order
    starts[1:] = keys[order[1:]] != keys[order[:-1]]
    firsts = order[starts]                         # stable: least position
    by_first = np.argsort(firsts)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    ids = np.empty_like(order)
    ids[order] = rank[np.cumsum(starts) - 1]
    return ids, firsts[by_first]


def is_e_unitary(S: InvSemigroup) -> bool:
    """sigma^{-1}(1) = E(S)."""
    if S._e_unitary is None:
        sigma = max_group_image(S)
        fiber = np.flatnonzero(np.asarray(sigma.classmap) == sigma.group.identity)
        S._e_unitary = fiber.tolist() == list(S.idempotents)
    return S._e_unitary


def is_zero_e_unitary(S: InvSemigroup) -> bool:
    """s >= e != 0 with e idempotent implies s is idempotent; e <= s iff
    s e = e."""
    if S.zero is None:
        raise errors.NoZero(f"{S.name} has no zero")
    E = np.array([e for e in S.idempotents if e != S.zero], dtype=np.int64)
    other = S.table.diagonal() != np.arange(len(S))
    return not (S.table[np.ix_(other, E)] == E).any()


def is_ideal(S: InvSemigroup, I) -> bool:
    I = sorted(set(I))
    return bool(I) and bool(np.isin(S.table[:, I], I).all()
                            and np.isin(S.table[I], I).all())


def enumerate_proper_ideals(S: InvSemigroup):
    """All non-empty proper ideals, as sorted tuples (exhaustive, small S only).

    Every ideal is a union of principal ideals, so it suffices to close the
    set of principal ideals under union.
    """
    n = len(S)
    # the principal ideal of s is SsS, which holds s = (ss*) s (s*s)
    principal = {frozenset(np.unique(S.table[S.table[:, s]]).tolist())
                 for s in range(n)}
    ideals = set(principal)
    frontier = set(principal)
    while frontier:
        new = set()
        for I in frontier:
            for J in principal:
                u = I | J
                if u not in ideals:
                    new.add(u)
        ideals |= new
        frontier = new
    full = frozenset(range(n))
    return sorted(tuple(sorted(I)) for I in ideals if I != full)


def rees_quotient(S: InvSemigroup, I):
    """Collapse a proper ideal to a single zero element.

    Returns the quotient (with zero set) and the quotient map as a
    :class:`SemigroupHom`.  Classes are re-indexed by least representative.

    For a ``validated`` S it is born validated (:func:`proved`): S/I is
    an inverse semigroup with zero I, and s in I gives s* = s*ss* in I, so
    the inverse of the class of s is the class of s*.  Otherwise the table
    is validated.
    """
    I = sorted(set(I))
    if not is_ideal(S, I):
        raise errors.NotAnIdeal(f"{I} is not a non-empty ideal of {S.name}")
    if len(I) == len(S):
        raise errors.ImproperIdeal("cannot collapse the whole semigroup")
    keep = np.ones(len(S), dtype=bool)
    keep[I[1:]] = False                   # I[0] represents the zero class
    reps = np.flatnonzero(keep)
    qmap = np.cumsum(keep) - 1
    zero_new = int(qmap[I[0]])
    qmap[I] = zero_new
    qtable = qmap[S.table[np.ix_(reps, reps)]]
    qnames = ["0" if idx == zero_new else S.names[r]
              for idx, r in enumerate(reps)]
    if S.validated:
        Q = proved(qnames, qtable, qmap[S.star[reps]], zero=zero_new,
                   name=f"{S.name}/I")
    else:
        Q = validate_semigroup(qnames, qtable, zero=zero_new, name=f"{S.name}/I")
    return Q, SemigroupHom(S, Q, tuple(qmap.tolist()))


def semigroup_hom(S: InvSemigroup, T: InvSemigroup, mapping) -> SemigroupHom:
    """Validate a map on element ids as a semigroup homomorphism."""
    mapping = tuple(int(x) for x in mapping)
    if len(mapping) != len(S):
        raise errors.NotAHomomorphism("map must be defined on all of S")
    if any(not 0 <= x < len(T) for x in mapping):
        raise errors.NotAHomomorphism("map image out of range")
    m = np.array(mapping, dtype=np.int64)
    bad = np.argwhere(m[S.table] != T.table[np.ix_(m, m)])
    if len(bad):
        s, t = bad[0]
        raise errors.NotAHomomorphism(f"phi({s} {t}) != phi({s})phi({t})")
    return SemigroupHom(S, T, mapping)


def hom_from_sigma(sigma: SigmaMap) -> SemigroupHom:
    return SemigroupHom(sigma.source, sigma.group, tuple(sigma.classmap))


def partial_group_hom(S: InvSemigroup, G: FiniteGroup, mapping) -> PartialGroupHom:
    """Validate a map S\\{0} -> G as a partial homomorphism.

    The first failure in this order raises: an undefined value at a
    non-zero element, the first (s, t) in row order with st != 0 and
    phi(st) != phi(s)phi(t), then a non-zero idempotent that misses the
    identity.  The pairs are compared in row blocks of ``CHUNK`` entries.
    """
    if S.zero is None:
        raise errors.NoZero("partial homomorphisms need a source with zero")
    mapping = list(mapping)
    n, z = len(S), S.zero
    if len(mapping) != n or mapping[z] is not None:
        raise errors.NotAHomomorphism(
            "map must carry None exactly at the zero id")
    undefined = [s for s, v in enumerate(mapping) if v is None and s != z]
    if undefined:
        raise errors.NotAHomomorphism(
            f"undefined at non-zero element {undefined[0]}")
    phi = np.array([0 if s == z else v for s, v in enumerate(mapping)])
    if phi.dtype.kind not in "iu" or not ((0 <= phi) & (phi < len(G))).all():
        raise errors.NotAHomomorphism("map image out of range")
    nonzero = np.arange(n) != z
    rows = max(1, CHUNK // n)
    for lo in range(0, n, rows):
        st = S.table[lo:lo + rows]
        bad = (phi[st] != G.table[phi[lo:lo + rows, None], phi]) & \
            (st != z) & nonzero[lo:lo + rows, None] & nonzero
        if bad.any():
            s, t = np.argwhere(bad)[0] + (lo, 0)
            raise errors.NotAHomomorphism(f"phi({s} {t}) != phi({s})phi({t})")
    E = np.asarray(S.idempotents)
    off = (phi[E] != G.identity) & (E != z)
    if off.any():
        raise errors.NotAHomomorphism(
            f"non-zero idempotent {E[off][0]} does not map to the identity")
    return PartialGroupHom(S, G, tuple(mapping))


def is_idempotent_pure_partial_hom(theta: PartialGroupHom) -> bool:
    """theta^{-1}(1) equals the non-zero idempotents."""
    S, G = theta.source, theta.target
    fiber = {s for s in range(len(S))
             if s != S.zero and theta(s) == G.identity}
    return fiber == {e for e in S.idempotents if e != S.zero}


def is_locally_idempotent_pure(phi: SemigroupHom) -> bool:
    """phi restricted to each local monoid eSe is idempotent pure: no
    non-idempotent e s e maps to an idempotent.  Row blocks of at most
    ``CHUNK`` entries of ``x[i, s] = e_i s e_i``."""
    S, T = phi.source, phi.target
    E = np.asarray(S.idempotents)
    idem = S.table.diagonal() == np.arange(len(S))
    to_idem = (T.table.diagonal() == np.arange(len(T)))[np.asarray(phi.map)]
    rows = max(1, CHUNK // len(S))
    for lo in range(0, len(E), rows):
        e = E[lo:lo + rows]
        x = S.table[S.table[e], e[:, None]]
        if (to_idem[x] & ~idem[x]).any():
            return False
    return True


def subgroup_generated(G: FiniteGroup, gens):
    """Element set of the subgroup generated by ``gens``: in a finite group,
    the closure of ``gens`` and the identity under the product."""
    inside = np.zeros(len(G), dtype=bool)
    inside[[G.identity, *gens]] = True
    while True:
        grown = inside.copy()
        grown[G.table[np.ix_(inside, inside)]] = True
        if grown.sum() == inside.sum():
            return np.flatnonzero(inside).tolist()
        inside = grown


def eunitary_cover(S: InvSemigroup, theta: PartialGroupHom):
    """The E-unitary cover T = {(s, theta(s))} u ({0} x G0) of S.

    G0 is the subgroup generated by the image of theta.  Returns
    ``(T, I, iso)`` where I is the kernel ideal {0} x G0 (as ids of T) and
    iso maps the Rees quotient T/I back onto S elementwise.
    """
    if not is_idempotent_pure_partial_hom(theta):
        bad = next(s for s in range(len(theta.source))
                   if s != theta.source.zero
                   and not theta.source.is_idempotent(s)
                   and theta(s) == theta.target.identity)
        raise errors.NotIdempotentPure(bad)
    G = theta.target
    g0 = subgroup_generated(G, [theta(s) for s in range(len(S)) if s != S.zero])
    pairs = [(s, theta(s)) for s in range(len(S)) if s != S.zero]
    pairs += [(S.zero, g) for g in g0]
    pairs.sort()
    index = {p: i for i, p in enumerate(pairs)}
    # (s, g)(t, h) = (st, gh), which is (0, gh) when st = 0
    ps, pg = np.array(pairs, dtype=np.int64).T
    at = np.full(len(S) * len(G), -1, dtype=np.int64)
    at[ps * len(G) + pg] = np.arange(len(pairs))
    table = at[S.table[np.ix_(ps, ps)] * len(G) + G.table[np.ix_(pg, pg)]]
    names = [f"({S.names[s]},{G.names[g]})" for s, g in pairs]
    T = validate_semigroup(names, table, None, name=f"cov({S.name})")
    if not is_e_unitary(T):
        raise errors.InvariantViolation(
            "cover construction must be E-unitary", T.name)
    ideal = tuple(index[(S.zero, g)] for g in g0)
    Q, qmap = rees_quotient(T, ideal)
    # identify Q with S elementwise: the class of (s, theta(s)) goes to s,
    # and the class {0} x G0 to 0
    iso = np.zeros(len(Q), dtype=np.int64)
    iso[list(qmap.map)] = ps
    iso = iso.tolist()
    iso_hom = semigroup_hom(Q, S, iso)
    if sorted(iso) != list(range(len(S))):
        raise errors.InvariantViolation(
            "quotient of the cover must be isomorphic to S", tuple(iso))
    return T, ideal, iso_hom

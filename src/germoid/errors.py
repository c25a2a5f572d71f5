"""Structured errors raised by validators and constructions.

Every constructor either returns a fully validated object or raises one of
these; there are no partially valid states.  Each error carries a minimal
witness (element / arrow ids) for reporting.
"""

import math


class GermoidError(Exception):
    """Base class for all structured errors of this package."""


class ValidationError(GermoidError):
    """Base class for rejections of malformed algebraic input."""


class MalformedInput(ValidationError):
    """Input that does not follow the file format or a setting's syntax:
    wrong JSON shape, non-integer or out-of-range ids, a bad size limit."""


class InvariantViolation(GermoidError):
    """An internal invariant of a construction failed: a bug, not bad input.

    Raised instead of ``assert`` so the check survives ``python -O`` and a
    verify run reports it as a failed check with its witness.
    """

    def __init__(self, msg, witness):
        super().__init__(f"{msg} (witness {witness})")
        self.witness = witness


# -- semigroup level ---------------------------------------------------------

class NotAssociative(ValidationError):
    def __init__(self, i, j, k):
        super().__init__(f"(s{i}*s{j})*s{k} != s{i}*(s{j}*s{k})")
        self.witness = (i, j, k)


class NoUniqueInverse(ValidationError):
    def __init__(self, s, count):
        super().__init__(f"element {s} has {count} candidate inverses, expected 1")
        self.witness = s


class IdempotentsDontCommute(ValidationError):
    def __init__(self, e, f):
        super().__init__(f"idempotents {e}, {f} do not commute")
        self.witness = (e, f)


class ZeroNotAbsorbing(ValidationError):
    def __init__(self, s):
        super().__init__(f"declared zero is not absorbing against element {s}")
        self.witness = s


class NoZero(GermoidError):
    pass


class NotEUnitary(GermoidError):
    pass


class SigmaMismatch(GermoidError):
    def __init__(self, s, t):
        super().__init__(f"elements {s}, {t} lie in different sigma classes")
        self.witness = (s, t)


class NotAnIdeal(GermoidError):
    pass


class ImproperIdeal(GermoidError):
    pass


class NotAHomomorphism(ValidationError):
    pass


class NotIdempotentPure(GermoidError):
    def __init__(self, s):
        super().__init__(f"non-idempotent {s} maps to the identity")
        self.witness = s


class NotAGroup(ValidationError):
    pass


class InvalidParams(GermoidError):
    pass


class ActionNotByAutomorphisms(ValidationError):
    pass


class SizeLimitExceeded(GermoidError):
    def __init__(self, size, limit):
        # Python refuses to print an int of over 4300 digits in full
        shown = size if size < 10 ** 100 else f"about 10^{int(math.log10(size))}"
        super().__init__(
            f"size {shown} exceeds limit {limit}; "
            "set GERMOID_SIZE_LIMIT to override")
        self.size = size
        self.limit = limit


# -- spectra level ------------------------------------------------------------

class ContractedWithoutZero(GermoidError):
    pass


class UnknownElement(GermoidError):
    pass


class NotADownset(GermoidError):
    def __init__(self, x, below):
        super().__init__(f"{below} <= {x} but only {x} is in the subset")
        self.witness = (x, below)


class NotMeetPreserving(ValidationError):
    pass


# -- groupoid level ------------------------------------------------------------

class CompositionNotAssociative(ValidationError):
    def __init__(self, a, b, c):
        super().__init__(f"(a{a} a{b}) a{c} != a{a} (a{b} a{c})")
        self.witness = (a, b, c)


class MissingIdentity(ValidationError):
    def __init__(self, unit):
        super().__init__(f"unit {unit} has no identity arrow")
        self.witness = unit


class MissingInverse(ValidationError):
    def __init__(self, arrow):
        super().__init__(f"arrow {arrow} has no two-sided inverse")
        self.witness = arrow


class DomainMismatch(ValidationError):
    def __init__(self, msg):
        super().__init__(msg)


class UnknownUnit(GermoidError):
    pass


class InvalidAction(ValidationError):
    pass


class NotAFunctor(ValidationError):
    pass


class NotFaithful(GermoidError):
    pass


class NotBijective(GermoidError):
    pass


# -- actions -------------------------------------------------------------------

class DomainsDontCover(ValidationError):
    def __init__(self, x):
        super().__init__(f"point {x} lies in no idempotent domain")
        self.witness = x


class WrongGroupoid(GermoidError):
    pass


class NotAFilter(GermoidError):
    pass


class IdentityNotTotal(ValidationError):
    pass


class NotDualPrehom(ValidationError):
    def __init__(self, g, h):
        super().__init__(f"theta({g})theta({h}) is not a restriction of theta({g}{h})")
        self.witness = (g, h)


class InverseMismatch(ValidationError):
    def __init__(self, g):
        super().__init__(f"theta({g}^-1) != theta({g})^-1")
        self.witness = g


class NotInvariant(GermoidError):
    def __init__(self, g, x):
        super().__init__(f"subset not invariant: element {g} moves point {x} outside")
        self.witness = (g, x)


class NotLocallyIdempotentPure(GermoidError):
    pass


class FaithfulnessFailed(GermoidError):
    """Internal consistency failure: the induced cocycle must be faithful."""


class VariantUnavailable(GermoidError):
    pass

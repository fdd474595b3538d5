"""Ordinals in Cantor normal form below w^w, plus a symbolic power layer.

The concrete layer handles exactly the ordinals that index the families we
can instantiate: finite sums w^e1*c1 + ... + w^ek*ck with natural exponents.
The symbolic layer expresses w^alpha (and products of such powers) for index
identities whose values exceed the concrete range.

Fundamental-sequence convention (fixed once, used everywhere): for a limit
ordinal a = lam + w^(e+1) we take a_n = lam + w^e * n, and for a = lam + w
we take a_n = lam + n.  Sequences for other choices of a_n increasing to a
are equally legitimate; this one is declared so results are reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

__all__ = [
    "Ordinal",
    "OrdinalError",
    "ParseError",
    "UnsupportedOrdinalError",
    "NotALimitError",
    "SymbolicOrdinal",
    "parse",
    "compare",
    "fundamental_sequence",
    "symbolic_omega_pow",
    "symbolic_product",
]


class OrdinalError(ValueError):
    pass


class ParseError(OrdinalError):
    pass


class UnsupportedOrdinalError(OrdinalError):
    """Raised for expressions denoting ordinals at or above w^w."""


class NotALimitError(OrdinalError):
    pass


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Cantor normal form: tuple of (exponent, coefficient), exponents
    strictly decreasing, coefficients >= 1.  The empty tuple is 0."""

    terms: tuple = ()

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if exps != sorted(exps, reverse=True) or len(set(exps)) != len(exps):
            raise OrdinalError("exponents must be strictly decreasing: %r" % (self.terms,))
        for e, c in self.terms:
            if e < 0 or c < 1:
                raise OrdinalError("bad CNF term (%r, %r)" % (e, c))
        # ordinals key the cursor caches: hash once, to the value the
        # generated __hash__ would give
        object.__setattr__(self, "_hash", hash((self.terms,)))

    def __hash__(self):
        return self._hash

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def from_int(cls, n):
        if n < 0:
            raise OrdinalError("ordinals are non-negative")
        return cls(() if n == 0 else ((0, n),))

    @classmethod
    def of(cls, a):
        """a itself if it is an Ordinal, else the ordinal of the natural a."""
        return a if isinstance(a, Ordinal) else cls.from_int(a)

    @classmethod
    def omega_pow_times(cls, exponent, coefficient=1):
        """w^exponent * coefficient for a natural exponent."""
        if exponent == 0:
            return cls.from_int(coefficient)
        return cls(((exponent, coefficient),))

    # -- ordering -------------------------------------------------------

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms < other.terms

    # -- classification -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_successor(self):
        return bool(self.terms) and self.terms[-1][0] == 0

    def is_limit(self):
        return bool(self.terms) and self.terms[-1][0] > 0

    def classify(self):
        """Return 'zero', 'successor' or 'limit'."""
        if self.is_zero():
            return "zero"
        return "successor" if self.is_successor() else "limit"

    def predecessor(self):
        if not self.is_successor():
            raise OrdinalError("%s is not a successor" % self)
        e, c = self.terms[-1]
        rest = self.terms[:-1]
        if c == 1:
            return Ordinal(rest)
        return Ordinal(rest + ((0, c - 1),))

    # -- arithmetic (only what fundamental sequences and the symbolic
    #    layer need: addition and right-multiplication by a natural) ----

    def __add__(self, other):
        if isinstance(other, int):
            other = Ordinal.from_int(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        if other.is_zero():
            return self
        lead = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > lead]
        merged = list(other.terms)
        for e, c in self.terms:
            if e == lead:
                merged[0] = (lead, merged[0][1] + c)
        return Ordinal(tuple(kept) + tuple(merged))

    def times_natural(self, n):
        """self * n (ordinal product on the right by a natural)."""
        if n < 0:
            raise OrdinalError("natural factor must be >= 0")
        if n == 0 or self.is_zero():
            return Ordinal.zero()
        e1, c1 = self.terms[0]
        head = Ordinal(((e1, c1 * (n - 1)),)) if n > 1 else Ordinal.zero()
        return head + self

    # -- formatting -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                p = "w" if e == 1 else "w^%d" % e
                if c != 1:
                    p += "*%d" % c
                parts.append(p)
        return "+".join(parts)

    def __repr__(self):
        return "Ordinal(%s)" % self


def _natural(digits):
    """int(digits), with int's refusals (a digit string past its
    conversion limit, a digit such as '2' in superscript) as ParseError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError("bad natural number in ordinal: %s" % exc) from None


_TERM_RE = re.compile(r"^(?:(\d+)|w(?:\^(\w+))?(?:\*(\d+))?)$")


def parse(text):
    """Parse the ASCII ordinal grammar: ``0 | k | w^e*k (+ ...)``.

    Exponents must be naturals; ``w^w`` and beyond raise
    UnsupportedOrdinalError.
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise ParseError("empty ordinal expression")
    if text == "0":
        return Ordinal.zero()
    terms = []
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ParseError("bad ordinal term %r" % chunk)
        num, exp, coef = m.groups()
        if num is not None:
            terms.append((0, _natural(num)))
            continue
        if exp is None:
            e = 1
        elif exp.isdigit():
            e = _natural(exp)
        else:
            raise UnsupportedOrdinalError("exponent %r is not a natural; only ordinals below w^w are concrete" % exp)
        c = 1 if coef is None else _natural(coef)
        if c < 1:
            raise ParseError("coefficient must be >= 1 in %r" % chunk)
        terms.append((e, c))
    exps = [e for e, _ in terms]
    if exps != sorted(exps, reverse=True) or len(set(exps)) != len(exps):
        raise ParseError("terms must have strictly decreasing exponents: %r" % text)
    return Ordinal(tuple(terms))


def compare(a, b):
    """Total order on CNF ordinals: 'less', 'equal' or 'greater'."""
    if a < b:
        return "less"
    if a == b:
        return "equal"
    return "greater"


def fundamental_sequence(a, n):
    """The n-th member (n >= 1) of the declared sequence increasing to a."""
    if n < 1:
        raise OrdinalError("fundamental sequence index starts at 1")
    if not a.is_limit():
        raise NotALimitError("%s is not a limit ordinal" % a)
    e, c = a.terms[-1]
    lam = Ordinal(a.terms[:-1] + (((e, c - 1),) if c > 1 else ()))
    if e == 1:
        return lam + Ordinal.from_int(n)
    return lam + Ordinal.omega_pow_times(e - 1, n)


@dataclass(frozen=True)
class SymbolicOrdinal:
    """A power w^exponent with the exponent a concrete CNF ordinal.

    Covers every index value the artifact produces (iota(S_a) = w^a and
    the power/bracket identities), including values >= w^w.  w^0 is 1.
    """

    exponent: Ordinal = Ordinal.zero()

    def __str__(self):
        if self.exponent.is_zero():
            return "1"
        return "w^(%s)" % self.exponent

    def __mul__(self, other):
        if not isinstance(other, SymbolicOrdinal):
            return NotImplemented
        # w^a * w^b = w^(a+b)
        return SymbolicOrdinal(self.exponent + other.exponent)

    def pow_natural(self, n):
        if n < 0:
            raise OrdinalError("natural power must be >= 0")
        return SymbolicOrdinal(self.exponent.times_natural(n))


def symbolic_omega_pow(a):
    """w^a as a symbolic ordinal; a may be any concrete CNF ordinal."""
    return SymbolicOrdinal(Ordinal.of(a))


def symbolic_product(a, b):
    """Product of two symbolic powers (w^x * w^y = w^(x+y))."""
    if isinstance(a, Ordinal):
        a = symbolic_omega_pow(a)
    if isinstance(b, Ordinal):
        b = symbolic_omega_pow(b)
    return a * b

"""Exact scalar arithmetic over Q and over odd prime fields F_p.

Scalars are plain Python values, never floats.  Over Q a scalar is an
``int`` when it is integral and a ``fractions.Fraction`` with denominator
> 1 otherwise; over F_p it is an int reduced to ``[0, p)``.  Integral data
dominate in practice, and int arithmetic is many times cheaper than
Fraction arithmetic.  A :class:`FieldSpec` carries the arithmetic so that
polynomials and matrices stay agnostic of the coefficient representation;
kernels that compute inline keep the same rule where they store a value,
and no Q division uses ``/`` on two scalars, since ``int / int`` is a float.

The Groebner side (Buchberger, normal forms, the quotient's normal-form
table and the Gram build) stores no Q scalars while it works: it keeps
int term dicts over one positive denominator (`poly`).  It makes a
``Fraction`` only at its boundary, by :func:`ratio` (n / d for ints) or
by FieldSpec arithmetic: the monic reduced basis, a normal form's
remainder, the Gram entries, and the per-step multipliers that cofactor
recipes keep (`groebner`).

Square classes are canonicalized as follows: over Q the representative is a
signed squarefree integer; over F_p it is 1 for squares and the smallest
positive non-residue otherwise.  Only
square_classes factors integers: it classifies many values against one
shared prime set, and returns the primes that the Hasse symbols need.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import (
    AlgebraError,
    EvenModulus,
    FactorBoundExceeded,
    ParseError,
    ZeroScalar,
)

#: Largest part of a number, left once every prime below SMALL_PRIME_BOUND
#: is divided out, that square_classes will trial-divide; a part that is a
#: prime or a prime square passes at any size.
FACTOR_BOUND = 10**9

#: square_classes trial-divides every number by the primes below this first.
SMALL_PRIME_BOUND = 1000

#: is_prime is proven correct below this (the first twelve primes as
#: Miller-Rabin witnesses; Sorenson & Webster, Math. Comp. 86, 2017).
MR_PROVEN_BOUND = 318665857834031151167461

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven below MR_PROVEN_BOUND."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(x):
    """The canonical Q scalar equal to the int or Fraction x."""
    return x.numerator if x.denominator == 1 else x


def ratio(n: int, d: int):
    """The canonical Q scalar n / d, for ints n and d != 0."""
    return n if d == 1 else _rational(Fraction(n, d))


_SCALAR_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+)\s*)?$")


class FieldSpec:
    """The coefficient field: the rationals or F_p with p an odd prime.

    A field is its modulus: p over F_p and ``None`` over Q, so inline
    kernels branch on ``modulus is None``.  ``is_rationals`` is that test,
    made once here.  Build a field with :meth:`rationals` or
    :meth:`prime_field`.
    """

    __slots__ = ("modulus", "is_rationals", "_nonresidue")

    def __init__(self, modulus: int | None = None):
        if modulus is not None:
            if modulus == 2:
                raise EvenModulus("characteristic 2 is not supported")
            if type(modulus) is not int or not is_prime(modulus):
                raise AlgebraError(f"modulus {modulus!r} is not prime")
        self.modulus = modulus
        self.is_rationals = modulus is None
        self._nonresidue = None

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls()

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        """F_p; raises unless p is an odd prime."""
        if p is None:
            raise AlgebraError("modulus None is not prime")
        return cls(p)

    # -- canonical values ------------------------------------------------

    zero = 0
    one = 1

    def from_int(self, n: int):
        """The field element n * 1; anything but an int, a float or a bool
        included, raises AlgebraError."""
        if type(n) is not int:
            raise AlgebraError(f"scalar {n!r} is not an int")
        return n if self.is_rationals else n % self.modulus

    def canon(self, x):
        """Coerce ints/Fractions into the canonical scalar representation;
        anything else, a float included, raises AlgebraError."""
        if not isinstance(x, (int, Fraction)):
            raise AlgebraError(f"scalar {x!r} is not an int or a Fraction")
        if self.is_rationals:
            return _rational(x)
        if isinstance(x, Fraction):
            if x.denominator % self.modulus == 0:
                raise ZeroScalar(f"denominator divisible by {self.modulus}")
            return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus
        return x % self.modulus

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        return _rational(a + b) if self.is_rationals else (a + b) % self.modulus

    def mul(self, a, b):
        return _rational(a * b) if self.is_rationals else (a * b) % self.modulus

    def neg(self, a):
        return _rational(-a) if self.is_rationals else (-a) % self.modulus

    def inv(self, a):
        if not a:
            raise ZeroScalar("inverse of zero")
        if self.is_rationals:
            return _rational(Fraction(a.denominator, a.numerator))
        return pow(a, -1, self.modulus)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- text ------------------------------------------------------------

    def parse_scalar(self, text: str):
        m = _SCALAR_RE.match(text)
        if not m:
            raise ParseError(f"bad scalar {text!r}", 0)
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ParseError("zero denominator", 0)
        return self.canon(Fraction(num, den))

    def least_nonresidue(self) -> int:
        """Smallest positive quadratic non-residue mod p (cached)."""
        if self._nonresidue is None:
            p = self.modulus
            a = 2
            while pow(a, (p - 1) // 2, p) == 1:
                a += 1
            self._nonresidue = a
        return self._nonresidue

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __str__(self):
        return "Q" if self.is_rationals else f"F{self.modulus}"

    def __repr__(self):
        return f"FieldSpec({self})"


def square_classes(field: FieldSpec, values) -> tuple[list, tuple]:
    """The square classes of values (see square_class), and the ascending
    primes dividing some class.  Over Q all numerators and denominators are
    factored in ascending order against one prime set: each is divided by
    the primes found so far, and only the part left is trial-divided.  Once
    no prime below SMALL_PRIME_BOUND is left in it, that part is tested
    once: a prime or a prime square is done at any size, and anything else
    must not exceed FACTOR_BOUND.  Over F_p there are no primes."""
    values = [field.canon(a) for a in values]
    if not all(values):
        raise ZeroScalar("zero has no square class")
    if not field.is_rationals:
        p, r = field.modulus, field.least_nonresidue()
        return [1 if pow(a, (p - 1) // 2, p) == 1 else r for a in values], ()
    shared, part = [], {}  # part: n -> its primes of odd exponent
    for n in sorted({abs(x) for a in values for x in a.as_integer_ratio()}):
        m = n
        for p in shared:  # divide out the primes found so far
            m = _valuation(m, p)[1]
        d, tested = 2, False
        while m > 1:  # trial-divide the part left
            if d * d > m:
                d = m  # what is left is prime
            elif d > SMALL_PRIME_BOUND and not tested:
                # the part left has no prime below the bound: test it once
                tested, r = True, math.isqrt(m)
                if m < MR_PROVEN_BOUND and is_prime(m):
                    d = m
                elif r * r == m and r < MR_PROVEN_BOUND and is_prime(r):
                    d = r
                elif m > FACTOR_BOUND:
                    raise FactorBoundExceeded(
                        f"{m}, the part of {n} left after the primes below"
                        f" {SMALL_PRIME_BOUND}, is no proven prime or prime"
                        f" square and exceeds the trial-division bound"
                        f" {FACTOR_BOUND}"
                    )
            if m % d == 0:
                shared.append(d)
                m = _valuation(m, d)[1]
            d += 1 if d == 2 else 2
        part[n] = [p for p in shared if _valuation(n, p)[0] % 2]
    # a/b and ab lie in one class, and a, b are coprime
    return [
        (1 if n > 0 else -1) * math.prod(part[abs(n)] + part[d])
        for n, d in (a.as_integer_ratio() for a in values)
    ], tuple(sorted({p for odd in part.values() for p in odd}))


def hasse_places(primes) -> list:
    """The places where a Hasse symbol of entries with these primes can be -1."""
    return ["inf", 2] + [p for p in primes if p != 2]


def square_class(field: FieldSpec, a):
    """Canonical representative of a modulo nonzero squares.

    Q: signed squarefree integer (an int).  F_p: 1 or the
    smallest positive non-residue.  Idempotent on its own output.
    """
    return square_classes(field, (a,))[0][0]


def square_class_mul(field: FieldSpec, a, b):
    """Product of two canonical square-class representatives, canonicalized.

    Avoids factoring the product: for squarefree integers a, b the squarefree
    part of ab is (a/g)(b/g) with g = gcd(|a|, |b|).
    """
    if field.is_rationals:
        sign = -1 if (a < 0) != (b < 0) else 1
        aa, bb = abs(a.numerator), abs(b.numerator)
        g = math.gcd(aa, bb)
        return sign * (aa // g) * (bb // g)
    return square_class(field, field.mul(a, b))


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and p not dividing u."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a, b, place) -> int:
    """Local Hilbert symbol (a, b) at a rational place.

    ``place`` is the string "inf" for the real place or a prime integer.
    Checks its arguments, then calls the kernel _hilbert.
    """
    a, b = Fraction(a), Fraction(b)
    if not a or not b:
        raise ZeroScalar("Hilbert symbol of zero")
    if place != "inf" and not (isinstance(place, int) and is_prime(place)):
        raise AlgebraError(f"place must be a prime or 'inf', got {place!r}")
    return _hilbert(a.numerator * a.denominator, b.numerator * b.denominator, place)


def _hilbert(A: int, B: int, place) -> int:
    """(A, B) at place, for nonzero ints A, B and a place that is trusted to
    be "inf" or a prime.

    Standard formulas: at infinity -1 iff both arguments are negative; at odd
    p via valuations and Euler's criterion, (u|p) = u^((p-1)/2) mod p; at 2
    via the (u-1)/2 and (u^2-1)/8 exponents.
    """
    if place == "inf":
        return -1 if (A < 0 and B < 0) else 1
    p = place
    va, u = _valuation(A, p)
    vb, v = _valuation(B, p)
    if p == 2:
        e = ((u - 1) // 2) * ((v - 1) // 2)
        e += va * ((v * v - 1) // 8) + vb * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    h = (p - 1) // 2
    s = -1 if va * vb * h % 2 else 1
    if vb % 2 and pow(u, h, p) != 1:
        s = -s
    if va % 2 and pow(v, h, p) != 1:
        s = -s
    return s

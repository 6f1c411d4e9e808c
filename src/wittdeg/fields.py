"""Exact scalar arithmetic over Q and over odd prime fields F_p.

Scalars are plain Python values, never floats.  Over Q a scalar is an
``int`` when it is integral and a ``fractions.Fraction`` with denominator
> 1 otherwise; over F_p it is an int reduced to ``[0, p)``.  Integral data
dominate in practice, and int arithmetic is many times cheaper than
Fraction arithmetic.  A :class:`FieldSpec` carries the arithmetic so that
polynomials and matrices stay agnostic of the coefficient representation;
it is a read-only record (`errors.Frozen`), shared by every polynomial,
basis and form of a job, that fixes its modulus and least non-residue
when it is made.
The term-dict kernel of `poly` computes inline and stores exact sums of
int and field values, an integral ``Fraction`` among them; a `Poly` makes
its scalars canonical once, where it is made.  No Q division uses ``/``
on two scalars, since ``int / int`` is a float.

The Groebner side (Buchberger, normal forms, the quotient's normal-form
table), the Gram build and the elimination of a Gram form store no Q
scalars while they work: they keep int dicts over positive denominators
(`poly`, `degree`, `witt`).  The degree path never leaves that form: the
Gram form is int rows over one denominator, each pivot an (n, d) int pair,
and their square classes are read off the pairs.  Elsewhere a ``Fraction``
is made only at a boundary, by :func:`ratio` (n / d for ints) or by
FieldSpec arithmetic: the monic reduced basis, a normal form's remainder
and the printed entry cofactors of a unit certificate (`umrow`).

Square classes are canonicalized as follows: over Q the representative is a
signed squarefree integer; over F_p it is 1 for squares and the smallest
positive non-residue, ``FieldSpec.nonresidue``, otherwise.  Only
_pair_classes factors integers: it classifies many values against one
shared set of primes above SMALL_PRIME_BOUND, takes each number's primes
below it from one gcd with their product, and returns the primes that the
Hasse symbols need; square_classes canonicalizes scalars and hands their
pairs to it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import (
    AlgebraError,
    EvenModulus,
    FactorBoundExceeded,
    Frozen,
    ParseError,
    ZeroScalar,
)

#: Largest part of a number, left once every prime below SMALL_PRIME_BOUND
#: is divided out, that square_classes will trial-divide; a part that is a
#: prime or a prime square passes at any size.
FACTOR_BOUND = 10**9

#: square_classes takes the primes below this out of every number first,
#: by one gcd with their product.
SMALL_PRIME_BOUND = 1000

#: is_prime is proven correct below this (the first twelve primes as
#: Miller-Rabin witnesses; Sorenson & Webster, Math. Comp. 86, 2017).
MR_PROVEN_BOUND = 318665857834031151167461

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Below this the witnesses 2, 3, 5 and 7 are enough: it is the least strong
#: pseudoprime to all four (Jaeschke, Math. Comp. 61, 1993).
MR_FOUR_WITNESS_BOUND = 3215031751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven below MR_PROVEN_BOUND.  Below
    SMALL_PRIME_BOUND^2 a composite n has a prime factor below
    SMALL_PRIME_BOUND, so the small-prime table decides it; above, a prime
    factor below SMALL_PRIME_BOUND proves n composite before any witness
    runs."""
    if n < 2:
        return False
    if n < SMALL_PRIME_BOUND * SMALL_PRIME_BOUND:
        return math.gcd(n, _SMALL_PRIMORIAL) == 1 or n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False  # a prime factor below SMALL_PRIME_BOUND < n
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES[:4] if n < MR_FOUR_WITNESS_BOUND else _MR_WITNESSES
    for a in witnesses:
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


def _sieve(bound: int) -> tuple[int, ...]:
    """The primes below bound, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * bound
    flags[:2] = bytes(2)
    for p in range(2, math.isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return tuple(n for n, flag in enumerate(flags) if flag)


_SMALL_PRIMES = _sieve(SMALL_PRIME_BOUND)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _rational(x):
    """The canonical Q scalar equal to the int or Fraction x."""
    return x.numerator if x.denominator == 1 else x


def ratio(n: int, d: int):
    """The canonical Q scalar n / d, for ints n and d != 0."""
    return n if d == 1 else _rational(Fraction(n, d))


_SCALAR_RE = re.compile(r"\s*([+-]?[0-9]+)\s*(?:/\s*([0-9]+)\s*)?\Z")


class FieldSpec(Frozen):
    """The coefficient field: the rationals or F_p with p an odd prime
    below MR_PROVEN_BOUND, where :func:`is_prime` is proven.

    A field is its modulus: p over F_p and ``None`` over Q, so inline
    kernels branch on ``modulus is None``.  ``is_rationals`` is that test,
    and ``nonresidue`` the least positive quadratic non-residue mod p
    (``None`` over Q), both worked out once here.  Build a field with
    :meth:`rationals` or :meth:`prime_field`.
    """

    __slots__ = ("modulus", "is_rationals", "nonresidue")

    def __init__(self, modulus: int | None):
        nonresidue = None
        if modulus is not None:
            if modulus == 2:
                raise EvenModulus("characteristic 2 is not supported")
            # is_prime is proven only below the bound, which is itself a
            # strong pseudoprime to all twelve witnesses
            if type(modulus) is int and modulus >= MR_PROVEN_BOUND:
                raise AlgebraError(
                    f"modulus {modulus} is not below {MR_PROVEN_BOUND}, "
                    "the bound of proven primality"
                )
            if type(modulus) is not int or not is_prime(modulus):
                raise AlgebraError(f"modulus {modulus!r} is not prime")
            nonresidue = 2
            while pow(nonresidue, (modulus - 1) // 2, modulus) == 1:
                nonresidue += 1
        super().__init__(modulus, modulus is None, nonresidue)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

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

    def neg(self, a):
        return _rational(-a) if self.is_rationals else (-a) % self.modulus

    # -- text ------------------------------------------------------------

    def parse_scalar(self, text: str):
        """The scalar of text in the grammar (whitespace-insensitive)::

            scalar := ["+"|"-"] int ("/" int)?

        an int being ASCII digits 0-9; anything else is a ParseError, and so
        is an int of more digits than the interpreter converts."""
        m = _SCALAR_RE.match(text)
        if not m:
            raise ParseError(f"bad scalar {text!r}", 0)
        try:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
        except ValueError:
            digits = max(len(g.lstrip("+-")) for g in m.groups() if g)
            raise ParseError(f"number of {digits} digits", 0) from None
        if den == 0:
            raise ParseError("zero denominator", 0)
        return self.canon(Fraction(num, den))

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
    primes dividing some class: the values are canonicalized, and their
    (numerator, denominator) pairs classified by _pair_classes."""
    values = [field.canon(a) for a in values]
    if not all(values):
        raise ZeroScalar("zero has no square class")
    return _pair_classes(field, [a.as_integer_ratio() for a in values])


def _pair_classes(field: FieldSpec, pairs) -> tuple[list, tuple]:
    """The square classes of the values n / d, for (n, d) in pairs, and the
    ascending primes dividing some class; each pair is of ints, n != 0,
    d > 0 and gcd(n, d) = 1 (over F_p, d prime to p).

    Over Q the distinct numerators and denominators are factored in
    ascending order, and each number's primes of odd exponent are recorded
    as they are found.  A number is first divided by the primes above
    SMALL_PRIME_BOUND that smaller numbers yielded; its primes below the
    bound are then those of one gcd with their product, and only those are
    divided out.  The part left has no prime below the bound, so below the
    square of the bound it is prime; above, it is tested once: a prime or
    a prime square is done at any size, and anything else must not exceed
    FACTOR_BOUND, and is trial-divided by the odd numbers above the bound.
    Over F_p there are no primes, and n / d lies in the class of n d."""
    if not field.is_rationals:
        p, r = field.modulus, field.nonresidue
        h = (p - 1) // 2
        return [1 if pow(n * d, h, p) == 1 else r for n, d in pairs], ()
    large, part, odd = [], {}, set()  # large: the primes above the bound
    for n in sorted({abs(x) for pair in pairs for x in pair}):
        mine = []  # the primes of odd exponent in n
        m = n
        for p in large:  # divide out the large primes found so far
            if m % p == 0:
                v, m = _valuation(m, p)
                if v % 2:
                    mine.append(p)
        g = math.gcd(m, _SMALL_PRIMORIAL)
        if g != 1:  # divide out the small primes of m, those of g
            for p in _SMALL_PRIMES:
                if g % p == 0:
                    v, m = _valuation(m, p)
                    if v % 2:
                        mine.append(p)
                    g //= p
                    if g == 1:
                        break
        d, tested = SMALL_PRIME_BOUND | 1, False
        while m > 1:  # trial-divide the part left above the bound
            if d * d > m:
                d = m  # what is left is prime
            elif not tested:
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
                large.append(d)
                v, m = _valuation(m, d)
                if v % 2:
                    mine.append(d)
            d += 2
        odd.update(mine)
        part[n] = math.prod(mine)
    # a/b and ab lie in one class, and a, b are coprime
    return [
        part[n] * part[d] if n > 0 else -part[-n] * part[d] for n, d in pairs
    ], tuple(sorted(odd))


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
    part of ab is (a/g)(b/g) with g = gcd(|a|, |b|).  Over F_p the classes
    are 1 and the least non-residue r, and the product is 1 iff a = b.
    """
    if field.is_rationals:
        sign = -1 if (a < 0) != (b < 0) else 1
        aa, bb = abs(a), abs(b)
        g = math.gcd(aa, bb)
        return sign * (aa // g) * (bb // g)
    return 1 if a == b else field.nonresidue


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and p not dividing u."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


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

"""Sparse multivariate polynomials over an exact field.

A polynomial is a map from exponent tuples to nonzero scalars; the ring
records the variable names and the field.  All values are immutable after
construction and all operations are pure.

The text grammar (whitespace-insensitive)::

    expr   := ["-"] term (("+"|"-") term)*
    term   := coeff ("*" factor)* | factor ("*" factor)*
    factor := var ("^" nat)?
    coeff  := int ("/" posint)?

Unary minus is allowed on the leading term only.

Term dicts are combined by one in-place kernel, `_add_shifted` (dst +=
c * x^shift * src), and divided by one loop, `_reduce`: sums, differences
and products of polynomials and determinants run through the first, and
every Groebner reduction in `groebner` through both.

A `Poly` holds canonical scalars (see `fields`).  The Groebner side works
on an integer form instead: over Q, `_clear` writes a term dict as an int
dict over one positive denominator, `_divisor` makes each divisor the
primitive integer multiple of its monic polynomial, and `_reduce`
pseudo-divides ints, returning its remainder over a scale.  `_ratios`
turns an int dict over a denominator back into canonical scalars; it and
the step log of `_reduce` are where the integer form makes a `Fraction`.
Over F_p the integer form is the canonical one, with denominator 1.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, attrgetter, le, sub
from typing import Sequence

from .errors import (
    NotSquareSystem,
    ParseError,
    RingMismatch,
    UnknownVariable,
)
from .fields import FieldSpec, ratio
from .orders import GREVLEX, MonomialOrder


# -- the term-dict kernel --------------------------------------------------


def _divides(a, b) -> bool:
    return all(map(le, a, b))


_denominator = attrgetter("denominator")


def _clear(terms: dict) -> tuple[dict, int]:
    """(nums, den) with terms == nums / den over Q: nums an int term dict,
    den the least positive common denominator.  For an int dict, so over
    F_p always, the pair is (terms, 1): callers copy before they mutate."""
    den = lcm(*map(_denominator, terms.values()))
    if den == 1:
        return terms, 1
    return {e: v.numerator * (den // v.denominator) for e, v in terms.items()}, den


def _ratios(nums: dict, den: int) -> dict:
    """The canonical term dict nums / den, for an int term dict nums and an
    int den > 0: nums itself when den is 1, so over F_p always."""
    if den == 1:
        return nums
    return {e: ratio(v, den) for e, v in nums.items()}


def _entry(terms: dict, order: MonomialOrder, tag=None):
    """A divisor as (leading exponents, leading coefficient, tail, tag).

    terms is a nonzero term dict, the tail a new dict of its other terms;
    tag is an opaque label that `_reduce` logs with every step by this
    divisor; Buchberger puts the entry's cofactor recipe there.
    """
    lead = max(terms, key=order.key)
    tail = dict(terms)
    return lead, tail.pop(lead), tail, tag


def _divisor(terms: dict, order: MonomialOrder, q, tag=None):
    """The `_entry` of the monic polynomial terms / lc(terms), terms being a
    nonzero int term dict (q: modulus of F_q, None over Q).

    Over F_q lc is 1 and the tail is monic.  Over Q the entry is the
    primitive integer multiple of the monic polynomial: lc is a positive
    int and gcd(lc, tail) is 1.  This is the working form of every
    Groebner-side divisor.
    """
    lead, lc, tail, tag = _entry(terms, order, tag)  # tail is a new dict
    if q is not None:
        inv = pow(lc, -1, q)
        return lead, 1, {e: v * inv % q for e, v in tail.items()}, tag
    g = gcd(lc, *tail.values())
    if lc < 0:
        g = -g
    if g != 1:
        lc //= g
        tail = {e: v // g for e, v in tail.items()}
    return lead, lc, tail, tag


def _add_shifted(dst: dict, src: dict, shift, c, q) -> None:
    """dst += c * x^shift * src, in place (q: modulus of F_q, None over Q)."""
    for e, v in src.items():
        e = tuple(map(add, e, shift))
        w = dst.get(e)
        # a fresh key takes c * v as is: adding it to 0 would cost one more
        # addition per new term, a reflected-operator call for a Fraction
        w = c * v if w is None else w + c * v
        if q is not None:
            w %= q
        elif type(w) is Fraction and w.denominator == 1:
            w = w.numerator  # canonical over Q: an integral value is an int
        if w:
            dst[e] = w
        else:
            del dst[e]


def _rescale(terms: dict, m: int) -> None:
    """terms *= m, in place (no key is added or removed)."""
    for e, v in terms.items():
        terms[e] = v * m


def _to_lcm(den: int, d: int, dicts) -> int:
    """lcm(den, d) for positive ints, with each int term dict in dicts, which
    are over den, rescaled in place to be over it: the step that keeps a sum
    of int dicts over different denominators on one common denominator."""
    m = d // gcd(den, d)
    for terms in dicts:
        _rescale(terms, m)
    return den * m


def _reduce(
    terms: dict, basis, order: MonomialOrder, field, log=None, scale=1
) -> tuple[dict, int]:
    """(rem, scale'), the remainder of terms / scale on division by basis
    being rem / scale'; terms is consumed.

    Over Q, terms holds ints and scale is a positive int; over F_p scale is
    1 and stays 1.  basis is a list of `_entry` tuples.  The first entry in
    list order whose leading monomial divides the current leading term
    reduces it; a leading term that no entry divides moves to the
    remainder.  The leading terms of the working dict strictly decrease, so
    the remainder is exact and no remainder term is divisible by a leading
    monomial of the basis.

    Over Q each step is a pseudo-division, as in Buchberger's algorithm
    over Z (Cox, Little, O'Shea, *Ideals, Varieties, and Algorithms*,
    section 2.7): with cc the current leading coefficient, dc the divisor's
    and g = gcd(cc, dc), terms becomes (dc/g) * terms - (cc/g) * x^shift *
    tail.  The multiplier dc/g > 0 also multiplies scale, and the remainder
    terms already split off, lazily at the end.  Scaling changes no zero
    pattern, so the steps are those of division by the monic divisors.

    When log is a list, each step appends (tag, shift, c): the polynomial
    terms / scale gains c * x^shift * (divisor / lc), tag being the divisor
    entry's fourth slot.  c = -cc / scale is the multiplier that division
    over the field by the monic divisor takes, one canonical scalar per
    step.  Starting from the cofactor vector of terms / scale, replaying the
    log through `_add_shifted` with the monic divisors' vectors gives the
    remainder's vector, so a caller pays for cofactors only when it keeps
    the remainder.  (Cox, Little, O'Shea, section 2.3.)
    """
    q = field.modulus
    key = cache(order.key)  # local: each call's terms are keyed once
    rem = []  # (exponent, coefficient, scale when split off)
    while terms:
        ce = max(terms, key=key)
        cc = terms.pop(ce)
        for de, dc, tail, tag in basis:
            if _divides(de, ce):
                break
        else:
            rem.append((ce, cc, scale))
            continue
        shift = tuple(map(sub, ce, de))
        # terms += k * x^shift * tail, after terms *= dc / g over Q
        if q is not None:
            c = -cc % q
            k = c if dc == 1 else c * pow(dc, -1, q) % q
        else:
            if log is not None:
                c = ratio(-cc, scale)
            g = gcd(cc, dc) if dc > 0 else -gcd(cc, dc)
            if g != dc:
                _rescale(terms, dc // g)
                scale *= dc // g
            k = -cc // g
        _add_shifted(terms, tail, shift, k, q)
        if log is not None:
            log.append((tag, shift, c))
    return {e: c * (scale // s) for e, c, s in rem}, scale


class Ring:
    """A polynomial ring: ordered variable names over a FieldSpec."""

    __slots__ = ("variables", "field", "_index")

    def __init__(self, variables: Sequence[str], field: FieldSpec):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise RingMismatch("duplicate variable names")
        self.field = field
        self._index = {v: i for i, v in enumerate(self.variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(self.field.one)

    def constant(self, c) -> "Poly":
        c = self.field.canon(c)
        return Poly(self, {(0,) * self.nvars: c} if c else {})

    def var(self, i: int) -> "Poly":
        exps = [0] * self.nvars
        exps[i] = 1
        return Poly(self, {tuple(exps): self.field.one})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(i) for i in range(self.nvars))

    def monomial(self, exps: Sequence[int], c=1) -> "Poly":
        c = self.field.canon(c)
        return Poly(self, {tuple(exps): c} if c else {})

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.variables == other.variables
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return f"Ring({', '.join(self.variables)}; {self.field})"


class Poly:
    """Immutable sparse polynomial; equality is term-map equality."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def leading(self, order: MonomialOrder = GREVLEX):
        """(exponents, coefficient) of the largest term; errors on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise RingMismatch(f"{other.ring} != {self.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    def _plus(self, other, c):
        """self + c * other for c = 1 or -1."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        zero = (0,) * self.ring.nvars
        _add_shifted(terms, other.terms, zero, c, self.ring.field.modulus)
        return Poly(self.ring, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        return Poly(self.ring, {e: field.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self.ring.field.modulus
        terms: dict = {}
        for e, c in other.terms.items():
            _add_shifted(terms, self.terms, e, c, q)
        return Poly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c):
        """Multiply by a scalar."""
        field = self.ring.field
        c = field.canon(c)
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {e: field.mul(v, c) for e, v in self.terms.items()})

    # -- calculus / composition ----------------------------------------------

    def deriv(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i."""
        field = self.ring.field
        terms: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            coeff = field.mul(c, field.from_int(e[i]))
            if not coeff:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = coeff
        return Poly(self.ring, terms)

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Exact composition: replace variable i by images[i].

        The images fix the target ring (they must share one); their number
        must equal this polynomial's variable count.
        """
        if len(images) != self.ring.nvars:
            raise RingMismatch(
                f"expected {self.ring.nvars} images, got {len(images)}"
            )
        target = images[0].ring
        for q in images:
            if q.ring != target:
                raise RingMismatch("images live in different rings")
        powers: list[list[Poly]] = [[target.one(), q] for q in images]

        def power(i: int, k: int) -> Poly:
            cache = powers[i]
            while len(cache) <= k:
                cache.append(cache[-1] * cache[1])
            return cache[k]

        result = target.zero()
        for e, c in self.terms.items():
            term = target.constant(c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            result = result + term
        return result

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


# -- parsing -------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^])|(\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        if m.group(1):
            tokens.append(("int", m.group(1), pos))
        elif m.group(2):
            tokens.append(("ident", m.group(2), pos))
        elif m.group(3):
            tokens.append(("op", m.group(3), pos))
        else:
            raise ParseError(f"unexpected character {m.group(4)!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: Ring):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Poly:
        negate = False
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                t = self.term()
                p = p + t if val == "+" else p - t
            elif kind == "end":
                return p
            else:
                raise ParseError(f"expected '+' or '-', got {val!r}", pos)

    def term(self) -> Poly:
        kind, val, pos = self.peek()
        if kind == "int":
            p = self.ring.constant(self.coeff())
        elif kind == "ident":
            p = self.factor()
        else:
            raise ParseError(f"expected coefficient or variable, got {val!r}", pos)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                p = p * self.factor()
            else:
                return p

    def coeff(self):
        kind, val, pos = self.advance()
        num = int(val)
        kind, val, _ = self.peek()
        if kind == "op" and val == "/":
            self.advance()
            kind, val, pos2 = self.advance()
            if kind != "int":
                raise ParseError(f"expected denominator, got {val!r}", pos2)
            den = int(val)
            if den == 0:
                raise ParseError("zero denominator", pos2)
            return self.ring.field.canon(Fraction(num, den))
        return self.ring.field.from_int(num)

    def factor(self) -> Poly:
        kind, val, pos = self.advance()
        if kind != "ident":
            raise ParseError(f"expected variable, got {val!r}", pos)
        idx = self.ring._index.get(val)
        if idx is None:
            raise UnknownVariable(val, pos)
        exp = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos2 = self.advance()
            if kind != "int":
                raise ParseError(f"expected exponent, got {val!r}", pos2)
            exp = int(val)
        exps = [0] * self.ring.nvars
        exps[idx] = exp
        return self.ring.monomial(exps)


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse the grammar above; raises ParseError/UnknownVariable."""
    return _Parser(text, ring).expr()


def format_monomial(ring: Ring, exps) -> str:
    parts = [
        v if e == 1 else f"{v}^{e}"
        for v, e in zip(ring.variables, exps)
        if e
    ]
    return "*".join(parts) if parts else "1"


def format_poly(p: Poly) -> str:
    """Canonical text form; round-trips through parse_poly."""
    if p.is_zero:
        return "0"
    field = p.ring.field
    items = sorted(p.terms.items(), key=lambda kv: GREVLEX.key(kv[0]), reverse=True)
    pieces = []
    for e, c in items:
        mono = format_monomial(p.ring, e)
        if field.is_rationals:
            negative = c < 0
            mag = -c if negative else c
            if mono == "1":
                body = field.format_scalar(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{field.format_scalar(mag)}*{mono}"
        else:
            negative = False
            body = (
                field.format_scalar(c)
                if mono == "1"
                else (mono if c == 1 else f"{field.format_scalar(c)}*{mono}")
            )
        pieces.append(("-" if negative else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# -- matrices and determinants ---------------------------------------------


def _check_square(matrix) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NotSquareSystem("matrix is not square")
    return n


def det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant over the polynomial ring, without division.

    Laplace expansion with shared minors: walking the rows from the bottom
    up, keep the nonzero minors of the last k rows, keyed by their sorted
    column set, and build each (k+1)-minor by expanding along the next row
    up.  Each product a_rj * minor is added straight into the new minor's
    term dict by `_add_shifted`.  Zero entries and zero minors are skipped,
    so sparse and triangular matrices reach only the minors they can.

    Level k holds at most C(n, k) minors, each extended by at most n - k
    entries, so there are at most sum_k C(n, k) (n - k) = n 2^(n-1) entry
    products, against the O(n^3) exact divisions of Bareiss elimination,
    whose quotients swell on polynomial entries.  Measured with CPython
    3.11 on x86-64: a dense 6x6 Bezoutian over Q takes 0.01 s here and
    10 s with Bareiss.  Bareiss is faster only on dense matrices of
    constants (linear maps) with n >= 10: about 2x at n = 10 and 30x at
    n = 14 (0.03 against 1.0 s).
    """
    n = _check_square(matrix)
    if n == 0:
        raise NotSquareSystem("empty matrix has no ring to live in")
    ring = matrix[0][0].ring
    for row in matrix:
        for x in row:
            if x.ring != ring:
                raise RingMismatch("matrix entries in different rings")
    q = ring.field.modulus
    minors = {(): {(0,) * ring.nvars: ring.field.one}}  # the empty minor is 1
    for row in reversed(matrix):
        # the entries of this row with both signs: (-1)^i for the i-th
        # column of the new minor
        entries = [
            (j, x.terms.items(), [(e, -c) for e, c in x.terms.items()])
            for j, x in enumerate(row)
            if x.terms
        ]
        grown: dict = {}
        for cols, minor in minors.items():
            for j, plus, minus in entries:
                i = bisect_left(cols, j)
                if i < len(cols) and cols[i] == j:
                    continue
                key = cols[:i] + (j,) + cols[i:]
                dst = grown.get(key)
                if dst is None:
                    dst = grown[key] = {}
                for e, c in minus if i & 1 else plus:
                    _add_shifted(dst, minor, e, c, q)
        minors = {cols: m for cols, m in grown.items() if m}
    return Poly(ring, minors.get(tuple(range(n)), {}))


def jacobian_matrix(images: Sequence[Poly]) -> list[list[Poly]]:
    n = len(images)
    ring = images[0].ring
    if ring.nvars != n:
        raise NotSquareSystem(f"{n} polynomials in {ring.nvars} variables")
    return [[images[i].deriv(j) for j in range(n)] for i in range(n)]


def jacobian_det(images: Sequence[Poly]) -> Poly:
    """Determinant of the matrix of partial derivatives."""
    return det(jacobian_matrix(images))

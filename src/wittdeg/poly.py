"""Sparse multivariate polynomials over an exact field.

A polynomial is a map from monomials to nonzero scalars; the ring
records the variable names, the field and the monomial order.  All values
are immutable after construction and all operations are pure.

The text grammar (whitespace-insensitive)::

    expr   := ["-"] term (("+"|"-") term)*
    term   := coeff ("*" factor)* | factor ("*" factor)*
    factor := var ("^" nat)?
    coeff  := int ("/" posint)?

Unary minus is allowed on the leading term only.  The parser builds each
term's exponents and coefficient directly and adds it, as its key, to one
packed term dict for the whole text; an exponent above orders.BOUND
(32767) is rejected there with ExponentBoundExceeded, naming the variable
and its position, and so is a term of total degree above it in a GREVLEX
ring.

A ring carries its monomial order, and a monomial of the ring is one key
in the order's packing (see `orders`): an int whose comparison is the
monomial order, whose product with x^s adds the offset of x^s, and whose
divisibility is one mask test.  A `Poly` holds one term map on those keys,
`Poly.packed`, from the parser through arithmetic, Groebner bases and
normal forms to the formatter; `Poly.terms` unpacks it to exponent tuples
on each read.  A product checks its keys against the exponent bound
before they are used again (see `orders`), so a monomial past the bound
raises ExponentBoundExceeded instead of wrapping into another.

Term dicts are combined by one in-place kernel, `_add_shifted` (dst +=
c * x^shift * src, shift an offset added to each key), and divided by one
loop, `_reduce`, whose leading term is `max(terms)`: sums, differences and
products of polynomials and determinants run through the first, and every
Groebner reduction in `groebner` through both, on the keys of the ring's
packing.

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
from math import gcd, lcm
from operator import attrgetter
from typing import Sequence

from .errors import (
    ExponentBoundExceeded,
    NotSquareSystem,
    ParseError,
    RingMismatch,
    UnknownVariable,
)
from .fields import FieldSpec, ratio
from .orders import BOUND, GREVLEX, MonomialOrder, Packing


# -- the term-dict kernel --------------------------------------------------


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


def _entry(terms: dict, tag=None):
    """A divisor as (leading key, leading coefficient, tail, tag).

    terms is a nonzero packed term dict, the tail a new dict of its other
    terms; tag is an opaque label that `_reduce` logs with every step by
    this divisor; Buchberger puts the entry's cofactor recipe there.
    """
    lead = max(terms)
    tail = dict(terms)
    return lead, tail.pop(lead), tail, tag


def _divisor(terms: dict, q, tag=None):
    """The `_entry` of the monic polynomial terms / lc(terms), terms being a
    nonzero packed int term dict (q: modulus of F_q, None over Q).

    Over F_q lc is 1 and the tail is monic.  Over Q the entry is the
    primitive integer multiple of the monic polynomial: lc is a positive
    int and gcd(lc, tail) is 1.  This is the working form of every
    Groebner-side divisor.
    """
    lead, lc, tail, tag = _entry(terms, tag)  # tail is a new dict
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


def _add_shifted(dst: dict, src: dict, shift: int, c, q) -> None:
    """dst += c * x^s * src, in place, for packed term dicts: shift is the
    offset of x^s, added to each key (q: modulus of F_q, None over Q)."""
    for e, v in src.items():
        e += shift
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
    terms: dict, basis, packing: Packing, field, log=None, scale=1
) -> tuple[dict, int]:
    """(rem, scale'), the remainder of terms / scale on division by basis
    being rem / scale'; terms is consumed.

    terms and the divisors are packed in packing, whose order is the
    monomial order of the division.  Over Q, terms holds ints and scale is
    a positive int; over F_p scale is 1 and stays 1.  basis is a list of
    `_entry` tuples.  The first entry in list order whose leading monomial
    divides the current leading term reduces it; a leading term that no
    entry divides moves to the remainder.  The leading terms of the working
    dict strictly decrease, so the remainder is exact and no remainder term
    is divisible by a leading monomial of the basis.  Every key is checked
    against the exponent bound when it leads.

    Over Q each step is a pseudo-division, as in Buchberger's algorithm
    over Z (Cox, Little, O'Shea, *Ideals, Varieties, and Algorithms*,
    section 2.7): with cc the current leading coefficient, dc the divisor's
    and g = gcd(cc, dc), terms becomes (dc/g) * terms - (cc/g) * x^shift *
    tail.  The multiplier dc/g > 0 also multiplies scale, and the remainder
    terms already split off, lazily at the end.  Scaling changes no zero
    pattern, so the steps are those of division by the monic divisors.

    When log is a list, each step appends (tag, shift, c): the polynomial
    terms / scale gains c * x^shift * (divisor / lc), shift being an offset
    and tag the divisor entry's fourth slot.  c = -cc / scale is the
    multiplier that division over the field by the monic divisor takes, one
    canonical scalar per step.  Starting from the cofactor vector of terms /
    scale, replaying the log through `_add_shifted` with the monic divisors'
    vectors gives the remainder's vector, so a caller pays for cofactors
    only when it keeps the remainder.  (Cox, Little, O'Shea, section 2.3.)
    """
    q = field.modulus
    pad, guard, target = packing.pad, packing.guard, packing.target
    rem = []  # (key, coefficient, scale when split off)
    while terms:
        ce = max(terms)
        cc = terms.pop(ce)
        if ce & guard:
            packing.overflow()
        s = ce + pad
        for de, dc, tail, tag in basis:
            if (s - de) & guard == target:
                break
        else:
            rem.append((ce, cc, scale))
            continue
        shift = ce - de
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


def _product(a: dict, b: dict, packing: Packing, q) -> dict:
    """The packed term dict a * b (keys a + b - one), checked against the
    exponent bound."""
    one = packing.one
    terms: dict = {}
    for e, c in b.items():
        _add_shifted(terms, a, e - one, c, q)
    packing.check(terms)
    return terms


class Ring:
    """A polynomial ring: ordered variable names over a FieldSpec, with a
    monomial order.

    packing is the order's layout of its monomials: every `Poly` of the
    ring, and every Groebner computation on its polynomials, keys terms by
    it.  Two rings are equal when their variables, fields and orders are.
    """

    __slots__ = ("variables", "field", "order", "packing", "_index")

    def __init__(
        self,
        variables: Sequence[str],
        field: FieldSpec,
        order: MonomialOrder = GREVLEX,
    ):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise RingMismatch("duplicate variable names")
        self.field = field
        self.order = order
        self.packing = order.packing(len(self.variables))
        self._index = {v: i for i, v in enumerate(self.variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Poly":
        return Poly._from_packed(self, {})

    def one(self) -> "Poly":
        return self.constant(self.field.one)

    def constant(self, c) -> "Poly":
        c = self.field.canon(c)
        return Poly._from_packed(self, {self.packing.one: c} if c else {})

    def var(self, i: int) -> "Poly":
        key = self.packing.one + self.packing.var[i]
        return Poly._from_packed(self, {key: self.field.one})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(i) for i in range(self.nvars))

    def monomial(self, exps: Sequence[int], c=1) -> "Poly":
        c = self.field.canon(c)
        return Poly._from_packed(self, {self.packing.pack(exps): c} if c else {})

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.variables == other.variables
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.variables, self.field, self.order))

    def __repr__(self):
        return f"Ring({', '.join(self.variables)}; {self.field}; {self.order})"


class Poly:
    """Immutable sparse polynomial; equality is term-map equality.

    packed is its one term map, {key in ring.packing: nonzero scalar};
    callers must not mutate it.  terms is the same map on exponent tuples,
    made on each read, for output and for code that reads exponents.
    """

    __slots__ = ("ring", "packed")

    def __init__(self, ring: Ring, terms: dict):
        """The polynomial with terms {exponent tuple: nonzero scalar}."""
        self.ring = ring
        self.packed = ring.packing.pack_terms(terms)

    @classmethod
    def _from_packed(cls, ring: Ring, packed: dict) -> "Poly":
        p = cls.__new__(cls)
        p.ring = ring
        p.packed = packed
        return p

    @property
    def terms(self) -> dict:
        """{exponent tuple: nonzero scalar}, a new dict in term-map order."""
        return self.ring.packing.unpack_terms(self.packed)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def constant_term(self):
        return self.packed.get(self.ring.packing.one, self.ring.field.zero)

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
        terms = dict(self.packed)
        _add_shifted(terms, other.packed, 0, c, self.ring.field.modulus)
        return Poly._from_packed(self.ring, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Poly._from_packed(
            self.ring, {e: neg(c) for e, c in self.packed.items()}
        )

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        return Poly._from_packed(
            ring,
            _product(self.packed, other.packed, ring.packing, ring.field.modulus),
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        ring = self.ring
        packing, q = ring.packing, ring.field.modulus
        result = ring.one().packed
        base = self.packed
        while n:
            if n & 1:
                result = _product(result, base, packing, q)
            if n > 1:
                base = _product(base, base, packing, q)
            n >>= 1
        return Poly._from_packed(ring, result)

    def scale(self, c):
        """Multiply by a scalar."""
        field = self.ring.field
        c = field.canon(c)
        if not c:
            return self.ring.zero()
        return Poly._from_packed(
            self.ring, {e: field.mul(v, c) for e, v in self.packed.items()}
        )

    # -- calculus / composition ----------------------------------------------

    def deriv(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i."""
        field = self.ring.field
        packing = self.ring.packing
        step = packing.var[i]
        terms: dict = {}
        for key, c in self.packed.items():
            k = packing.unpack(key)[i]
            if k:
                coeff = field.mul(c, field.from_int(k))
                if coeff:
                    terms[key - step] = coeff
        return Poly._from_packed(self.ring, terms)

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
        for p in images:
            if p.ring != target:
                raise RingMismatch("images live in different rings")
        packing, q = target.packing, target.field.modulus
        one = target.one().packed
        powers: list[list[dict]] = [[one, p.packed] for p in images]

        def power(i: int, k: int) -> dict:
            cache = powers[i]
            while len(cache) <= k:
                cache.append(_product(cache[-1], cache[1], packing, q))
            return cache[k]

        canon = target.field.canon
        result: dict = {}
        for e, c in self.terms.items():
            c = canon(c)
            if not c:
                continue
            term = {packing.one: c}
            for i, k in enumerate(e):
                if k:
                    term = _product(term, power(i, k), packing, q)
            _add_shifted(result, term, 0, 1, q)
        return Poly._from_packed(target, result)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.packed.items())))

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
        """The whole text as one packed term dict: each term is added as it
        is read, and a sum that cancels drops out."""
        field = self.ring.field
        pack = self.ring.packing.pack
        terms: dict = {}
        kind, val, _ = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.advance()
        while True:
            exps, c = self.term()
            key = pack(exps)
            if negate:
                c = field.neg(c)
            old = terms.get(key)
            c = c if old is None else field.add(old, c)
            if c:
                terms[key] = c
            elif old is not None:
                del terms[key]
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                negate = val == "-"
            elif kind == "end":
                return Poly._from_packed(self.ring, terms)
            else:
                raise ParseError(f"expected '+' or '-', got {val!r}", pos)

    def term(self) -> tuple[tuple[int, ...], object]:
        """(exponents, coefficient) of one term; the coefficient may be 0."""
        exps = [0] * self.ring.nvars
        kind, val, pos = self.peek()
        if kind == "int":
            c = self.coeff()
        elif kind == "ident":
            c = self.ring.field.one
            self.factor(exps)
        else:
            raise ParseError(f"expected coefficient or variable, got {val!r}", pos)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                self.factor(exps)
            else:
                return tuple(exps), c

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

    def factor(self, exps: list) -> None:
        """Multiply exps by one factor var^nat."""
        kind, val, pos = self.advance()
        if kind != "ident":
            raise ParseError(f"expected variable, got {val!r}", pos)
        idx = self.ring._index.get(val)
        if idx is None:
            raise UnknownVariable(val, pos)
        name = val
        exp = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos2 = self.advance()
            if kind != "int":
                raise ParseError(f"expected exponent, got {val!r}", pos2)
            exp = int(val)
        exps[idx] += exp
        if exps[idx] > BOUND:
            raise ExponentBoundExceeded(
                f"exponent {exps[idx]} of {name} is above {BOUND}"
                f" (at position {pos})"
            )


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
    items = sorted(p.terms.items(), key=lambda kv: GREVLEX.key(kv[0]), reverse=True)
    pieces = []
    for e, c in items:
        mono = format_monomial(p.ring, e)
        negative = c < 0  # over F_p never: a scalar there lies in [0, p)
        mag = -c if negative else c
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
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
    packing = ring.packing
    one = packing.one
    minors = {(): {one: ring.field.one}}  # the empty minor is 1
    for row in reversed(matrix):
        # the entries of this row with both signs, (-1)^i for the i-th
        # column of the new minor, and each term's key as an offset
        entries = [
            (
                j,
                [(e - one, c) for e, c in x.packed.items()],
                [(e - one, -c) for e, c in x.packed.items()],
            )
            for j, x in enumerate(row)
            if not x.is_zero
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
        for m in minors.values():
            packing.check(m)  # the next row shifts only keys within the bound
    return Poly._from_packed(ring, minors.get(tuple(range(n)), {}))


def jacobian_matrix(images: Sequence[Poly]) -> list[list[Poly]]:
    n = len(images)
    ring = images[0].ring
    if ring.nvars != n:
        raise NotSquareSystem(f"{n} polynomials in {ring.nvars} variables")
    return [[images[i].deriv(j) for j in range(n)] for i in range(n)]


def jacobian_det(images: Sequence[Poly]) -> Poly:
    """Determinant of the matrix of partial derivatives."""
    return det(jacobian_matrix(images))

"""Sparse multivariate polynomials over an exact field.

A polynomial is a map from monomials to nonzero scalars; the ring
records the variable names, the field and the monomial order.  All values
are immutable after construction and all operations are pure.

The text grammar (whitespace-insensitive)::

    expr   := ["-"] term (("+"|"-") term)*
    term   := coeff ("*" factor)* | factor ("*" factor)*
    factor := var ("^" nat)?
    coeff  := int ("/" posint)?

int, posint and nat are ASCII digits 0-9; any other digit is a ParseError.
Unary minus is allowed on the leading term only.  `parse_poly` is one loop
over the tokens that one `re.findall` returns as plain tuples: it builds
each term's key and coefficient directly, the key as one plus exponent
times the offset of each factor's variable, and adds the term to one
packed term dict for the whole text.  An error's position is found only
when the error is raised, by scanning the text again with the same regex.
A character outside the grammar is reported first, wherever it stands;
otherwise the error is that of the first token the grammar rejects.  An
exponent above orders.BOUND (32767) is rejected with ExponentBoundExceeded,
naming the variable and its position, as soon as its field sets its guard
bit, and so is a term of total degree above it in a GREVLEX ring, read off
the key's degree field at the end of the term.  A number with more digits
than the interpreter converts to an int (4,300 since CPython 3.11) is a
ParseError.

A ring carries its monomial order, and a monomial of the ring is one key
in the order's packing (see `orders`): an int whose comparison is the
monomial order, whose product with x^s adds the offset of x^s, and whose
divisibility is one mask test.  A `Poly` holds one term map on those keys,
`Poly.packed`, from the parser through arithmetic, Groebner bases and
normal forms to the formatter, which reads each printed monomial's
exponents off the fields of its GREVLEX key; `Poly.terms` unpacks it to
exponent tuples on each read, and `Poly.substitute` unpacks each key once.
A product checks its keys against the exponent bound before they are used
again (see `orders`), so a monomial past the bound raises
ExponentBoundExceeded instead of wrapping into another.

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
turns an int dict over a denominator back into canonical scalars, and is
where the integer form makes a `Fraction`; the step log of `_reduce` keeps
each multiplier as a numerator and a denominator.  Over F_p the integer
form is the canonical one, with denominator 1.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Sequence
from itertools import islice
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

from .errors import (
    AlgebraError,
    ExponentBoundExceeded,
    NotSquareSystem,
    ParseError,
    RingMismatch,
    UnknownVariable,
)
from .fields import FieldSpec, ratio
from .orders import BITS, BOUND, GREVLEX, MonomialOrder, Packing


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


def _divisor(terms: dict, q):
    """The divisor entry (leading key, leading coefficient, tail, None) of
    the monic polynomial terms / lc(terms), terms being a nonzero packed int
    term dict (q: modulus of F_q, None over Q) and the tail a new dict.

    Over F_q lc is 1 and the tail is monic.  Over Q the entry is the
    primitive integer multiple of the monic polynomial: lc is a positive
    int and gcd(lc, tail) is 1.  This is the working form of every
    Groebner-side divisor.  The fourth slot is the tag that `_reduce` logs
    with every step by the entry: a certifying Buchberger puts the entry's
    cofactor recipe there.
    """
    lead = max(terms)
    tail = dict(terms)
    lc = tail.pop(lead)
    if q is not None:
        inv = pow(lc, -1, q)
        return lead, 1, {e: v * inv % q for e, v in tail.items()}, None
    g = gcd(lc, *tail.values())
    if lc < 0:
        g = -g
    if g != 1:
        lc //= g
        tail = {e: v // g for e, v in tail.items()}
    return lead, lc, tail, None


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


def _lowest(nums: dict, den: int) -> tuple[dict, int]:
    """nums / den with den coprime to the content of nums (0 is ({}, 1))."""
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {e: v // g for e, v in nums.items()}, den // g


def _reduce(
    terms: dict, basis, packing: Packing, field, log=None, scale=1
) -> tuple[dict, int]:
    """(rem, scale'), the remainder of terms / scale on division by basis
    being rem / scale'; terms is consumed.

    terms and the divisors are packed in packing, whose order is the
    monomial order of the division.  Over Q, terms holds ints and scale is
    a positive int; over F_p scale is 1 and stays 1.  basis is a list of
    `_divisor` entries.  The first entry in list order whose leading monomial
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

    When log is a list, each step appends (tag, shift, c, den): the
    polynomial terms / scale gains (c / den) * x^shift * (divisor / lc),
    shift being an offset and tag the divisor entry's fourth slot.  c / den
    is the multiplier that division over the field by the monic divisor
    takes, kept as two ints and never made a scalar: over Q c = -cc and
    den = scale, unreduced; over F_p c is the field element and den is 1.
    Starting from the cofactor vector of terms / scale, replaying the log
    with the monic divisors' vectors gives the remainder's vector, so a
    caller pays for cofactors only when it keeps the remainder.  (Cox,
    Little, O'Shea, section 2.3.)
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
        # terms += k * x^shift * tail, after terms *= dc / g over Q; the
        # multiplier of the monic divisor is c / den
        if q is not None:
            c, den = -cc % q, 1
            k = c if dc == 1 else c * pow(dc, -1, q) % q
        else:
            c, den = -cc, scale
            g = gcd(cc, dc) if dc > 0 else -gcd(cc, dc)
            if g != dc:
                _rescale(terms, dc // g)
                scale *= dc // g
            k = c // g
        _add_shifted(terms, tail, shift, k, q)
        if log is not None:
            log.append((tag, shift, c, den))
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
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(self.field.one)

    def constant(self, c) -> "Poly":
        c = self.field.canon(c)
        return Poly(self, {self.packing.one: c} if c else {})

    def var(self, i: int) -> "Poly":
        key = self.packing.one + self.packing.var[i]
        return Poly(self, {key: self.field.one})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(i) for i in range(self.nvars))

    def __eq__(self, other):
        return self is other or (
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

    Poly(ring, packed) is the one constructor: packed is the term map,
    {key in ring.packing: nonzero canonical scalar}, taken as it is, not
    copied or checked, and callers must not mutate it afterwards.  terms is
    the same map on exponent tuples, made on each read, for output and for
    code that reads exponents.
    """

    __slots__ = ("ring", "packed")

    def __init__(self, ring: Ring, packed: dict):
        self.ring = ring
        self.packed = packed

    @property
    def terms(self) -> dict:
        """{exponent tuple: nonzero scalar}, a new dict in term-map order."""
        unpack = self.ring.packing.unpack
        return {unpack(k): c for k, c in self.packed.items()}

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
        return Poly(self.ring, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Poly(self.ring, {e: neg(c) for e, c in self.packed.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        return Poly(
            ring, _product(self.packed, other.packed, ring.packing, ring.field.modulus)
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
        return Poly(ring, result)

    # -- composition ---------------------------------------------------------

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
        unpack = self.ring.packing.unpack
        result: dict = {}
        for key, c in self.packed.items():
            c = canon(c)
            if not c:
                continue
            # the product of the powers of the images, then c times it
            term = one
            for i, k in enumerate(unpack(key)):
                if k:
                    x = power(i, k)
                    term = x if term is one else _product(term, x, packing, q)
            _add_shifted(result, term, 0, c, q)
        return Poly(target, result)

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

_TOKEN_RE = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^])|(\S)")

# the token after the last: every group empty
_END = ("", "", "", "")


def _position(text: str, i: int) -> int:
    """Where the i-th token of text starts; len(text) for the end."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    return len(text) if m is None else m.start()


def _int(digits: str, text: str, i: int) -> int:
    """The int of the digits of token i of text."""
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(
            f"number of {len(digits)} digits", _position(text, i)
        ) from None


def _expected(what: str, text: str, tokens: list, i: int) -> ParseError:
    """The error for token i of text where the grammar wants what."""
    got = "".join(tokens[i])
    return ParseError(f"expected {what}, got {got!r}", _position(text, i))


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse the grammar above; raises ParseError/UnknownVariable.

    Each token is the tuple of the four groups of _TOKEN_RE (digits, name,
    operator, other), one of them nonempty; a sum that cancels drops out
    of the term dict.
    """
    field = ring.field
    packing = ring.packing
    one, var = packing.one, packing.var
    top = BITS * ring.nvars
    low = (1 << top) - 1  # the exponent fields, below a GREVLEX degree
    guard = packing.guard & low
    index = ring._index
    tokens = _TOKEN_RE.findall(text)
    end = len(tokens)
    tokens.append(_END)
    terms: dict = {}
    try:
        negate = tokens[0][2] == "-"
        i = 1 if negate else 0
        while True:
            key = one
            num, name, _, _ = tokens[i]
            if num:  # coeff ("*" factor)*
                c = _int(num, text, i)
                i += 1
                if tokens[i][2] == "/":
                    i += 1
                    den = tokens[i][0]
                    if not den:
                        raise _expected("denominator", text, tokens, i)
                    den = _int(den, text, i)
                    if not den:
                        raise ParseError("zero denominator", _position(text, i))
                    c = field.canon(Fraction(c, den))
                    i += 1
                else:
                    c = field.from_int(c)
                more = tokens[i][2] == "*"
                i += more
            elif name:  # factor ("*" factor)*
                c = field.one
                more = True
            else:
                raise _expected("coefficient or variable", text, tokens, i)
            while more:  # factor := var ("^" nat)?
                name = tokens[i][1]
                if not name:
                    raise _expected("variable", text, tokens, i)
                k = index.get(name)
                if k is None:
                    raise UnknownVariable(name, _position(text, i))
                at = i
                if tokens[i + 1][2] == "^":
                    i += 2
                    exp = tokens[i][0]
                    if not exp:
                        raise _expected("exponent", text, tokens, i)
                    exp = _int(exp, text, i)
                else:
                    exp = 1
                key += exp * var[k]
                # a sum of two exponents within the bound that passes it sets
                # its field's guard bit; a larger exponent can carry further
                if exp > BOUND or key & guard:
                    exp += packing.unpack(key - exp * var[k] & low)[k]
                    raise ExponentBoundExceeded(
                        f"exponent {exp} of {name} is above {BOUND}"
                        f" (at position {_position(text, at)})"
                    )
                i += 1
                more = tokens[i][2] == "*"
                i += more
            # the GREVLEX degree field; a LEX key has no field above top
            if key >> top > BOUND:
                packing.overflow()
            if negate:
                c = field.neg(c)
            old = terms.get(key)
            c = c if old is None else field.add(old, c)
            if c:
                terms[key] = c
            elif old is not None:
                del terms[key]
            op = tokens[i][2]
            if op == "+" or op == "-":
                negate = op == "-"
                i += 1
            elif i == end:
                return Poly(ring, terms)
            else:
                raise _expected("'+' or '-'", text, tokens, i)
    except AlgebraError:
        for m in _TOKEN_RE.finditer(text):
            if m.group(4):
                raise ParseError(
                    f"unexpected character {m.group(4)!r}", m.start()
                ) from None
        raise


def format_poly(p: Poly) -> str:
    """Canonical text form, terms in descending GREVLEX order whatever the
    ring's order; round-trips through parse_poly.

    The terms are printed from their GREVLEX keys, which sort in that
    order: in another ring each key is unpacked once and re-keyed.  The
    exponent fields of a GREVLEX key, C - e_i with x_1 lowest, are read as
    one int by one subtraction, (one - key) & low, whose fields are the
    e_i; each variable's exponent is its lowest field, shifted down in
    turn.  The degree field is the top one and has no bound, so a LEX
    monomial past the GREVLEX degree bound re-keys and prints alike.
    """
    if p.is_zero:
        return "0"
    ring = p.ring
    names = ring.variables
    packing = ring.packing
    terms = p.packed
    if packing.order is not GREVLEX:
        unpack = packing.unpack
        packing = GREVLEX.packing(packing.n)
        terms = {
            sum(map(mul, unpack(k), packing.var), packing.one): c
            for k, c in terms.items()
        }
    one = packing.one
    low = (1 << BITS * packing.n) - 1
    mask = (1 << BITS) - 1
    pieces = []
    for k in sorted(terms, reverse=True):
        # the sign is read off the text of the scalar, so no Fraction is
        # compared or negated (over F_p a scalar lies in [0, p): never "-")
        c = str(terms[k])
        if c[0] == "-":
            pieces.append(" - ")
            c = c[1:]
        else:
            pieces.append(" + ")
        exps = (one - k) & low
        parts = []
        for v in names:
            e = exps & mask
            if e:
                parts.append(v if e == 1 else f"{v}^{e}")
            exps >>= BITS
        mono = "*".join(parts)
        if not mono:
            pieces.append(c)
        elif c == "1":
            pieces.append(mono)
        else:
            pieces.append(f"{c}*{mono}")
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


# -- matrices and determinants ---------------------------------------------


def _check_square(matrix) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NotSquareSystem("matrix is not square")
    return n


def det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant over the polynomial ring, without division.

    Laplace expansion with shared minors: walking the rows from the top
    down, keep the nonzero minors of the first k rows, keyed by their
    sorted column set, and build each (k+1)-minor by expanding along its
    new bottom row k, with the cofactor sign (-1)^(i+k) for the column at
    position i of the minor.  Each product a_kj * minor is added straight
    into the new minor's term dict by `_add_shifted`.  Zero entries and
    zero minors are skipped, so sparse and triangular matrices reach only
    the minors they can.

    The order is top-down because entry (i, j) of a divided-difference
    matrix vanishes when f_i does not involve x_j: a triangular map (f_i in
    x_1..x_i) gives a lower-triangular matrix, whose first k rows have one
    nonzero k-minor, where its last k rows have up to C(n, k).  On the
    Bezoutians of the first 56 structured-q benchmark jobs of seed 1, this
    cut the mean term operations of `_add_shifted` per determinant from 292
    to 113 on staircase maps, from 544 to 340 on realified z^m and from 124
    to 97 on triangular maps.  On the dense maps of the first 84 generic
    jobs the two orders are within 2 % (four quadrics: 2,664 against
    2,702).

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
    for k, row in enumerate(matrix):
        # the entries of row k with both signs, (-1)^(i+k) for the i-th
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
                for e, c in minus if (i + k) & 1 else plus:
                    _add_shifted(dst, minor, e, c, q)
        minors = {cols: m for cols, m in grown.items() if m}
        for m in minors.values():
            packing.check(m)  # the next row shifts only keys within the bound
    return Poly(ring, minors.get(tuple(range(n)), {}))


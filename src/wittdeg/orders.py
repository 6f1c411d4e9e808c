"""Monomial orders on exponent tuples, and the packed form of a monomial.

Variable precedence is declaration order (earlier variables are larger),
and the constant monomial is minimal (well-foundedness).

A ring is declared with its order (`poly.Ring`, as in Singular), and a
monomial of the ring is one int from the parser to the text output: its
key in the order's `Packing` for the ring's variable count, laid out so
that comparing two ints compares the two monomials (Bachmann &
Schoenemann, "Monomial representations for Groebner bases computations",
ISSAC 1998; Monagan & Pearce, JSC 46, 2011).  The text boundary works on
the key's fields too: the parser adds each factor's offset to the key,
and the printer reads the exponents off the fields of a GREVLEX key.  The
int is a row of BITS-bit fields, most significant first, and the top bit
of each field is a guard bit, so a field holds at most BOUND = 2^15 - 1:

    LEX      [e_1 | ... | e_n]
    GREVLEX  [e_1 + ... + e_n | C - e_n | ... | C - e_1]    (C = BOUND)

With one, the key of the constant monomial (0 under LEX), and guard, the
mask of the guard bits:

- the leading term of a term dict is max(terms), with no key function;
- the product x^a x^b has the key a + b - one, so multiplying by x^s adds
  the offset s - one to a key;
- with s = b + pad - a, x^a divides x^b exactly when s & guard == target,
  and x^b / x^a then has the offset s - pad.  GREVLEX has pad = one and
  target = 0; LEX has pad = target = guard;
- the lcm of two monomials is a few operations on all fields at once, and
  `Packing.lcms` takes it of one key with a whole list of keys, as the
  pair criteria of Buchberger's algorithm need it.

Every exponent is at most BOUND, and under GREVLEX so is the total degree.
A product or quotient of two keys within the bound has fields below
2 * BOUND, so a field past the bound sets its guard bit (under GREVLEX the
first field that runs below zero does) and the key still names its
monomial uniquely.  The kernel checks the keys it makes at the points
where they are reused, and `overflow` raises ExponentBoundExceeded instead
of letting a key wrap into another monomial.
"""

from __future__ import annotations

import struct
from functools import cache
from operator import mul

from .errors import AlgebraError, ExponentBoundExceeded

BITS = 16  # the width of one field, guard bit included
BOUND = (1 << BITS - 1) - 1  # the largest exponent: C = 2^15 - 1


class MonomialOrder:
    """A named total, multiplicative, well-founded order on monomials."""

    __slots__ = ("name", "_grevlex")

    def __init__(self, name, grevlex):
        self.name = name
        self._grevlex = grevlex

    @cache
    def packing(self, n: int) -> "Packing":
        """The packed layout of monomials in n variables under this order."""
        return Packing(self, n)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


GREVLEX = MonomialOrder("grevlex", True)
LEX = MonomialOrder("lex", False)

_BY_NAME = {"grevlex": GREVLEX, "lex": LEX}


def by_name(name: str) -> MonomialOrder:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise AlgebraError(f"unknown monomial order {name!r}") from None


def _fields(count: int, value: int) -> int:
    """value repeated in each of the count lowest fields."""
    return sum(value << BITS * i for i in range(count))


class Packing:
    """Keys of the monomials in n variables under one order (see above).

    pack and unpack convert one monomial between its exponent tuple and its
    key, for code that reads exponents one monomial at a time (a term map
    is converted key by key, as `Poly.terms` does); pack raises
    ExponentBoundExceeded past the bound.  var[i] is the offset of x_i.
    The attributes one, guard, pad and target are read directly by the
    kernel loops, and by the parser and the printer.
    """

    __slots__ = (
        "order", "n", "one", "guard", "pad", "target", "var",
        "_low", "_values", "_format", "_width",
    )

    def __init__(self, order: MonomialOrder, n: int):
        self.order = order
        self.n = n
        grevlex = order._grevlex
        top = BITS * n
        # the fields below the GREVLEX degree field, or all LEX fields
        self._low = (1 << top) - 1
        self._values = _fields(n, BOUND)
        if grevlex:
            self.one = self._values
            self.guard = _fields(n + 1, 1 << BITS - 1)
            self.pad, self.target = self.one, 0
            # x_i raises the degree field and lowers the field C - e_i
            self.var = tuple((1 << top) - (1 << BITS * i) for i in range(n))
            self._format = struct.Struct(f"<{n}H")
            self._width = 2 * (n + 1)
        else:
            self.one = 0
            self.guard = _fields(n, 1 << BITS - 1)
            self.pad = self.target = self.guard
            self.var = tuple(1 << BITS * (n - 1 - i) for i in range(n))
            self._format = struct.Struct(f">{n}H")
            self._width = 2 * n

    def overflow(self):
        bound = "a total degree" if self.order._grevlex else "an exponent"
        raise ExponentBoundExceeded(
            f"{bound} above {BOUND} in {self.n} variables under {self.order}"
        )

    def pack(self, exps) -> int:
        if self.order._grevlex:
            if sum(exps) > BOUND:
                self.overflow()
        elif exps and max(exps) > BOUND:
            self.overflow()
        return sum(map(mul, exps, self.var), self.one)

    def unpack(self, key: int) -> tuple:
        if self.order._grevlex:
            fields = self._format.unpack_from(key.to_bytes(self._width, "little"))
            return tuple(map(BOUND.__sub__, fields))
        return self._format.unpack(key.to_bytes(self._width, "big"))

    def degree(self, key: int) -> int:
        """The total degree of the monomial of key: under GREVLEX its top
        field, read by one shift (an lcm's degree up to 2C included), under
        LEX the sum of its exponents."""
        if self.order._grevlex:
            return key >> BITS * self.n
        return sum(self.unpack(key))

    def check(self, keys) -> None:
        """Raise ExponentBoundExceeded if a key has a guard bit set."""
        if any(map(self.guard.__and__, keys)):
            self.overflow()

    def lcms(self, leads, lead: int) -> list:
        """The keys of lcm(x^b, x^a) for each key b of leads and the key a of
        lead, in one pass, each field by field in parallel: with the guard
        bits set on a, a field of (a | guard) - b keeps its guard bit exactly
        where a's field is at least b's, and no field borrows.

        Under GREVLEX the total degree of an lcm can pass the bound; its
        field then holds it with the guard bit set, and the key still
        compares and names the lcm correctly.  A caller that shifts by it
        checks the guard bits first."""
        low, values = self._low, self._values
        guard = self.guard & low
        la = lead & low
        high = la | guard
        out = []
        if not self.order._grevlex:
            for b in leads:
                ge = (high - b) & guard
                ge -= ge >> BITS - 1  # the value bits of the fields where a >= b
                out.append(la & ge | b & (values ^ ge))
            return out
        # the fields are C - e: the larger exponent is the smaller field, and
        # the degree goes on top as `complete` puts it
        one, top, mod = self.one, BITS * self.n, (1 << BITS) - 1
        for b in leads:
            lb = b & low
            ge = (high - lb) & guard
            ge -= ge >> BITS - 1
            fields = lb & ge | la & (values ^ ge)
            out.append((one - fields) % mod << top | fields)
        return out

    def complete(self, fields: int) -> int:
        """The key whose n exponent fields are fields: under GREVLEX with its
        degree field put on top.  The fields are C - e; the degree, the sum
        of the exponents, is below 2^16 - 1 (at most 2C, as in an lcm), and
        a sum of fields is that number modulo 2^16 - 1."""
        if not self.order._grevlex:
            return fields
        degree = (self.one - fields) % ((1 << BITS) - 1)
        return degree << BITS * self.n | fields

    def halves(self) -> tuple[int, int, int]:
        """(xshift, ushift, mask) for keys in n = 2m variables: (key >>
        xshift) & mask are the exponent fields of its first m variables,
        and (key >> ushift) & mask those of the others, each as `complete`
        in the packing of m variables takes them."""
        m = self.n // 2
        width = BITS * m
        if self.order._grevlex:  # the fields of x_1 are the lowest
            return 0, width, (1 << width) - 1
        return width, 0, (1 << width) - 1

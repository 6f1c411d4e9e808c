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

The doubled ring k[x, u] of the Bezoutian, x and u in n variables each,
has the block order `MonomialOrder.pairs` of two copies of its ring's
order, as Singular's (dp(n), dp(n)): x^a u^b is compared by x^a first,
then by u^b.  Its key is a pair of keys of the ring's own packing, with W
the width of one of them (BITS * (n + 1) under GREVLEX, BITS * n under
LEX):

    key(x^a u^b) = key(x^a) << W | key(u^b)

so a shift and a mask split it into the two quotient keys.  one and guard
are the pairs (one, one) and (guard, guard), x_i has the offset var[i] << W
and u_i the offset var[i].  Products still add keys, and each half keeps
its own guard bits: a half past the bound sets a guard bit of that half,
and a borrow in the u-half never reaches the x-half, as the degree field
on top of the u-half, at least 1 when an exponent field runs below zero,
absorbs it.  Lex on x, then lex on u, is lex on (x, u), and the
pair layout of two LEX keys is the LEX key in 2n variables bit for bit, so
`LEX.pairs` is LEX itself; only GREVLEX pairs into an order of its own.
"""

from __future__ import annotations

import struct
from functools import cache
from operator import mul

from .errors import AlgebraError, ExponentBoundExceeded, Frozen

BITS = 16  # the width of one field, guard bit included
BOUND = (1 << BITS - 1) - 1  # the largest exponent: C = 2^15 - 1
MASK = (1 << BITS) - 1  # one field


class MonomialOrder(Frozen):
    """A named total, multiplicative, well-founded order on monomials; two
    orders of one name and one layout (the grevlex flag) are equal, and
    share their packings.

    pairs is the block order of two copies of this one, the order of the
    doubled ring (see the module docstring).  A block order is made only
    as the pairs of its GREVLEX block, which it keeps in _block, and its
    own pairs is None."""

    __slots__ = ("name", "grevlex", "_block", "pairs")

    def __init__(self, name, grevlex):
        # LEX pairs into itself, a GREVLEX order into a block order of two
        # copies of it, which is not paired again (see above)
        pairs = self
        if grevlex:
            pairs = object.__new__(MonomialOrder)
            Frozen.__init__(pairs, f"({name}, {name})", True, self, None)
        super().__init__(name, grevlex, None, pairs)

    @cache
    def packing(self, n: int) -> "Packing | PairPacking":
        """The packed layout of monomials in n variables under this order."""
        if self._block is None:
            return Packing(self, n)
        if n % 2:
            raise AlgebraError(f"{self} pairs two blocks, not {n} variables")
        return PairPacking(self, self._block.packing(n // 2))

    def __eq__(self, other):
        same = isinstance(other, MonomialOrder)
        return same and (self.name, self.grevlex) == (other.name, other.grevlex)

    def __hash__(self):
        return hash((self.name, self.grevlex))

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


# one Struct per layout, shared by the packings that use it
_struct = cache(struct.Struct)


def _fields(count: int, value: int) -> int:
    """value repeated in each of the count lowest fields."""
    return sum(value << BITS * i for i in range(count))


class Packing(Frozen):
    """Keys of the monomials in n variables under one order (see above).

    pack and unpack convert one monomial between its exponent tuple and its
    key, for code that reads exponents one monomial at a time (a term map
    is converted key by key, as `Poly.terms` does); pack raises
    ExponentBoundExceeded past the bound.  var[i] is the offset of x_i,
    and width the bit length of a key within the bound.  The attributes
    one, guard, pad and target are read directly by the kernel loops, and
    by the parser and the printer.
    """

    __slots__ = (
        "order", "n", "one", "guard", "pad", "target", "var", "width",
        "_low", "_values", "_format",
    )

    def __init__(self, order: MonomialOrder, n: int):
        top = BITS * n
        values = _fields(n, BOUND)
        if order.grevlex:
            one = pad = values
            guard, target = _fields(n + 1, 1 << BITS - 1), 0
            # x_i raises the degree field and lowers the field C - e_i
            var = tuple((1 << top) - (1 << BITS * i) for i in range(n))
            form, width = _struct(f"<{n}H"), top + BITS
        else:
            one = 0
            guard = pad = target = _fields(n, 1 << BITS - 1)
            var = tuple(1 << BITS * (n - 1 - i) for i in range(n))
            form, width = _struct(f">{n}H"), top
        super().__init__(
            order, n, one, guard, pad, target, var, width,
            # the fields below the GREVLEX degree field, or all LEX fields
            _low=(1 << top) - 1, _values=values, _format=form,
        )

    def overflow(self):
        bound = "a total degree" if self.order.grevlex else "an exponent"
        raise ExponentBoundExceeded(
            f"{bound} above {BOUND} in {self.n} variables under {self.order}"
        )

    def pack(self, exps) -> int:
        if self.order.grevlex:
            if sum(exps) > BOUND:
                self.overflow()
        elif exps and max(exps) > BOUND:
            self.overflow()
        return sum(map(mul, exps, self.var), self.one)

    def unpack(self, key: int) -> tuple:
        if self.order.grevlex:
            data = key.to_bytes(self.width >> 3, "little")
            return tuple(map(BOUND.__sub__, self._format.unpack_from(data)))
        return self._format.unpack(key.to_bytes(self.width >> 3, "big"))

    def exponent(self, key: int, i: int) -> int:
        """The exponent of x_i in the monomial of key, read off its field
        by one shift and mask (a GREVLEX field holds C - e_i)."""
        if self.order.grevlex:
            return BOUND - (key >> BITS * i & MASK)
        return key >> BITS * (self.n - 1 - i) & MASK

    def degree(self, key: int) -> int:
        """The total degree of the monomial of key: under GREVLEX its top
        field, read by one shift (an lcm's degree up to 2C included), under
        LEX the sum of its exponents."""
        if self.order.grevlex:
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
        if not self.order.grevlex:
            for b in leads:
                ge = (high - b) & guard
                ge -= ge >> BITS - 1  # the value bits of the fields where a >= b
                out.append(la & ge | b & (values ^ ge))
            return out
        # the fields are C - e: the larger exponent is the smaller field.
        # The degree, the sum of the exponents, goes on top: it is below
        # 2^16 - 1 (at most 2C), and a sum of fields is that number modulo
        # 2^16 - 1
        one, top, mod = self.one, BITS * self.n, (1 << BITS) - 1
        for b in leads:
            lb = b & low
            ge = (high - lb) & guard
            ge -= ge >> BITS - 1
            fields = lb & ge | la & (values ^ ge)
            out.append((one - fields) % mod << top | fields)
        return out


class PairPacking(Frozen):
    """Keys of the monomials x^a u^b of the doubled ring under the block
    order GREVLEX.pairs: the pair half.pack(a) << W | half.pack(b), half the
    GREVLEX packing of one block and W its width (see the module
    docstring).

    It has the attributes and the checks of a `Packing` that the kernel,
    `det` and `Poly` read, so a polynomial of the doubled ring multiplies,
    reduces and prints as any other; it has no pack, since the Bezoutian
    builds its keys by offsets.  unpack reads the exponent fields of
    both halves by one struct call, u's first, as the key's little-endian
    bytes hold them.  The parser refuses its rings: the degree field of a
    u-half is not checked until the end of a term, and could carry into
    the x-half before it is.
    """

    __slots__ = (
        "order", "n", "one", "guard", "pad", "target", "var", "half", "_format",
    )

    def __init__(self, order: MonomialOrder, half: Packing):
        m, w = half.n, half.width
        super().__init__(
            order,
            2 * m,
            half.one << w | half.one,
            half.guard << w | half.guard,
            half.pad << w | half.pad,
            half.target << w | half.target,
            tuple(v << w for v in half.var) + half.var,
            half,
            # C - e of u_1..u_m, u's degree field skipped, C - e of x_1..x_m
            _struct(f"<{m}H2x{m}H"),
        )

    overflow = Packing.overflow
    check = Packing.check

    def unpack(self, key: int) -> tuple:
        half = self.half
        data = key.to_bytes(half.width >> 2, "little")
        fields, m = self._format.unpack_from(data), half.n
        return tuple(map(BOUND.__sub__, fields[m:] + fields[:m]))

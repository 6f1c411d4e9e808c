"""Buchberger's algorithm with reduced bases and optional cofactor tracking.

Normal forms, Buchberger's reductions and the autoreduction of the final
basis all run the division kernel of `poly` (`_reduce`, with `_entry` and
`_add_shifted`).  It works on one mutable term dict, reads each divisor's
leading term from a precomputed entry, and keeps only the remainder: no
caller here needs the quotients.  Pending S-pairs wait in a heap keyed by
the order key of their lcm, computed once when the pair is formed.

Each QuotientAlgebra keeps one memoized table of monomial normal forms,
seeded with the standard monomials (each its own normal form).  A missing
entry is NF(x^a) = NF(x_i * NF(x^(a - e_i))): one shift by e_i of a
polynomial with at most `dimension` terms, then one reduction.  The
origin-support test walks NF(x_i^k) for k = 0, 1, ..., D through this table
and stops at the first zero power, since every higher power is then zero;
only a nonzero D-th power, D the length, makes x_i non-nilpotent.  The
degree pipeline reuses the same table for the Gram matrix.

Cofactors express every basis element exactly as a combination of the input
generators; they are what certificate extraction (1 = sum c_i * g_i) needs.
Everything is deterministic: normal selection strategy (smallest lcm first,
ties by input index), basis sorted by leading monomial.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import Optional, Sequence

from .errors import InternalError, NotFiniteLength, RingMismatch
from .orders import GREVLEX, MonomialOrder
from .poly import Poly, Ring, _add_shifted, _divides, _entry, _reduce


def _common_ring(polys: Sequence[Poly]) -> Ring:
    ring = polys[0].ring
    for p in polys:
        if p.ring != ring:
            raise RingMismatch("generators live in different rings")
    return ring


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, optionally with generator cofactors.

    When cofactors are present, basis[k] == sum(cofactors[k][m] *
    generators[m]) holds exactly.
    """

    generators: tuple[Poly, ...]
    basis: tuple[Poly, ...]
    order: MonomialOrder
    cofactors: Optional[tuple[tuple[Poly, ...], ...]] = None

    @property
    def ring(self) -> Ring:
        return self.generators[0].ring


def buchberger(
    gens: Sequence[Poly],
    order: MonomialOrder = GREVLEX,
    track_cofactors: bool = False,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Output is independent of generator order and duplication (uniqueness of
    the reduced basis); cofactors are relative to the given generator list.
    """
    if not gens:
        raise RingMismatch("need at least one generator")
    ring = _common_ring(gens)
    field = ring.field
    q = field.modulus
    minus_one = field.from_int(-1)
    m = len(gens)
    # monic working basis as _entry tuples, in order of discovery
    work: list[tuple] = []
    # heap of pending pairs (order key of their lcm, i, j): smallest lcm first
    pairs: list[tuple] = []

    def append(terms: dict, cof) -> None:
        """Reduce terms by the working basis and keep a nonzero remainder."""
        rem = _reduce(terms, work, order, field, cof)
        if not rem:
            return
        lead, lc, tail, _ = _entry(rem, order)
        inv = field.inv(lc)
        tail = {e: field.mul(v, inv) for e, v in tail.items()}
        if cof is not None:
            cof = [{e: field.mul(v, inv) for e, v in c.items()} for c in cof]
        for i, w in enumerate(work):
            lcm = tuple(map(max, w[0], lead))
            heapq.heappush(pairs, (order.key(lcm), i, len(work)))
        work.append((lead, field.one, tail, cof))

    for k, g in enumerate(gens):
        if g.is_zero:
            continue
        cof = None
        if track_cofactors:
            cof = [{} for _ in range(m)]
            cof[k] = {(0,) * ring.nvars: field.one}
        append(dict(g.terms), cof)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        li, _, tail_i, cof_i = work[i]
        lj, _, tail_j, cof_j = work[j]
        lcm = tuple(map(max, li, lj))
        if lcm == tuple(map(add, li, lj)):
            continue  # coprime leading monomials: S-polynomial reduces to 0
        si = tuple(map(sub, lcm, li))
        sj = tuple(map(sub, lcm, lj))
        # x^si * f_i - x^sj * f_j: both are monic, so the leading terms cancel
        s = {}
        _add_shifted(s, tail_i, si, field.one, q)
        _add_shifted(s, tail_j, sj, minus_one, q)
        cof = None
        if track_cofactors:
            cof = [{} for _ in range(m)]
            for dst, a, b in zip(cof, cof_i, cof_j):
                _add_shifted(dst, a, si, field.one, q)
                _add_shifted(dst, b, sj, minus_one, q)
        append(s, cof)

    return _reduce_basis(tuple(gens), work, order, track_cofactors)


def _reduce_basis(gens, work, order, track) -> GroebnerBasis:
    ring = gens[0].ring
    # minimal basis: drop elements whose leading monomial another divides
    work = sorted(work, key=lambda w: order.key(w[0]))
    kept: list[tuple] = []
    for w in work:
        if not any(_divides(k[0], w[0]) for k in kept):
            kept.append(w)
    # autoreduce tails until stable
    changed = True
    while changed:
        changed = False
        for idx, (lead, lc, tail, cof) in enumerate(kept):
            terms = {lead: lc, **tail}
            others = kept[:idx] + kept[idx + 1 :]
            # cof changes in place only when a reduction step happens, and
            # then the remainder differs from terms and replaces the entry
            rem = _reduce(dict(terms), others, order, ring.field, cof)
            if rem != terms:
                kept[idx] = _entry(rem, order, cof)
                changed = True
    kept.sort(key=lambda w: order.key(w[0]))
    return GroebnerBasis(
        generators=gens,
        basis=tuple(Poly(ring, {lead: lc, **tail}) for lead, lc, tail, _ in kept),
        order=order,
        cofactors=(
            tuple(tuple(Poly(ring, c) for c in w[3]) for w in kept) if track else None
        ),
    )


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    """Remainder of p modulo the basis; supported on standard monomials."""
    if p.ring != gb.ring:
        raise RingMismatch("polynomial not in the basis ring")
    basis = [_entry(g.terms, gb.order) for g in gb.basis]
    return Poly(p.ring, _reduce(dict(p.terms), basis, gb.order, p.ring.field))


@dataclass(frozen=True)
class QuotientAlgebra:
    """k[x]/I with a finite standard-monomial basis.

    monomials are the exponent tuples outside the leading-term ideal,
    sorted ascending in the basis order; dimension is their count (the
    length of the quotient).  monomial_nf memoizes the normal forms of
    monomials, so every user of one quotient shares a single table.
    """

    gb: GroebnerBasis
    monomials: tuple[tuple[int, ...], ...]
    dimension: int

    @property
    def ring(self) -> Ring:
        return self.gb.ring

    @cached_property
    def _divisors(self) -> list:
        return [_entry(g.terms, self.gb.order) for g in self.gb.basis]

    @cached_property
    def _nf_table(self) -> dict:
        """NF(x^a) by a, seeded with the standard monomials and NF(1)."""
        field = self.ring.field
        table = {m: {m: field.one} for m in self.monomials}
        one = (0,) * self.ring.nvars
        if one not in table:  # the unit ideal: NF(1) = 0
            order = self.gb.order
            table[one] = _reduce({one: field.one}, self._divisors, order, field)
        return table

    def monomial_nf(self, a: tuple[int, ...]) -> dict:
        """Term dict of NF(x^a), memoized; callers must not mutate it.

        A missing entry is built as NF(x_i * NF(x^(a - e_i))), lowering the
        first nonzero exponent of a until a memoized monomial is reached:
        each step shifts a polynomial of at most `dimension` standard terms
        by e_i and reduces the few terms that leave the standard basis.
        Normal forms are linear and NF(x_i * p) = NF(x_i * NF(p)), so every
        entry equals the direct normal form of x^a.
        """
        table = self._nf_table
        chain = []
        while a not in table:
            i = next(i for i, k in enumerate(a) if k)
            unit = (0,) * i + (1,) + (0,) * (len(a) - i - 1)
            chain.append((a, unit))
            a = tuple(map(sub, a, unit))
        nf = table[a]
        field = self.ring.field
        for a, unit in reversed(chain):
            terms = {}
            _add_shifted(terms, nf, unit, field.one, field.modulus)
            nf = table[a] = _reduce(terms, self._divisors, self.gb.order, field)
        return nf


def standard_monomials(gb: GroebnerBasis) -> QuotientAlgebra:
    """Monomial basis of the quotient; errors if it is infinite.

    Finiteness test: every variable must have a pure power among the leading
    monomials.  Standard monomials then live in the box bounded by those
    pure powers.
    """
    ring = gb.ring
    n = ring.nvars
    leads = [g.leading(gb.order)[0] for g in gb.basis]
    if any(sum(e) == 0 for e in leads):
        # the ideal is the whole ring; the quotient is the zero ring
        return QuotientAlgebra(gb=gb, monomials=(), dimension=0)
    box = [None] * n
    for e in leads:
        nz = [i for i, x in enumerate(e) if x]
        if len(nz) == 1:
            i = nz[0]
            if box[i] is None or e[i] < box[i]:
                box[i] = e[i]
    missing = [ring.variables[i] for i in range(n) if box[i] is None]
    if missing:
        raise NotFiniteLength(
            "no pure power of "
            + ", ".join(missing)
            + " among the leading monomials"
        )
    std = [
        exps
        for exps in itertools.product(*(range(b) for b in box))
        if not any(_divides(le, exps) for le in leads)
    ]
    std.sort(key=gb.order.key)
    return QuotientAlgebra(gb=gb, monomials=tuple(std), dimension=len(std))


def supported_only_at_origin(qa: QuotientAlgebra) -> bool:
    """True iff every variable is nilpotent in the quotient.

    x_i^D lies in the ideal iff the multiplication operator by x_i is
    nilpotent (its minimal polynomial has degree at most D), so testing the
    D-th powers is exact.  The powers are walked one multiplication at a
    time through the quotient's normal-form table, from x_i^0 = 1, and the
    walk stops at the first power that is zero: every higher power is then
    zero too.  Only a variable whose D-th power is nonzero is reported.
    For D = 0 the ideal is the whole ring and NF(1) = 0 already.
    """
    n = qa.ring.nvars
    d = qa.dimension
    for i in range(n):
        for k in range(d + 1):
            if not qa.monomial_nf((0,) * i + (k,) + (0,) * (n - i - 1)):
                break
        else:
            return False
    return True


def contains_one_with_certificate(
    gens: Sequence[Poly], order: MonomialOrder = GREVLEX
):
    """Cofactors (c_1, ..., c_m) with sum(c_i * gens_i) == 1, or None.

    The identity is re-verified by exact expansion before returning.
    """
    gb = buchberger(gens, order, track_cofactors=True)
    if len(gb.basis) != 1 or gb.basis[0] != gens[0].ring.one():
        return None
    cert = gb.cofactors[0]
    total = gens[0].ring.zero()
    for c, g in zip(cert, gens):
        total = total + c * g
    if total != gens[0].ring.one():
        raise InternalError("cofactor identity failed to expand to 1")
    return cert

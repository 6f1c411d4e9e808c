"""Buchberger's algorithm with reduced bases and optional cofactor tracking.

Normal forms, Buchberger's reductions and the autoreduction of the final
basis all run the division kernel of `poly` (`_reduce`, with `_entry` and
`_add_shifted`).  It works on one mutable term dict, reads each divisor's
leading term from a precomputed entry, and keeps only the remainder: no
caller here needs the quotients.  Pending S-pairs wait in a heap keyed by
the order key of their lcm, computed once when the pair is formed.

When an element t joins the working basis, its new pairs (i, t) pass the
Gebauer-Moeller criteria (Gebauer & Moeller, JSC 6, 1988), which refine
Buchberger's second criterion (EUROSAM 1979).  The pairs are grouped by
lcm and each group keeps its first i (F); a group goes if any member has
coprime leading monomials (the product criterion), or if the lcm of
another new pair, coprime ones included, properly divides its lcm (M).
Every dropped S-polynomial reduces to zero, so the reduced basis is
unchanged; on the generic benchmark (seed 1, 42 jobs) the criteria cut
the reductions from 1,236 to 678, and a 3-variable LEX ideal over Q from
365 to 58.  Two refinements are left out.  The chain criterion B_k on
pending pairs saves no reduction there: it drops no pair on generic, and
on rows only pairs that stopping at the unit drops anyway.  Pruning
basis elements whose leading monomial the new one divides changes the
reducers, and with it goldens 11 and 23 changed and the row certificates
of 42 jobs grew from 44.6 KB to 54.7 KB.

Each QuotientAlgebra keeps one memoized table of monomial normal forms,
seeded with the standard monomials (each its own normal form).  A missing
entry is NF(x^a) = NF(x_i * NF(x^(a - e_i))): one shift by e_i of a
polynomial with at most `dimension` terms, then one reduction.  The
origin-support test walks NF(x_i^k) for k = 0, 1, ..., D through this table
and stops at the first zero power, since every higher power is then zero;
only a nonzero D-th power, D the length, makes x_i non-nilpotent.  The
degree pipeline reuses the same table for the Gram matrix.

Cofactors express every basis element exactly as a combination of the input
generators.  The cofactors of the unit basis {1} are the certificate
1 = sum c_i * g_i: contains_one_with_certificate returns them unchecked, and
umrow.is_unimodular, which owns the certificate, checks them once, modulo
the relations.  Buchberger stops as soon as 1 enters the working basis: 1
divides every later remainder, so the pending pairs are dropped.  Cofactors
are built lazily.  While Buchberger runs, a working entry carries only
a recipe: its discovery index, its origin (a generator index, or the S-pair
parents and their shifts), the step log of its reduction and the inverse
that made it monic.  A remainder that reduces to zero, as most S-polynomials
do, keeps nothing.  Once the minimal basis is chosen, only its entries and
their ancestors are replayed, in discovery order, with the same
`_add_shifted` calls in the same order as eager tracking would make, so the
cofactors are identical term for term.  Autoreduction then replays its own
step logs into the kept vectors.

Everything is deterministic: normal selection strategy (smallest lcm first,
ties by input index), basis sorted by leading monomial.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import le, sub
from typing import Optional, Sequence

from .errors import NotFiniteLength, RingMismatch
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
    generators[m]) holds exactly.  They are replayed from recipes for the
    returned basis only (see the module docstring), and equal what tracking
    every intermediate vector would give.
    """

    generators: tuple[Poly, ...]
    basis: tuple[Poly, ...]
    order: MonomialOrder
    cofactors: Optional[tuple[tuple[Poly, ...], ...]] = None

    @property
    def ring(self) -> Ring:
        return self.generators[0].ring

    @cached_property
    def _divisors(self) -> list:
        """The basis as `_entry` tuples: the divisors of every reduction."""
        return [_entry(g.terms, self.order) for g in self.basis]


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
    # monic working basis as _entry tuples, in order of discovery; the fourth
    # slot is the entry's cofactor recipe, or None when cofactors are off
    work: list[tuple] = []
    degs: list[int] = []  # total degree of each working leading monomial
    # heap of pending pairs (order key of their lcm, i, j): smallest lcm first
    pairs: list[tuple] = []

    def append(terms: dict, origin) -> None:
        """Reduce terms by the working basis and keep a nonzero remainder."""
        log = None if origin is None else []
        rem = _reduce(terms, work, order, field, log)
        if not rem:
            return
        lead, lc, tail, _ = _entry(rem, order)
        inv = field.inv(lc)
        tail = {e: field.mul(v, inv) for e, v in tail.items()}
        t = len(work)
        deg = sum(lead)
        # the new pairs (i, t) by lcm: the first i of each group, and whether
        # any member has coprime leading monomials (F and the product
        # criterion)
        groups: dict = {}
        for i, w in enumerate(work):
            lcm = tuple(map(max, w[0], lead))
            coprime = sum(lcm) == degs[i] + deg
            group = groups.get(lcm)
            if group is None:
                groups[lcm] = [i, coprime]
            elif coprime:
                group[1] = True
        # M: a proper divisor has a smaller total degree, so it comes first
        minimal: list = []
        for lcm in sorted(groups, key=sum):
            if not any(all(map(le, m, lcm)) for m in minimal):
                minimal.append(lcm)
                i, coprime = groups[lcm]
                if not coprime:
                    heapq.heappush(pairs, (order.key(lcm), i, t))
        recipe = None if origin is None else (t, origin, log, inv)
        work.append((lead, field.one, tail, recipe))
        degs.append(deg)
        if not deg:
            pairs.clear()  # 1 is in the ideal: every pending pair reduces to 0

    for k, g in enumerate(gens):
        if not g.is_zero:
            append(dict(g.terms), k if track_cofactors else None)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        li, _, tail_i, _ = work[i]
        lj, _, tail_j, _ = work[j]
        lcm = tuple(map(max, li, lj))
        si = tuple(map(sub, lcm, li))
        sj = tuple(map(sub, lcm, lj))
        # x^si * f_i - x^sj * f_j: both are monic, so the leading terms cancel
        s = {}
        _add_shifted(s, tail_i, si, field.one, q)
        _add_shifted(s, tail_j, sj, minus_one, q)
        append(s, (i, j, si, sj) if track_cofactors else None)

    return _reduce_basis(tuple(gens), work, order, track_cofactors)


def _replay(cof: list, log: list, cofs: list, q) -> None:
    """cof += the steps of a `_reduce` log, tags being recipes into cofs."""
    for tag, shift, c in log:
        for dst, src in zip(cof, cofs[tag[0]]):
            _add_shifted(dst, src, shift, c, q)


def _cofactors(work: list, kept: list, m: int, ring: Ring) -> list:
    """Cofactor vectors, by discovery index, of kept and its ancestors.

    An entry's ancestors are its S-pair parents and the divisors in its step
    log, all discovered before it.  One descending pass marks them; one
    ascending pass replays each marked recipe exactly as it was built: the
    unit vector or the shifted parent vectors, the logged steps, then the
    normalising inverse.  Every other entry gets None.
    """
    field = ring.field
    q = field.modulus
    minus_one = field.from_int(-1)
    needed = [False] * len(work)
    for w in kept:
        needed[w[3][0]] = True
    for idx in range(len(work) - 1, -1, -1):
        if needed[idx]:
            _, origin, log, _ = work[idx][3]
            if not isinstance(origin, int):
                needed[origin[0]] = needed[origin[1]] = True
            for tag, _, _ in log:
                needed[tag[0]] = True
    cofs: list = [None] * len(work)
    for idx, w in enumerate(work):
        if not needed[idx]:
            continue
        _, origin, log, inv = w[3]
        cof = [{} for _ in range(m)]
        if isinstance(origin, int):
            cof[origin] = {(0,) * ring.nvars: field.one}
        else:
            i, j, si, sj = origin
            for dst, a, b in zip(cof, cofs[i], cofs[j]):
                _add_shifted(dst, a, si, field.one, q)
                _add_shifted(dst, b, sj, minus_one, q)
        _replay(cof, log, cofs, q)
        cofs[idx] = [{e: field.mul(v, inv) for e, v in c.items()} for c in cof]
    return cofs


def _reduce_basis(gens, work, order, track) -> GroebnerBasis:
    ring = gens[0].ring
    field = ring.field
    # minimal basis: drop elements whose leading monomial another divides
    kept: list[tuple] = []
    for w in sorted(work, key=lambda w: order.key(w[0])):
        if not any(_divides(k[0], w[0]) for k in kept):
            kept.append(w)
    log = None
    if track:
        cofs = _cofactors(work, kept, len(gens), ring)
        log = []
    # autoreduce the tails in one pass: leads never change, so an entry stays
    # reduced when later ones are.  The kept entries keep their recipes as
    # tags, and a step log is replayed into the reduced entry's vector
    for idx, (lead, lc, tail, recipe) in enumerate(kept):
        terms = {lead: lc, **tail}
        others = kept[:idx] + kept[idx + 1 :]
        rem = _reduce(dict(terms), others, order, field, log)
        if rem != terms:
            if track:
                _replay(cofs[recipe[0]], log, cofs, field.modulus)
                log.clear()
            kept[idx] = _entry(rem, order, recipe)
    kept.sort(key=lambda w: order.key(w[0]))
    return GroebnerBasis(
        generators=gens,
        basis=tuple(Poly(ring, {lead: lc, **tail}) for lead, lc, tail, _ in kept),
        order=order,
        cofactors=(
            tuple(tuple(Poly(ring, c) for c in cofs[w[3][0]]) for w in kept)
            if track
            else None
        ),
    )


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    """Remainder of p modulo the basis; supported on standard monomials."""
    if p.ring != gb.ring:
        raise RingMismatch("polynomial not in the basis ring")
    return Poly(p.ring, _reduce(dict(p.terms), gb._divisors, gb.order, p.ring.field))


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
    def _nf_table(self) -> dict:
        """NF(x^a) by a, seeded with the standard monomials and NF(1)."""
        field = self.ring.field
        table = {m: {m: field.one} for m in self.monomials}
        one = (0,) * self.ring.nvars
        if one not in table:  # the unit ideal: NF(1) = 0
            order = self.gb.order
            table[one] = _reduce({one: field.one}, self.gb._divisors, order, field)
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
            nf = table[a] = _reduce(terms, self.gb._divisors, self.gb.order, field)
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

    Buchberger with cofactors: the cofactors of the unit basis, unchecked
    here (umrow.is_unimodular checks each certificate once), or None when
    the basis is not {1}.
    """
    gb = buchberger(gens, order, track_cofactors=True)
    if len(gb.basis) != 1 or gb.basis[0] != gens[0].ring.one():
        return None
    return gb.cofactors[0]

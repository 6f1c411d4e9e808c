"""Buchberger's algorithm with reduced bases and optional cofactor tracking.

Normal forms, Buchberger's reductions and the autoreduction of the final
basis all run the division kernel of `poly` (`_reduce`, with `_divisor`
and `_add_shifted`).  It works on one mutable term dict, reads each
divisor's leading term from a precomputed entry, and keeps only the
remainder: no caller here needs the quotients.  Pending S-pairs wait in a
heap keyed by their lcm, computed once when the pair is formed.

A monomial is its key in the ring's `Packing` (see `orders`), the one
the polynomials already hold: the leading term is the largest key, a
shift adds an offset, divisibility is one mask test and the lcm of two
leads is a parallel field maximum.  The order of every computation here
is the ring's.  Generators and polynomials to reduce come in as their
term maps, and the basis, cofactors and normal forms go out as term maps
on the same keys.  A quotient is its standard monomials' keys, and
exponent tuples appear only in the views `QuotientAlgebra.monomials` and
`monomial_nf`, made on each read.  A monomial made on the way
that passes the exponent bound (orders.BOUND, and under GREVLEX the total
degree too) raises ExponentBoundExceeded: `_reduce` checks each leading
key, the lcm of a pair is checked when the pair is queued, and a cofactor
vector before it is shifted again.  (The lcm of a coprime pair, which is
never queued, may pass the GREVLEX degree bound.)

Over Q the Groebner side runs on ints: primitive pseudo-reduction, as in
Buchberger's algorithm over Z (Gebauer & Moeller, JSC 6, 1988; Cox,
Little & O'Shea, section 2.7).  A working entry is the primitive integer
multiple f = c * x^lead + tail of its monic polynomial, with c > 0
(`poly._divisor`); over F_p it is monic, c = 1.  A reduction step is a
pseudo-division (`poly._reduce`), and the S-polynomial of f_i and f_j is
(c_j/g) x^s_i f_i - (c_i/g) x^s_j f_j with g = gcd(c_i, c_j), which is
c_i c_j / g times the S-polynomial of the monic pair.  Scaling by a
positive number changes no zero pattern, so the divisor of every step,
the pairs and the criteria are those of Buchberger over the field, and
the remainders are the same up to a positive factor.  Canonical Q
scalars, and with them `Fraction`, appear only at the boundary: the
returned basis is made monic once; a step log, kept only for cofactors,
holds the multiplier of the monic algorithm, one scalar per step;
normal_form converts its remainder; and the Gram build converts the
quotient table's integer entries (see below).

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
built from the reduced basis by linear combination alone, with no
division, as in the multiplication tables of FGLM (Faugere, Gianni,
Lazard & Mora, JSC 16, 1993).  Each entry is an int term dict over one
positive denominator coprime to its content (over F_p the denominator is
1).  It is seeded with the standard monomials, each its own normal form,
and with the leading monomial of each basis element c * x^lead + tail,
whose normal form is -tail / c: the tails of a reduced basis are
standard.  A missing x^a has a non-standard x^(a - e_i), and
NF(x^a) = sum_s c_s NF(x^(s + e_i)) over the terms c_s x^s of
NF(x^(a - e_i)), summed over the lcm of the entries' denominators.  Every
x^(s + e_i) is smaller than x^a, so the fill is well founded; it runs on
an explicit stack.  A normal form is unique, so each entry equals what
division would give; monomial_nf is its canonical view.  The
origin-support test walks NF(x_i^k) for k = 0, 1, ..., D through this
table and stops at the first zero power, since every higher power is then
zero; only a nonzero D-th power, D the length, makes x_i non-nilpotent.
The degree pipeline reuses the same integer entries for the Gram matrix.

Cofactors express every basis element exactly as a combination of the input
generators.  The cofactors of the unit basis {1} are the certificate
1 = sum c_i * g_i: contains_one_with_certificate returns them unchecked, and
umrow.is_unimodular, which owns the certificate, checks them once, modulo
the relations.  Buchberger stops as soon as 1 enters the working basis: 1
divides every later remainder, so the pending pairs are dropped.  Cofactors
are built lazily.  While Buchberger runs, a working entry carries only
a recipe: its discovery index, its origin (a generator index, or the S-pair
parents and their shifts), the step log of its reduction and the inverse
that made it monic.  Recipes keep the monic convention: the vector of an
entry is that of its monic polynomial, a logged step is relative to the
monic divisor, and over Q the inverse is scale / c for the integer
remainder rem / scale with leading coefficient c.  A remainder that
reduces to zero, as most S-polynomials do, keeps nothing.  Once the
minimal basis is chosen, only its entries and their ancestors are
replayed, in discovery order, with the `_add_shifted` calls of eager
tracking in the same order.  Eager tracking makes an entry's vector and
then multiplies each of its terms by the normalising inverse; the replay
folds the inverse into the seed and into each step's multiplier instead,
one scalar product per step, so the cofactors are equal as exact values.
Autoreduction then replays its own step logs into the kept vectors.

Everything is deterministic: normal selection strategy (smallest lcm first,
ties by input index), basis sorted by leading monomial.  Keys compare as
the order does, so the packed kernel makes the same choices, in the same
sequence, as a kernel on exponent tuples would.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import itemgetter
from typing import Optional, Sequence

from .errors import InternalError, NotFiniteLength, RingMismatch
from .orders import Packing
from .poly import (
    Poly,
    Ring,
    _add_shifted,
    _clear,
    _divisor,
    _ratios,
    _reduce,
    _to_lcm,
)

_lead = itemgetter(0)


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
    cofactors: Optional[tuple[tuple[Poly, ...], ...]] = None

    @property
    def ring(self) -> Ring:
        """The ring of the generators, whose order the basis is reduced in."""
        return self.generators[0].ring

    @cached_property
    def _divisors(self) -> list:
        """The basis as `_divisor` entries: the divisors of every reduction."""
        q = self.ring.field.modulus
        return [_divisor(_clear(g.packed)[0], q) for g in self.basis]


def buchberger(
    gens: Sequence[Poly], track_cofactors: bool = False
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens, in the order of
    their ring.

    Output is independent of generator order and duplication (uniqueness of
    the reduced basis); cofactors are relative to the given generator list.
    """
    if not gens:
        raise RingMismatch("need at least one generator")
    ring = _common_ring(gens)
    field = ring.field
    q = field.modulus
    packing = ring.packing
    one, pad, guard, target = packing.one, packing.pad, packing.guard, packing.target
    lcm = packing.lcm
    # working basis as _divisor entries, in order of discovery; the fourth
    # slot is the entry's cofactor recipe, or None when cofactors are off
    work: list[tuple] = []
    # heap of pending pairs (key of their lcm, i, j): smallest lcm first
    pairs: list[tuple] = []

    def append(terms: dict, origin, scale) -> None:
        """Reduce terms / scale by the working basis and keep a nonzero
        remainder."""
        log = None if origin is None else []
        rem, scale = _reduce(terms, work, packing, field, log, scale)
        if not rem:
            return
        lead, lc, tail, _ = _divisor(rem, q)
        t = len(work)
        # the new pairs (i, t) by lcm: the first i of each group, and whether
        # any member has coprime leading monomials, whose lcm is their
        # product (F and the product criterion)
        groups: dict = {}
        for i, w in enumerate(work):
            m = lcm(w[0], lead)
            coprime = m == w[0] + lead - one
            group = groups.get(m)
            if group is None:
                groups[m] = [i, coprime]
            elif coprime:
                group[1] = True
        # M: a proper divisor is smaller in the order, so it comes first
        minimal: list = []
        for m in sorted(groups):
            s = m + pad
            if not any((s - d) & guard == target for d in minimal):
                minimal.append(m)
                i, coprime = groups[m]
                if not coprime:
                    if m & guard:  # its S-polynomial would pass the bound
                        packing.overflow()
                    heapq.heappush(pairs, (m, i, t))
        recipe = None
        if origin is not None:
            # the remainder is rem / scale: this inverse makes it monic
            recipe = (t, origin, log, field.div(scale, rem[lead]))
        work.append((lead, lc, tail, recipe))
        if lead == one:
            pairs.clear()  # 1 is in the ideal: every pending pair reduces to 0

    for k, g in enumerate(gens):
        if not g.is_zero:
            terms, den = _clear(g.packed)
            append(dict(terms), k if track_cofactors else None, den)

    while pairs:
        m, i, j = heapq.heappop(pairs)
        li, ci, tail_i, _ = work[i]
        lj, cj, tail_j, _ = work[j]
        si = m - li  # the offsets of lcm / lead
        sj = m - lj
        # (cj/g) x^si f_i - (ci/g) x^sj f_j with g = gcd(ci, cj): the leading
        # terms cancel, and it is ci cj / g times the S-polynomial of the
        # monic f_i and f_j
        g = gcd(ci, cj)
        s = {}
        _add_shifted(s, tail_i, si, cj // g, q)
        _add_shifted(s, tail_j, sj, -(ci // g), q)
        append(s, (i, j, si, sj) if track_cofactors else None, ci // g * cj)

    return _reduce_basis(tuple(gens), work, track_cofactors)


def _replay(cof: list, log: list, cofs: list, field, scale=1) -> None:
    """cof += scale * the steps of a `_reduce` log, tags being recipes into
    cofs; each multiplier is scaled once, canonically."""
    q = field.modulus
    for tag, shift, c in log:
        c = field.mul(c, scale)
        for dst, src in zip(cof, cofs[tag[0]]):
            _add_shifted(dst, src, shift, c, q)


def _cofactors(work: list, kept: list, m: int, ring: Ring) -> list:
    """Cofactor vectors, by discovery index, of kept and its ancestors.

    An entry's ancestors are its S-pair parents and the divisors in its step
    log, all discovered before it.  One descending pass marks them; one
    ascending pass replays each marked recipe, with the normalising inverse
    applied once per step rather than once per term: the unit vector
    scaled by it, or the parent vectors shifted and scaled by it and its
    negative, then the logged steps, each multiplier scaled by it.  Every
    other entry gets None.  A vector is checked
    against the exponent bound before later recipes shift it.
    """
    field = ring.field
    q = field.modulus
    packing = ring.packing
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
            cof[origin] = {packing.one: inv}
        else:
            i, j, si, sj = origin
            minus_inv = field.neg(inv)
            for dst, a, b in zip(cof, cofs[i], cofs[j]):
                _add_shifted(dst, a, si, inv, q)
                _add_shifted(dst, b, sj, minus_inv, q)
        _replay(cof, log, cofs, field, inv)
        for c in cof:
            packing.check(c)
        cofs[idx] = cof
    return cofs


def _reduce_basis(gens, work, track) -> GroebnerBasis:
    ring = gens[0].ring
    packing = ring.packing
    field = ring.field
    q = field.modulus
    pad, guard, target = packing.pad, packing.guard, packing.target
    # minimal basis: drop elements whose leading monomial another divides;
    # the leads of the working basis are distinct
    kept: list[tuple] = []
    for w in sorted(work, key=_lead):
        s = w[0] + pad
        if not any((s - k[0]) & guard == target for k in kept):
            kept.append(w)
    log = None
    if track:
        cofs = _cofactors(work, kept, len(gens), ring)
        log = []
    # autoreduce the tails in one pass: leads never change, so an entry stays
    # reduced when later ones are.  Each entry is reduced as the monic
    # terms / lc.  The kept entries keep their recipes as tags, and a step
    # log is replayed into the reduced entry's vector
    for idx, (lead, lc, tail, recipe) in enumerate(kept):
        terms = {lead: lc, **tail}
        others = kept[:idx] + kept[idx + 1 :]
        rem, _ = _reduce(dict(terms), others, packing, field, log, lc)
        if rem != terms:
            if track:
                vector = cofs[recipe[0]]
                _replay(vector, log, cofs, field)
                log.clear()
                for c in vector:
                    packing.check(c)
            kept[idx] = _divisor(rem, q, recipe)
    kept.sort(key=_lead)
    # the monic basis with canonical scalars
    return GroebnerBasis(
        generators=gens,
        basis=tuple(
            Poly._from_packed(ring, {lead: field.one, **_ratios(tail, lc)})
            for lead, lc, tail, _ in kept
        ),
        cofactors=(
            tuple(
                tuple(Poly._from_packed(ring, c) for c in cofs[w[3][0]])
                for w in kept
            )
            if track
            else None
        ),
    )


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    """Remainder of p modulo the basis; supported on standard monomials."""
    if p.ring != gb.ring:
        raise RingMismatch("polynomial not in the basis ring")
    terms, den = _clear(p.packed)
    ring = p.ring
    rem, den = _reduce(dict(terms), gb._divisors, ring.packing, ring.field, scale=den)
    return Poly._from_packed(ring, _ratios(rem, den))


def _lowest(nums: dict, den: int) -> tuple[dict, int]:
    """nums / den with den coprime to the content of nums (0 is ({}, 1))."""
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {e: v // g for e, v in nums.items()}, den // g


class _NFTable(dict):
    """NF(x^a) by the key of a as (nums, den), NF(x^a) = nums / den: nums a
    packed int term dict, den a positive int coprime to the content of nums
    (over F_p, 1).  Looking up a missing key fills it; callers must not
    mutate an entry.

    A missing x^a is neither standard nor a leading monomial of the basis,
    so it is a proper multiple of some lead: some x^(a - e_i) is
    non-standard.  With NF(x^(a - e_i)) = sum_s c_s x^s,

        NF(x^a) = sum_s c_s NF(x^(s + e_i)),

    a linear combination of table entries and no division: over Q the
    integer entries are summed over the lcm of their denominators.  Each s
    is standard and smaller than the non-standard x^(a - e_i), so every
    x^(s + e_i) is smaller than x^a: the fill is well founded, and runs on
    an explicit stack of the entries still missing.  The i taken is the
    first whose x^(a - e_i) is non-standard and already in the table, if
    there is one, else the first non-standard one.  A normal form is unique,
    so every entry equals the direct normal form of x^a.  If the standard
    set is not the standard basis, a missing x^a can have only standard
    predecessors: that raises InternalError.
    """

    __slots__ = ("standard", "q", "packing")

    def __init__(self, seeds: dict, standard: frozenset, q, packing: Packing):
        super().__init__(seeds)
        self.standard = standard
        self.q = q  # the modulus of F_q, None over Q
        self.packing = packing

    def __missing__(self, a: int) -> tuple[dict, int]:
        standard, q, packing = self.standard, self.q, self.packing
        guard, target = packing.guard, packing.target
        if a & guard:
            packing.overflow()
        # x_i divides x^m iff (m + step) & guard == target, step = pad - key
        # of x_i; x^m / x_i has the key m - var[i]
        steps = [packing.pad - packing.one - v for v in packing.var]
        stack = [a]
        while stack:
            m = stack[-1]
            if m in self:  # filled since it was pushed
                stack.pop()
                continue
            # a non-standard predecessor, one already in the table if any
            pred = prev = None
            for v, step in zip(packing.var, steps):
                if (m + step) & guard == target:
                    b = m - v
                    if b not in standard:
                        off, pred, prev = v, b, self.get(b)
                        if prev is not None:
                            break
            if pred is None:
                raise InternalError(
                    f"monomial {packing.unpack(m)} is off the standard basis,"
                    " leads no basis element and has only standard"
                    " predecessors"
                )
            if prev is None:
                stack.append(pred)
                continue
            nums, den = prev
            shifted = [s + off for s in nums]
            missing = [t for t in shifted if t not in self]
            if missing:
                stack.extend(missing)
                continue
            # NF(x^m) = terms / (den * d), over the lcm d of the entries'
            # denominators (1 over F_p)
            terms: dict = {}
            d = 1
            for t, c in zip(shifted, nums.values()):
                tn, td = self[t]
                if td != d:
                    if d % td:
                        d = _to_lcm(d, td, (terms,))
                    c *= d // td
                _add_shifted(terms, tn, 0, c, q)
            den *= d
            self[m] = (terms, 1) if den == 1 else _lowest(terms, den)
            stack.pop()
        return self[a]


@dataclass(frozen=True)
class QuotientAlgebra:
    """k[x]/I with a finite standard-monomial basis.

    keys are the standard monomials, those outside the leading-term ideal,
    as ascending keys in the ring's packing; the rest is read off them:
    dimension is their count (the length of the quotient), and monomials
    their exponent tuples, unpacked on each read.  One memoized table,
    _nf_table, holds the normal forms of monomials by their keys, so every
    user of one quotient shares it; it is seeded from the reduced basis and
    filled without division (see the module docstring and _NFTable).  Its
    entries are in the integer working form, (nums, den); monomial_nf is
    the canonical view of one entry.
    """

    gb: GroebnerBasis
    keys: tuple[int, ...]

    @property
    def ring(self) -> Ring:
        return self.gb.ring

    @property
    def dimension(self) -> int:
        return len(self.keys)

    @property
    def monomials(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.ring.packing.unpack, self.keys))

    @cached_property
    def _nf_table(self) -> _NFTable:
        """The normal-form table, seeded with the standard monomials and the
        leads.

        A standard monomial is its own normal form.  The basis is reduced:
        each divisor entry is lc * x^lead + tail with a standard tail, so
        the normal form of its leading monomial is -tail / lc (for the unit
        ideal, NF(1) is 0).
        """
        field = self.ring.field
        seeds = {m: ({m: 1}, 1) for m in self.keys}
        for lead, lc, tail, _ in self.gb._divisors:
            seeds[lead] = ({e: field.neg(v) for e, v in tail.items()}, lc)
        return _NFTable(seeds, frozenset(self.keys), field.modulus, self.ring.packing)

    def monomial_nf(self, a: tuple[int, ...]) -> dict:
        """Term dict of NF(x^a), on exponent tuples with canonical scalars."""
        packing = self.ring.packing
        return packing.unpack_terms(_ratios(*self._nf_table[packing.pack(a)]))


def standard_monomials(gb: GroebnerBasis) -> QuotientAlgebra:
    """Monomial basis of the quotient; errors if it is infinite.

    Finiteness test: every variable must have a pure power among the leading
    monomials.  Standard monomials then live in the box bounded by those
    pure powers.
    """
    ring = gb.ring
    n = ring.nvars
    packing = ring.packing
    leads = [d[0] for d in gb._divisors]
    if packing.one in leads:
        # the ideal is the whole ring; the quotient is the zero ring
        return QuotientAlgebra(gb, ())
    box = [None] * n
    for e in map(packing.unpack, leads):
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
    # the keys of the box, from 1 by adding variable offsets; its corner,
    # the largest of them, is checked against the exponent bound first
    packing.pack([b - 1 for b in box])
    box_keys = [packing.one]
    for var, b in zip(packing.var, box):
        box_keys = [key + k * var for key in box_keys for k in range(b)]
    pad, guard, target = packing.pad, packing.guard, packing.target
    std = sorted(
        key
        for key in box_keys
        if not any((key + pad - d) & guard == target for d in leads)
    )
    return QuotientAlgebra(gb, tuple(std))


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
    d = qa.dimension
    table = qa._nf_table
    packing = qa.ring.packing
    for var in packing.var:
        key = packing.one
        for _ in range(d + 1):
            if not table[key][0]:
                break
            key += var
        else:
            return False
    return True


def contains_one_with_certificate(gens: Sequence[Poly]):
    """Cofactors (c_1, ..., c_m) with sum(c_i * gens_i) == 1, or None.

    Buchberger with cofactors: the cofactors of the unit basis, unchecked
    here (umrow.is_unimodular checks each certificate once), or None when
    the basis is not {1}.
    """
    gb = buchberger(gens, track_cofactors=True)
    if len(gb.basis) != 1 or gb.basis[0] != gens[0].ring.one():
        return None
    return gb.cofactors[0]

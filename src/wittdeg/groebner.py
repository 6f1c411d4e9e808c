"""Buchberger's algorithm with reduced bases and optional unit certificates.

Normal forms, Buchberger's reductions and the autoreduction of the final
basis all run the division kernel of `poly` (`_reduce`, with `_divisor`
and `_add_shifted`).  It works on one mutable term dict, reads each
divisor's leading term from a precomputed entry, and keeps only the
remainder: no caller here needs the quotients.  Pending S-pairs wait in a
heap keyed by their sugar and their lcm, computed once when the pair is
formed (see the selection strategy below).

A monomial is its key in the ring's `Packing` (see `orders`), the one
the polynomials already hold: the leading term is the largest key, a
shift adds an offset, divisibility is one mask test and the lcm of two
leads is a parallel field maximum.  The order of every computation here
is the ring's.  Generators and polynomials to reduce come in as their
term maps, and the basis entries, the certificate and normal forms go out
as term maps on the same keys.  A quotient's basis is its standard
monomials' keys.  A monomial made on the way that passes the exponent bound
(orders.BOUND, and under GREVLEX the total degree too) raises
ExponentBoundExceeded: `_reduce` checks each leading key, the lcm of a
pair is checked when the pair is queued, and each multiplier of the
certificate's replay before it is shifted.  (The lcm of a coprime pair,
which is never queued, may pass the GREVLEX degree bound.)

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
reduced basis is kept as its integer entries, and `GroebnerBasis.basis`
makes them monic on each read; a certificate is replayed on ints and
kept in that form, and umrow.is_unimodular converts only the entry
cofactors it prints; and normal_form converts its remainder.  The Gram
build sums the quotient table's integer entries as they are and makes no
`Fraction` (see below).

When an element t joins the working basis, its new pairs (i, t) pass the
Gebauer-Moeller criteria (Gebauer & Moeller, JSC 6, 1988), which refine
Buchberger's second criterion (EUROSAM 1979).  The pairs are grouped by
lcm and each group keeps its first i (F); a group goes if any member has
coprime leading monomials (the product criterion), or if the lcm of
another new pair, coprime ones included, properly divides its lcm (M).
The product criterion is tested only on the groups M keeps, as one
lookup of the lead x^m / x^t among the leads: such a lead not coprime to
x^t would have a proper divisor of x^m as its lcm.
Every dropped S-polynomial has a standard representation by the pairs
kept, whatever order they are reduced in, so the reduced basis is
unchanged; on the generic benchmark (seed 1, 42 jobs) the criteria cut
the reductions from 1,236 to 678, and a 3-variable LEX ideal over Q from
365 to 58 (with the lcm-first selection below; 32 with sugar).  Two
refinements are left out.  The chain criterion B_k on pending pairs saves
no reduction there: it drops no pair on generic, and on rows only pairs
that stopping at the unit drops anyway.  Pruning basis elements whose
leading monomial the new one divides changes the reducers: with lcm-first
selection, goldens 11 and 23 changed with it and the row certificates of
42 jobs grew from 44.6 KB to 54.7 KB.

Pairs are selected by sugar (Giovini, Mora, Niesi, Robbiano & Traverso,
"One sugar cube, please", ISSAC 1991): the pending pair of least sugar
goes first, then the one of smallest lcm, then by the indices of its
entries.  The sugar of an entry from an input generator is its total
degree as it enters, after its reduction by the earlier entries.  The
pair (i, j) with lcm m has sugar max(sug_i + deg m - deg lead_i, sug_j +
deg m - deg lead_j), the sugar of the larger of the two multiples that
make its S-polynomial, and its remainder keeps it; each entry stores
sug - deg lead.  deg is Packing.degree: the top field of a GREVLEX key,
the sum of the exponents under LEX.  Under GREVLEX an S-polynomial of
lcm m has degree at most deg m, so sugar follows the lcm degree, except
that an entry reduced down from a higher degree keeps its higher sugar
and its pairs wait; under LEX, whose lcm order ignores degree, sugar
orders the pairs by degree.  The criteria hold for any selection, but a
pair they drop need not reduce to zero at the point where it would have
been picked, so a run without them can find another, equally valid,
certificate.  On the 84 rows-benchmark jobs of seed 1, against
smallest-lcm-first selection, sugar cut the term operations of
`_add_shifted` from 51,842 to 36,391 and the certificate text from
65,285 to 46,367 bytes; the reductions of the certifying runs went from
1,408 to 1,259, the nonzero ones from 1,117 to 887.  The LEX row of
golden 28 took more than a minute, and now its certifying Buchberger
takes 0.006 s.  The first 84 structured-q and generic jobs of seeds 1
and 2 kept their output bytes and their `_add_shifted` counts; under
--order lex the first 42 of seed 1 kept their output bytes, and their
counts fell from 195,443 to 113,780 (structured-q) and from 325,983 to
122,016 (generic).  So only row certificates changed.

A run on n nonzero forms f_1..f_n in n variables, of degrees d_1..d_n
(`form_degrees`, read off the packed keys' degrees once, at the start of
the run, and kept as `GroebnerBasis.degrees`), drops the pairs a
Hilbert function proves redundant (Traverso, "Hilbert functions and the
Buchberger algorithm", JSC 22, 1996).  Let h_k be the coefficients of
prod (1 + t + ... + t^(d_i - 1)), the Hilbert series of a complete
intersection of these degrees (`_complete_intersection`).  The degree-k
part I_k of the ideal is the image of the linear map (g_i) -> sum g_i f_i
from the forms of degrees k - d_i.  Its rank is lower semicontinuous in
the coefficients of the f_i, so it is at most its value at generic forms;
a field extension does not change it, and generic forms over the
algebraic closure are a complete intersection, whose I_k has dimension
C(n+k-1, k) - h_k.  So for any forms of these degrees dim I_k is at most
that: at least h_k monomials of degree k are standard for I.  Forms stay
forms: every S-polynomial and remainder is homogeneous, an entry's sugar
is its degree under either order, and the pairs come in order of degree
k; a new entry has degree k and a lead that no lead divides, so its pairs
have degree above k, and no entry of a lower degree comes later.  The
leads' part LT(G)_k lies in LT(I)_k, of dimension dim I_k.  Once only h_k
monomials of degree k are standard for the leads, LT(G)_k = LT(I)_k, and
the remainder of every pending S-polynomial of degree k, which lies in
I_k and has no term in LT(I)_k, is 0.  Such a pair is dropped when it is
popped: the plain loop would reduce it to 0 and add nothing, so the
working basis, and with it every output byte, is the plain loop's.  The
test is exact, and past the top degree of h, where h_k = 0, every pair
goes.  The counting starts at the run's first zero reduction that
leaves a pair queued: every pair reduced before it added an entry, so
none of them could have been dropped, and a run that reduces nothing to
0 before its last pair keeps no count and forms no h.  From the
constant monomial, the standard monomials of degree k + 1 are the x_v * s
for standard s of degree k that are no lead and whose every
x_w-predecessor is standard (`_grow`), and an entry of degree k removes
its lead.  Certifying runs are left out: forms of positive degree never
generate the unit, and the generator list of a row holds its relation sum
x_i y_i - 1, which is no form.  On the generic benchmark (seed 1, 42
jobs) the reductions of Buchberger and the autoreduction fell from 1,200
to 822, of which the zero ones from 420 to 42, one a job; the dense
quadrics in 7 variables over F_10007 (docs/jobs/quadrics7.job) spent
0.19 s in Buchberger and now spend 0.048 s, under LEX 1.0 s and now
0.11 s (CPython 3.11.7, x86-64).

A QuotientAlgebra is the memoized table of its monomials' normal forms,
built from the reduced basis by linear combination alone, with no
division, as in the multiplication tables of FGLM (Faugere, Gianni,
Lazard & Mora, JSC 16, 1993).  The table is keyed by monomial, and each
entry is the coordinate vector of its normal form over the standard
basis: an int dict from basis position to coefficient over one positive
denominator coprime to its content (over F_p the denominator is 1).
Its constructor seeds it with the standard monomials, each its own
normal form, and with the leading monomial of each basis element
c * x^lead + tail, whose normal form is -tail / c: the tails of a reduced
basis are standard, and a tail off the basis raises InternalError there.
A missing x^a has a non-standard x^(a - e_i), and
NF(x^a) = sum_s c_s NF(x^(s + e_i)) over the terms c_s x^s of
NF(x^(a - e_i)), summed over the lcm of the entries' denominators.  Every
x^(s + e_i) is smaller than x^a, so the fill is well founded; it runs on
an explicit stack.  A normal form is unique, so each entry equals what
division would give.  One step of the fill is a multiplication by x_i in
the quotient, `QuotientAlgebra.times`: the table at x_i * s for the
standard s of a normal form is the sparse multiplication map M_i.  The
origin-support test starts at the seed NF(x_i^b) of the least pure-power
lead x_i^b, since every lower power of x_i is standard and its own
normal form.  It applies M_i to that seed at most D - b times, D the
length, and stops at the first zero vector, since every later one is
then zero; only a nonzero M_i^(D-b) NF(x_i^b) = NF(x_i^D) makes x_i
non-nilpotent.  It reads the table at standard and border keys only and
forms no key of a power x_i^k past x_i^b, which passes the exponent bound
once k does, however long the quotient is.  The degree pipeline reuses
the same integer entries for the Gram matrix.

The certificate of a unit ideal is 1 = sum c_i * g_i, the cofactors of
the unit basis {1} over the generators: buchberger(gens, certify=True)
returns them unchecked, in the integer form (nums, den) with one int term
dict per generator (`GroebnerBasis.cofactors`), and umrow.is_unimodular,
which owns the certificate, checks them once, modulo the relations, on
ints.  Buchberger stops as soon as 1 enters the working basis: 1 divides
every later remainder, so the pending pairs are dropped and 1 is the last
working entry; it is coprime to every lead, so it forms no pair and skips
the pair update, and its reduced basis is {1} with no reduction.  A proper
ideal has no certificate, and none of its cofactors is ever built.  The
certificate is built lazily.  While a certifying Buchberger runs, a
working entry carries only a recipe: its discovery index, its origin (a
generator index, or the S-pair parents and their shifts), the step log of
its reduction and the inverse that made it monic.  Recipes keep the monic
convention: the vector of an entry is that of its monic polynomial, and a
logged step is relative to the monic divisor.  They hold ints only: a
step's multiplier is a numerator and a denominator (`poly._reduce`), and
the inverse is a / b with b > 0, over Q scale / c for the integer
remainder rem / scale with leading coefficient c, over F_p 1 / c with
b = 1.  A remainder that reduces to zero, as most S-polynomials do, keeps
nothing.  When 1 has entered, the recipes are replayed in one reverse
pass, the adjoint of replaying them forward (reverse mode; Baur &
Strassen, TCS 22, 1983).  An entry's vector is linear in the vectors its
recipe names, so the unit's vector is a sum over the entries of one
polynomial multiplier mu_t each, times what t's recipe adds that is no
entry's vector: for a generator, its unit vector.  The pass starts from
the unit's multiplier 1 and walks down the discovery order; only later
entries name t, so mu_t is complete when the pass reaches it.  It is
checked against the exponent bound there and handed on, scaled by the
inverse a / b and each logged c / d and shifted: to the two parents, to
each logged divisor, or to its generator's cofactor.  A multiplier is one
int term dict over one positive denominator (1 over F_p), so one loop
serves both fields, and the m cofactors end over one lcm in lowest terms.
That form of an exact value is unique, so the certificate is the one the
forward replay built, byte for byte.  An entry that is no ancestor of
the unit gets no part and is skipped, with no marking pass.  On the 84
rows-benchmark jobs of seed 1 (CPython 3.11.7, x86-64) the reverse pass
cut the replay from 97 to 70 microseconds a job, against the forward
replay of every ancestor's vector of all m cofactors, with the same 2,269
`_add_shifted` calls.

Everything is deterministic: sugar selection (least sugar first, ties by
smallest lcm, then by the entries' indices), basis sorted by leading
monomial.  Keys compare as the order does, so the packed kernel makes the
same choices, in the same sequence, as a kernel on exponent tuples would.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from itertools import compress
from math import gcd, lcm
from operator import itemgetter, le

from .errors import Frozen, InternalError, NotFiniteLength, RingMismatch
from .orders import Packing
from .poly import (
    Poly,
    Ring,
    _add_shifted,
    _clear,
    _divisor,
    _lowest,
    _lowest_all,
    _ratios,
    _reduce,
    _to_lcm,
    in_ring,
)

_lead = itemgetter(0)


class GroebnerBasis(Frozen):
    """A reduced Groebner basis, with the unit certificate when one was asked
    for.

    entries is the reduced basis as the `_divisor` entries of the working
    basis (tags None), sorted by leading monomial: every reader divides by
    them or reads their leads and tails.  basis is their monic view.  When
    buchberger certified and the basis is {1}, cofactors is the unit's
    vector in the integer working form, (nums, den): nums holds one int term
    dict per generator, over the one positive denominator den (1 over F_p),
    and sum(nums[m] * generators[m]) == den exactly; otherwise it is None.
    umrow.is_unimodular checks it and converts what it prints.  degrees is
    the grading buchberger read once: the tuple of the generators' degrees
    when a run that does not certify has n nonzero forms in n variables,
    else None.
    """

    __slots__ = ("generators", "entries", "cofactors", "degrees")
    generators: tuple[Poly, ...]
    entries: tuple[tuple, ...]
    cofactors: tuple[tuple[dict, ...], int] | None
    degrees: tuple[int, ...] | None

    @property
    def ring(self) -> Ring:
        """The ring of the generators, whose order the basis is reduced in."""
        return self.generators[0].ring

    @property
    def basis(self) -> tuple[Poly, ...]:
        """The basis as monic polynomials with canonical scalars, made on each
        read."""
        ring = self.ring
        one = ring.field.one
        return tuple(
            Poly(ring, {lead: one, **_ratios(tail, lc)})
            for lead, lc, tail, _ in self.entries
        )


def buchberger(gens: Sequence[Poly], certify: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens, in the order of
    their ring.

    Output is independent of generator order and duplication (uniqueness of
    the reduced basis).  With certify, a unit basis comes with its
    certificate, relative to the given generator list.
    """
    if not gens:
        raise RingMismatch("need at least one generator")
    ring = in_ring(gens, gens[0].ring)
    field = ring.field
    q = field.modulus
    packing = ring.packing
    one, pad, guard, target = packing.one, packing.pad, packing.guard, packing.target
    lcms, degree = packing.lcms, packing.degree
    push = heapq.heappush
    # working basis as _divisor entries, in order of discovery; the fourth
    # slot is the entry's cofactor recipe, or None when not certifying
    work: list[tuple] = []
    # the leading key of each working entry
    leads: list[int] = []
    # the sugar of each working entry less the degree of its lead
    excess: list[int] = []
    # heap of pending pairs (sugar, key of their lcm, i, j): least sugar
    # first, then smallest lcm
    pairs: list[tuple] = []
    # the Hilbert-driven criterion (see above): the degrees of n forms in n
    # variables, read once, or None, as in a certifying run; h, the complete
    # intersection's series, is set at the first zero reduction that leaves
    # a pair queued, or () where the criterion does not apply; std then maps
    # each standard monomial of degree k to its support
    degrees = None if certify or len(gens) != ring.nvars else form_degrees(gens)
    h = None if degrees else ()
    std: dict = {one: ()}
    k = 0

    def append(terms: dict, origin, scale, sugar) -> None:
        """Reduce terms / scale by the working basis and keep a nonzero
        remainder, which keeps the sugar of terms; for a generator, sugar is
        None, and the remainder's total degree is its sugar."""
        log = None if origin is None else []
        rem, scale = _reduce(terms, work, packing, field, log, scale)
        if not rem:
            return
        lead, lc, tail, _ = _divisor(rem, q)
        t = len(work)
        if sugar is None:
            sugar = max(map(degree, rem))
        ex = sugar - degree(lead)
        if lead == one:
            # 1 is in the ideal: every pending pair reduces to 0, and 1 is
            # coprime to every lead, so it forms no pair
            pairs.clear()
        else:
            # each lcm of the new pairs (i, t) with its least i, which F keeps
            ms = lcms(leads, lead)
            first = dict(zip(reversed(ms), range(t - 1, -1, -1)))
            offset = lead - one
            # M: a proper divisor is smaller in the order, so it comes first
            minimal: list = []
            for m in sorted(first):
                s = m + pad
                for d in minimal:
                    if (s - d) & guard == target:
                        break
                else:
                    minimal.append(m)
                    # the product criterion drops a group with a member
                    # coprime to lead, whose lead is x^m / x^lead.  A lead
                    # w = x^m / x^lead not coprime to it would have a proper
                    # divisor of m as its lcm, and M would have dropped m
                    if m - offset in leads:
                        continue
                    if m & guard:  # its S-polynomial would pass the bound
                        packing.overflow()
                    i = first[m]
                    push(pairs, (degree(m) + max(excess[i], ex), m, i, t))
        if h:  # the new lead was standard
            del std[lead]
        recipe = None
        if origin is not None:
            # the remainder is rem / scale: the inverse a / b, b > 0, makes
            # it monic
            c = rem[lead]
            if q is not None:
                inv = pow(c, -1, q), 1
            else:
                inv = (scale, c) if c > 0 else (-scale, -c)
            recipe = (t, origin, log, inv)
        work.append((lead, lc, tail, recipe))
        leads.append(lead)
        excess.append(ex)

    for idx, g in enumerate(gens):
        if not g.is_zero:
            terms, den = _clear(g.packed)
            append(dict(terms), idx if certify else None, den, None)

    while pairs:
        sugar, m, i, j = heapq.heappop(pairs)
        if h:
            while k < sugar and std:
                k += 1
                std = _grow(std, set(leads), packing.var)
            k = sugar
            if len(std) == (h[k] if k < len(h) else 0):
                continue  # LT(G)_k = LT(I)_k: the pair reduces to 0
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
        t = len(work)
        append(s, (i, j, si, sj) if certify else None, ci // g * cj, sugar)
        if h is None and len(work) == t and pairs:
            h = _complete_intersection(degrees)

    cofactors = None
    # 1 ends the working basis when it enters: no pair is left to add more
    if certify and work and work[-1][0] == one:
        cofactors = _certificate(work, len(gens), ring)
    return GroebnerBasis(tuple(gens), _reduce_basis(work, ring), cofactors, degrees)


def form_degrees(polys: Sequence[Poly]) -> tuple[int, ...] | None:
    """The degree of each polynomial when every one is a nonzero form, else
    None; read off the degrees of the packed keys."""
    degree = polys[0].ring.packing.degree
    sets = [set(map(degree, p.packed)) for p in polys]
    return tuple([d for (d,) in sets]) if all(len(s) == 1 for s in sets) else None


def _complete_intersection(degrees: tuple[int, ...]) -> list[int]:
    """The coefficients h_k of prod (1 + t + ... + t^(d - 1)) over the d in
    degrees: the Hilbert series of a complete intersection of forms of these
    degrees, h_k = dim (k[x]/I)_k, the least that forms of these degrees
    leave in degree k."""
    h = [1]
    for d in degrees:
        h = [sum(h[max(0, k - d + 1) : k + 1]) for k in range(len(h) + d - 1)]
    return h


def _grow(std: dict, leads: set, var: tuple) -> dict:
    """The standard monomials of the next degree: std maps those of this
    degree to their supports (their variables' indices, ascending), and
    leads is the set of leading keys.  x_v * s is standard iff it is no
    lead and its quotient by each of its variables is standard, since a
    lead that properly divides it divides one of those.  Each is made once,
    from s = u / x_v for v its first variable."""
    out = {}
    for s, supp in std.items():
        for v in range(supp[0] + 1 if supp else len(var)):
            u = s + var[v]
            if u not in leads and all(u - var[w] in std for w in supp if w != v):
                out[u] = supp if supp[:1] == (v,) else (v, *supp)
    return out


def _certificate(work: list, m: int, ring: Ring) -> tuple[tuple[dict, ...], int]:
    """The cofactors of 1, the last working entry, over the m generators, as
    (nums, den): one int term dict per generator over one positive
    denominator coprime to their content (1 over F_p).

    One reverse pass over the recipes.  An entry's vector is a / b times
    its generator's unit vector, or x^si times its first parent's and
    -x^sj times its second's, plus, for each logged step, c / d times x^s
    times its divisor's, scaled by a / b too.  So the unit's vector is
    sum_t mu_t * a_t / b_t * e_(g_t) over the generator entries t, for one
    polynomial multiplier mu_t per entry: mu is 1 for the unit, and each
    other mu_t sums what the later entries that name t hand it.  Walking
    down the discovery order, mu_t is complete when it is reached: it is
    summed from its parts over the lcm of their denominators, put in lowest
    terms, and checked against the exponent bound before any part of it is
    shifted; then it is handed on, scaled by a / b and each step's c / d
    and shifted, to the entries its recipe names, or for a generator to
    that generator's cofactor.  An entry no later entry names is no
    ancestor of the unit and is skipped.  Every part is an exact multiple,
    and the cofactors are summed over one lcm and divided by its gcd with
    their content: the unique lowest form of their exact values, the
    certificate that replaying the recipes forward builds.  The replay
    takes about 70 microseconds on a rows-benchmark job (seed 1, CPython
    3.11.7, x86-64), against 97 for the forward replay it replaced.
    """
    q = ring.field.modulus
    packing = ring.packing
    # the parts (c, d, mu, shift) handed to each entry, each adding
    # c / d * x^shift * mu to its multiplier; the unit's multiplier is 1
    parts: list = [[] for _ in work]
    parts[-1].append((1, 1, {packing.one: 1}, 0))
    ends: list = []  # the parts (generator, c, d, mu) of the cofactors
    for idx in reversed(range(len(work))):
        todo = parts[idx]
        if not todo:
            continue
        den = lcm(*[d for _, d, _, _ in todo])
        mu: dict = {}
        for c, d, src, shift in todo:
            _add_shifted(mu, src, shift, c * (den // d), q)
        if not mu:
            continue
        if den > 1:
            mu, den = _lowest(mu, den)
        packing.check(mu)
        _, origin, log, (a, b) = work[idx][3]
        b *= den
        if isinstance(origin, int):
            ends.append((origin, a, b, mu))
        else:
            i, j, si, sj = origin
            parts[i].append((a, b, mu, si))
            parts[j].append((-a, b, mu, sj))
        for tag, shift, c, d in log:
            parts[tag[0]].append((c * a, d * b, mu, shift))
    den = lcm(*[d for _, _, d, _ in ends])
    nums: tuple[dict, ...] = tuple({} for _ in range(m))
    for k, c, d, mu in ends:
        _add_shifted(nums[k], mu, 0, c * (den // d), q)
    return nums, _lowest_all(nums, den)


def _reduce_basis(work: list, ring: Ring) -> tuple[tuple, ...]:
    """The reduced basis of the working basis, as entries sorted by lead."""
    packing = ring.packing
    if work and work[-1][0] == packing.one:
        # 1 ends the working basis when it enters and divides every lead
        return ((packing.one, 1, {}, None),)
    field = ring.field
    q = field.modulus
    pad, guard, target = packing.pad, packing.guard, packing.target
    # minimal basis: drop elements whose leading monomial another divides;
    # the leads of the working basis are distinct
    kept: list[tuple] = []
    for lead, lc, tail, _ in sorted(work, key=_lead):
        s = lead + pad
        if not any((s - k[0]) & guard == target for k in kept):
            kept.append((lead, lc, tail, None))
    # autoreduce the tails in one pass: leads never change, so an entry stays
    # reduced when later ones are.  Each entry is reduced as the monic
    # terms / lc
    for idx, (lead, lc, tail, _) in enumerate(kept):
        terms = {lead: lc, **tail}
        others = kept[:idx] + kept[idx + 1 :]
        rem, _ = _reduce(dict(terms), others, packing, field, None, lc)
        if rem != terms:
            kept[idx] = _divisor(rem, q)
    kept.sort(key=_lead)
    return tuple(kept)


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    """Remainder of p modulo the basis; supported on standard monomials."""
    ring = in_ring((p,), gb.ring)
    terms, den = _clear(p.packed)
    rem, den = _reduce(dict(terms), gb.entries, ring.packing, ring.field, scale=den)
    return Poly(ring, _ratios(rem, den))


class QuotientAlgebra(Frozen, dict):
    """k[x]/I with a finite standard-monomial basis, as the table of its
    monomials' normal forms.

    keys are the standard monomials, those outside the leading-term ideal,
    as ascending keys in the ring's packing, index maps each to its
    position in that basis, and dimension, their count, is the length of
    the quotient.  The quotient maps the key of a monomial x^a to NF(x^a)
    as (nums, den), NF(x^a) = sum_k nums[k] x^keys[k] / den: nums maps
    basis positions to nonzero ints, and den is a positive int coprime to
    the content of nums (over F_p, 1).  Every user of one quotient shares
    the table.  Looking up a missing key fills it; callers must not mutate
    an entry.

    The table is seeded with the standard monomials, the one at position
    k as ({k: 1}, 1), and with the leads: the basis is reduced, so each
    divisor entry is lc * x^lead + tail with a standard tail, and the
    normal form of its leading monomial is -tail / lc, on the positions of
    the tail's keys (for the unit ideal, NF(1) is 0).  A tail key outside
    index raises InternalError: keys is not the standard basis.  A
    missing x^a is neither standard nor a leading monomial of the basis,
    so it is a proper multiple of some lead: some x^(a - e_i) is
    non-standard.  With NF(x^(a - e_i)) = sum_s c_s x^s,

        NF(x^a) = sum_s c_s NF(x^(s + e_i)),

    the product x_i * NF(x^(a - e_i)) in the quotient (`times`, the
    multiplication map M_i of x_i): a linear combination of table entries
    and no division, over Q summed on the integer entries over the lcm of
    their denominators.  Each s is standard and smaller than the
    non-standard x^(a - e_i), so every x^(s + e_i) is smaller than x^a:
    the fill is well founded, and runs on an explicit stack of the entries
    still missing.  The i taken is the first whose x^(a - e_i) is
    non-standard and already in the table, if there is one, else the first
    non-standard one.  A normal form is unique, so every entry equals the
    direct normal form of x^a.  If keys is not the standard basis, a
    missing x^a can have only standard predecessors: that raises
    InternalError.
    """

    __slots__ = ("gb", "keys", "index", "_q", "_packing", "_steps")
    gb: GroebnerBasis
    keys: tuple[int, ...]
    index: dict[int, int]

    def __init__(self, gb, keys):
        field, packing = gb.ring.field, gb.ring.packing
        index = {m: k for k, m in enumerate(keys)}
        dict.__init__(self, ((m, ({k: 1}, 1)) for k, m in enumerate(keys)))
        for lead, lc, tail, _ in gb.entries:
            try:
                self[lead] = ({index[e]: field.neg(v) for e, v in tail.items()}, lc)
            except KeyError as exc:
                raise InternalError(
                    f"monomial {packing.unpack(exc.args[0])} of a basis tail"
                    " is off the standard basis"
                ) from None
        # x_i divides x^m iff (m + step) & guard == target, step = pad - key
        # of x_i; x^m / x_i has the key m - var[i]
        steps = tuple([(v, packing.pad - packing.one - v) for v in packing.var])
        # _q is the modulus, None over Q; both bases are called by name, as
        # super() would reach Frozen.__init__ before dict.__init__
        Frozen.__init__(self, gb, keys, index, field.modulus, packing, steps)

    @property
    def ring(self) -> Ring:
        return self.gb.ring

    @property
    def dimension(self) -> int:
        return len(self.keys)

    def times(self, nums: dict, den: int, v: int) -> tuple[dict, int]:
        """M_i: x_i * nums / den for a normal form nums / den in the table's
        integer form, v the key offset of x_i: sum_s c_s NF(x^(s + e_i))
        over the terms c_s x^s of nums, x^s the standard monomial at its
        position in nums, summed over the lcm of the entries' denominators
        (1 over F_p) and returned in the same form, on basis positions.
        Each s is standard, so every key looked up is standard or on the
        border."""
        q, keys = self._q, self.keys
        terms: dict = {}
        d = 1
        for s, c in nums.items():
            tn, td = self[keys[s] + v]
            if td != d:
                if d % td:
                    d = _to_lcm(d, td, (terms,))
                c *= d // td
            _add_shifted(terms, tn, 0, c, q)
        den *= d
        return (terms, 1) if den == 1 else _lowest(terms, den)

    def __missing__(self, a: int) -> tuple[dict, int]:
        keys, index = self.keys, self.index
        packing, steps = self._packing, self._steps
        guard, target = packing.guard, packing.target
        if a & guard:
            packing.overflow()
        stack = [a]
        while stack:
            m = stack[-1]
            if m in self:  # filled since it was pushed
                stack.pop()
                continue
            # a non-standard predecessor, one already in the table if any
            pred = prev = None
            for v, step in steps:
                if (m + step) & guard == target:
                    b = m - v
                    if b not in index:
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
            missing = [keys[s] + off for s in prev[0] if keys[s] + off not in self]
            if missing:
                stack.extend(missing)
                continue
            # NF(x^m) = x_i * NF(x^(m - e_i)), every entry it reads present
            self[m] = self.times(*prev, off)
            stack.pop()
        return self[a]


def standard_monomials(gb: GroebnerBasis) -> QuotientAlgebra:
    """Monomial basis of the quotient; errors if it is infinite.

    A monomial is standard iff no leading monomial divides it (Cox, Little
    & O'Shea, ch. 2 section 7 and ch. 5 section 3).  Each lead is unpacked
    once and filed under the variable of its last nonzero exponent, so a
    pure power of x_i is filed under x_i.  Finiteness test: every variable
    must have a pure power among the leading monomials.  Standard monomials
    then live in the box bounded by the least of those pure powers; its
    corner is checked against the exponent bound, and `_staircase` reads
    the standard set off the filed leads column by column.
    """
    ring = gb.ring
    n = ring.nvars
    packing = ring.packing
    leads = [d[0] for d in gb.entries]
    if packing.one in leads:
        # the ideal is the whole ring; the quotient is the zero ring
        return QuotientAlgebra(gb, ())
    tops = [[] for _ in range(n)]
    for e in map(packing.unpack, leads):
        j = max(compress(range(n), e))
        tops[j].append((e[j], e))
    box = []
    for j, top in enumerate(tops):
        top.sort()
        box.append(next((b for b, e in top if not any(e[:j])), None))
    missing = [x for x, b in zip(ring.variables, box) if b is None]
    if missing:
        raise NotFiniteLength(
            "no pure power of "
            + ", ".join(missing)
            + " among the leading monomials"
        )
    # the corner of the box, the largest standard monomial that can be, is
    # checked against the exponent bound first
    packing.pack([b - 1 for b in box])
    return QuotientAlgebra(gb, _staircase(tops, packing))


def _staircase(tops: list, packing: Packing) -> tuple[int, ...]:
    """The ascending keys of the standard monomials, from the leads filed
    by their last variable: tops[j] holds (e[j], e) for each lead e whose
    last nonzero exponent is e[j], lowest first.

    The standard set is grown one variable at a time, as the prefixes p of
    the first j exponents that are standard monomials in x_0..x_(j-1).
    x^p * x_j^k is standard iff k is below the height of p's column: the
    least e[j] of a lead e under x_j whose earlier exponents are all at
    most p's, the first such entry of tops[j].  Only x_j's leads bound the
    column, since a lead whose last variable comes earlier would divide
    x^p, and the pure power of x_j, filed there, always qualifies.  Each
    key is built as its prefix grows; the box corner has passed the
    exponent bound, so every key names its monomial.
    """
    cols = [((), packing.one)]
    for top, v in zip(tops, packing.var):
        grown = []
        for p, key in cols:
            height = next(b for b, e in top if all(map(le, e, p)))
            grown.extend((p + (k,), key + k * v) for k in range(height))
        cols = grown
    return tuple(sorted(key for _, key in cols))


def supported_only_at_origin(qa: QuotientAlgebra) -> bool:
    """True iff every variable is nilpotent in the quotient.

    x_i^D lies in the ideal iff the multiplication map M_i of x_i on the
    quotient is nilpotent (its minimal polynomial has degree at most D, the
    length), so testing the D-th powers is exact.  Let x_i^b be the least
    pure power of x_i among the leads: every lower power is standard, so b
    is at most D, and its normal form is the table's seed.  So NF(x_i^D) =
    M_i^(D-b) NF(x_i^b): the seed is multiplied by x_i in the quotient
    (`QuotientAlgebra.times`) at most D - b times, stopping at the first zero
    vector, since every later one is zero too.  Each step reads the table
    at x_i * s for standard s only, so no key outside the standard set and
    its border is formed or stored, however large D is: a key of x_i^k
    would pass the exponent bound once k does.  For D = 0 the ideal is the
    whole ring.
    """
    d = qa.dimension
    if not d:
        return True
    index = qa.index
    packing = qa.ring.packing
    for v in packing.var:
        b, key = 1, packing.one + v
        while key in index:  # the powers of x_i below the least lead
            b += 1
            key += v
        nf = qa[key]
        for _ in range(d - b):
            if not nf[0]:
                break
            nf = qa.times(*nf, v)
        if nf[0]:
            return False
    return True


def contains_one_with_certificate(gens: Sequence[Poly]):
    """Cofactors ((c_1, ..., c_m), d) with sum(c_i * gens_i) == d, or None.

    The certificate of Buchberger's unit basis in the integer working form
    of `GroebnerBasis.cofactors`: int term dicts over one positive
    denominator d.  It is unchecked here (umrow.is_unimodular checks each
    certificate once), and None when the basis is not {1}.
    """
    return buchberger(gens, certify=True).cofactors

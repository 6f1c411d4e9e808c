import collections
import functools
import heapq
import itertools
import random
from fractions import Fraction
from operator import add, sub

import pytest

from wittdeg import groebner, umrow
from wittdeg.degree import Endo
from wittdeg.errors import ExponentBoundExceeded, InternalError, NotFiniteLength
from wittdeg.groebner import (
    QuotientAlgebra,
    buchberger,
    contains_one_with_certificate,
    normal_form,
    standard_monomials,
    supported_only_at_origin,
)
from wittdeg.orders import GREVLEX, LEX
from wittdeg.poly import Poly, Ring, _add_shifted, _reduce, parse_poly
from wittdeg.umrow import UnimodularRow, compose_with_endo, is_unimodular

import conftest
from conftest import (
    basis_of,
    box_standard_keys,
    certificate,
    counterexample_endo,
    in_order,
    is_canonical_scalar,
    leading,
    monomial,
    monomial_nf,
    order_key,
    poly,
    random_poly,
    random_unit,
    reference_divide,
    universal_row,
)


@pytest.fixture
def R2(Q):
    return Ring(("x", "y"), Q)


@pytest.fixture
def cross_gb(R2):
    """Reduced basis of (x^2 - y^2, xy)."""
    return buchberger([parse_poly("x^2 - y^2", R2), parse_poly("x*y", R2)])


def test_buchberger_example(R2, cross_gb):
    expected = {
        parse_poly("x^2 - y^2", R2),
        parse_poly("x*y", R2),
        parse_poly("y^3", R2),
    }
    assert set(cross_gb.basis) == expected


def test_buchberger_single_generator(R2):
    gb = buchberger([R2.var(0)])
    assert gb.basis == (R2.var(0),)


def test_buchberger_char_zero_halving(R2):
    x, y = R2.gens()
    gb = buchberger([x + y, x - y])
    assert set(gb.basis) == {x, y}


def test_buchberger_permutation_stable(R2, Q):
    gens = [
        parse_poly("x^2 - y^2", R2),
        parse_poly("x*y", R2),
        parse_poly("x^3 + y", R2),
    ]
    bases = set()
    for perm in itertools.permutations(gens):
        bases.add(buchberger(list(perm)).basis)
    assert len(bases) == 1


def test_normal_form_examples(R2, cross_gb):
    x, y = R2.gens()
    assert normal_form(x**2, cross_gb) == y**2
    assert normal_form(x**3, cross_gb).is_zero
    q = parse_poly("x + 2", R2)
    assert normal_form(q, cross_gb) == q


def test_normal_form_properties_random(Q, F7):
    rng = random.Random(31337)
    for field, nvars in itertools.product((Q, F7), (2, 3)):
        ring = Ring(tuple("xyz"[:nvars]), field)
        for _ in range(15):
            gens = [random_poly(rng, ring) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            gb = buchberger(gens)
            if not gb.basis:
                continue
            f = random_poly(rng, ring)
            g = random_poly(rng, ring)
            nf = lambda p: normal_form(p, gb)
            assert nf(f * g) == nf(nf(f) * nf(g))
            assert nf(nf(f)) == nf(f)
            assert nf(f - nf(f)).is_zero
            # linearity
            assert nf(f + g) == nf(f) + nf(g)


def test_standard_monomials_example(R2, cross_gb):
    qa = standard_monomials(cross_gb)
    assert qa.dimension == 4
    exps = tuple(map(R2.packing.unpack, qa.keys))
    assert exps == ((0, 0), (0, 1), (1, 0), (0, 2))


def test_standard_monomials_point(Q):
    ring = Ring(("x1", "x2", "x3"), Q)
    qa = standard_monomials(buchberger(list(ring.gens())))
    assert qa.dimension == 1
    assert tuple(map(ring.packing.unpack, qa.keys)) == ((0, 0, 0),)


def test_standard_monomials_infinite(R2):
    gb = buchberger([R2.var(0)])
    with pytest.raises(NotFiniteLength):
        standard_monomials(gb)


def _random_monomial_ideal(rng, ring):
    """A pure power of each variable, or of all but one (an infinite
    quotient), and a few random mixed monomials: a Groebner basis as it
    stands, whose standard set is an order ideal of any shape."""
    n = ring.nvars
    gens = []
    skip = rng.randrange(n) if rng.random() < 0.1 else None
    for i in range(n):
        if i != skip:
            exps = [0] * n
            exps[i] = rng.randint(1, 7)
            gens.append(monomial(ring, exps))
    for _ in range(rng.randint(0, 2 * n)):
        gens.append(monomial(ring, [rng.randint(0, 4) for _ in range(n)]))
    return gens


def test_staircase_matches_the_box_reference(Q, F7):
    """standard_monomials returns the keys of the box enumeration (or
    raises as it does) on random bases in 1-4 variables under both orders,
    and on one 60-variable system whose staircase has a corner."""
    rng = random.Random(5077)
    kinds = {"finite": 0, "infinite": 0, "unit": 0}
    for field, order, n in itertools.product((Q, F7), (GREVLEX, LEX), range(1, 5)):
        ring = Ring(tuple(f"x{i}" for i in range(n)), field, order)
        systems = [_random_monomial_ideal(rng, ring) for _ in range(12)]
        if n < 4 or (order is GREVLEX and field is F7):
            systems += [_random_finite_ideal(rng, ring) for _ in range(6)]
        for gens in systems:
            gb = buchberger(gens)
            try:
                ref = box_standard_keys(gb)
            except NotFiniteLength:
                with pytest.raises(NotFiniteLength):
                    standard_monomials(gb)
                kinds["infinite"] += 1
                continue
            assert standard_monomials(gb).keys == ref
            kinds["finite" if ref else "unit"] += 1
    assert all(kinds.values()), kinds
    # x_0^3, x_1^2, x_2^2, the other x_i and x_0 x_1: 8 standard monomials
    for order in (GREVLEX, LEX):
        ring = Ring(tuple(f"x{i}" for i in range(60)), Q, order)
        powers = [3, 2, 2] + [1] * 57
        gens = [
            monomial(ring, [b if i == j else 0 for i in range(60)])
            for j, b in enumerate(powers)
        ]
        gens.append(monomial(ring, [1, 1] + [0] * 58))
        gb = buchberger(gens)
        ref = box_standard_keys(gb)
        assert len(ref) == 8
        assert standard_monomials(gb).keys == ref


def test_dimension_order_independent(Q):
    systems = [
        ("x^2 - y^2", "x*y"),
        ("x^3", "y^2"),
        ("x^2 + y", "y^3 - x"),
        ("x + y", "y^4"),
    ]
    rings = [Ring(("x", "y"), Q, order) for order in (GREVLEX, LEX)]
    for texts in systems:
        d1, d2 = (
            standard_monomials(
                buchberger([parse_poly(t, ring) for t in texts])
            ).dimension
            for ring in rings
        )
        assert d1 == d2


def test_supported_only_at_origin(R2, cross_gb, Q):
    assert supported_only_at_origin(standard_monomials(cross_gb))
    away = buchberger([parse_poly("x^2 - x", R2), R2.var(1)])
    assert not supported_only_at_origin(standard_monomials(away))
    ring = Ring(("x1", "x2", "x3"), Q)
    point = standard_monomials(buchberger(list(ring.gens())))
    assert supported_only_at_origin(point)


def test_contains_one_trivial_cases(R2, Q):
    x, y = R2.gens()
    cert = contains_one_with_certificate([x, R2.one() - x])
    assert cert == ((R2.one().packed, R2.one().packed), 1)
    ring = Ring(("x1", "x2", "x3"), Q)
    assert contains_one_with_certificate(list(ring.gens())) is None


def test_contains_one_with_relation(Q):
    ring = Ring(("x1", "x2", "x3", "y1", "y2", "y3"), Q)
    gens = [
        parse_poly("x1^2 - x2^2", ring),
        parse_poly("x1*x2", ring),
        parse_poly("x3", ring),
        parse_poly("x1*y1 + x2*y2 + x3*y3 - 1", ring),
    ]
    # the integer working form: int term dicts over one denominator
    nums, den = contains_one_with_certificate(gens)
    assert den > 0 and all(type(v) is int for c in nums for v in c.values())
    total = ring.zero()
    for c, g in zip(nums, gens):
        total = total + Poly(ring, c) * g
    assert total == ring.constant(den)


def test_monomial_order_axioms():
    rng = random.Random(140)
    for order in (GREVLEX, LEX):
        key = order_key(order)
        # well-founded: the constant monomial is minimal
        samples = [
            tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(50)
        ]
        assert all(key((0, 0, 0)) <= key(m) for m in samples)
        for _ in range(200):
            a, b, c = (
                tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(3)
            )
            # totality: keys of distinct monomials differ
            if a != b:
                assert key(a) != key(b)
            # multiplicativity: a < b implies a+c < b+c
            if key(a) < key(b):
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert key(ac) < key(bc)


def _assert_reduced_basis(gb):
    """No term of a basis element is divisible by another element's leading
    monomial, and every S-polynomial of the basis has normal form 0."""
    ring = gb.ring
    leads = [leading(g)[0] for g in gb.basis]
    for i, g in enumerate(gb.basis):
        for e in g.terms:
            assert not any(
                all(a <= b for a, b in zip(le, e))
                for j, le in enumerate(leads)
                if j != i
            )
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            li, lj = leads[i], leads[j]
            lcm = tuple(max(a, b) for a, b in zip(li, lj))
            mi = monomial(ring, tuple(a - b for a, b in zip(lcm, li)))
            mj = monomial(ring, tuple(a - b for a, b in zip(lcm, lj)))
            s = mi * gb.basis[i] - mj * gb.basis[j]
            assert normal_form(s, gb).is_zero


def test_basis_is_autoreduced_and_spolys_vanish(Q):
    ring = Ring(("x", "y", "z"), Q)
    gens = [
        parse_poly("x^2 - y*z", ring),
        parse_poly("x*y - z", ring),
        parse_poly("y^2 + x*z", ring),
    ]
    _assert_reduced_basis(buchberger(gens))


def test_cofactor_identities_hold(Q):
    rng = random.Random(606)
    ring = Ring(("x", "y"), Q)
    units = 0
    for _ in range(10):
        gens = [random_poly(rng, ring, max_degree=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        gb = buchberger(gens, certify=True)
        if gb.basis != (ring.one(),):
            assert certificate(gb) is None
            continue
        units += 1
        total = ring.zero()
        for c, g in zip(certificate(gb), gens):
            total = total + c * g
        assert total == ring.one()
    assert units > 0


# -- the division kernel against the two loops it replaced ---------------------


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class _Tracked:
    __slots__ = ("poly", "cof")

    def __init__(self, poly, cof):
        self.poly = poly
        self.cof = cof


def _reference_reduce_tracked(p, cof, work, track):
    """The former Buchberger reduction with cofactors, kept verbatim."""
    ring = p.ring
    rem = ring.zero()
    cur = p
    while not cur.is_zero:
        ce, cc = leading(cur)
        for elt in work:
            de, dc = leading(elt.poly)
            if _divides(de, ce):
                mono = monomial(
                    ring,
                    tuple(a - b for a, b in zip(ce, de)),
                    ring.field.canon(Fraction(cc) / dc),
                )
                cur = cur - mono * elt.poly
                if track:
                    cof = [a - mono * b for a, b in zip(cof, elt.cof)]
                break
        else:
            t = monomial(ring, ce, cc)
            rem = rem + t
            cur = cur - t
    return rem, cof


def _random_divisors(rng, ring):
    """Arbitrary divisor lists, not Groebner bases, often with several
    divisors whose leading monomials divide the same term."""
    divisors = []
    for _ in range(rng.randint(1, 4)):
        d = random_poly(rng, ring, max_degree=2, max_terms=3)
        if not d.is_zero:
            divisors.append(d)
    return divisors


def test_reduce_matches_reference_division(Q, F7):
    rng = random.Random(2718)
    units = random.Random(2719)  # its own stream: rng draws the same cases
    for field, order in itertools.product((Q, F7), (GREVLEX, LEX)):
        ring = Ring(("x", "y", "z"), field, order)
        for _ in range(60):
            divisors = _random_divisors(rng, ring)
            if not divisors:
                continue
            p = random_poly(rng, ring, max_degree=5, max_terms=6, coeff_range=5)
            # the same case with every input scaled by a unit: over Q the
            # divisors lead with non-integral rationals
            scaled = [d * random_unit(units, field) for d in divisors]
            sp = p * random_unit(units, field)
            for x, ds in ((p, divisors), (sp, scaled)):
                _, expected = reference_divide(x, ds)
                got = normal_form(x, basis_of(ds))
                assert got == expected
                assert all(is_canonical_scalar(field, c) for c in got.terms.values())


def test_reduce_matches_reference_cofactor_tracking(Q, F7):
    rng = random.Random(1618)
    for field, order in itertools.product((Q, F7), (GREVLEX, LEX)):
        ring = Ring(("x", "y", "z"), field, order)
        for _ in range(60):
            divisors = _random_divisors(rng, ring)
            if not divisors:
                continue
            cofs = [
                [random_poly(rng, ring, max_degree=2) for _ in range(3)]
                for _ in divisors
            ]
            p = random_poly(rng, ring, max_degree=5, max_terms=6, coeff_range=5)
            start = [random_poly(rng, ring, max_degree=2) for _ in range(3)]
            work = [_Tracked(d, c) for d, c in zip(divisors, cofs)]
            rem, cof = _reference_reduce_tracked(p, start, work, True)
            # the kernel runs on the term maps of the ring's packing, and
            # consumes the dict it reduces; a logged step is relative to the
            # monic divisor d / lc(d), so each tag is the vector of the
            # monic divisor; an entry is (lead, lc, tail, tag)
            entries = []
            for d, cv in zip(divisors, cofs):
                tail = dict(d.packed)
                lead = max(tail)
                monic = field.canon(1 / Fraction(leading(d)[1]))
                tag = [(c * monic).packed for c in cv]
                entries.append((lead, tail.pop(lead), tail, tag))
            log = []
            got, scale = _reduce(dict(p.packed), entries, ring.packing, field, log)
            exact = {e: field.canon(Fraction(v, scale)) for e, v in got.items()}
            assert exact == rem.packed
            # the log replays into the cofactors the old in-place loop built;
            # a step's multiplier is two ints, c / den, never a scalar, and
            # its denominator is 1 over F_p
            got_cof = [dict(c.packed) for c in start]
            for vec, shift, c, den in log:
                assert type(c) is int and type(den) is int and den > 0
                assert den == 1 or field.is_rationals
                c = field.canon(Fraction(c, den))
                for dst, src in zip(got_cof, vec):
                    _add_shifted(dst, src, shift, c, field.modulus)
            assert got_cof == [c.packed for c in cof]


# -- lazy cofactors against the eager Buchberger they replaced -----------------


def _eager_entry(terms, packing, tag=None):
    """A monic-basis entry (lead, lc, tail, tag): the lead on exponents, the
    tail packed for the kernel."""
    exps = packing.unpack
    key = order_key(packing.order)
    lead = max(terms, key=lambda k: key(exps(k)))
    tail = dict(terms)
    return exps(lead), tail.pop(lead), tail, tag


def _eager_reduce(terms, basis, packing, field, cof=None):
    """The former division kernel with in-place cofactors, kept verbatim but
    for the keys: terms, tails and cofactors are packed for the kernel's
    `_add_shifted`, while the order, the leads and the shifts stay on
    exponent tuples."""
    q = field.modulus
    exps = functools.cache(packing.unpack)  # local: each call's terms once
    tuple_key = order_key(packing.order)
    key = functools.cache(lambda k: tuple_key(exps(k)))
    rem = {}
    while terms:
        ce = max(terms, key=key)
        cc = terms.pop(ce)
        for de, dc, tail, dcof in basis:
            if _divides(de, exps(ce)):
                break
        else:
            rem[ce] = cc
            continue
        c = field.canon(Fraction(-cc) / dc) if q is None else -cc * pow(dc, -1, q) % q
        shift = packing.pack(tuple(map(sub, exps(ce), de))) - packing.one
        _add_shifted(terms, tail, shift, c, q)
        if cof is not None:
            for dst, src in zip(cof, dcof):
                _add_shifted(dst, src, shift, c, q)
    return rem


def _eager_buchberger(gens, track_cofactors=False):
    """The former eager cofactor-tracking Buchberger, kept verbatim but for
    the kernel it calls, on packed term dicts, and for the pairs: it takes
    those of `buchberger`, written here on exponent tuples.  A new entry's
    pairs (i, t) are grouped by lcm, each group keeps its first i, and a
    group goes if a member has coprime leading monomials or another group's
    lcm properly divides its lcm (Gebauer-Moeller); the least sugar is
    reduced first, then the smallest lcm.  Under sugar selection a run
    without the criteria can reduce a pair they drop before the pairs that
    make it redundant, and find another, equally valid, certificate."""
    ring = gens[0].ring
    field = ring.field
    q = field.modulus
    minus_one = field.from_int(-1)
    key = order_key(ring.order)
    packing = ring.packing
    m = len(gens)
    # monic working basis as _eager_entry tuples, in order of discovery
    work = []
    # the sugar of each working entry
    sugars = []
    # heap of pending pairs (sugar, order key of their lcm, i, j)
    pairs = []

    def append(terms, cof, sugar):
        """Reduce terms by the working basis and keep a nonzero remainder
        with the sugar of terms; a generator's (sugar None) is the
        remainder's total degree."""
        rem = _eager_reduce(terms, work, packing, field, cof)
        if not rem:
            return
        if sugar is None:
            sugar = max(sum(packing.unpack(e)) for e in rem)
        lead, lc, tail, _ = _eager_entry(rem, packing)
        inv = field.canon(1 / Fraction(lc))
        tail = {e: field.canon(v * inv) for e, v in tail.items()}
        if cof is not None:
            cof = [{e: field.canon(v * inv) for e, v in c.items()} for c in cof]
        groups = {}
        for i, w in enumerate(work):
            lcm = tuple(map(max, w[0], lead))
            coprime = lcm == tuple(map(add, w[0], lead))
            groups.setdefault(lcm, [i, False])[1] |= coprime
        for lcm, (i, coprime) in groups.items():
            if coprime or any(d != lcm and _divides(d, lcm) for d in groups):
                continue
            # x^(lcm - lead_i) * f_i against x^(lcm - lead) * f
            sug = sum(lcm) + max(sugars[i] - sum(work[i][0]), sugar - sum(lead))
            heapq.heappush(pairs, (sug, key(lcm), i, len(work)))
        work.append((lead, field.one, tail, cof))
        sugars.append(sugar)

    for k, g in enumerate(gens):
        if g.is_zero:
            continue
        cof = None
        if track_cofactors:
            cof = [{} for _ in range(m)]
            cof[k] = {packing.one: field.one}
        append(dict(g.packed), cof, None)

    while pairs:
        sugar, _, i, j = heapq.heappop(pairs)
        li, _, tail_i, cof_i = work[i]
        lj, _, tail_j, cof_j = work[j]
        lcm = tuple(map(max, li, lj))
        si = packing.pack(tuple(map(sub, lcm, li))) - packing.one
        sj = packing.pack(tuple(map(sub, lcm, lj))) - packing.one
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
        append(s, cof, sugar)

    return _eager_reduce_basis(tuple(gens), work, packing, track_cofactors)


def _eager_reduce_basis(gens, work, packing, track):
    ring = gens[0].ring
    key = order_key(packing.order)
    # minimal basis: drop elements whose leading monomial another divides
    work = sorted(work, key=lambda w: key(w[0]))
    kept = []
    for w in work:
        if not any(_divides(k[0], w[0]) for k in kept):
            kept.append(w)
    # autoreduce tails until stable
    changed = True
    while changed:
        changed = False
        for idx, (lead, lc, tail, cof) in enumerate(kept):
            terms = {packing.pack(lead): lc, **tail}
            others = kept[:idx] + kept[idx + 1 :]
            # cof changes in place only when a reduction step happens, and
            # then the remainder differs from terms and replaces the entry
            rem = _eager_reduce(dict(terms), others, packing, ring.field, cof)
            if rem != terms:
                kept[idx] = _eager_entry(rem, packing, cof)
                changed = True
    kept.sort(key=lambda w: key(w[0]))
    basis = tuple(
        Poly(ring, {packing.pack(lead): lc, **tail})
        for lead, lc, tail, _ in kept
    )
    cofactors = (
        tuple(tuple(Poly(ring, c) for c in w[3]) for w in kept)
        if track
        else None
    )
    return basis, cofactors


def _triangular_endo(rng, field, ms):
    """x_i -> c * x_i^{m_i} + sum_{j<i} x_j * g_ij with two-term g_ij of
    degree at most 1: the shape of the endomorphisms in the rows benchmark."""
    ring = Ring(("x1", "x2", "x3"), field)
    c = rng.choice((1, -1, 2, -2, 3))
    images = []
    for i, m in enumerate(ms):
        exps = [0] * 3
        exps[i] = m
        p = monomial(ring, exps, c)
        for j in range(i):
            tail = random_poly(rng, ring, max_degree=1, max_terms=2)
            p = p + ring.var(j) * tail
        images.append(p)
    return Endo(ring=ring, images=tuple(images))


def _chain_ideal(rng, ring):
    """x_i^m_i plus terms in the later variables only: the leading monomials
    are coprime, and autoreduction reduces each element by the later ones."""
    gens = []
    for i in range(ring.nvars):
        exps = [0] * ring.nvars
        exps[i] = rng.randint(1, 3)
        tail = random_poly(rng, ring, max_degree=3, max_terms=3).terms
        tail = {e: c for e, c in tail.items() if not any(e[: i + 1])}
        gens.append(monomial(ring, exps) + poly(ring, tail))
    return gens


def _certified_like_eager(gens):
    """buchberger(gens, certify=True), checked against the eager reference:
    the same basis, and as certificate the eager cofactors of the unit
    basis, or None when the basis is not {1}."""
    basis, cofactors = _eager_buchberger(gens, track_cofactors=True)
    gb = buchberger(gens, certify=True)
    assert gb.basis == basis
    _assert_reduced_basis(gb)  # the criteria both share drop no needed pair
    unit = basis == (gens[0].ring.one(),)
    assert certificate(gb) == (cofactors[0] if unit else None)
    return gb


def _lazy_equals_eager(gens, units=None):
    """The lazy basis and certificate equal the eager reference's; with a
    units stream, so do those of the generators scaled by random units, which
    over Q lead with non-integral rationals."""
    gb = _certified_like_eager(gens)
    if units is not None:
        field = gens[0].ring.field
        scaled = [g * random_unit(units, field) for g in gens]
        assert _certified_like_eager(scaled).basis == gb.basis
    return gb


def test_buchberger_cofactors_match_eager_reference(Q, F7):
    rng = random.Random(1729)
    units = random.Random(1730)  # its own stream: rng draws the same cases
    seen = {"unit": 0, "zero": 0, "duplicate": 0, "several": 0}
    for field, order in itertools.product((Q, F7), (GREVLEX, LEX)):
        for _ in range(25):
            ring = Ring(tuple("xyz"[: rng.randint(2, 3)]), field, order)
            gens = [
                random_poly(rng, ring, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, 3))
            ]
            roll = rng.random()
            if roll < 0.25:
                gens.insert(rng.randint(0, len(gens)), ring.zero())
                seen["zero"] += 1
            elif roll < 0.5:
                gens.append(rng.choice(gens))
                seen["duplicate"] += 1
            gb = _lazy_equals_eager(gens, units)
            seen["unit"] += gb.basis == (ring.one(),)
        # finite quotients with bases of several elements
        for _ in range(10):
            ring = Ring(tuple("xyz"[: rng.randint(2, 3)]), field, order)
            gb = _lazy_equals_eager(_random_finite_ideal(rng, ring), units)
            seen["several"] += len(gb.basis) > 2
    assert min(seen.values()) >= 10
    rng = random.Random(4104)
    for field, order in itertools.product((Q, F7), (GREVLEX, LEX)):
        for _ in range(10):
            ideal = _chain_ideal(rng, Ring(("x", "y", "z"), field, order))
            _lazy_equals_eager(ideal, units)
        # the tautological row over S_3 composed with rows-benchmark shapes
        row = universal_row(field, 3)
        for ms in 3 * ((1, 1, 2), (1, 2, 2), (2, 1, 2), (1, 2, 1)):
            composed = compose_with_endo(row, _triangular_endo(rng, field, ms))
            gens = list(composed.entries) + list(row.algebra.relations)
            gens = in_order(gens, order)
            gb = _lazy_equals_eager(gens, units)
            assert gb.basis == (gens[0].ring.one(),)


def _proper_ancestors(work):
    """The working entries the unit, the last one, descends from: the S-pair
    parents and the logged divisors of each, marked backwards."""
    needed = {len(work) - 1}
    for idx in range(len(work) - 1, -1, -1):
        if idx in needed:
            _, origin, log, _ = work[idx][3]
            if not isinstance(origin, int):
                needed.update(origin[:2])
            needed.update(step[0][0] for step in log)
    return needed - {len(work) - 1}


def test_integer_replay_equals_eager_reference(Q, F7, monkeypatch):
    # the second generator p*h + w is reduced by the first as it enters, and
    # four random polynomials p, w, a, b in three variables with constant
    # terms mostly generate the unit ideal: its unit often descends from a
    # generator whose recipe logged steps, which the replay must not skip,
    # and from S-pairs
    works = []
    replay = groebner._certificate

    def spy(work, m, ring):
        works.append(work)
        return replay(work, m, ring)

    monkeypatch.setattr(groebner, "_certificate", spy)
    rng = random.Random(3141)
    units = random.Random(3142)  # its own stream: rng draws the same cases
    for field, order in itertools.product((Q, F7), (GREVLEX, LEX)):
        ring = Ring(("x", "y", "z"), field, order)
        x = ring.gens()
        logged = pairs = 0
        for _ in range(15):
            p = random_poly(rng, ring, max_degree=2, max_terms=3) + rng.choice(x)
            h = random_poly(rng, ring, max_degree=2, max_terms=2) + rng.choice(x)
            w, a, b = (
                random_poly(rng, ring, max_degree=2, max_terms=2)
                + rng.choice(x)
                + rng.choice((1, -2, 3))
                for _ in range(3)
            )
            del works[:]
            _lazy_equals_eager([p, p * h + w, a, b], units)
            for work in works:
                ancestors = _proper_ancestors(work)
                logged += any(
                    isinstance(work[i][3][1], int) and work[i][3][2]
                    for i in ancestors
                )
                pairs += any(
                    not isinstance(work[i][3][1], int)
                    for i in ancestors | {len(work) - 1}
                )
        assert logged >= 10 and pairs >= 10, (field, order, logged, pairs)


def test_certificate_makes_fractions_only_at_the_boundary(Q, monkeypatch):
    # over Q the step log and the replay hold ints: the only Fractions a
    # certifying Buchberger makes are the certificate's scalars, made by
    # _ratios when the certificate is read (conftest.certificate), at most
    # one per term.
    # is_unimodular keeps the int form through its reduction and its check:
    # it makes Fractions only for the n entry cofactors it returns, at most
    # one per printed term, and never converts the relation's cofactor
    rng = random.Random(2236)
    units = random.Random(2237)
    row = universal_row(Q, 3)
    cases = []
    for ms in ((1, 1, 2), (1, 2, 2), (2, 1, 2), (1, 2, 1)):
        composed = compose_with_endo(row, _triangular_endo(rng, Q, ms))
        entries = [g * random_unit(units, Q) for g in composed.entries]
        cases.append(entries + list(row.algebra.relations))
    made = 0
    at_boundary = []
    converted = []  # the module of each _ratios call
    fraction_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return fraction_new(cls, *args, **kwargs)

    def boundary(module):
        ratios = module._ratios

        def spy(nums, den):
            if not at_boundary:
                at_boundary.append(made)
            converted.append(module.__name__)
            return ratios(nums, den)

        return spy

    results = []
    checked = []
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counted_new))
        for module in (groebner, umrow, conftest):
            patch.setattr(module, "_ratios", boundary(module))
        for gens in cases:
            made = 0
            del at_boundary[:]
            cert = certificate(buchberger(gens, certify=True))
            results.append((gens, cert, made, list(at_boundary)))
            made = 0
            del at_boundary[:], converted[:]
            composed = UnimodularRow(algebra=row.algebra, entries=tuple(gens[:3]))
            cert = is_unimodular(composed)
            checked.append((composed, cert, made, list(at_boundary), list(converted)))
    for gens, cert, made, at_boundary in results:
        terms = sum(len(c.packed) for c in cert)
        assert at_boundary == [0]
        assert 0 < made <= terms
        total = gens[0].ring.zero()
        for c, g in zip(cert, gens):
            total = total + c * g
        assert total == gens[0].ring.one()
    for composed, cert, made, at_boundary, converted in checked:
        assert at_boundary == [0]
        assert converted == ["wittdeg.umrow"] * 3
        # the entries are scaled by random units, so some cofactor term is
        # not integral
        assert 0 < made <= sum(len(b.packed) for b in cert)
        residue = composed.algebra.ring.zero() - 1
        for b, a in zip(cert, composed.entries):
            residue = residue + b * a
        relgb = buchberger(list(composed.algebra.relations))
        assert normal_form(residue, relgb).is_zero


def test_reduce_uses_first_divisor_in_list_order(Q):
    ring = Ring(("x", "y"), Q)
    x, y = ring.gens()
    for divisors, expected in (([x + y, x - y], -y), ([x - y, x + y], y)):
        assert normal_form(x, basis_of(divisors)) == expected


def test_buchberger_stops_at_the_unit(Q, monkeypatch):
    # once 1 is in the working basis every pending pair reduces to zero, so
    # no reduction may run until the basis is autoreduced
    events = []

    def reduce(terms, basis, *args):
        rem, scale = _reduce(terms, basis, *args)
        # the leading monomial, unpacked from the packing args[0], is 1 only
        # for a constant remainder
        unit = rem and not any(args[0].unpack(max(rem)))
        events.append("unit" if unit else "reduce")
        return rem, scale

    def reduce_basis(*args):
        events.append("basis")
        return reduce_basis_orig(*args)

    reduce_basis_orig = groebner._reduce_basis
    monkeypatch.setattr(groebner, "_reduce", reduce)
    monkeypatch.setattr(groebner, "_reduce_basis", reduce_basis)
    R2 = Ring(("x", "y"), Q)
    row = universal_row(Q, 3)
    rng = random.Random(11)
    cases = [[parse_poly(s, R2) for s in ("x^2", "x*y + 1", "y^2")]] + [
        list(compose_with_endo(row, endo).entries) + list(row.algebra.relations)
        for endo in (
            counterexample_endo(Q),
            _triangular_endo(rng, Q, (1, 2, 2)),
            _triangular_endo(rng, Q, (2, 1, 2)),
        )
    ]
    for gens, certify in itertools.product(cases, (False, True)):
        events.clear()
        gb = buchberger(gens, certify=certify)
        assert gb.basis == (gens[0].ring.one(),)
        assert events[events.index("unit") + 1] == "basis", events


def test_pair_criteria_tame_the_lex_swell(Q, monkeypatch):
    # without the Gebauer-Moeller criteria this LEX basis took 365
    # reductions, most of them to zero, for a basis of 3 elements
    calls = []

    def reduce(*args):
        calls.append(None)
        return _reduce(*args)

    monkeypatch.setattr(groebner, "_reduce", reduce)
    ring = Ring(("x", "y", "z"), Q, LEX)
    gens = [
        parse_poly(s, ring)
        for s in ("x^2", "y^3 + x", "-2*x^2 - 2*y^2 - 2*x*z + z^2 + 3*x + y")
    ]
    gb = buchberger(gens)
    assert [str(g) for g in gb.basis] == [
        "z^12",
        "-204*z^11 + 503*z^10 + 20*z^9 - 70*z^8 - 2*z^7 + 11*z^6 - 2*z^4"
        " + z^2 + y",
        "6*z^11 - 45*z^10 + 6*z^8 - z^6 + x",
    ]
    assert len(calls) <= 60


def test_lex_bases_of_random_ideals(Q):
    # LEX bases checked without a reference Buchberger: each basis is
    # reduced, lies in the ideal (each element reduces to 0 modulo the
    # GREVLEX basis of the same generators) and contains it (every
    # generator reduces to 0)
    rng = random.Random(2718)
    ring = Ring(("x", "y", "z"), Q, LEX)
    sizes = set()
    for _ in range(20):
        gens = _random_finite_ideal(rng, ring)
        gb = buchberger(gens)
        _assert_reduced_basis(gb)
        grevlex = buchberger(in_order(gens, GREVLEX))
        for g in gb.basis:
            assert leading(g)[1] == 1
            assert normal_form(in_order([g], GREVLEX)[0], grevlex).is_zero
        assert all(normal_form(f, gb).is_zero for f in gens)
        sizes.add(len(gb.basis))
    assert max(sizes) >= 3


def _reference_supported_only_at_origin(qa):
    """The former direct x_i^D reduction."""
    ring = qa.ring
    d = qa.dimension
    for i in range(ring.nvars):
        exps = [0] * ring.nvars
        exps[i] = d
        if not normal_form(monomial(ring, exps), qa.gb).is_zero:
            return False
    return True


def _random_finite_ideal(rng, ring):
    """Generators x_i^m_i + tail_i with a finite quotient.  Half the time the
    tails are x_j * (random linear) for j < i: the system is triangular, and
    its only zero is the origin.  Otherwise they are random terms of degree
    below m_i, constants included, so zeros away from the origin and the
    unit ideal occur."""
    triangular = rng.random() < 0.5
    gens = []
    for i in range(ring.nvars):
        m = rng.randint(1, 3)
        exps = [0] * ring.nvars
        exps[i] = m
        if triangular:
            tail = ring.zero()
            for j in range(i):
                tail = tail + ring.var(j) * random_poly(rng, ring, max_degree=1)
        else:
            tail = random_poly(rng, ring, max_degree=m - 1, max_terms=3)
        gens.append(monomial(ring, exps) + tail)
    return gens


def test_nilpotency_walk_matches_reference(Q, F7):
    rng = random.Random(3141)
    verdicts = {True: 0, False: 0}
    units = filled = 0
    for field, order in itertools.product((Q, F7), (GREVLEX, LEX)):
        rings = [Ring(("x", "y"), field, order), Ring(("x", "y", "z"), field, order)]
        systems = [_random_finite_ideal(rng, rng.choice(rings)) for _ in range(40)]
        x, y, z = rings[1].gens()
        # a point away from the origin, two points, the origin alone, the unit ideal
        systems += [[x + 1, y, z], [x * x - x, y, z], [x**3, y**2 - x, z]]
        systems.append([x, x + 1, z])
        for gens in systems:
            qa = standard_monomials(buchberger(gens))
            seeded = set(qa._nf_table)
            got = supported_only_at_origin(qa)
            # the test multiplies in the quotient: every entry it fills is
            # x_j * s for a standard s, on the border, never a power x_i^k
            # past it
            packing = qa.ring.packing
            standard = set(qa.keys)
            for key in set(qa._nf_table) - seeded:
                filled += 1
                a = packing.unpack(key)
                assert any(
                    a[j] and packing.pack(a[:j] + (a[j] - 1,) + a[j + 1 :]) in standard
                    for j in range(len(a))
                )
            assert got == _reference_supported_only_at_origin(qa)
            verdicts[got] += 1
            units += qa.dimension == 0
    assert min(verdicts.values()) >= 20
    assert units >= 4
    assert filled >= 100


def test_nilpotency_walk_starts_at_the_least_pure_power(Q, F7, monkeypatch):
    """For each variable x_i the walk multiplies NF(x_i^b), b the least
    pure power of x_i among the leads, by x_i in the quotient at most
    D - b times, D the length.  A fill of a border entry calls
    `_NFTable.times` too, from inside another call: the walk's steps are
    the calls that no other call makes."""
    rng = random.Random(2719)
    steps = collections.Counter()
    depth = 0
    times = groebner._NFTable.times

    def counted(table, nums, den, v):
        nonlocal depth
        if not depth:
            steps[v] += 1
        depth += 1
        try:
            return times(table, nums, den, v)
        finally:
            depth -= 1

    monkeypatch.setattr(groebner._NFTable, "times", counted)
    walked = 0
    verdicts = {True: 0, False: 0}
    for field, order in itertools.product((Q, F7), (GREVLEX, LEX)):
        ring = Ring(("x", "y", "z"), field, order)
        packing = ring.packing
        for _ in range(8):
            # x_i^m_i plus x_j * (linear) for j > i, below x_i^m_i in both
            # orders: the leads are the pure powers, the origin is the only
            # zero, and NF(x_i^m_i) is rarely zero.  With -x_i added, the
            # roots of unity are zeros too
            gens = []
            for i in range(ring.nvars):
                exps = [0] * ring.nvars
                exps[i] = rng.randint(3, 5)
                tail = -ring.var(i) if rng.random() < 0.1 else ring.zero()
                for j in range(i + 1, ring.nvars):
                    tail = tail + ring.var(j) * random_poly(rng, ring, max_degree=1)
                gens.append(monomial(ring, exps) + tail)
            qa = standard_monomials(buchberger(gens))
            steps.clear()
            got = supported_only_at_origin(qa)
            assert got == _reference_supported_only_at_origin(qa)
            verdicts[got] += 1
            for i, v in enumerate(packing.var):
                b = min(
                    a[i]
                    for a in map(packing.unpack, (e[0] for e in qa.gb.entries))
                    if a[i] == sum(a)
                )
                assert b >= 3
                assert steps[v] <= qa.dimension - b
            walked += sum(steps.values())
    assert min(verdicts.values()) >= 4, verdicts
    assert walked >= 100


def test_monomial_table_matches_direct_normal_form(Q, F7):
    # the division of normal_form is the oracle for every table entry:
    # warm tables queried at random, cold ones in descending degree, so
    # that each query fills a long chain, in 3 and 4 variables (4 under
    # GREVLEX only: with random 4-variable LEX bases as well, this test
    # took 12 s instead of 0.7 s on a 2-core x86-64 machine)
    rng = random.Random(2236)
    cases = [(f, o, "xyz") for f, o in itertools.product((Q, F7), (GREVLEX, LEX))]
    cases += [(f, GREVLEX, "wxyz") for f in (Q, F7)]
    units = 0
    for field, order, names in cases:
        ring = Ring(tuple(names), field, order)
        x = ring.gens()
        systems = [_random_finite_ideal(rng, ring) for _ in range(10)]
        systems.append([x[0], x[0] + 1] + list(x[2:]))  # the unit ideal
        for gens in systems:
            gb = buchberger(gens)
            qa = standard_monomials(gb)
            units += qa.dimension == 0
            exps = [tuple(rng.randint(0, 5) for _ in names) for _ in range(8)]
            for a in exps:
                expected = normal_form(monomial(ring, a), gb).terms
                assert monomial_nf(qa, a) == expected
                # memoized entries are returned unchanged
                assert monomial_nf(qa, a) == expected
            cold = standard_monomials(gb)
            for a in sorted(exps, key=sum, reverse=True):
                assert monomial_nf(cold, a) == normal_form(monomial(ring, a), gb).terms
            for key in cold._nf_table:
                a = ring.packing.unpack(key)
                assert monomial_nf(cold, a) == normal_form(monomial(ring, a), gb).terms
    assert units >= len(cases)


def test_monomial_table_never_divides(Q, monkeypatch):
    # the table is seeded from the reduced basis and filled by linear
    # combination: no division runs after Buchberger
    rng = random.Random(4471)
    ring = Ring(("x", "y", "z"), Q)
    bases = [buchberger(_random_finite_ideal(rng, ring)) for _ in range(10)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _reduce(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce", counted)
    filled = 0
    for gb in bases:
        qa = standard_monomials(gb)
        supported_only_at_origin(qa)
        for _ in range(6):
            monomial_nf(qa, tuple(rng.randint(0, 6) for _ in range(3)))
        filled += len(qa._nf_table) - qa.dimension - len(gb.basis)
    assert calls == []
    assert filled > 50


def test_monomial_table_deep_chain(Q):
    # a cold query of degree 2,000 fills its chain on an explicit stack:
    # no RecursionError, and the entry is still the direct normal form
    ring = Ring(("x", "y"), Q)
    x, y = ring.gens()
    gb = buchberger([x * x - 1, y**3 - x])
    qa = standard_monomials(gb)
    a = (1000, 1000)
    assert monomial_nf(qa, a) == normal_form(monomial(ring, a), gb).terms
    deep = standard_monomials(buchberger([x * x, y * y]))
    assert monomial_nf(deep, (1999, 1)) == {}


def test_monomial_table_off_standard_basis_is_internal_error(Q):
    # xy is standard for (x^2, y^2); a quotient that omits it cannot fill xy
    # (its predecessors x and y are standard): InternalError, not a loop
    ring = Ring(("x", "y"), Q)
    x, y = ring.gens()
    gb = buchberger([x * x, y * y])
    qa = standard_monomials(gb)
    assert (1, 1) in map(ring.packing.unpack, qa.keys)
    xy = ring.packing.pack((1, 1))
    broken = QuotientAlgebra(gb=gb, keys=tuple(m for m in qa.keys if m != xy))
    with pytest.raises(InternalError, match="off the standard basis"):
        monomial_nf(broken, (1, 1))


def test_buchberger_past_the_bound_raises(Q, F7):
    # every input is within the bound and a monomial made on the way is not:
    # the typed error, never a key that wrapped into another monomial
    for field in (Q, F7):
        ring = Ring(("x", "y"), field)
        x, y = ring.gens()
        lx, ly = Ring(("x", "y"), field, LEX).gens()
        # LEX: reducing x*y by x - y^32767 makes y^32768
        with pytest.raises(ExponentBoundExceeded):
            buchberger([lx - ly**32767, lx * ly])
        # GREVLEX bounds the total degree: the lcm x^20000*y^20000
        with pytest.raises(ExponentBoundExceeded):
            buchberger([x**20000 * y, x * y**20000])
        with pytest.raises(ExponentBoundExceeded):
            buchberger([x**20000 * y, x * y**20000], certify=True)
        # at the bound itself nothing is raised, nor for a coprime pair,
        # which is never reduced, whose product passes the GREVLEX bound
        gb = buchberger([lx - ly**32767, ly * ly])
        assert gb.basis == (ly * ly, lx)
        big = [x**20000, y**20000]
        assert buchberger(big, certify=True).basis == tuple(big[::-1])

import random
from fractions import Fraction

import pytest

from wittdeg import (
    DegenerateForm,
    Endo,
    FieldSpec,
    GramForm,
    InternalError,
    Poly,
    Ring,
    parse_poly,
)
from wittdeg.degree import dual_ring


@pytest.fixture
def Q():
    return FieldSpec.rationals()


@pytest.fixture
def F5():
    return FieldSpec.prime_field(5)


@pytest.fixture
def F7():
    return FieldSpec.prime_field(7)


def make_ring(field, *names):
    return Ring(tuple(names), field)


def make_endo(field, names, texts):
    ring = Ring(tuple(names), field)
    return Endo(ring=ring, images=tuple(parse_poly(t, ring) for t in texts))


def in_order(polys, order):
    """The polynomials, which share a ring, in that ring declared in the
    given monomial order."""
    ring = polys[0].ring
    ring = Ring(ring.variables, ring.field, order)
    return [Poly(ring, p.terms) for p in polys]


def reordered(endo, order):
    """endo with its ring declared in the given monomial order."""
    images = tuple(in_order(endo.images, order))
    return Endo(ring=images[0].ring, images=images)


def counterexample_endo(field):
    """x1 -> x1^2 - x2^2, x2 -> x1*x2, x3 -> x3."""
    return make_endo(field, ("x1", "x2", "x3"), ("x1^2 - x2^2", "x1*x2", "x3"))


def random_poly(rng, ring, max_degree=3, max_terms=4, coeff_range=3):
    """Random sparse polynomial with small integer coefficients."""
    n = ring.nvars
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        c = rng.randint(-coeff_range, coeff_range)
        p = p + ring.monomial(exps, c)
    return p


def random_unit(rng, field, bound=20):
    if field.is_rationals:
        num = rng.choice([k for k in range(-bound, bound + 1) if k])
        den = rng.randint(1, bound)
        return Fraction(num, den)
    return rng.randint(1, field.modulus - 1)


def is_canonical_scalar(field, x) -> bool:
    """The one scalar representation: over Q an int, or a Fraction with
    denominator > 1; over F_p an int in [0, p).  Never a float or a bool."""
    if field.is_rationals:
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)
    return type(x) is int and 0 <= x < field.modulus


def canonical_gram(field, rows):
    """Sparse GramForm of a dense matrix of ints/Fractions, entries made
    canonical and zeros left out.  A short row is rejected here, since
    sparse rows cannot tell it from trailing zeros; a long row reaches
    GramForm as an out-of-range column."""
    if any(len(row) < len(rows) for row in rows):
        raise DegenerateForm("Gram matrix is not square")
    sparse = tuple(
        {j: c for j, c in enumerate(map(field.canon, row)) if c} for row in rows
    )
    return GramForm(field=field, rows=sparse)


# -- references for removed or rewritten kernels --------------------------------


def _reference_add(p, other):
    """The former Poly.__add__ loop, kept verbatim."""
    field = p.ring.field
    terms = dict(p.terms)
    for e, c in other.terms.items():
        s = field.add(terms.get(e, field.zero), c)
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return Poly(p.ring, terms)


def _reference_mul(p, other):
    """The former Poly.__mul__ loop, kept verbatim."""
    field = p.ring.field
    terms: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in other.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = field.add(terms.get(e, field.zero), field.mul(c1, c2))
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return Poly(p.ring, terms)


def leading(p):
    """(exponents, coefficient) of the largest term of p in its ring's order,
    found on exponent tuples with the order's key: independent of the
    packed comparison."""
    terms = p.terms
    e = max(terms, key=p.ring.order.key)
    return e, terms[e]


def _reference_exact_div(p, divisor):
    """The former Poly.exact_div loop, kept verbatim."""
    field = p.ring.field
    de, dc = leading(divisor)
    quot = p.ring.zero()
    rem = p
    while not rem.is_zero:
        re_, rc = leading(rem)
        qe = tuple(a - b for a, b in zip(re_, de))
        if any(x < 0 for x in qe):
            raise InternalError("inexact polynomial division")
        q = p.ring.monomial(qe, field.div(rc, dc))
        quot = _reference_add(quot, q)
        rem = _reference_add(rem, -_reference_mul(q, divisor))
    return quot


def reference_divide(p, divisors):
    """The former public multivariate division, kept verbatim but for the
    inlined divisibility test.  It runs on Poly arithmetic alone, so it
    shares no code with the division kernel `poly._reduce`."""
    ring = p.ring
    field = ring.field
    leads = [leading(d) for d in divisors]
    quots = [ring.zero() for _ in divisors]
    rem = ring.zero()
    cur = p
    while not cur.is_zero:
        ce, cc = leading(cur)
        for k, (de, dc) in enumerate(leads):
            if all(a <= b for a, b in zip(de, ce)):
                mono = ring.monomial(
                    tuple(a - b for a, b in zip(ce, de)), field.div(cc, dc)
                )
                quots[k] = quots[k] + mono
                cur = cur - mono * divisors[k]
                break
        else:
            t = ring.monomial(ce, cc)
            rem = rem + t
            cur = cur - t
    return quots, rem


def divided_differences(endo):
    """The Bezoutian's divided-difference matrix in the doubled ring, built
    the former way: two substitutions and an exact division per entry."""
    n = endo.n
    ring2 = dual_ring(endo.ring)
    gens = ring2.gens()
    xs, us = list(gens[:n]), list(gens[n:])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            upper = endo.images[i].substitute(us[:j] + xs[j:])
            lower = endo.images[i].substitute(us[: j + 1] + xs[j + 1 :])
            row.append(_reference_exact_div(upper - lower, xs[j] - us[j]))
        rows.append(row)
    return rows

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittdeg import (
    InternalError,
    NotSquareSystem,
    ParseError,
    Ring,
    RingMismatch,
    UnknownVariable,
    FieldSpec,
    Poly,
    det,
    format_poly,
    jacobian_det,
    parse_poly,
)
from wittdeg.orders import GREVLEX, LEX
from wittdeg.poly import _det_bareiss, _det_cofactor

from conftest import random_poly


@pytest.fixture
def R2(Q):
    return Ring(("x1", "x2"), Q)


@pytest.fixture
def R3(Q):
    return Ring(("x1", "x2", "x3"), Q)


def test_parse_examples(R2):
    p = parse_poly("x1^2 - x2^2", R2)
    assert p == R2.monomial((2, 0)) - R2.monomial((0, 2))
    assert parse_poly("0", R2).is_zero
    assert parse_poly("1/2*x1*x2 + x1*x2", R2) == R2.monomial(
        (1, 1), Fraction(3, 2)
    )


def test_parse_leading_unary_minus(R2):
    assert parse_poly("-x1 + x2", R2) == -R2.var(0) + R2.var(1)
    assert parse_poly("- 2*x1", R2) == R2.monomial((1, 0), -2)


def test_parse_whitespace_insensitive(R2):
    assert parse_poly("x1^2-x2^2", R2) == parse_poly(" x1 ^ 2 - x2 ^ 2 ", R2)


def test_parse_errors_carry_position(R2):
    with pytest.raises(UnknownVariable) as exc:
        parse_poly("x1 + z2", R2)
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("x1 + ", R2)
    with pytest.raises(ParseError):
        parse_poly("2*3", R2)
    with pytest.raises(ParseError):
        parse_poly("x1 & x2", R2)
    with pytest.raises(ParseError):
        parse_poly("1/0", R2)


def test_format_round_trip_examples(R2):
    for text in ("x1^2 - x2^2", "0", "-x1 + 2", "3/2*x1*x2", "x1^3 + 1"):
        p = parse_poly(text, R2)
        assert parse_poly(format_poly(p), R2) == p


def test_format_round_trip_random(Q, F7):
    rng = random.Random(4242)
    for field in (Q, F7):
        for nvars in (1, 2, 3):
            ring = Ring(tuple(f"x{i+1}" for i in range(nvars)), field)
            for _ in range(50):
                p = random_poly(rng, ring)
                assert parse_poly(format_poly(p), ring) == p


def test_arithmetic_and_equality(R2):
    x1, x2 = R2.gens()
    assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2
    assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2
    assert x1 - x1 == R2.zero()
    assert (x1 * 0).is_zero
    assert hash(x1 + x2) == hash(x2 + x1)


def test_ring_mismatch(R2, R3):
    with pytest.raises(RingMismatch):
        R2.var(0) + R3.var(0)


def test_char_p_derivative(F5):
    ring = Ring(("x",), F5)
    x = ring.var(0)
    assert (x**5).deriv(0).is_zero  # 5 == 0 in F5
    assert (x**3).deriv(0) == 3 * x**2


def test_substitute_examples(R2):
    x1, x2 = R2.gens()
    p = x1**2
    assert p.substitute([x1 + x2, x2]) == x1**2 + 2 * x1 * x2 + x2**2
    q = x1**3 - x2 + 1
    assert q.substitute([x1, x2]) == q
    assert x1.substitute([x1**2 - x2**2, x1 * x2]) == x1**2 - x2**2


def test_substitute_arity_checked(R2, R3):
    with pytest.raises(RingMismatch):
        R2.var(0).substitute([R3.var(0)])


def test_jacobian_examples(R2, R3):
    x1, x2 = R2.gens()
    assert jacobian_det([x1**2 - x2**2, x1 * x2]) == 2 * x1**2 + 2 * x2**2
    assert jacobian_det(list(R3.gens())) == R3.one()
    ring1 = Ring(("x",), R2.field)
    x = ring1.var(0)
    assert jacobian_det([x**3]) == 3 * x**2


def test_jacobian_requires_square_system(R3):
    with pytest.raises(NotSquareSystem):
        jacobian_det([R3.var(0), R3.var(1)])


def test_exact_div(R2):
    x1, x2 = R2.gens()
    assert (x1**2 - x2**2).exact_div(x1 - x2) == x1 + x2
    assert (x1**3 * x2 + x1 * x2).exact_div(x1 * x2) == x1**2 + 1
    with pytest.raises(InternalError):
        (x1**2 + x2).exact_div(x1 - x2)


def test_det_small(R2):
    x1, x2 = R2.gens()
    m = [[x1, x2], [x2, x1]]
    assert det(m) == x1**2 - x2**2
    assert det([[R2.one()]]) == R2.one()


def test_det_bareiss_matches_cofactor(Q):
    rng = random.Random(515)
    ring = Ring(("x", "y"), Q)
    for _ in range(10):
        n = 5
        m = [
            [random_poly(rng, ring, max_degree=1, max_terms=2) for _ in range(n)]
            for _ in range(n)
        ]
        assert _det_bareiss([row[:] for row in m], ring, GREVLEX) == _det_cofactor(
            m, ring
        )


def test_det_singular_matrix(R2):
    x1, x2 = R2.gens()
    rows = [[x1, x2, x1 + x2]] * 3  # repeated rows
    assert det(rows).is_zero


# -- the term-dict kernel against the loops it replaced ------------------------


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


def _reference_exact_div(p, divisor, order=GREVLEX):
    """The former Poly.exact_div loop, kept verbatim."""
    field = p.ring.field
    de, dc = divisor.leading(order)
    quot = p.ring.zero()
    rem = p
    while not rem.is_zero:
        re_, rc = rem.leading(order)
        qe = tuple(a - b for a, b in zip(re_, de))
        if any(x < 0 for x in qe):
            raise InternalError("inexact polynomial division")
        q = p.ring.monomial(qe, field.div(rc, dc))
        quot = _reference_add(quot, q)
        rem = _reference_add(rem, -_reference_mul(q, divisor))
    return quot


def _assert_same_poly(got, expected):
    assert got == expected
    # canonical scalars: Fractions over Q, ints in [0, p) over F_p
    for c in got.terms.values():
        assert type(c) is type(expected.ring.field.one)
        assert c == expected.ring.field.canon(c)


def test_kernel_arithmetic_matches_reference(Q, F7):
    rng = random.Random(3141)
    for field in (Q, F7):
        ring = Ring(("x", "y", "z"), field)
        for _ in range(150):
            p = random_poly(rng, ring, max_terms=6)
            q = random_poly(rng, ring, max_terms=6)
            _assert_same_poly(p + q, _reference_add(p, q))
            _assert_same_poly(p - q, _reference_add(p, -q))
            _assert_same_poly(p - p, ring.zero())
            _assert_same_poly(p * q, _reference_mul(p, q))
            _assert_same_poly(p * (q - q), ring.zero())


def test_exact_div_matches_reference(Q, F7):
    rng = random.Random(2236)
    for field in (Q, F7):
        ring = Ring(("x", "y", "z"), field)
        for order in (GREVLEX, LEX):
            for _ in range(80):
                p = random_poly(rng, ring, max_terms=5)
                q = random_poly(rng, ring, max_degree=2, max_terms=3)
                if q.is_zero:
                    continue
                pq = p * q
                got = pq.exact_div(q, order)
                _assert_same_poly(got, _reference_exact_div(pq, q, order))
                _assert_same_poly(got, p)
                r = pq + random_poly(rng, ring, max_terms=2)
                try:
                    expected = _reference_exact_div(r, q, order)
                except InternalError:
                    with pytest.raises(InternalError):
                        r.exact_div(q, order)
                else:
                    _assert_same_poly(r.exact_div(q, order), expected)


_FIELDS = (FieldSpec.rationals(), FieldSpec.prime_field(7))


@st.composite
def _poly_pairs(draw):
    field = draw(st.sampled_from(_FIELDS))
    ring = Ring(("x", "y"), field)
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    if not field.is_rationals:
        coeffs = st.integers(min_value=-9, max_value=9)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))

    def poly():
        terms = draw(st.lists(st.tuples(exps, coeffs), max_size=5))
        p = ring.zero()
        for e, c in terms:
            p = p + ring.monomial(e, c)
        return p

    return poly(), poly()


@settings(max_examples=60, deadline=None)
@given(_poly_pairs())
def test_poly_round_trip_and_inverse_operations(pair):
    p, q = pair
    ring = p.ring
    assert parse_poly(format_poly(p), ring) == p
    assert (p + q) - q == p
    if not q.is_zero:
        assert (p * q).exact_div(q) == p

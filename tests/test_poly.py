import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittdeg import (
    ExponentBoundExceeded,
    NotSquareSystem,
    ParseError,
    Ring,
    RingMismatch,
    UnknownVariable,
    FieldSpec,
    Poly,
    det,
    jacobian_det,
    parse_poly,
)
from wittdeg.degree import Endo, diagonal_bezoutian_identity
from wittdeg.orders import GREVLEX
from wittdeg.poly import format_poly

from conftest import (
    _reference_add,
    _reference_exact_div,
    _reference_mul,
    divided_differences,
    is_canonical_scalar,
    random_poly,
    random_unit,
)


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


def test_parse_rejects_exponents_past_the_bound(R2):
    assert parse_poly("x1^32767", R2) == R2.monomial((32767, 0))
    with pytest.raises(ExponentBoundExceeded, match=r"32768 of x1 .*position 4"):
        parse_poly("3 + x1^32768", R2)
    # the factors of one term multiply: the second x1 passes the bound
    with pytest.raises(ExponentBoundExceeded, match=r"40000 of x1 .*position 12"):
        parse_poly("x2*x1^20000*x1^20000", R2)


def test_products_past_the_bound_raise(R2):
    x1, x2 = R2.gens()
    big = x1**20000
    with pytest.raises(ExponentBoundExceeded):
        big * big
    with pytest.raises(ExponentBoundExceeded):
        (big + x2) ** 2
    with pytest.raises(ExponentBoundExceeded):
        det([[big, x2], [x2, big]])
    with pytest.raises(ExponentBoundExceeded):
        x1.substitute([big * x2, x2]).substitute([x1 * x1, x2])
    # a product within the bound is exact, and a sum of such is too
    assert (x1**16000) * (x1**16767) == R2.monomial((32767, 0))
    assert (big * x2 - big * x2).is_zero


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


def test_det_small(R2):
    x1, x2 = R2.gens()
    m = [[x1, x2], [x2, x1]]
    assert det(m) == x1**2 - x2**2
    assert det([[R2.one()]]) == R2.one()


def test_det_singular_matrix(R2):
    x1, x2 = R2.gens()
    rows = [[x1, x2, x1 + x2]] * 3  # repeated rows
    assert det(rows).is_zero


# -- the term-dict kernel against the loops it replaced ------------------------


def _assert_same_poly(got, expected):
    assert got == expected
    field = expected.ring.field
    bad = [c for c in got.terms.values() if not is_canonical_scalar(field, c)]
    assert not bad, bad


def test_kernel_arithmetic_matches_reference(Q, F7):
    rng = random.Random(3141)
    units = random.Random(3142)  # its own stream: rng draws the same cases
    half = Fraction(1, 2)
    for field in (Q, F7):
        ring = Ring(("x", "y", "z"), field)
        for _ in range(150):
            p = random_poly(rng, ring, max_terms=6)
            q = random_poly(rng, ring, max_terms=6)
            # the same pair scaled by units: non-integral over Q, and sums
            # whose rational parts cancel to integers
            sp = p.scale(random_unit(units, field))
            sq = q.scale(random_unit(units, field))
            for a, b in ((p, q), (sp, sq), (sp, q), (p, sq)):
                _assert_same_poly(a + b, _reference_add(a, b))
                _assert_same_poly(a - b, _reference_add(a, -b))
                _assert_same_poly(a - a, ring.zero())
                _assert_same_poly(a * b, _reference_mul(a, b))
                _assert_same_poly(a * (b - b), ring.zero())
            _assert_same_poly(p.scale(half) + p.scale(half), p)
            _assert_same_poly(sp.scale(half) * q + q * sp.scale(half), sp * q)
            _assert_same_poly(sp + sp.scale(-1), ring.zero())


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


# -- the shared-minor determinant against the algorithms it replaced -----------


def _det_cofactor(m, ring: Ring) -> Poly:
    """The former cofactor path of det (n <= 4), kept verbatim."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ring.zero()
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
        sub = _det_cofactor(minor, ring)
        term = m[0][j] * sub
        total = total + (term if j % 2 == 0 else -term)
    return total


def _det_bareiss(m, ring: Ring, order) -> Poly:
    """The former Bareiss path of det (n > 4), kept verbatim but for the
    exact division, which now comes from the reference loop."""
    n = len(m)
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, n):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return ring.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _reference_exact_div(num, prev, order)
            m[i][k] = ring.zero()
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def _random_map(rng, ring, terms):
    return Endo(
        ring=ring,
        images=tuple(
            ring.var(i) ** 2 + random_poly(rng, ring, max_degree=2, max_terms=terms)
            for i in range(ring.nvars)
        ),
    )


def _random_matrix(rng, ring, n):
    # about a third of the entries are zero
    return [
        [
            random_poly(rng, ring, max_degree=2, max_terms=2)
            if rng.random() < 0.7
            else ring.zero()
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_det_matches_reference(Q, F7):
    rng = random.Random(6606)
    for field in (Q, F7):
        ring = Ring(("x", "y"), field)
        for n in range(1, 6):
            cases = [_random_matrix(rng, ring, n) for _ in range(6)]
            m = cases[0]
            singular = [m[:-1] + [[ring.zero()] * n]]  # a zero row
            if n > 1:
                singular.append([m[1]] + m[1:])  # two equal rows
            for m in cases + singular:
                expected = _det_cofactor(m, ring)
                _assert_same_poly(det(m), expected)
                got = _det_bareiss([row[:] for row in m], ring, GREVLEX)
                _assert_same_poly(got, expected)
            for m in singular:
                assert det(m).is_zero
        for n in (4, 5):
            vring = Ring(tuple(f"x{i + 1}" for i in range(n)), field)
            for _ in range(3):
                m = divided_differences(_random_map(rng, vring, 3))
                _assert_same_poly(det(m), _det_cofactor(m, m[0][0].ring))


def test_det_large_bezoutians_satisfy_diagonal_identity(Q, F7):
    # sizes beyond the reference comparison, checked by Delta(x, x) = det J
    rng = random.Random(6607)
    for field in (Q, F7):
        for n in (6, 7):
            ring = Ring(tuple(f"x{i + 1}" for i in range(n)), field)
            assert diagonal_bezoutian_identity(_random_map(rng, ring, 4))

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wittdeg.cli import HYPOTHESIS_ERRORS, parse_job_file, read_endo, read_row
from wittdeg.degree import Endo, deriv, jacobian_det
from wittdeg.errors import (
    AlgebraError,
    ExponentBoundExceeded,
    NotSquareSystem,
    ParseError,
    RingMismatch,
    UnknownVariable,
)
from wittdeg.fields import FieldSpec
from wittdeg.groebner import buchberger, normal_form
from wittdeg.koszul import build_koszul
from wittdeg.orders import BOUND, GREVLEX, LEX
from wittdeg.poly import Poly, Ring, det, format_poly, in_ring, parse_poly
from wittdeg.umrow import UnimodularRow

from conftest import (
    _reference_add,
    _reference_exact_div,
    _reference_mul,
    diagonal_bezoutian_identity,
    divided_differences,
    format_poly_reference,
    is_canonical_scalar,
    monomial,
    random_poly,
    random_unit,
    reference_parse_poly,
)


@pytest.fixture
def R2(Q):
    return Ring(("x1", "x2"), Q)


@pytest.fixture
def R3(Q):
    return Ring(("x1", "x2", "x3"), Q)


def test_parse_examples(R2):
    p = parse_poly("x1^2 - x2^2", R2)
    assert p == monomial(R2, (2, 0)) - monomial(R2, (0, 2))
    assert parse_poly("0", R2).is_zero
    assert parse_poly("1/2*x1*x2 + x1*x2", R2) == monomial(
        R2, (1, 1), Fraction(3, 2)
    )


def test_parse_leading_unary_minus(R2):
    assert parse_poly("-x1 + x2", R2) == -R2.var(0) + R2.var(1)
    assert parse_poly("- 2*x1", R2) == monomial(R2, (1, 0), -2)


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


@pytest.mark.parametrize(
    "text",
    ["x1^\u0661\u0663 + \u0663*x1^\u0662", "\u0663*x1", "x1^\uff12", "1/\u0663"],
    ids=[
        "arabic-indic-exponents",
        "arabic-indic-coefficient",
        "fullwidth",
        "denominator",
    ],
)
def test_parse_reads_only_ascii_digits(R2, text):
    # \d would read x^\u0661\u0663 as x^13: a decimal digit other than 0-9
    # is an unexpected character
    with pytest.raises(ParseError, match="unexpected character"):
        parse_poly(text, R2)


def test_parse_rejects_exponents_past_the_bound(R2):
    assert parse_poly("x1^32767", R2) == monomial(R2, (32767, 0))
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
    assert (x1**16000) * (x1**16767) == monomial(R2, (32767, 0))
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


def test_format_matches_reference_sort(Q, F7):
    # a GREVLEX ring prints in descending key order, a LEX ring re-keys its
    # terms in GREVLEX first: both give the former bytes
    rng = random.Random(5150)
    units = random.Random(5151)  # its own stream: rng draws the same cases
    seen = {"negative": 0, "fraction": 0}
    for field, order in ((Q, GREVLEX), (Q, LEX), (F7, GREVLEX), (F7, LEX)):
        for nvars in (1, 2, 3, 4):
            ring = Ring(tuple(f"x{i + 1}" for i in range(nvars)), field, order)
            polys = [ring.zero(), ring.constant(random_unit(units, field))]
            polys.append(monomial(ring, [2] * nvars, random_unit(units, field)))
            for _ in range(40):
                p = random_poly(rng, ring, max_degree=4, max_terms=8, coeff_range=9)
                polys.append(p * random_unit(units, field))
            for p in polys:
                text = format_poly(p)
                assert text == format_poly_reference(p)
                assert parse_poly(text, ring) == p
                seen["negative"] += any(c < 0 for c in p.packed.values())
                seen["fraction"] += any(
                    type(c) is Fraction for c in p.packed.values()
                )
    assert min(seen.values()) >= 20
    ring = Ring(("x", "y"), Q)
    assert format_poly(ring.zero()) == "0"
    assert format_poly(ring.constant(Fraction(-3, 4))) == "-3/4"
    assert format_poly(monomial(ring, (0, 2), -1)) == "-y^2"


# -- the parser on arbitrary text ------------------------------------------------

# digits, variable names, the grammar's operators, whitespace and characters
# outside the grammar
_POLY_TOKENS = st.one_of(
    st.text("0123456789", min_size=1, max_size=6),
    st.sampled_from(
        ("x", "y", "z", "x1", "_", "+", "-", "*", "/", "^", " ", "\t", "(", ".",
         "=", ",", "#", "0", "1/0", "^-", "\u00e9")
    ),
)
_JOB_TOKENS = st.one_of(
    _POLY_TOKENS,
    st.sampled_from(
        ("field", "vars", "map ", "rel", "row", " = ", "Q", "F7", "F4", "F-3",
         ", ", "\n", "\n", "field = Q\nvars = x, y\n")
    ),
)


def _parses_or_algebra_error(parse, *args):
    """parse(*args), which may only raise an AlgebraError that the CLI maps
    to exit 2."""
    try:
        parse(*args)
    except AlgebraError as exc:
        assert not isinstance(exc, HYPOTHESIS_ERRORS), exc


@settings(max_examples=150, deadline=None)
@given(st.lists(_POLY_TOKENS, max_size=24).map("".join))
@example("1" * 5000)
@example("x^" + "9" * 5000)
@example("x*3/" + "7" * 5000)
def test_parse_poly_raises_only_algebra_errors(text):
    for field in _FIELDS:
        _parses_or_algebra_error(parse_poly, text, Ring(("x", "y"), field))


# the fuzz alphabet and well-formed pieces, so that many texts parse
_DIFF_TOKENS = st.one_of(
    _POLY_TOKENS,
    st.sampled_from(
        ("x^2", "y^3", "2*", "*x", " + ", " - ", "3/4*", "14/7", "7/14",
         "x^32767", "x^32768", "y*x^16384")
    ),
)


def _parse_outcome(parse, text, ring):
    """The Poly of text, or the class, message and position of its error."""
    try:
        return parse(text, ring)
    except AlgebraError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=300, deadline=None)
@given(st.lists(_DIFF_TOKENS, max_size=16).map("".join))
@example("")
@example("x^2 + 3 @ x1")
@example("3/0 + é")
@example("x^" + "9" * 5000 + " + y")
@example("- x*y^32767*y - 7/7*x")
def test_parse_poly_matches_reference_parser(text):
    """The parser on packed keys returns the Poly of the former parser on
    exponent lists, or raises its error: same class, message and
    position."""
    rings = [Ring(("x", "y"), f, o) for f in _FIELDS for o in (GREVLEX, LEX)]
    rings.append(Ring(("x1", "z"), FieldSpec.rationals()))
    for ring in rings:
        assert _parse_outcome(parse_poly, text, ring) == _parse_outcome(
            reference_parse_poly, text, ring
        )


# each bad text with the class and message of the error it raises in a ring
# of x, y, z over Q under GREVLEX; under LEX it raises the same, but for a
# total degree past the bound, which LEX does not bound
_BAD_TEXTS = [
    pytest.param(
        "x^32767*x",
        "ExponentBoundExceeded",
        "exponent 32768 of x is above 32767 (at position 8)",
        id="repeated variable past the bound",
    ),
    pytest.param(
        "x^30000*y^30000*z^30000*x^30000",
        "ExponentBoundExceeded",
        "exponent 60000 of x is above 32767 (at position 24)",
        id="repeated variable past a total degree of 2^16",
    ),
    pytest.param(
        "y*x^32768",
        "ExponentBoundExceeded",
        "exponent 32768 of x is above 32767 (at position 2)",
        id="exponent past the bound",
    ),
    pytest.param(
        "1 + x^16384*y^16384",
        "ExponentBoundExceeded",
        "a total degree above 32767 in 3 variables under grevlex",
        id="total degree past the bound",
    ),
    pytest.param(
        "x^2 + 3 @ y",
        "ParseError",
        "unexpected character '@' (at position 8)",
        id="stray character",
    ),
    pytest.param(
        "x^ + 1",
        "ParseError",
        "expected exponent, got '+' (at position 3)",
        id="missing exponent",
    ),
    pytest.param(
        "2*x^" + "9" * 5000,
        "ParseError",
        "number of 5000 digits (at position 4)",
        id="exponent past the digit limit",
    ),
]


@pytest.mark.parametrize("text, error, message", _BAD_TEXTS)
def test_parse_errors_keep_their_text_and_position(text, error, message):
    """The parser on packed keys raises the reference parser's error, whose
    class and message (with its position) are pinned here."""
    for order in (GREVLEX, LEX):
        ring = Ring(("x", "y", "z"), FieldSpec.rationals(), order)
        outcome = _parse_outcome(parse_poly, text, ring)
        assert outcome == _parse_outcome(reference_parse_poly, text, ring)
        if order is LEX and message.startswith("a total degree"):
            assert isinstance(outcome, Poly)
        else:
            assert (outcome[0].__name__, outcome[1]) == (error, message)


# exponents near 0, near the bound, and anywhere in between
_EXPONENTS = st.one_of(
    st.integers(0, 3), st.integers(BOUND - 3, BOUND), st.integers(0, BOUND)
)


@st.composite
def _bounded_polys(draw):
    """A polynomial of up to 8 terms in 1 to 8 variables under either
    order, with exponents up to the bound, and under GREVLEX now and then a
    term whose total degree is the bound.  Over Q its scalars are units,
    ints of either sign and Fractions; over F_7 or F_10007 residues."""
    order = draw(st.sampled_from((GREVLEX, LEX)))
    n = draw(st.integers(1, 8))
    names = draw(st.permutations(("x", "y", "z1", "_a", "B_2", "w", "v0", "u")))[:n]
    field = draw(
        st.sampled_from(
            (FieldSpec.rationals(), FieldSpec.prime_field(7), FieldSpec.prime_field(10007))
        )
    )
    if field.is_rationals:
        scalars = st.one_of(
            st.sampled_from((1, -1)),
            st.integers(-(10**25), 10**25),
            st.fractions(-(10**9), 10**9, max_denominator=10**6),
        )
    else:
        scalars = st.integers(0, field.modulus - 1)
    ring = Ring(names, field, order)
    terms: dict = {}
    for _ in range(draw(st.integers(0, 8))):
        exps = draw(st.lists(_EXPONENTS, min_size=n, max_size=n))
        total = sum(exps)
        if order is GREVLEX and total > BOUND:
            exps = [e * BOUND // total for e in exps]
        if order is GREVLEX and draw(st.booleans()):
            exps[draw(st.integers(0, n - 1))] += BOUND - sum(exps)
        key = ring.packing.pack(exps)
        terms[key] = field.add(terms.get(key, 0), field.canon(draw(scalars)))
    return Poly(ring, {k: c for k, c in terms.items() if c})


@settings(max_examples=150, deadline=None)
@given(_bounded_polys())
def test_printer_and_parser_match_their_references(p):
    """The printer on key fields prints the text of the former printer, and
    the parser on keys reads it back to p, as the former parser does."""
    text = format_poly(p)
    assert text == format_poly_reference(p)
    assert parse_poly(text, p.ring) == p
    assert reference_parse_poly(text, p.ring) == p

@settings(max_examples=100, deadline=None)
@given(st.lists(_JOB_TOKENS, max_size=30).map("".join))
@example("field = Q\nvars = x\nmap x = " + "2" * 5000 + "*x\n")
@example("field = F" + "1" * 5000 + "\nvars = x\n")
def test_parse_job_file_raises_only_algebra_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.job"
    path.write_text(text, encoding="utf-8")
    for order in (GREVLEX, LEX):
        for read in (parse_job_file, read_endo, read_row):
            _parses_or_algebra_error(read, str(path), order)


def test_arithmetic_and_equality(R2):
    x1, x2 = R2.gens()
    assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2
    assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2
    assert x1 - x1 == R2.zero()
    assert (x1 * 0).is_zero
    assert hash(x1 + x2) == hash(x2 + x1)


def test_ring_mismatch(R2, R3, Q):
    with pytest.raises(RingMismatch):
        R2.var(0) + R3.var(0)
    # the order is part of the ring: rings that differ only in it do not mix
    lex = Ring(("x",), Q, LEX)
    with pytest.raises(RingMismatch):
        lex.var(0) + Ring(("x",), Q).var(0)
    assert lex != Ring(("x",), Q) and lex == Ring(("x",), Q, LEX)
    assert hash(lex) == hash(Ring(("x",), Q, LEX))


# the entry points that take polynomials of one ring, a row's relations and
# its entries apart, each given a polynomial of ring followed by one of
# other
_ONE_RING = {
    "Poly.__add__": lambda ring, f, g: f + g,
    "Poly.__mul__": lambda ring, f, g: f * g,
    "normal_form": lambda ring, f, g: normal_form(g, buchberger([f])),
    "Endo": lambda ring, f, g: Endo(ring=ring, images=(f, g)),
    "buchberger": lambda ring, f, g: buchberger([f, g]),
    "det": lambda ring, f, g: det([[f, f], [g, f]]),
    "substitute": lambda ring, f, g: f.substitute([f, g]),
    "build_koszul": lambda ring, f, g: build_koszul([f, g]),
    "UnimodularRow": lambda ring, f, g: UnimodularRow(ring, (), (f, g)),
    "UnimodularRow.relations": lambda ring, f, g: UnimodularRow(ring, (f, g), ()),
}


@pytest.mark.parametrize("entry", sorted(_ONE_RING))
def test_every_entry_point_refuses_another_ring(R2, Q, entry):
    # the same variables under LEX make another ring
    other = Ring(R2.variables, Q, LEX)
    f, g = R2.var(0), other.var(1)
    with pytest.raises(RingMismatch, match=re.escape(f"{other} != {R2}")):
        _ONE_RING[entry](R2, f, g)
    assert in_ring((f, f + 1), R2) is R2


def test_char_p_derivative(F5):
    ring = Ring(("x",), F5)
    x = ring.var(0)
    assert deriv(x**5, 0).is_zero  # 5 == 0 in F5
    assert deriv(x**3, 0) == 3 * x**2


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
            sp = p * random_unit(units, field)
            sq = q * random_unit(units, field)
            for a, b in ((p, q), (sp, sq), (sp, q), (p, sq)):
                _assert_same_poly(a + b, _reference_add(a, b))
                _assert_same_poly(a - b, _reference_add(a, -b))
                _assert_same_poly(a - a, ring.zero())
                _assert_same_poly(a * b, _reference_mul(a, b))
                _assert_same_poly(a * (b - b), ring.zero())
            _assert_same_poly(p * half + p * half, p)
            _assert_same_poly(sp * half * q + q * sp * half, sp * q)
            _assert_same_poly(sp + sp * -1, ring.zero())
            _assert_same_poly(sp**2, _reference_mul(sp, sp))
        # Fraction coefficients whose products are integral: the kernel
        # leaves such a value an integral Fraction, and each of **,
        # substitute and det makes it an int where its Poly is made
        x, y, z = ring.gens()
        a = x + y * half
        _assert_same_poly(a**2, _reference_mul(a, a))  # x*y: 2 * (1/2)
        _assert_same_poly(a**3, _reference_mul(_reference_mul(a, a), a))
        _assert_same_poly((x * y).substitute([x * 2, y * half, z]), x * y)
        _assert_same_poly((x**2 * z).substitute([x * half, y, z * 4]), x**2 * z)
        _assert_same_poly(det([[x * half, y], [ring.one(), ring.constant(2)]]), x - y)


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
            p = p + monomial(ring, e, c)
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


def _det_bareiss(m, ring: Ring) -> Poly:
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
                m[i][j] = _reference_exact_div(num, prev)
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
            # zero patterns that keep one minor per level in one expansion
            # order and many in the other: lower and upper triangular, and
            # two diagonal blocks
            full = [
                [random_poly(rng, ring, max_degree=2) for _ in range(n)]
                for _ in range(n)
            ]
            h = n // 2
            for keep in (
                lambda i, j: j <= i,
                lambda i, j: j >= i,
                lambda i, j: (i < h) == (j < h),
            ):
                cases.append(
                    [
                        [x if keep(i, j) else ring.zero() for j, x in enumerate(row)]
                        for i, row in enumerate(full)
                    ]
                )
            m = cases[0]
            singular = [m[:-1] + [[ring.zero()] * n]]  # a zero row
            if n > 1:
                singular.append([m[1]] + m[1:])  # two equal rows
            for m in cases + singular:
                expected = _det_cofactor(m, ring)
                _assert_same_poly(det(m), expected)
                got = _det_bareiss([row[:] for row in m], ring)
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

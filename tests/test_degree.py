import inspect
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest

from wittdeg import cli, degree
from wittdeg.cli import HYPOTHESIS_ERRORS, read_endo, run
from wittdeg.degree import (
    DegreeReport,
    Endo,
    _gram_from_quotient,
    bezoutian,
    degree_of,
    dual_ring,
    univariate_power_form,
    univariate_tensor_oracle,
    validate,
)
from wittdeg.errors import (
    FactorBoundExceeded,
    InternalError,
    NotFiniteLength,
    NotOriginPreserving,
    RingMismatch,
    SupportNotOrigin,
)
from wittdeg.fields import FieldSpec, square_class
from wittdeg.groebner import (
    QuotientAlgebra,
    buchberger,
    normal_form,
    standard_monomials,
)
from wittdeg.orders import GREVLEX, LEX
from wittdeg.poly import Ring, det, parse_poly
from wittdeg.witt import GramForm, diag_form, is_witt_zero, tensor, witt_equal

from conftest import (
    basis_of,
    canonical_gram,
    counterexample_endo,
    dense,
    diagonal_bezoutian_identity,
    divided_differences,
    exact_rows,
    jacobian_det,
    leading,
    make_endo,
    monomial,
    monomial_nf,
    order_key,
    poly,
    power_endo,
    random_poly,
    random_unit,
    reference_divide,
    reordered,
)


def test_validate_counterexample(Q):
    qa = validate(counterexample_endo(Q))
    assert qa.dimension == 4


def test_validate_not_finite(Q):
    endo = make_endo(Q, ("x1", "x2"), ("x1", "x1"))
    with pytest.raises(NotFiniteLength):
        validate(endo)


def test_validate_support_not_origin(Q):
    endo = make_endo(Q, ("x1", "x2"), ("x1^2 - x1", "x2"))
    with pytest.raises(SupportNotOrigin):
        validate(endo)


def test_validate_origin_preserving(Q):
    endo = make_endo(Q, ("x1", "x2"), ("x1 + 1", "x2"))
    with pytest.raises(NotOriginPreserving):
        validate(endo)


def test_bezoutian_cross_example(Q):
    endo = make_endo(Q, ("x1", "x2"), ("x1^2 - x2^2", "x1*x2"))
    delta = bezoutian(endo)
    ring2 = delta.ring
    assert ring2.variables == ("x1", "x2", "u1", "u2")
    # x1*u1 + u1^2 + x2^2 + x2*u2
    expected = poly(
        ring2, {(1, 0, 1, 0): 1, (0, 0, 2, 0): 1, (0, 2, 0, 0): 1, (0, 1, 0, 1): 1}
    )
    assert delta == expected


def test_bezoutian_identity_endo(Q):
    ring = Ring(("x1", "x2", "x3"), Q)
    endo = Endo(ring=ring, images=ring.gens())
    delta = bezoutian(endo)
    assert delta == delta.ring.one()


def test_bezoutian_univariate_cube(Q):
    endo = power_endo(Q, (3,))
    delta = bezoutian(endo)
    ring2 = delta.ring
    # x1^2 + x1*u1 + u1^2
    assert delta == poly(ring2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})


def test_dual_ring_keeps_the_field_and_order(F7):
    # the dual ring has the block order of two copies of the ring's order:
    # under LEX that is LEX itself
    assert GREVLEX.pairs != GREVLEX and LEX.pairs is LEX
    for order in (GREVLEX, LEX):
        ring2 = dual_ring(Ring(("x", "u1"), F7, order))
        assert ring2 == Ring(("x", "u1", "u_1", "u_2"), F7, order.pairs)


def test_parse_refuses_the_grevlex_dual_ring(Q):
    # its keys pair two GREVLEX keys, each with its own degree field, which
    # the parser's bound checks do not read; the LEX dual ring is LEX
    endo = make_endo(Q, ("x1", "x2"), ("x1^2 - x2^2", "x1*x2"))
    with pytest.raises(RingMismatch, match="pair two blocks"):
        parse_poly("x1*u1", bezoutian(endo).ring)
    delta = bezoutian(reordered(endo, LEX))
    assert delta == parse_poly("x1*u1 + u1^2 + x2^2 + x2*u2", delta.ring)


def _reference_bezoutian(endo):
    """The former substitute / exact_div Bezoutian."""
    return det(divided_differences(endo))


def test_bezoutian_matches_substitute_reference(Q, F7):
    # the x_i^d_i terms keep most determinants nonzero
    rng = random.Random(1729)
    for field in (Q, F7):
        for n in range(1, 6):
            ring = Ring(tuple(f"x{i + 1}" for i in range(n)), field)
            deg = 3 if n < 4 else 2
            for _ in range(6 if n < 5 else 3):
                images = tuple(
                    ring.var(i) ** rng.randint(1, deg)
                    + random_poly(rng, ring, max_degree=deg, max_terms=3)
                    for i in range(n)
                )
                endo = Endo(ring=ring, images=images)
                assert bezoutian(endo) == _reference_bezoutian(endo)


def _reference_lift(p, ring2, offset):
    """Reindex a base-ring polynomial into ring2, shifting variables."""
    n = p.ring.nvars
    pad = ring2.nvars - n - offset
    terms = {
        (0,) * offset + e + (0,) * pad: c for e, c in p.terms.items()
    }
    return poly(ring2, terms)


def _reference_combined_basis(qa, ring2):
    """Groebner basis of I(x) + I(u) in the doubled ring."""
    n = qa.ring.nvars
    gx = [_reference_lift(g, ring2, 0) for g in qa.gb.basis]
    gu = [_reference_lift(g, ring2, n) for g in qa.gb.basis]
    key = order_key(ring2.order)
    combined = sorted(gx + gu, key=lambda g: key(leading(g)[0]))
    return basis_of(combined)


def _reference_gram(endo, qa):
    """The former doubled-ring normal-form Gram build, kept verbatim but
    for the last step, which hands the dense matrix to canonical_gram."""
    n = endo.n
    field = endo.field
    delta = bezoutian(endo)
    ring2 = delta.ring
    nf = normal_form(delta, _reference_combined_basis(qa, ring2))
    index = {m: k for k, m in enumerate(map(qa.ring.packing.unpack, qa.keys))}
    d = qa.dimension
    zero = field.zero
    b = [[zero] * d for _ in range(d)]
    for e, c in nf.terms.items():
        i, j = index.get(e[:n]), index.get(e[n:])
        if i is None or j is None:
            raise InternalError("reduced Bezoutian off the standard basis")
        b[i][j] = c
    return canonical_gram(field, b)


def _powers_plus_lower(rng, field, order, n, top):
    """x_i -> x_i^m_i plus up to three terms of lower degree, m_i drawn from
    1..top."""
    ring = Ring(tuple(f"x{i + 1}" for i in range(n)), field, order)
    images = []
    for i in range(n):
        m = rng.randint(1, top)
        images.append(
            ring.var(i) ** m + random_poly(rng, ring, max_degree=m - 1, max_terms=3)
        )
    return Endo(ring=ring, images=tuple(images))


def test_gram_matches_doubled_ring_reference(Q, F7):
    # images x_i^m_i plus lower-degree terms: finite quotients, often with
    # zeros away from the origin; (x1, x1 + 1) is the unit ideal
    rng = random.Random(1414)
    endos = []
    for field, order in itertools.product((Q, F7), (GREVLEX, LEX)):
        unit = reordered(make_endo(field, ("x1", "x2"), ("x1", "x1 + 1")), order)
        endos.append(unit)
        for n in (1, 2, 3):
            for _ in range(12 if n < 3 else 6):
                endos.append(
                    _powers_plus_lower(rng, field, order, n, 4 if n < 3 else 2)
                )
    # F_3, where the characteristic divides exponents (the derivative of
    # x^3 is 0), and n = 4, whose GREVLEX pair keys have 160 bits
    F3 = FieldSpec.prime_field(3)
    for order in (GREVLEX, LEX):
        for n in (1, 2, 3):
            for _ in range(6 if n < 3 else 3):
                endos.append(_powers_plus_lower(rng, F3, order, n, 4 if n < 3 else 3))
        for field in (Q, F3):
            for _ in range(3):
                endos.append(_powers_plus_lower(rng, field, order, 4, 2))
    sizes, bits = set(), set()
    for endo in endos:
        qa = standard_monomials(buchberger(endo.images))
        got = _gram_from_quotient(endo, qa)
        assert got == _reference_gram(endo, qa)
        sizes.add(qa.dimension)
        bits.add(max(bezoutian(endo).packed, default=0).bit_length())
    assert 0 in sizes and max(sizes) >= 8
    assert max(bits) > 144  # an x-degree field of a 4-variable GREVLEX pair


def test_integer_table_and_gram_match_reference_division(Q):
    # maps with non-integral coefficients: their quotient tables and Gram
    # rows run on ints over a common denominator, read here as exact
    # values; the oracle is reference_divide, which shares no
    # code with the division kernel, in the base ring for every table entry
    # and in the doubled ring for the Gram
    rng = random.Random(2023)
    fractions = {"table": 0, "gram": 0}
    sizes = set()
    for order in (GREVLEX, LEX):
        for n in (1, 2, 3):
            ring = Ring(tuple(f"x{i + 1}" for i in range(n)), Q, order)
            for _ in range(6 if n < 3 else 3):
                images = []
                for i in range(n):
                    m = rng.randint(1, 3 if n < 3 else 2)
                    tail = random_poly(rng, ring, max_degree=m - 1, max_terms=3)
                    f = ring.var(i) ** m + tail * random_unit(rng, Q, bound=6)
                    images.append(f * random_unit(rng, Q, bound=6))
                endo = Endo(ring=ring, images=tuple(images))
                qa = standard_monomials(buchberger(endo.images))
                gram = _gram_from_quotient(endo, qa)  # fills the table
                sizes.add(qa.dimension)
                # deeper entries too, whose fills mix more denominators
                packing = qa.ring.packing
                for _ in range(4):
                    a = tuple(rng.randint(0, 5) for _ in range(n))
                    qa[packing.pack(a)]
                for a in map(packing.unpack, list(qa)):
                    _, expected = reference_divide(monomial(ring, a), qa.gb.basis)
                    got = monomial_nf(qa, a)
                    assert got == expected.terms
                    fractions["table"] += any(type(c) is Fraction for c in got.values())
                delta = bezoutian(endo)
                combined = _reference_combined_basis(qa, delta.ring).basis
                _, nf = reference_divide(delta, combined)
                index = {m: k for k, m in enumerate(map(packing.unpack, qa.keys))}
                rows = [{} for _ in qa.keys]
                for e, c in nf.terms.items():
                    rows[index[e[:n]]][index[e[n:]]] = c
                assert list(exact_rows(gram)) == rows
                fractions["gram"] += any(
                    type(c) is Fraction for row in rows for c in row.values()
                )
    assert min(fractions.values()) >= 10, fractions
    assert max(sizes) >= 8


def test_every_table_entry_is_on_basis_positions(documented_degree_runs):
    # after the Gram build of every documented job that validates, under
    # both orders, each normal-form entry maps basis positions to ints over
    # a positive denominator coprime to them, 1 over F_p; a job that does
    # not validate has a zero set that is not finite or not the origin
    jobs = pathlib.Path(__file__).resolve().parent.parent / "docs" / "jobs"
    assert len(documented_degree_runs) == 2 * len(list(jobs.glob("*.job")))
    entries, fractions = 0, 0
    for (path, order), (code, _, err, qa) in documented_degree_runs.items():
        if qa is None:
            refused = ("NotFiniteLength", "SupportNotOrigin")
            assert code == 3 and err.split(":")[1].strip() in refused, (path, err)
            continue
        d = qa.dimension
        for nums, den in qa.values():
            assert all(k in range(d) for k in nums), (path, order)
            assert den > 0 and math.gcd(den, *nums.values()) == 1, (path, order)
            assert den == 1 or qa.ring.field.is_rationals, (path, order)
            entries += 1
            fractions += den > 1
    assert entries >= 8_000 and fractions >= 10


def test_quotient_with_a_tail_off_its_basis_is_internal_error(Q):
    # the counterexample's last standard monomial is in a basis tail, so a
    # quotient that drops it cannot seed that lead's entry: InternalError
    # at construction, never a bare KeyError
    gb = validate(counterexample_endo(Q)).gb
    keys = standard_monomials(gb).keys
    with pytest.raises(InternalError, match="off the standard basis"):
        QuotientAlgebra(gb, keys[:-1])


def test_gram_off_standard_basis_is_internal_error(Q, monkeypatch, capsys):
    # a quotient that misses a standard monomial has a basis tail outside
    # the index: InternalError (exit 2), never a bare KeyError
    endo = counterexample_endo(Q)
    qa = validate(endo)
    with pytest.raises(InternalError, match="off the standard basis"):
        broken = QuotientAlgebra(gb=qa.gb, keys=qa.keys[:-1])
        _gram_from_quotient(endo, broken)

    def drop_last(gb):
        qa = standard_monomials(gb)
        return QuotientAlgebra(gb=gb, keys=qa.keys[:-1])

    monkeypatch.setattr(degree, "standard_monomials", drop_last)
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    assert run(["degree", "docs/jobs/counterexample.job"]) == 2
    assert "off the standard basis" in capsys.readouterr().err


def test_homogeneous_length_off_bezout_is_internal_error(Q, monkeypatch):
    # a homogeneous map skips the support test, and its length must be the
    # product of the degrees: the counterexample (degrees 2, 2, 1, length
    # 4) without its standard monomial x1, which no basis tail names, builds
    # a quotient of length 3, and validate refuses it
    endo = counterexample_endo(Q)
    x1 = endo.ring.packing.pack((1, 0, 0))

    def drop_x1(gb):
        qa = standard_monomials(gb)
        assert all(x1 not in tail for _, _, tail, _ in gb.entries)
        return QuotientAlgebra(gb, tuple(k for k in qa.keys if k != x1))

    monkeypatch.setattr(degree, "standard_monomials", drop_x1)
    with pytest.raises(InternalError, match=r"degrees \[2, 2, 1\] is not their"):
        validate(endo)


def test_a_standard_half_never_touches_the_table(Q, monkeypatch):
    # each half of a Bezoutian key is a key of the quotient's packing: a
    # standard half is its own normal form and is never looked up, and a
    # non-standard one grows the table by at most its own entry
    jobs = pathlib.Path(__file__).resolve().parent.parent / "docs" / "jobs"
    calls = []
    missing = QuotientAlgebra.__missing__

    def counted(self, key):
        calls.append(key)
        return missing(self, key)

    monkeypatch.setattr(QuotientAlgebra, "__missing__", counted)
    for order in (GREVLEX, LEX):
        endos = [
            read_endo(str(jobs / name), order)
            for name in ("power123.job", "identity3.job", "staircase3.job")
        ]
        endos.insert(2, reordered(power_endo(Q, (4, 5, 3)), order))
        grown = []
        for endo in endos:
            qa = validate(endo)
            size = len(qa)
            calls.clear()
            _gram_from_quotient(endo, qa)
            w = qa.ring.packing.width
            keys = bezoutian(endo).packed
            halves = {e >> w for e in keys} | {e & (1 << w) - 1 for e in keys}
            nonstandard = halves - qa.index.keys()
            grown.append((len(calls), len(qa) - size, len(nonstandard)))
        *powers, staircase = grown
        assert all(entry[:2] == (0, 0) for entry in powers), (order, grown)
        calls_made, growth, bound = staircase
        assert 0 < calls_made <= growth <= bound, (order, grown)


def _labels(rep):
    """The standard monomials as --verbose prints them, in basis order."""
    line = cli._degree_verbose_lines(rep)[0]
    return tuple(line.removeprefix("standard monomials: ").split(", "))


def test_gram_cross_example(Q):
    endo = make_endo(Q, ("x1", "x2"), ("x1^2 - x2^2", "x1*x2"))
    rep = degree_of(endo)
    g = rep.gram
    assert _labels(rep) == ("1", "x2", "x1", "x2^2")
    expected = (
        (0, 0, 0, 1),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (1, 0, 0, 0),
    )
    assert dense(g) == [[Fraction(x) for x in row] for row in expected]


def test_gram_identity(Q):
    ring = Ring(("x1",), Q)
    g = degree_of(Endo(ring=ring, images=(ring.var(0),))).gram
    assert dense(g) == [[Fraction(1)]]


def test_gram_cube_antidiagonal(Q):
    rep = degree_of(power_endo(Q, (3,)))
    g = rep.gram
    assert _labels(rep) == ("1", "x1", "x1^2")
    expected = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert dense(g) == [[Fraction(x) for x in row] for row in expected]


def test_degree_counterexample(Q):
    rep = degree_of(counterexample_endo(Q))
    assert rep.length == 4
    assert witt_equal(rep.diag, diag_form(Q, [1, 1]))
    assert not rep.is_zero
    data = cli._degree_json(rep)
    assert data["nori_nminus1_factorial"]  # 2 | 4
    assert not data["nori_n_factorial"]  # 6 does not divide 4


def test_report_is_its_four_stage_results(Q, F7):
    # each result stores what its stage computed and derives the rest on
    # read; the report keeps the quotient, so its table still serves after
    # the degree: NF of the Jacobian determinant there is the length times
    # the socle monomial x2^2 (Eisenbud-Levine; Scheja-Storch).  A record
    # with its own __init__ takes the fields of its signature; DegreeReport
    # has none, and errors.Frozen builds it from its __slots__
    def fields(cls):
        return list(inspect.signature(cls).parameters)

    def stored(qa):
        gb = qa.gb
        return gb.generators, gb.entries, gb.cofactors, qa.keys

    assert fields(QuotientAlgebra) == ["gb", "keys"]
    assert fields(GramForm) == ["field", "rows", "den"]
    assert DegreeReport.__slots__ == ("quotient", "gram", "diag", "invariants")
    for field in (Q, F7):
        endo = counterexample_endo(field)
        rep = degree_of(endo)
        assert stored(rep.quotient) == stored(validate(endo))
        assert (rep.field, rep.n, rep.length, len(rep.gram.rows)) == (field, 3, 4, 4)
        assert _labels(rep) == ("1", "x2", "x1", "x2^2")
        jac = normal_form(jacobian_det(list(endo.images)), rep.quotient.gb)
        assert jac == parse_poly("4*x2^2", endo.ring)


def test_records_are_read_only(Q):
    # a record's fields are set once, by its constructor; the quotient is
    # its normal-form table, seeded by its constructor and filled on lookup
    endo = counterexample_endo(Q)
    rep = degree_of(endo)
    gram = rep.gram
    for record, name in ((rep, "gram"), (gram, "den"), (endo, "images")):
        value = getattr(record, name)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        rep.extra = 1  # no field of that name, and no instance dict
    assert rep.gram is gram
    qa = rep.quotient
    for name in ("gb", "index"):
        value = getattr(qa, name)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(qa, name, None)
        assert getattr(qa, name) is value
    # a border entry x_i * s, s standard, that a fresh quotient's seeds
    # miss: one lookup fills it, and the next returns the same object
    qa = standard_monomials(buchberger(endo.images))
    var = qa.ring.packing.var
    border = next(s + v for s in qa.keys for v in var if s + v not in qa)
    assert border not in qa.index
    entry = qa[border]
    assert border in qa and qa[border] is entry


def test_degree_identity(Q):
    for n in (1, 2, 3):
        ring = Ring(tuple(f"x{i+1}" for i in range(n)), Q)
        rep = degree_of(Endo(ring=ring, images=ring.gens()))
        assert rep.length == 1
        assert rep.diag.entries == (Fraction(1),)
        assert not rep.is_zero


def test_degree_square_is_hyperbolic(Q):
    rep = degree_of(power_endo(Q, (2,)))
    assert rep.is_zero
    assert rep.length == 2


def test_unit_scaling_law(Q, F5, F7):
    rng = random.Random(1001)
    for field in (Q, F5, F7):
        for n in (1, 2, 3):
            ring = Ring(tuple(f"x{i+1}" for i in range(n)), field)
            for _ in range(5):
                alpha = random_unit(rng, field)
                images = list(ring.gens())
                images[-1] = images[-1] * alpha
                rep = degree_of(Endo(ring=ring, images=tuple(images)))
                assert rep.diag.entries == (square_class(field, alpha),)


def test_diagonal_bezoutian_identity_random(Q):
    rng = random.Random(5151)
    for _ in range(25):
        n = rng.randint(1, 3)
        ring = Ring(tuple(f"x{i+1}" for i in range(n)), Q)
        images = tuple(random_poly(rng, ring, max_degree=3) for _ in range(n))
        endo = Endo(ring=ring, images=images)
        assert diagonal_bezoutian_identity(endo)


def test_rank_equals_length(Q, F7):
    cases = [
        counterexample_endo(Q),
        power_endo(Q, (2, 3)),
        power_endo(F7, (3, 2)),
        make_endo(Q, ("x", "y"), ("x^2 + y^2", "x*y")),
        make_endo(Q, ("x", "y"), ("x^3 - y^3", "x*y")),
    ]
    for endo in cases:
        rep = degree_of(endo)
        assert rep.invariants.rank == rep.length
        assert len(rep.gram.rows) == rep.length


def test_monomial_order_independence(Q):
    cases = [
        counterexample_endo(Q),
        power_endo(Q, (2, 3)),
        make_endo(Q, ("x", "y"), ("x^2 - y^2", "x*y")),
        make_endo(Q, ("x", "y"), ("x^3 + y^2", "x*y")),
    ]
    for endo in cases:
        d1 = degree_of(endo).diag
        d2 = degree_of(reordered(endo, LEX)).diag
        assert witt_equal(d1, d2)


def test_univariate_oracle_examples(Q):
    assert univariate_tensor_oracle(Q, (1,)).entries == (Fraction(1),)
    assert univariate_power_form(Q, 2).entries == (Fraction(1), Fraction(-1))
    assert univariate_power_form(Q, 3).entries == (
        Fraction(1),
        Fraction(1),
        Fraction(-1),
    )
    six = univariate_tensor_oracle(Q, (1, 2, 3))
    assert six.rank == 6
    assert is_witt_zero(six)


def test_separated_variable_agreement(Q):
    for nvars in (1, 2, 3):
        for ms in itertools.product(range(1, 7), repeat=nvars):
            if math.prod(ms) > 24:
                continue
            rep = degree_of(power_endo(Q, ms))
            assert rep.length == math.prod(ms)
            assert witt_equal(rep.diag, univariate_tensor_oracle(Q, ms))


def test_suslin_vanishing(Q):
    for ms in itertools.product(range(1, 7), repeat=3):
        if math.prod(ms) % 6 == 0:
            assert is_witt_zero(univariate_tensor_oracle(Q, ms))


def test_signature_matches_topological_degree(Q):
    z2 = make_endo(Q, ("x", "y"), ("x^2 - y^2", "2*x*y"))
    z3 = make_endo(Q, ("x", "y"), ("x^3 - 3*x*y^2", "3*x^2*y - y^3"))
    assert degree_of(z2).invariants.signature == 2
    assert degree_of(z3).invariants.signature == 3


def _compose(f: Endo, g: Endo) -> Endo:
    return Endo(
        ring=f.ring,
        images=tuple(p.substitute(list(g.images)) for p in f.images),
    )


def test_degree_multiplicative_under_composition(Q):
    # the local degree is multiplicative: deg(f o g) = deg(f) * deg(g);
    # an independent consistency check on the whole pipeline
    ring3 = Ring(("x1", "x2", "x3"), Q)
    scale5 = Endo(
        ring=ring3,
        images=(ring3.var(0), ring3.var(1), ring3.var(2) * 5),
    )
    pairs = [
        (counterexample_endo(Q), scale5),
        (
            make_endo(Q, ("x", "y"), ("x^2 - y^2", "x*y")),
            make_endo(Q, ("x", "y"), ("x^3", "y")),
        ),
        (
            make_endo(Q, ("x", "y"), ("x^2 - y^2", "2*x*y")),
            make_endo(Q, ("x", "y"), ("x^3 - 3*x*y^2", "3*x^2*y - y^3")),
        ),
    ]
    for f, g in pairs:
        df = degree_of(f).diag
        dg = degree_of(g).diag
        dfg = degree_of(_compose(f, g)).diag
        assert witt_equal(dfg, tensor(df, dg))


def test_realified_sixth_power(Q):
    # z^2 o z^3 is the realification of z^6: rank 36, signature 6
    z2 = make_endo(Q, ("x", "y"), ("x^2 - y^2", "2*x*y"))
    z3 = make_endo(Q, ("x", "y"), ("x^3 - 3*x*y^2", "3*x^2*y - y^3"))
    rep = degree_of(_compose(z2, z3))
    assert rep.length == 36
    assert rep.invariants.signature == 6


def test_report_json_shape(Q):
    data = cli._degree_json(degree_of(counterexample_endo(Q)))
    assert data["schema"] == 1
    assert data["field"] == "Q"
    assert data["length"] == 4
    assert data["diagonal"] == ["1", "1", "2", "-2"]
    assert data["nori_nminus1_factorial"] is True
    assert data["nori_n_factorial"] is False


def test_prime_field_counterexample(F5, F7):
    assert degree_of(counterexample_endo(F5)).is_zero
    assert not degree_of(counterexample_endo(F7)).is_zero


def _twin(endo, field):
    """endo with every coefficient reduced into field, in the same order."""
    ring = Ring(endo.ring.variables, field, endo.ring.order)
    images = []
    for f in endo.images:
        terms = {e: field.canon(c) for e, c in f.terms.items()}
        images.append(poly(ring, {e: c for e, c in terms.items() if c}))
    return Endo(ring=ring, images=tuple(images))


def _integer_triangular_endo(rng, field):
    """x_i -> c_i * x_i^m_i + sum_{j<i} x_j * g_ij with integer coefficients:
    the only zero is the origin."""
    ring = Ring(("x1", "x2", "x3"), field)
    images = []
    for i in range(3):
        exps = [0] * 3
        exps[i] = rng.randint(1, 3)
        p = monomial(ring, exps, rng.choice((1, -1, 2, -3, 5)))
        for j in range(i):
            tail = random_poly(rng, ring, max_degree=2, max_terms=3, coeff_range=9)
            p = p + ring.var(j) * tail
        images.append(p)
    return Endo(ring=ring, images=tuple(images))


def test_q_gram_reduces_to_its_f_p_twin(Q):
    # reduction mod p commutes with the whole pipeline wherever the twin
    # over F_p has the same standard monomials and p divides no denominator
    # of the Q basis or of the Q Gram
    fp = FieldSpec.prime_field(10007)
    p = fp.modulus
    endos = []
    jobs = pathlib.Path(__file__).resolve().parent.parent / "docs" / "jobs"
    for path in sorted(jobs.glob("*.job")):
        endo = read_endo(str(path), GREVLEX)
        if endo.field != Q:
            continue
        if path.name == "scaling21.job":
            # the job exits 2: no class over Q to compare
            with pytest.raises(FactorBoundExceeded):
                degree_of(endo)
            continue
        endos.append(endo)
    rng = random.Random(10007)
    endos += [_integer_triangular_endo(rng, Q) for _ in range(8)]
    compared = 0
    for endo in endos:
        try:
            rep = degree_of(endo)
        except HYPOTHESIS_ERRORS:
            continue  # the job exits 3
        twin = _twin(endo, fp)
        if standard_monomials(buchberger(twin.images)).keys != rep.quotient.keys:
            continue
        scalars = [c for g in rep.quotient.gb.basis for c in g.terms.values()]
        gram = exact_rows(rep.gram)
        scalars += [x for row in gram for x in row.values()]
        if any(Fraction(x).denominator % p == 0 for x in scalars):
            continue
        twin_rep = degree_of(twin)
        reduced = tuple(
            {j: fp.canon(x) for j, x in row.items() if fp.canon(x)} for row in gram
        )
        assert reduced == twin_rep.gram.rows
        assert rep.invariants.rank == twin_rep.invariants.rank
        disc = fp.canon(rep.invariants.signed_discriminant)
        assert square_class(fp, disc) == twin_rep.invariants.signed_discriminant
        compared += 1
    assert compared >= 5

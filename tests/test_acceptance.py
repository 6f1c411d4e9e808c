"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with pytest -s or in the
captured output) after its assertions succeed.  Time limits are asserted
with monotonic clocks.
"""

import hashlib
import itertools
import json
import math
import random
import textwrap
import time
import tracemalloc
from fractions import Fraction

import pytest

from wittdeg.cli import _degree_json, _write_json
from wittdeg.degree import Endo, degree_of, univariate_tensor_oracle
from wittdeg.fields import FieldSpec, hasse_places, square_class, square_classes
from wittdeg.groebner import buchberger, normal_form
from wittdeg.poly import Ring
from wittdeg.umrow import compose_with_endo, is_unimodular
from wittdeg.witt import (
    diag_form,
    diagonalize,
    invariants,
    is_witt_zero,
    negate,
    orthogonal_sum,
    witt_equal,
)

from conftest import (
    canonical_gram,
    counterexample_endo,
    dense,
    diagonal_bezoutian_identity,
    equivalent,
    hilbert,
    make_endo,
    power_endo,
    random_poly,
    random_unit,
    universal_row,
)

Q = FieldSpec.rationals()


def _passed(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_counterexample_reproduction():
    start = time.monotonic()
    report = degree_of(counterexample_endo(Q))
    elapsed = time.monotonic() - start
    assert report.length == 4
    assert witt_equal(report.diag, diag_form(Q, [1, 1]))
    assert report.is_zero is False
    assert elapsed < 1.0
    _passed(1, f"length 4, class <1,1>, nonzero in W(Q) ({elapsed:.3f}s)")


def test_criterion_2_field_dependence():
    from wittdeg.fields import is_prime

    start = time.monotonic()
    assert degree_of(counterexample_endo(Q)).is_zero is False
    checked = []
    for p in range(3, 50, 2):
        if not is_prime(p):
            continue
        report = degree_of(counterexample_endo(FieldSpec.prime_field(p)))
        assert report.is_zero is (p % 4 == 1), p
        checked.append(p)
    assert 5 in checked and 7 in checked and len(checked) == 14
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed(2, f"is_zero iff p = 1 mod 4 for odd primes {checked} ({elapsed:.2f}s)")


def test_criterion_3_scaling_law():
    rng = random.Random(20230303)
    count = 0
    for field in (Q, FieldSpec.prime_field(5), FieldSpec.prime_field(7)):
        for n in (1, 2, 3):
            ring = Ring(tuple(f"x{i+1}" for i in range(n)), field)
            for _ in range(20):
                alpha = random_unit(rng, field)
                images = list(ring.gens())
                images[-1] = images[-1] * alpha
                report = degree_of(Endo(ring=ring, images=tuple(images)))
                assert report.diag.entries == (square_class(field, alpha),)
                assert witt_equal(report.diag, diag_form(field, [alpha]))
                count += 1
    _passed(3, f"degree(x1,...,a*xn) = <a> for {count} random units")


def test_criterion_4_suslin_consistency():
    start = time.monotonic()
    vanish = 0
    for ms in itertools.product(range(1, 7), repeat=3):
        if math.prod(ms) % 6 == 0:
            assert is_witt_zero(univariate_tensor_oracle(Q, ms)), ms
            vanish += 1
    agree = 0
    for nvars in (1, 2, 3):
        for ms in itertools.product(range(1, 7), repeat=nvars):
            if math.prod(ms) > 24:
                continue
            report = degree_of(power_endo(Q, ms))
            assert report.length == math.prod(ms)
            assert witt_equal(
                report.diag, univariate_tensor_oracle(Q, ms)
            ), ms
            agree += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passed(
        4,
        f"{vanish} divisible tuples Witt-zero, oracle agrees on {agree} "
        f"tuples ({elapsed:.1f}s)",
    )


def test_criterion_5_koszul_signs():
    from wittdeg.koszul import generic_duality, verify_chain_map, verify_symmetry

    unsigned_failures = []
    for n in range(1, 5):
        diffs, wedge, signed = generic_duality(Q, n)
        assert verify_chain_map(diffs, signed), n
        assert verify_symmetry(signed), n
        if not verify_chain_map(diffs, wedge):
            unsigned_failures.append(n)
    assert unsigned_failures
    _passed(
        5,
        "sign-corrected family is a symmetric chain map for n=1..4; unsigned "
        f"family fails for n in {unsigned_failures}",
    )


def test_criterion_6_bezoutian_diagonal_identity():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(1, 3)
        ring = Ring(tuple(f"x{i+1}" for i in range(n)), Q)
        images = tuple(random_poly(rng, ring, max_degree=3) for _ in range(n))
        assert diagonal_bezoutian_identity(Endo(ring=ring, images=images))
    _passed(6, "Delta(x,x) = Jacobian determinant for 50 random endos")


def test_criterion_7_witt_decision_soundness():
    rng = random.Random(777)

    def mat_mul(a, b):
        return [
            [
                sum(a[i][k] * b[k][j] for k in range(len(b)))
                for j in range(len(b[0]))
            ]
            for i in range(len(a))
        ]

    def transpose(a):
        return [list(r) for r in zip(*a)]

    for _ in range(100):
        n = rng.randint(1, 4)
        diag_entries = [
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(n)
        ]
        g = [
            [diag_entries[i] if i == j else Fraction(0) for j in range(n)]
            for i in range(n)
        ]
        p = [
            [
                Fraction(1)
                if i == j
                else (Fraction(rng.randint(-2, 2)) if i < j else Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        conj = mat_mul(transpose(p), mat_mul(g, p))
        inv1 = invariants(diagonalize(canonical_gram(Q, g)))
        inv2 = invariants(diagonalize(canonical_gram(Q, conj)))
        assert equivalent(inv1, inv2)

    for _ in range(200):
        a = Fraction(rng.choice([k for k in range(-999, 1000) if k]),
                     rng.randint(1, 999))
        b = Fraction(rng.choice([k for k in range(-999, 1000) if k]),
                     rng.randint(1, 999))
        prod = 1
        for v in hasse_places(square_classes(Q, [a, b])[1]):
            prod *= hilbert(a, b, v)
        assert prod == 1

    for _ in range(50):
        r = rng.randint(1, 6)
        d = diag_form(Q, [rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]) for _ in range(r)])
        assert is_witt_zero(orthogonal_sum(d, negate(d)))
    _passed(
        7,
        "congruence invariance x100, Hilbert product formula x200, "
        "d + (-d) hyperbolic x50",
    )


def test_criterion_8_signature_topology_bridge():
    z2 = make_endo(Q, ("x", "y"), ("x^2 - y^2", "2*x*y"))
    z3 = make_endo(Q, ("x", "y"), ("x^3 - 3*x*y^2", "3*x^2*y - y^3"))
    s2 = degree_of(z2).invariants.signature
    s3 = degree_of(z3).invariants.signature
    assert s2 == 2
    assert s3 == 3
    _passed(8, "realifications of z^2, z^3 have signatures 2 and 3")


def test_criterion_9_row_certificates():
    row = universal_row(Q, 3)
    cert = is_unimodular(row)
    ys = row.ring.gens()[3:]
    assert cert == tuple(ys)

    composed = compose_with_endo(row, counterexample_endo(Q))
    cert2 = is_unimodular(composed)
    assert cert2 is not None
    ring = row.ring
    total = ring.zero()
    for b, a in zip(cert2, composed.entries):
        total = total + b * a
    relgb = buchberger(list(row.relations))
    assert normal_form(total - ring.one(), relgb).is_zero
    _passed(
        9,
        "tautological row certified by (y1, y2, y3); composed row "
        "certificate expands to 1 exactly",
    )


@pytest.fixture(scope="module")
def staircase_k40():
    """The k = 40 staircase (xy, yz + x^40, xz + y^40 + z^40) over Q and
    F_10007: each field's report and the seconds its degree_of took."""
    texts = ("x*y", "y*z + x^40", "x*z + y^40 + z^40")
    runs = {}
    for field in (Q, FieldSpec.prime_field(10007)):
        start = time.monotonic()
        report = degree_of(make_endo(field, ("x", "y", "z"), texts))
        runs[field] = report, time.monotonic() - start
    return runs


def test_scale_staircase_k40(staircase_k40):
    """The k = 40 staircase has d = 1,680 and a Gram form with about one
    nonzero per row: the sparse pipeline runs it in well under 2 s per
    field.  The Q signed discriminant, reduced mod 10007, is the F_10007
    one (the benchmark's twin oracle)."""
    fp = FieldSpec.prime_field(10007)
    reports = {}
    for field, (report, elapsed) in staircase_k40.items():
        assert report.length == report.invariants.rank == 1680
        assert elapsed < 2.0, (field, elapsed)
        reports[field] = report
    q_disc = fp.canon(reports[Q].invariants.signed_discriminant)
    assert square_class(fp, q_disc) == reports[fp].invariants.signed_discriminant
    print("PASS scale: k = 40 staircase, rank 1680 over Q and F10007")


def test_json_k40_streams_by_gram_row(staircase_k40):
    """The --json writer passes the k = 40 Q report (31 MB under schema 1)
    on in pieces no longer than one indented Gram row, holding less than
    1 MB at its peak, and the pieces are the bytes of json.dumps of the
    report with its dense Gram matrix, built here."""
    data = _degree_json(staircase_k40[Q][0])
    digest = hashlib.sha256()
    widest_piece = 0

    def sink(piece):
        nonlocal widest_piece
        digest.update(piece.encode())
        widest_piece = max(widest_piece, len(piece))

    tracemalloc.start()
    try:
        _write_json(data, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    gram = dense(data["gram"], str)
    expected = hashlib.sha256()
    for chunk in json.JSONEncoder(indent=2).iterencode({**data, "gram": gram}):
        expected.update(chunk.encode())
    assert digest.hexdigest() == expected.hexdigest()
    widest = max(gram, key=lambda row: len("".join(row)))
    row_text = textwrap.indent(json.dumps(widest, indent=2), "    ")
    assert widest_piece <= len(row_text)

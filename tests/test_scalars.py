"""Every scalar the pipeline stores has the one canonical form of its field
(conftest.is_canonical_scalar): over Q an integral value is an int, never an
integer-valued Fraction, and no value is a float.

The stages are run one by one, so that each stored value can be read: the
reduced Groebner basis, the memoized normal-form table, the Gram rows, the
raw pivots of the elimination, the diagonal, the signed discriminant and
the certificate of a composed unimodular row.
"""

import math
import pathlib
import random
from fractions import Fraction

import pytest

from wittdeg import (
    DegenerateForm,
    Endo,
    FieldSpec,
    GramForm,
    NonCanonicalForm,
    Ring,
)
from wittdeg.cli import _endo_from_job, _row_from_job, parse_job_file
from wittdeg.degree import _gram_from_quotient, validate
from wittdeg.umrow import compose_with_endo, is_unimodular
from wittdeg.witt import DiagForm, _eliminate, diag_form, invariants

from conftest import is_canonical_scalar, random_poly, random_unit

JOBS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "jobs"
DEGREE_JOBS = ("counterexample", "identity3", "power123", "rational", "staircase3")
Q = FieldSpec.rationals()


def _stored_scalars(endo):
    """(stage, scalar) for every scalar the degree pipeline stores."""
    qa = validate(endo)
    gram = _gram_from_quotient(endo, qa)  # fills the normal-form table
    pivots = _eliminate(gram)
    diag = diag_form(endo.field, pivots)
    for p in qa.gb.basis:
        yield from (("basis", c) for c in p.terms.values())
    _assert_integer_table(qa)
    for a in map(qa.gb._packing.unpack, qa._nf_table):
        yield from (("normal form", c) for c in qa.monomial_nf(a).values())
    for row in gram.rows:
        yield from (("gram", c) for c in row.values())
    yield from (("pivot", c) for c in pivots)
    yield from (("diagonal", c) for c in diag.entries)
    yield "signed discriminant", invariants(diag).signed_discriminant


def _assert_integer_table(qa):
    """Each entry of the normal-form table is (nums, den): an int term dict
    without zeros and an int den > 0 coprime to its content (1 over F_p)."""
    for nums, den in qa._nf_table.values():
        assert type(den) is int and den > 0
        assert all(type(v) is int and v for v in nums.values())
        assert math.gcd(den, *nums.values()) == 1
        assert qa.ring.field.is_rationals or den == 1


def _assert_canonical(field, pairs):
    pairs = list(pairs)
    bad = [(stage, x) for stage, x in pairs if not is_canonical_scalar(field, x)]
    assert pairs and not bad, bad[:5]


def _job_endo(name):
    path = str(JOBS / f"{name}.job")
    return _endo_from_job(parse_job_file(path), path)


# -- small seeded maps of the structured families --------------------------
#
# Each image is scaled by a seeded rational unit: the ideal, so the length
# and the support, stay the same, while non-integral values reach every
# stage and cancel back to integers along the way.


def _scaled(rng, images):
    return tuple(f.scale(random_unit(rng, Q, bound=4)) for f in images)


def _staircase(rng, k):
    ring = Ring(("x", "y", "z"), Q)
    x, y, z = ring.gens()
    a, b, c, d = (rng.choice((1, -1)) for _ in range(4))
    return ring, (a * x * y, y * z + b * x**k, x * z + c * y**k + d * z**k)


def _power(rng, ms):
    ms = list(ms)
    rng.shuffle(ms)
    ring = Ring(tuple(f"x{i + 1}" for i in range(len(ms))), Q)
    return ring, tuple(v**m for v, m in zip(ring.gens(), ms))


def _realified(rng, m, j):
    """(Re c*z^m, Im c*z^m, t^j) with z = x + i*y and c = a + i*b."""
    ring = Ring(("x", "y", "t"), Q)
    x, y, t = ring.gens()
    a, b = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1)))
    re, im = ring.constant(a), ring.constant(b)
    for _ in range(m):
        re, im = re * x - im * y, re * y + im * x
    return ring, (re, im, t**j)


def _triangular(rng, n, m):
    """x_i^m + sum_{j<i} x_j * g_ij with tails of degree <= m - 2."""
    ring = Ring(tuple(f"x{i + 1}" for i in range(n)), Q)
    xs = ring.gens()
    images = []
    for i in range(n):
        f = xs[i] ** m
        for j in range(i):
            f = f + xs[j] * random_poly(rng, ring, max_degree=m - 2, max_terms=3)
        images.append(f)
    return ring, tuple(images)


def _seeded_maps(seed):
    rng = random.Random(f"canonical-scalars:{seed}")
    for ring, images in (
        _staircase(rng, 3),
        _staircase(rng, 4),
        _power(rng, (2, 3, 3)),
        _power(rng, (4, 5)),
        _realified(rng, 2, 3),
        _realified(rng, 3, 2),
        _triangular(rng, 2, 4),
        _triangular(rng, 3, 2),
    ):
        yield Endo(ring=ring, images=_scaled(rng, images))


@pytest.mark.parametrize("name", DEGREE_JOBS)
def test_documented_jobs_store_canonical_scalars(name):
    endo = _job_endo(name)
    assert endo.field == Q
    _assert_canonical(Q, _stored_scalars(endo))


def test_f5_job_stores_canonical_scalars():
    endo = _job_endo("counterexample-f5")
    _assert_canonical(endo.field, _stored_scalars(endo))


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_seeded_structured_maps_store_canonical_scalars(seed):
    for endo in _seeded_maps(seed):
        _assert_canonical(Q, _stored_scalars(endo))


def test_row_compose_certificate_is_canonical():
    path = str(JOBS / "taut3.row")
    row = _row_from_job(parse_job_file(path), path)
    for name in ("counterexample", "power123"):
        endo = _job_endo(name)
        # also with the images scaled by rational units, so that their
        # leading coefficients are not 1
        scaled = Endo(ring=endo.ring, images=_scaled(random.Random(name), endo.images))
        for e in (endo, scaled):
            cert = is_unimodular(compose_with_endo(row, e))
            assert cert is not None
            terms = (("certificate", c) for b in cert for c in b.terms.values())
            _assert_canonical(Q, terms)


def test_hand_built_forms_hold_canonical_scalars():
    """DiagForm stores an integral Fraction as its int; GramForm, which
    stores its nonzeros as given, rejects one."""
    d = DiagForm(field=Q, entries=(Fraction(15), -2, Fraction(-1)))
    assert d.entries == (15, -2, -1) and d.primes == (2, 3, 5)
    _assert_canonical(Q, (("diagonal", e) for e in d.entries))
    half, two = Fraction(1, 2), Fraction(2)
    g = GramForm(field=Q, rows=({1: half}, {0: half, 1: 2}))
    _assert_canonical(Q, (("gram", c) for row in g.rows for c in row.values()))
    with pytest.raises(DegenerateForm, match="not an int"):
        GramForm(field=Q, rows=({1: half}, {0: half, 1: two}))


def test_hand_built_forms_reject_floats():
    """A float is never a scalar of a form: GramForm raises DegenerateForm
    and DiagForm NonCanonicalForm, over Q and over F_p alike, instead of
    storing it or failing with a bare AttributeError."""
    F7 = FieldSpec.prime_field(7)
    with pytest.raises(DegenerateForm, match="0.5 is not an int"):
        GramForm(field=Q, rows=({0: 0.5},))
    with pytest.raises(DegenerateForm, match="2.0 is not an int"):
        GramForm(field=F7, rows=({0: 2.0},))
    with pytest.raises(NonCanonicalForm, match="entry 1.0 "):
        DiagForm(field=F7, entries=(1.0,))
    with pytest.raises(NonCanonicalForm, match="entry 0.5 "):
        DiagForm(field=Q, entries=(0.5,))
    with pytest.raises(NonCanonicalForm, match="entry 3.0 "):
        DiagForm(field=Q, entries=(1, 3.0))

"""Every scalar the pipeline stores has the one canonical form of its field
(conftest.is_canonical_scalar): over Q an integral value is an int, never an
integer-valued Fraction, and no value is a float.  Where a stage works on
the integer form instead, ints over a positive denominator, that form is
checked: the memoized normal-form table, the Gram rows and the pivots of
the elimination.

The stages are run one by one, so that each stored value can be read: the
reduced Groebner basis, the normal-form table, the Gram form, the pivots,
the diagonal, the signed discriminant and the certificate of a composed
unimodular row.
"""

import math
import pathlib
import random
from fractions import Fraction

import pytest

from wittdeg.cli import _endo_from_job, _row_from_job, parse_job_file
from wittdeg.degree import Endo, _gram_from_quotient, degree_of, validate
from wittdeg.errors import DegenerateForm, NonCanonicalForm
from wittdeg.fields import FieldSpec
from wittdeg.orders import GREVLEX
from wittdeg.poly import Ring
from wittdeg.umrow import compose_with_endo, is_unimodular
from wittdeg.witt import DiagForm, GramForm, _eliminate, diagonalize, invariants

from conftest import is_canonical_scalar, monomial_nf, random_poly, random_unit

JOBS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "jobs"
DEGREE_JOBS = ("counterexample", "identity3", "power123", "rational", "staircase3")
Q = FieldSpec.rationals()


def _stored_scalars(endo):
    """(stage, scalar) for every scalar the degree pipeline stores."""
    field = endo.field
    qa = validate(endo)
    gram = _gram_from_quotient(endo, qa)  # fills the normal-form table
    diag = diagonalize(gram)
    for p in qa.gb.basis:
        yield from (("basis", c) for c in p.terms.values())
    _assert_integer_form(field, qa._nf_table.values())
    for a in map(qa.ring.packing.unpack, qa._nf_table):
        yield from (("normal form", c) for c in monomial_nf(qa, a).values())
    # the Gram form as one int dict over its den, each pivot as one over
    # its own
    entries = {(i, j): v for i, row in enumerate(gram.rows) for j, v in row.items()}
    _assert_integer_form(field, [(entries, gram.den)])
    _assert_integer_form(field, (({0: a}, b) for a, b in _eliminate(gram)))
    yield from (("diagonal", c) for c in diag.entries)
    yield "signed discriminant", invariants(diag).signed_discriminant


def _assert_integer_form(field, pairs):
    """Each (nums, den) of pairs is an int dict without zeros (over F_p in
    [1, p)) and an int den > 0 coprime to its content (1 over F_p)."""
    for nums, den in pairs:
        assert type(den) is int and den > 0
        assert all(type(v) is int and v for v in nums.values())
        assert math.gcd(den, *nums.values()) == 1
        assert field.is_rationals or (
            den == 1 and all(0 < v < field.modulus for v in nums.values())
        )


def _assert_canonical(field, pairs):
    pairs = list(pairs)
    bad = [(stage, x) for stage, x in pairs if not is_canonical_scalar(field, x)]
    assert pairs and not bad, bad[:5]


def _job_endo(name):
    path = str(JOBS / f"{name}.job")
    return _endo_from_job(parse_job_file(path, GREVLEX), path)


# -- small seeded maps of the structured families --------------------------
#
# Each image is scaled by a seeded rational unit: the ideal, so the length
# and the support, stay the same, while non-integral values reach every
# stage and cancel back to integers along the way.


def _scaled(rng, images):
    return tuple(f * random_unit(rng, Q, bound=4) for f in images)


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
    row = _row_from_job(parse_job_file(path, GREVLEX), path)
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
    """DiagForm holds the ints and primes it is given; GramForm, which
    stores its int entries over den as given, rejects a Fraction."""
    d = DiagForm(field=Q, entries=(15, -2, -1), primes=(2, 3, 5))
    assert d.entries == (15, -2, -1) and d.primes == (2, 3, 5)
    _assert_canonical(Q, (("diagonal", e) for e in d.entries))
    g = GramForm(field=Q, rows=({1: 1}, {0: 1, 1: 4}), den=2)
    _assert_integer_form(Q, [({(0, 1): 1, (1, 0): 1, (1, 1): 4}, g.den)])
    for x in (Fraction(1, 2), Fraction(2)):
        with pytest.raises(DegenerateForm, match="not an int"):
            GramForm(field=Q, rows=({1: x}, {0: x, 1: 2}), den=1)


def test_hand_built_forms_reject_floats():
    """A float is never a scalar of a form: GramForm raises DegenerateForm
    and DiagForm NonCanonicalForm, over Q and over F_p alike, instead of
    storing it or failing with a bare AttributeError.  DiagForm rejects an
    integral Fraction too: its entries are ints."""
    F7 = FieldSpec.prime_field(7)
    with pytest.raises(DegenerateForm, match="0.5 is not an int"):
        GramForm(field=Q, rows=({0: 0.5},), den=1)
    with pytest.raises(DegenerateForm, match="2.0 is not an int"):
        GramForm(field=F7, rows=({0: 2.0},), den=1)
    with pytest.raises(NonCanonicalForm, match="entry 1.0 "):
        DiagForm(field=F7, entries=(1.0,), primes=())
    with pytest.raises(NonCanonicalForm, match="entry 0.5 "):
        DiagForm(field=Q, entries=(0.5,), primes=())
    with pytest.raises(NonCanonicalForm, match="entry 3.0 "):
        DiagForm(field=Q, entries=(1, 3.0), primes=())
    for x in (Fraction(15), Fraction(-1)):
        with pytest.raises(NonCanonicalForm, match=f"entry {x} "):
            DiagForm(field=Q, entries=(x,), primes=(3, 5))


@pytest.mark.parametrize("name", ("rational", "staircase3"))
def test_degree_over_q_makes_no_fraction(name, monkeypatch):
    """degree_of over Q keeps the integer form from the quotient to the
    square classes: no call of the Fraction constructor, Gram entries and
    pivots included.  Parsing rational.job makes its coefficients, so the
    counter is seen to count."""
    made = []
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counted_new))
        endo = _job_endo(name)
        parsed = len(made)
        report = degree_of(endo)
    assert made[parsed:] == []
    assert parsed > 0 if name == "rational" else parsed == 0
    assert report.gram.den == (3 if name == "rational" else 1)
    assert report.length == (6 if name == "rational" else 15)

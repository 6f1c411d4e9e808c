import math
import random
from fractions import Fraction

import pytest

from wittdeg import (
    AlgebraError,
    EvenModulus,
    FactorBoundExceeded,
    FieldSpec,
    Ring,
    ZeroScalar,
    square_class,
    square_class_mul,
    square_classes,
)
from wittdeg.fields import (
    FACTOR_BOUND,
    MR_PROVEN_BOUND,
    hasse_places,
    hilbert_symbol,
    is_prime,
)

from conftest import is_canonical_scalar


def test_fieldspec_rejects_char_2():
    with pytest.raises(EvenModulus):
        FieldSpec.prime_field(2)


def test_fieldspec_rejects_composite():
    with pytest.raises(AlgebraError):
        FieldSpec.prime_field(15)


def test_prime_field_takes_odd_primes_only():
    # a field is its modulus: every p that is not an odd prime is refused
    for p in (None, 7.0, True, -7, -1, 0, 1, 4, 9, 15, 91, 561):
        with pytest.raises(AlgebraError, match="is not prime"):
            FieldSpec.prime_field(p)
    with pytest.raises(EvenModulus, match="characteristic 2 is not supported"):
        FieldSpec.prime_field(2)
    for p in (3, 5, 10007):
        field = FieldSpec.prime_field(p)
        assert field.modulus == p and not field.is_rationals
    assert FieldSpec.rationals().modulus is None
    assert FieldSpec.rationals().is_rationals


def test_fieldspec_equality_and_str(Q, F5):
    assert Q == FieldSpec.rationals()
    assert F5 == FieldSpec.prime_field(5)
    assert Q != F5
    assert str(Q) == "Q"
    assert str(F5) == "F5"


def test_field_axioms_randomized(Q, F7):
    rng = random.Random(20260810)
    for field in (Q, F7):
        for _ in range(200):
            if field.is_rationals:
                a, b, c = (
                    Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                    for _ in range(3)
                )
            else:
                a, b, c = (rng.randrange(7) for _ in range(3))
            out = [field.add(a, b), field.mul(a, b), field.neg(a)]
            if b:
                out += [field.inv(b), field.div(a, b)]
            assert all(is_canonical_scalar(field, x) for x in out), out
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            if a:
                assert field.mul(a, field.inv(a)) == field.one


def test_integral_rationals_are_ints(Q):
    half = Fraction(1, 2)
    assert type(Q.add(half, half)) is int
    assert type(Q.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert type(Q.inv(-1)) is int and Q.inv(2) == half
    assert type(Q.div(6, 3)) is int and Q.div(1, 2) == half
    assert type(Q.canon(Fraction(4, 2))) is int
    assert type(Q.parse_scalar("4/2")) is int
    for x in (Q.zero, Q.one, Q.from_int(-3), square_class(Q, Fraction(9, 8))):
        assert type(x) is int
    assert type(square_class_mul(Q, 2, -6)) is int


def test_canon_rejects_non_scalars(Q, F7):
    for field in (Q, F7):
        for x in (0.5, 1.0, "1", None, 1j):
            with pytest.raises(AlgebraError):
                field.canon(x)
        with pytest.raises(AlgebraError):
            Ring(("x",), field).constant(0.5)
    assert F7.canon(Fraction(1, 2)) == 4
    assert Q.canon(True) == 1 and type(Q.canon(True)) is int


def test_from_int_rejects_non_ints(Q, F7):
    for field in (Q, F7):
        for x in (0.5, 1.0, Fraction(1, 2), Fraction(3), "1", None, True):
            with pytest.raises(AlgebraError):
                field.from_int(x)
        assert is_canonical_scalar(field, field.from_int(-3))
    assert F7.from_int(-3) == 4


def test_square_class_examples(Q, F5):
    # 18 = 2 * 3^2
    assert square_class(Q, 18) == 2
    assert square_class(Q, 1) == 1
    # 4 = 2^2 in F5
    assert square_class(F5, 4) == 1


def test_square_class_of_rationals(Q):
    assert square_class(Q, Fraction(1, 2)) == 2
    assert square_class(Q, Fraction(-9, 8)) == -2
    assert square_class(Q, Fraction(18, 50)) == 1


def test_square_class_zero_rejected(Q, F5):
    with pytest.raises(ZeroScalar):
        square_class(Q, 0)
    with pytest.raises(ZeroScalar):
        square_class(F5, 0)


def test_square_class_factor_bound(Q):
    # composite, with no prime below 1,000, beyond the trial-division bound
    big = 100003 * 100019
    assert big > FACTOR_BOUND
    with pytest.raises(FactorBoundExceeded, match="10002200057"):
        square_class(Q, big)
    # a prime beyond the bound is classified: it is tested before the bound
    p = 10**10 + 19
    assert square_classes(Q, [p]) == ([p], (p,))


def test_square_classes_small_primes_first(Q):
    # the primes below 1,000 go before the bound: 2^40 and 2 * 10^9 split
    # into them, and the parts left (1, 5^9, then 1 and a prime) are done
    assert square_classes(Q, [2**40]) == ([1], ())
    assert square_classes(Q, [2 * 10**9]) == ([5], (5,))
    p = 10**9 + 7
    assert square_classes(Q, [p]) == ([p], (p,))
    classes = square_classes(Q, [-7 * p, Fraction(1, 2 * p)])
    assert classes == ([-7 * p, 2 * p], (2, 7, p))
    # a prime square left over is tested through its root; it joins no class
    q = 10**10 + 19
    assert square_classes(Q, [3 * q**2]) == ([3], (3,))
    assert square_classes(Q, [Fraction(q**2, 11 * p)]) == ([11 * p], (11, p))
    # a part is trusted as prime only where Miller-Rabin is proven
    mersenne = 2**89 - 1  # prime, beyond the proven range
    assert mersenne > MR_PROVEN_BOUND and is_prime(mersenne)
    with pytest.raises(FactorBoundExceeded):
        square_classes(Q, [mersenne])
    # a composite part within the bound is still trial-divided
    assert square_classes(Q, [1009 * 1013 * 7**2]) == ([1009 * 1013], (1009, 1013))


def _reference_squarefree_part(n: int) -> int:
    """The former fields._squarefree_part, kept verbatim."""
    if n > FACTOR_BOUND:
        raise FactorBoundExceeded(
            f"{n} exceeds the trial-division bound {FACTOR_BOUND}"
        )
    res = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                res *= d
        d += 1 if d == 2 else 2
    return res * n


def _reference_factor_squarefree(n: int) -> list[int]:
    """The former fields.factor_squarefree, kept verbatim."""
    n = abs(n)
    if n > FACTOR_BOUND:
        raise FactorBoundExceeded(
            f"{n} exceeds the trial-division bound {FACTOR_BOUND}"
        )
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _reference_odd_primes(n: int) -> list[int]:
    return _reference_factor_squarefree(_reference_squarefree_part(n))


def _odd_primes_unbounded(n: int) -> list[int]:
    """The primes of odd exponent in n, by trial division with no bound."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out.append(d)
        d += 1 if d == 2 else 2
    return out + [n] if n > 1 else out


def test_odd_primes_matches_reference(Q):
    # square_classes of one integer: its class and the primes dividing it
    rng = random.Random(9091)
    primes = [2, 3, 5, 7, 31, 101, 9973, 31607]
    cases = [0, 1, FACTOR_BOUND, FACTOR_BOUND - 1, FACTOR_BOUND + 1, 10**40]
    cases += [rng.randint(2, FACTOR_BOUND) for _ in range(40)]
    cases += [rng.randint(1, 31622) ** 2 for _ in range(20)]
    cases += [p**e for p in primes for e in range(1, 8) if p**e <= 2 * FACTOR_BOUND]
    cases += [rng.choice(primes) ** 2 * rng.randint(1, 10**4) for _ in range(20)]
    for n in cases:
        if n == 0:
            with pytest.raises(ZeroScalar):
                square_classes(Q, [n])
            continue
        try:
            expected = _reference_odd_primes(n)
            assert math.prod(expected) == _reference_squarefree_part(n)
        except FactorBoundExceeded:
            # beyond the former bound: each such case splits into primes
            # below 1,000 and at most one larger prime, so it is classified
            expected = _odd_primes_unbounded(n)
        assert square_classes(Q, [n]) == ([math.prod(expected)], tuple(expected))
    assert square_classes(Q, [1]) == ([1], ())
    assert square_classes(Q, [FACTOR_BOUND]) == ([10], (2, 5))
    # square_class through the old pair: the product over the gcd
    for _ in range(60):
        a = Fraction(rng.randint(-(10**6), 10**6) or 1, rng.randint(1, 10**6))
        sn = _reference_squarefree_part(abs(a.numerator))
        sd = _reference_squarefree_part(a.denominator)
        g = math.gcd(sn, sd)
        sign = -1 if a < 0 else 1
        assert square_class(Q, a) == Fraction(sign * (sn // g) * (sd // g))
    values = [
        Fraction(rng.randint(-(10**6), 10**6) or 1, rng.randint(1, 10**6))
        for _ in range(20)
    ]
    ref: set[int] = set()
    for x in values:
        for n in (abs(x.numerator), x.denominator):
            ref.update(_reference_odd_primes(n))
    classes, found = square_classes(Q, values)
    assert classes == [square_class(Q, x) for x in values]
    assert found == tuple(sorted(ref))


def test_square_classes_share_one_prime_set(Q, F7):
    p, q = 1009, 1000003
    assert p * q > FACTOR_BOUND
    # the smaller numbers are factored first; their primes divide the larger
    classes, primes = square_classes(Q, [7 * p * q, Fraction(q, p), -p])
    assert classes == [7 * p * q, p * q, -p]
    assert primes == (7, p, q)
    # a prime of even exponent divides no class but still joins the set
    assert square_classes(Q, [9, 3 * p * q, q]) == ([1, 3 * p * q, q], (3, p, q))
    # with no smaller number holding its primes, a part over the bound raises
    for values in ([p * q], [7, p * q], [7 * p * q, 7]):
        with pytest.raises(FactorBoundExceeded):
            square_classes(Q, values)
    assert square_classes(F7, [1, 2, 3, 6]) == ([1, 1, 3, 3], ())
    with pytest.raises(ZeroScalar):
        square_classes(Q, [1, 0])


def test_square_class_idempotent_and_multiplicative(Q, F7):
    rng = random.Random(7)
    for field in (Q, F7):
        for _ in range(100):
            if field.is_rationals:
                a = Fraction(rng.choice([k for k in range(-60, 61) if k]),
                             rng.randint(1, 40))
                b = Fraction(rng.choice([k for k in range(-60, 61) if k]),
                             rng.randint(1, 40))
            else:
                a = rng.randint(1, 6)
                b = rng.randint(1, 6)
            ca, cb = square_class(field, a), square_class(field, b)
            assert square_class(field, ca) == ca
            assert square_class(field, field.mul(a, b)) == square_class_mul(
                field, ca, cb
            )


def test_hilbert_legendre_brute_force_oracle():
    # (p, a)_p is the Legendre symbol (a|p) for a unit a mod p
    for p in (3, 5, 7, 11, 13):
        residues = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in residues else -1
            assert hilbert_symbol(p, a, p) == expected


def test_hilbert_examples():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(2, 5, 5) == -1
    for b in (3, -7, Fraction(11, 4)):
        for p in (3, 5, 2):
            assert hilbert_symbol(1, b, p) == 1
    with pytest.raises(ZeroScalar):
        hilbert_symbol(0, 3, 5)
    with pytest.raises(AlgebraError):
        hilbert_symbol(2, 3, 9)


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(99)
    places = ["inf", 2, 3, 5, 7, 11]
    for _ in range(200):
        a = Fraction(rng.choice([k for k in range(-40, 41) if k]),
                     rng.randint(1, 30))
        b = Fraction(rng.choice([k for k in range(-40, 41) if k]),
                     rng.randint(1, 30))
        c = Fraction(rng.choice([k for k in range(-40, 41) if k]),
                     rng.randint(1, 30))
        for v in places:
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a * c, b, v) == hilbert_symbol(
                a, b, v
            ) * hilbert_symbol(c, b, v)


def test_hilbert_product_formula(Q):
    rng = random.Random(2026)
    for _ in range(200):
        a = Fraction(rng.choice([k for k in range(-999, 1000) if k]),
                     rng.randint(1, 999))
        b = Fraction(rng.choice([k for k in range(-999, 1000) if k]),
                     rng.randint(1, 999))
        prod = 1
        for v in hasse_places(square_classes(Q, [a, b])[1]):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_least_nonresidue(F5, F7):
    assert F5.least_nonresidue() == 2
    assert F7.least_nonresidue() == 3


def test_parse_and_format_scalar(Q, F5):
    assert Q.parse_scalar("3/4") == Fraction(3, 4)
    assert Q.parse_scalar("-2") == -2
    assert str(Q.parse_scalar("-3/2")) == "-3/2"
    assert F5.parse_scalar("7") == 2
    assert F5.parse_scalar("1/2") == 3  # 2 * 3 = 6 = 1 mod 5

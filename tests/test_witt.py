import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from wittdeg import fields, witt
from wittdeg.degree import degree_of
from wittdeg.errors import (
    AlgebraError,
    DegenerateForm,
    FactorBoundExceeded,
    NonCanonicalForm,
)
from wittdeg.fields import (
    FACTOR_BOUND,
    FieldSpec,
    _hilbert,
    hasse_places,
    is_prime,
    square_class,
    square_class_mul,
)
from wittdeg.witt import (
    DiagForm,
    GramForm,
    WittInvariants,
    _eliminate,
    _strip_obvious_pairs,
    diag_form,
    diagonalize,
    invariants,
    is_witt_zero,
    negate,
    orthogonal_sum,
    parse_diag,
    tensor,
    witt_class_display,
    witt_equal,
)

from conftest import canonical_gram, dense, equivalent, exact, hilbert, make_endo


def _pivots(g):
    """The pivots of witt._eliminate(g), each reduced (num, den) pair read
    as the exact value it stands for."""
    return [exact(g.field, num, den) for num, den in _eliminate(g)]


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def test_diagonalize_hyperbolic_plane(Q):
    g = canonical_gram(Q, [[0, 1], [1, 0]])
    assert diagonalize(g).entries == (Fraction(2), Fraction(-2))


def test_diagonalize_counterexample_gram(Q):
    g = canonical_gram(
        Q, [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]
    )
    d = diagonalize(g)
    assert d.entries == (Fraction(1), Fraction(1), Fraction(2), Fraction(-2))


def test_diagonalize_identity(Q):
    g = canonical_gram(Q, [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    assert diagonalize(g).entries == (Fraction(1),) * 3


def _reference_elimination(field, rows):
    """Full-matrix symmetric elimination, every basis change applied to the
    whole matrix and to the transform P: (pivots, repairs, P) with
    P^T G P == diag(pivots), or DegenerateForm.  ``repairs`` names the
    fix-up each zero pivot needed ("swap" or "add")."""
    n = len(rows)
    m = [list(r) for r in rows]
    p = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    repairs = []

    def add(dst, src, c):
        # e_dst += c * e_src: column and row operation on m, column on P
        for r in range(n):
            m[r][dst] = field.add(m[r][dst], field.canon(c * m[r][src]))
            p[r][dst] = field.add(p[r][dst], field.canon(c * p[r][src]))
        for r in range(n):
            m[dst][r] = field.add(m[dst][r], field.canon(c * m[src][r]))

    for k in range(n):
        if not m[k][k]:
            t = next((t for t in range(k + 1, n) if m[t][t]), None)
            if t is not None:
                repairs.append("swap")
                for r in range(n):
                    m[r][k], m[r][t] = m[r][t], m[r][k]
                    p[r][k], p[r][t] = p[r][t], p[r][k]
                m[k], m[t] = m[t], m[k]
            else:
                t = next((t for t in range(k + 1, n) if m[k][t]), None)
                if t is None:
                    raise DegenerateForm("degenerate")
                repairs.append("add")
                add(k, t, field.one)
        for r in range(k + 1, n):
            if m[r][k]:
                add(r, k, field.neg(field.canon(Fraction(m[r][k]) / m[k][k])))
    return [m[i][i] for i in range(n)], repairs, p


def _random_sparse_symmetric(rng, field, n):
    m = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                m[i][j] = m[j][i] = field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return m


def test_diagonalize_transform_audit(Q, F7):
    """The reference transform P satisfies P^T G P == diag(reference
    pivots), and the production pivots equal the reference pivots exactly,
    on sparse forms that need both pivot repairs or are degenerate."""
    rng = random.Random(11)
    for field in (Q, F7):
        _audit_transform(rng, field)


def _audit_transform(rng, field):
    seen = {"swap": 0, "add": 0, "degenerate": 0}
    for _ in range(150):
        n = rng.randint(1, 9)
        m = _random_sparse_symmetric(rng, field, n)
        g = canonical_gram(field, m)
        try:
            ref, repairs, p = _reference_elimination(field, dense(g))
        except DegenerateForm:
            seen["degenerate"] += 1
            with pytest.raises(DegenerateForm):
                _eliminate(g)
            with pytest.raises(DegenerateForm):
                diagonalize(g)
            continue
        for kind in repairs:
            seen[kind] += 1
        ptgp = _mat_mul(_transpose(p), _mat_mul(dense(g), p))
        if not field.is_rationals:
            ptgp = [[x % field.modulus for x in row] for row in ptgp]
        assert all(
            ptgp[i][j] == (ref[i] if i == j else 0)
            for i in range(n)
            for j in range(n)
        )
        assert _pivots(g) == ref
        assert diagonalize(g) == diag_form(field, ref)
    assert all(seen.values()), seen


def _dense_eliminate(g):
    """The former dense elimination, kept verbatim as the reference for the
    sparse kernel; only its input is the dense view of g."""
    field = g.field
    q = field.modulus
    matrix = dense(g)
    n = len(matrix)
    m = [list(row) for row in matrix]
    pivots = []
    for k in range(n):
        if not m[k][k]:
            t = next((t for t in range(k + 1, n) if m[t][t]), None)
            if t is not None:
                # swap e_k and e_t
                m[k], m[t] = m[t], m[k]
                for row in m:
                    row[k], row[t] = row[t], row[k]
            else:
                t = next((t for t in range(k + 1, n) if m[k][t]), None)
                if t is None:
                    raise DegenerateForm(
                        "form is degenerate (zero block of positive size)"
                    )
                # e_k += e_t; m[k][k] and m[t][t] are zero, so the new
                # pivot is 2 m[k][t].  Only row k is rewritten: column k
                # below the diagonal is never read again.
                row_k, row_t = m[k], m[t]
                pivot = field.canon(2 * row_k[t])
                for s in range(k + 1, n):
                    row_k[s] = field.add(row_k[s], row_t[s])
                row_k[k] = pivot
        row_k = m[k]
        pivot = row_k[k]
        pivots.append(pivot)
        support = [s for s in range(k + 1, n) if row_k[s]]
        if not support:
            continue
        inv = field.canon(1 / Fraction(pivot))
        for i, r in enumerate(support):
            c = field.canon(row_k[r] * inv)
            row_r = m[r]
            if q is None:
                for s in support[i:]:
                    row_r[s] = m[s][r] = row_r[s] - c * row_k[s]
            else:
                for s in support[i:]:
                    row_r[s] = m[s][r] = (row_r[s] - c * row_k[s]) % q
    return pivots


def _nonzero(rng, field):
    return field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))


def _involution_form(rng, field, d, entry=_nonzero):
    """Staircase-like: basis vector i pairs with sigma(i) for a random
    involution sigma with few fixed points, plus a sprinkling of extra
    symmetric entries, so most diagonals are zero.  Each shape draws its
    nonzero entries with entry(rng, field)."""
    m = [[field.zero] * d for _ in range(d)]
    free = list(range(d))
    rng.shuffle(free)
    while free:
        i = free.pop()
        j = free.pop() if free and rng.random() < 0.9 else i
        m[i][j] = m[j][i] = entry(rng, field)
    for _ in range(rng.randint(0, d // 4)):
        i, j = rng.randrange(d), rng.randrange(d)
        m[i][j] = m[j][i] = entry(rng, field)
    return m


def _antidiagonal_form(rng, field, d, entry=_nonzero):
    """The antidiagonal, with a few entries on the next antidiagonal."""
    m = [[field.zero] * d for _ in range(d)]
    for i in range(d):
        m[i][d - 1 - i] = m[d - 1 - i][i] = entry(rng, field)
    for i in range(d - 1):
        if rng.random() < 0.1:
            m[i][d - 2 - i] = m[d - 2 - i][i] = entry(rng, field)
    return m


def _zero_diagonal_blocks(rng, field, d, entry=_nonzero):
    """An all-zero diagonal: blocks [[0, a], [a, 0]] and 3 x 3 blocks with
    every off-diagonal entry nonzero (determinant -a^2 or 2abc, never zero
    in odd characteristic), plus a few entries coupling the blocks.  With
    no diagonal entry to swap in, pivot 0 needs an add repair."""
    m = [[field.zero] * d for _ in range(d)]
    start = 0
    while start < d:
        rest = d - start
        size = 3 if rest == 3 or (rest > 4 and rng.random() < 0.5) else 2
        for i in range(start, start + size):
            for j in range(i + 1, start + size):
                m[i][j] = m[j][i] = entry(rng, field)
        start += size
    for _ in range(rng.randint(0, d // 10)):
        i, j = rng.sample(range(d), 2)
        m[i][j] = m[j][i] = entry(rng, field)
    return m


def _degenerate_tail(rng, field, d, entry=_nonzero):
    """A staircase-like form followed by a zero row or a copy of an earlier
    basis vector: singular by construction."""
    m = _involution_form(rng, field, d - 1, entry)
    for row in m:
        row.append(field.zero)
    m.append([field.zero] * d)
    if rng.random() < 0.5:
        src = rng.randrange(d - 1)
        for i in range(d - 1):
            m[i][d - 1] = m[d - 1][i] = m[i][src]
        m[d - 1][d - 1] = m[src][src]
    return m


def test_sparse_eliminate_matches_dense_reference_at_scale(Q, F7, monkeypatch):
    """witt._eliminate returns exactly the pivots of the dense reference, or
    raises DegenerateForm alike, on d = 30-200 forms with mostly zero
    diagonals: staircase-like and antidiagonal shapes, zero-diagonal blocks
    that force add repairs, and degenerate tails.  The audit sees swaps,
    regular forms and degenerate ones."""
    swaps = []
    real_swap = witt._swap
    monkeypatch.setattr(
        witt, "_swap", lambda rows, k, t: swaps.append(k) or real_swap(rows, k, t)
    )
    rng = random.Random(909)
    shapes = (
        _involution_form,
        _antidiagonal_form,
        _zero_diagonal_blocks,
        _degenerate_tail,
    )
    for field in (Q, F7):
        regular = dict.fromkeys(shapes, 0)
        for shape in shapes:
            for _ in range(6):
                g = canonical_gram(field, shape(rng, field, rng.randint(30, 200)))
                if shape is _zero_diagonal_blocks:
                    # no nonzero diagonal to swap in: pivot 0 is an add repair
                    assert not any(k in row for k, row in enumerate(g.rows))
                try:
                    ref = _dense_eliminate(g)
                except DegenerateForm:
                    with pytest.raises(DegenerateForm):
                        _eliminate(g)
                    continue
                assert _pivots(g) == ref
                regular[shape] += 1
        assert regular.pop(_degenerate_tail) == 0
        assert all(regular.values()), regular
    assert swaps


_DENOMINATORS = (1, 2, 3, 5, 7, 12, 35)


def _fraction(rng, field):
    """A nonzero n/m, m drawn from _DENOMINATORS: integral or not."""
    num = rng.choice([k for k in range(-9, 10) if k])
    return field.canon(Fraction(num, rng.choice(_DENOMINATORS)))


def _random_fraction_form(rng, field, d):
    """Random symmetric entries n/m, about three per row, and a diagonal
    that is mostly zero, so that swaps and add repairs occur."""
    m = [[field.zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if rng.random() < min(0.4, 3 / d) * (0.3 if i == j else 1):
                m[i][j] = m[j][i] = _fraction(rng, field)
    return m


def test_eliminate_on_non_integral_forms(Q, monkeypatch):
    """Over Q with entries n/m (m from 1 to 35) and d = 1-40, _eliminate
    returns the dense reference's pivots as reduced int pairs (num, den),
    den > 0, or both raise DegenerateForm; one call constructs no Fraction.
    The forms need swaps and add repairs, and some are singular."""
    swaps = []
    real_swap = witt._swap
    monkeypatch.setattr(
        witt, "_swap", lambda rows, k, t: swaps.append(k) or real_swap(rows, k, t)
    )
    made = []
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(cls)
        return real_new(cls, *args, **kwargs)

    rng = random.Random(2137)
    shapes = (
        _random_fraction_form,
        _involution_form,
        _antidiagonal_form,
        _zero_diagonal_blocks,
        _degenerate_tail,
    )
    seen = {"regular": 0, "degenerate": 0, "add": 0, "fraction": 0}
    for _ in range(40):
        for shape in shapes:
            low = 2 if shape in (_zero_diagonal_blocks, _degenerate_tail) else 1
            d = rng.randint(low, 40)
            if shape is _random_fraction_form:
                m = shape(rng, Q, d)
            else:
                m = shape(rng, Q, d, entry=_fraction)
            g = canonical_gram(Q, m)
            if shape is _zero_diagonal_blocks:
                # no nonzero diagonal to swap in: pivot 0 is an add repair
                assert not any(k in row for k, row in enumerate(g.rows))
            try:
                ref = _dense_eliminate(g)
            except DegenerateForm:
                with pytest.raises(DegenerateForm):
                    _eliminate(g)
                seen["degenerate"] += 1
                continue
            before = len(made)
            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", counted_new)
                got = _eliminate(g)
            # each pivot is a pair of ints in lowest terms, den > 0
            assert all(
                type(a) is int and type(b) is int and b > 0 and math.gcd(a, b) == 1
                for a, b in got
            )
            assert [Fraction(a, b) for a, b in got] == ref
            assert len(made) == before
            seen["regular"] += 1
            seen["add"] += shape is _zero_diagonal_blocks
            seen["fraction"] += any(b > 1 for _, b in got)
    assert swaps
    assert all(seen.values()), seen


def test_staircase3_repairs(Q):
    """The d = 15 staircase of docs/jobs/staircase3.job has 20 nonzeros
    and needs 7 swaps and 6 add repairs; all three eliminations agree."""
    texts = ("x*y", "y*z + x^3", "x*z + y^3 + z^3")
    g = degree_of(make_endo(Q, ("x", "y", "z"), texts)).gram
    assert (len(g.rows), sum(map(len, g.rows))) == (15, 20)
    ref, repairs, _ = _reference_elimination(Q, dense(g))
    assert (repairs.count("swap"), repairs.count("add")) == (7, 6)
    assert _pivots(g) == _dense_eliminate(g) == ref


def test_degenerate_form_rejected(Q):
    with pytest.raises(DegenerateForm):
        diagonalize(canonical_gram(Q, [[1, 1], [1, 1]]))
    with pytest.raises(DegenerateForm):
        diagonalize(canonical_gram(Q, [[0, 0], [0, 0]]))


def test_invariants_examples(Q):
    one_one = invariants(diag_form(Q, [1, 1]))
    assert one_one.rank == 2
    assert one_one.signature == 2
    assert one_one.signed_discriminant == -1
    assert all(v == 1 for v in one_one.hasse.values())

    hyp = invariants(diag_form(Q, [1, -1]))
    assert (hyp.rank, hyp.signature) == (2, 0)
    assert hyp.signed_discriminant == 1
    assert all(v == 1 for v in hyp.hasse.values())

    scaled = invariants(diag_form(Q, [2, -2]))
    assert equivalent(scaled, hyp)


def test_invariants_prime_field(F5):
    inv = invariants(diag_form(F5, [1, 2]))
    assert inv.rank == 2
    assert inv.signature is None
    assert inv.hasse == {}
    # signed disc = -(1*2) = -2 = 3 mod 5, a non-residue
    assert inv.signed_discriminant == 2


def _pairwise_hasse(d, primes):
    """Hasse symbols by definition: prod over all pairs i < j, at "inf", 2
    and the given odd primes."""
    hasse = {}
    for v in hasse_places(sorted(primes)):
        s = 1
        for a, b in itertools.combinations(d.entries, 2):
            s *= hilbert(a, b, v)
        hasse[str(v)] = s
    return hasse


def test_invariants_match_pairwise_hasse_definition(Q, F7):
    rng = random.Random(2024)
    # 1000003 * 1009 exceeds the trial-division bound
    primes = [2, 3, 5, 7, 11, 13, 1009, 1000003]
    raised = 0
    for _ in range(300):
        entries = []
        built = []  # the primes each entry was built from
        for _ in range(rng.randint(0, 9)):
            x = rng.choice([-1, 1])
            qs = rng.sample(primes, rng.randint(0, 3))
            for q in qs:
                x *= q
            entries.append(Fraction(x))
            built.append(qs)
        # the entries are factored in ascending size, each after dividing
        # out the primes of the smaller ones: what is left must be in bound
        known: set[int] = set()
        over = False
        for x, qs in sorted(zip(entries, built), key=lambda t: abs(t[0])):
            over |= math.prod(q for q in qs if q not in known) > FACTOR_BOUND
            known.update(qs)
        if over:
            raised += 1
            with pytest.raises(FactorBoundExceeded):
                diag_form(Q, entries)
            continue
        d = diag_form(Q, entries)
        assert invariants(d).hasse == _pairwise_hasse(d, known)
    assert 0 < raised < 300
    # up to 40 entries drawn from at most 5 values that share odd primes:
    # values repeat an odd and an even number of times, and k copies of a
    # value pair off k(k-1)/2 times, each pair contributing (a, a)_v
    values = [-1, 2, -3, 5, 6, -7, 10, -15, 21, -35, 1009, -2018, 3027]
    groups = {"odd": 0, "even": 0, "twisted": 0}
    for _ in range(120):
        pool = rng.sample(values, rng.randint(1, 5))
        entries = [rng.choice(pool) for _ in range(rng.randint(0, 40))]
        d = diag_form(Q, entries)
        inv = invariants(d)
        r = len(entries)
        prod = (-1) ** (r * (r - 1) // 2) * math.prod(entries)
        disc = math.prod(p for p in d.primes if fields._valuation(prod, p)[0] % 2)
        assert inv.rank == r
        assert inv.signature == sum(1 if a > 0 else -1 for a in entries)
        assert inv.signed_discriminant == (disc if prod > 0 else -disc)
        assert inv.hasse == _pairwise_hasse(d, d.primes)
        assert list(inv.hasse) == [str(v) for v in hasse_places(d.primes)]
        for k in collections.Counter(entries).values():
            groups["odd" if k % 2 else "even"] += 1
            groups["twisted"] += k * (k - 1) // 2 % 2
    assert min(groups.values()) >= 50, groups
    # over F_p the signed discriminant is the class of (-1)^(r(r-1)/2) prod a_i
    for _ in range(200):
        entries = [rng.randint(1, 6) for _ in range(rng.randint(0, 40))]
        inv = invariants(diag_form(F7, entries))
        r = len(entries)
        prod = (-1) ** (r * (r - 1) // 2) * math.prod(entries)
        assert inv.signed_discriminant == square_class(F7, prod)
        assert (inv.rank, inv.signature, inv.hasse) == (r, None, {})


def _reference_strip(d):
    """The entries of d left once the first pair (i, j) with a_i a_j ~ -1 is
    deleted, and the rest rescanned, until none is left."""
    field = d.field
    minus_one = square_class(field, field.from_int(-1))
    entries = list(d.entries)
    changed = True
    while changed:
        changed = False
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if square_class_mul(field, entries[i], entries[j]) == minus_one:
                    del entries[j], entries[i]
                    changed = True
                    break
            if changed:
                break
    return tuple(entries)


@pytest.mark.parametrize(
    "field",
    [FieldSpec.rationals(), FieldSpec.prime_field(5), FieldSpec.prime_field(7)],
)
def test_strip_obvious_pairs_matches_rescanning_loop(field):
    rng = random.Random(99)
    for _ in range(300):
        r = rng.randint(0, 12)
        if field.is_rationals:
            entries = [rng.choice([-6, -3, -2, -1, 1, 2, 3, 6]) for _ in range(r)]
        else:
            entries = [rng.randint(1, field.modulus - 1) for _ in range(r)]
        d = diag_form(field, entries)
        expected = _reference_strip(d)
        assert _strip_obvious_pairs(d) == expected
        shown = DiagForm(field, expected, d.primes)
        assert witt_class_display(d) == (str(shown) if expected else "0")


def test_is_witt_zero_examples(Q, F5, F7):
    assert is_witt_zero(diag_form(Q, [1, -1]))
    assert not is_witt_zero(diag_form(Q, [1, 1]))
    assert is_witt_zero(diag_form(F5, [1, 1]))
    assert not is_witt_zero(diag_form(F7, [1, 1]))
    # eight times <1>: trivial signed discriminant and Hasse symbols equal to
    # the hyperbolic reference, so only the signature rejects it
    assert not is_witt_zero(diag_form(Q, [1] * 8))


def test_is_witt_zero_needs_full_classification(Q):
    # signature 0 and trivial signed discriminant, but Hasse symbol -1 at 3
    # (the rank-4 hyperbolic reference is +1 there): only the Hasse check
    # can reject this one
    d = diag_form(Q, [1, 1, -3, -3])
    inv = invariants(d)
    assert inv.signature == 0
    assert inv.signed_discriminant == 1
    assert inv.hasse["3"] == -1
    assert not is_witt_zero(d)


def _reference_is_witt_zero(d):
    """The former decision: strip obvious pairs, then classify the rest."""
    field = d.field
    d = DiagForm(field, _strip_obvious_pairs(d), d.primes)
    if d.rank % 2:
        return False
    inv = invariants(d)
    if inv.signed_discriminant != field.one:
        return False
    if not field.is_rationals:
        return True
    if inv.signature != 0:
        return False
    m = d.rank // 2
    for v_str, s in inv.hasse.items():
        v = "inf" if v_str == "inf" else int(v_str)
        reference = 1 if (m * (m - 1) // 2) % 2 == 0 else _hilbert(-1, -1, v)
        if s != reference:
            return False
    return True


@pytest.mark.parametrize(
    "field",
    [FieldSpec.rationals(), FieldSpec.prime_field(5), FieldSpec.prime_field(7)],
)
def test_is_witt_zero_matches_strip_then_classify(field):
    rng = random.Random(4242)
    units = [-30, -15, -7, -6, -3, -2, -1, 1, 2, 3, 5, 6, 10, 21, 33]
    positive = [u for u in units if u > 0]
    zeros = 0
    for _ in range(400):
        if field.is_rationals and rng.random() < 0.5:
            # <a, b, -c, -abc>: signature 0 and trivial signed discriminant,
            # so only the Hasse symbols decide
            a, b, c = (rng.choice(positive) for _ in range(3))
            entries = [a, b, -c, -square_class(field, a * b * c)]
        elif field.is_rationals:
            entries = [rng.choice(units) for _ in range(rng.randint(0, 6))]
        else:
            entries = [rng.randint(1, field.modulus - 1) for _ in range(rng.randint(0, 6))]
        # hyperbolic pairs <a, -a> at random positions
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(entries + [1, 2, 3])
            for e in (a, -a):
                entries.insert(rng.randint(0, len(entries)), e)
        d = diag_form(field, entries)
        expected = _reference_is_witt_zero(d)
        assert is_witt_zero(d) == expected
        assert invariants(d).is_zero == expected
        zeros += expected
    assert 40 < zeros < 360


def test_gram_form_rejects_non_symmetric_and_non_square(Q, F7):
    for field in (Q, F7):
        with pytest.raises(DegenerateForm):
            canonical_gram(field, [[1, 2], [3, 1]])
        with pytest.raises(DegenerateForm):
            canonical_gram(field, [[1, 2]])
        with pytest.raises(DegenerateForm):
            canonical_gram(field, [[1, 2], [2]])


def test_gram_form_rejects_bad_sparse_rows(Q, F7):
    for field in (Q, F7):
        one, two, three = (field.from_int(c) for c in (1, 2, 3))
        bad = {
            "not symmetric": ({0: one, 1: two}, {0: three, 1: one}),
            "missing mirror": ({0: one, 1: two}, {1: one}),
            "out of range": ({0: one, 2: two}, {1: one}),
            "negative column": ({-1: one}, {1: one}),
            "explicit zero": ({0: one, 1: field.zero}, {0: field.zero, 1: one}),
            "zero diagonal": ({0: field.zero},),
        }
        for rows in bad.values():
            with pytest.raises(DegenerateForm):
                GramForm(field=field, rows=rows, den=1)
        GramForm(field=field, rows=({1: two}, {0: two}), den=1)


def test_gram_form_is_int_rows_over_one_reduced_den(Q, F7):
    """A GramForm holds int entries over one den > 0 (1 over F_p) that
    shares no factor with all of them: a float, a Fraction, a zero, an
    asymmetric form, den <= 0, den > 1 over F_p, and a den that shares a
    factor with every entry each raise DegenerateForm."""
    bad = [
        (Q, ({0: 0.5},), 1, "0.5 is not an int"),
        (F7, ({0: 2.0},), 1, "2.0 is not an int"),
        (Q, ({0: Fraction(1, 2)},), 1, "is not an int"),
        (Q, ({0: Fraction(3)},), 1, "is not an int"),
        (Q, ({0: True},), 1, "True is not an int"),
        (Q, ({0: 1, 1: 0}, {0: 0}), 1, "explicit zero"),
        (F7, ({1: 2}, {0: 3}), 1, "not symmetric"),
        (Q, ({1: 2}, {0: 3}), 5, "not symmetric"),
        (Q, ({0: 1},), 0, "not a positive int"),
        (Q, ({0: 1},), -3, "not a positive int"),
        (Q, ({0: 1},), 2.0, "not a positive int"),
        (Q, ({0: 1},), Fraction(2), "not a positive int"),
        (F7, ({0: 1},), 2, "denominator 2 over F7"),
        (Q, ({0: 2, 1: 4}, {0: 4}), 6, "shares 2 with every entry"),
        (Q, ({0: 9, 1: -15}, {0: -15, 1: 30}), 12, "shares 3 with every entry"),
        (Q, (), 4, "shares 4 with every entry"),
    ]
    for field, rows, den, message in bad:
        with pytest.raises(DegenerateForm, match=message):
            GramForm(field=field, rows=rows, den=den)
    # a den coprime to the entries taken together, though not to each
    g = GramForm(field=Q, rows=({0: 2, 1: 3}, {0: 3}), den=6)
    assert dense(g) == [[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), 0]]
    assert GramForm(field=Q, rows=(), den=1).rows == ()


def test_gram_form_dense_view_round_trips(Q, F7):
    rng = random.Random(77)
    for field in (Q, F7):
        for n in (0, 1, 2, 5, 12):
            m = _random_sparse_symmetric(rng, field, n)
            g = canonical_gram(field, m)
            assert dense(g) == m
            assert all(all(row.values()) for row in g.rows)
            assert sum(map(len, g.rows)) == sum(1 for row in m for x in row if x)
            assert dense(g, str) == [[str(x) for x in row] for row in m]


def test_forms_and_invariants_compare_field_wise(Q, F7):
    assert GramForm(Q, ({0: 1},), 2) == GramForm(Q, ({0: 1},), 2)
    assert GramForm(Q, ({0: 1},), 2) != GramForm(Q, ({0: 1},), 3)
    # the primes a form keeps are those of its entries, sorted
    d = DiagForm(Q, (2, 3, 6), (3, 2, 5))
    assert d == DiagForm(Q, (2, 3, 6), (2, 3)) and d.primes == (2, 3)
    assert d != DiagForm(Q, (6, 3, 2), (2, 3))
    assert d != (Q, (2, 3, 6), (2, 3))
    assert DiagForm(F7, (1, 3), ()) != DiagForm(Q, (1, 3), (3,))
    inv = invariants(d)
    assert inv == invariants(DiagForm(Q, (2, 3, 6), (2, 3)))
    fields = [inv.field, inv.rank, inv.signature, inv.signed_discriminant]
    assert WittInvariants(*fields, dict(inv.hasse)) == inv
    assert WittInvariants(F7, *fields[1:], inv.hasse) != inv
    for i in (1, 2, 3):
        changed = fields.copy()
        changed[i] += 1
        assert WittInvariants(*changed, inv.hasse) != inv
    flipped = {**inv.hasse, "2": -inv.hasse["2"]}
    assert WittInvariants(*fields, flipped) != inv
    assert invariants(DiagForm(F7, (1, 3), ())) != invariants(
        DiagForm(F7, (1, 1), ())
    )


def test_diag_form_rejects_non_canonical_entries(Q, F7):
    # invariants read square classes off canonical entries only: <1/2> once
    # reported discriminant 1, although diag_form gives <2>
    assert issubclass(NonCanonicalForm, AlgebraError)
    assert invariants(diag_form(Q, [Fraction(1, 2)])).signed_discriminant == 2
    # an entry is a nonzero int: a Fraction, integral or not, is rejected,
    # and so is a zero
    for entries in (
        (Fraction(1, 2),),
        (3, 0),
        (Fraction(-2, 9),),
        (Fraction(15),),
        (Fraction(-1),),
    ):
        with pytest.raises(NonCanonicalForm, match="not a canonical"):
            DiagForm(field=Q, entries=entries, primes=(2, 3, 5))
    # squarefreeness is checked too: <4> once reported discriminant 4
    for entries in ((4,), (12,), (5, -18)):
        with pytest.raises(NonCanonicalForm, match="not a canonical"):
            DiagForm(field=Q, entries=entries, primes=(2, 3, 5))
    # the primes: the message names the cause, checked by division only
    assert DiagForm(field=Q, entries=(15,), primes=(3, 5, 7)).primes == (3, 5)
    for primes in ((3,), (15,), ()):  # a non-prime is dropped
        with pytest.raises(NonCanonicalForm, match=r"primes .* do not cover 15"):
            DiagForm(field=Q, entries=(15,), primes=primes)
    for entries, primes in (((12,), (2, 3)), ((-18,), (2, 3))):
        with pytest.raises(NonCanonicalForm, match="not a canonical"):
            DiagForm(field=Q, entries=entries, primes=primes)
    # over F_7 the canonical classes are 1 and the least non-residue 3
    assert DiagForm(field=F7, entries=(1, 3, 3), primes=()).rank == 3
    for entries in ((2,), (1, 0), (6,)):
        with pytest.raises(NonCanonicalForm):
            DiagForm(field=F7, entries=entries, primes=())


def test_witt_equal_examples(Q):
    assert witt_equal(diag_form(Q, [1, 1, 2, -2]), diag_form(Q, [1, 1]))
    assert not witt_equal(diag_form(Q, [1]), diag_form(Q, [1, 1]))
    d = diag_form(Q, [3, -5, 7])
    assert witt_equal(d, d)


def test_orthogonal_sum_and_tensor(Q):
    a = diag_form(Q, [1])
    b = diag_form(Q, [-1])
    assert orthogonal_sum(a, b).entries == (Fraction(1), Fraction(-1))
    for alpha in (2, -3, 5):
        h = tensor(diag_form(Q, [1, -1]), diag_form(Q, [alpha]))
        assert is_witt_zero(h)
    four = tensor(diag_form(Q, [1, 1]), diag_form(Q, [1, 1]))
    assert four.entries == (Fraction(1),) * 4
    assert invariants(four).signature == 4


def test_congruence_invariance(Q):
    rng = random.Random(747)
    for _ in range(100):
        n = rng.randint(1, 4)
        # G = P0^T D P0 for random unit-triangular factors: nondegenerate
        d_entries = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(n)]
        lower = [
            [
                Fraction(1)
                if i == j
                else (Fraction(rng.randint(-2, 2)) if i > j else Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        g = _mat_mul(
            _transpose(lower),
            _mat_mul([[d_entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)], lower),
        )
        upper = [
            [
                Fraction(1)
                if i == j
                else (Fraction(rng.randint(-2, 2)) if i < j else Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        conjugated = _mat_mul(_transpose(upper), _mat_mul(g, upper))
        inv1 = invariants(diagonalize(canonical_gram(Q, g)))
        inv2 = invariants(diagonalize(canonical_gram(Q, conjugated)))
        assert equivalent(inv1, inv2)


def test_sum_with_negation_is_witt_zero(Q, F7):
    rng = random.Random(321)
    for field in (Q, F7):
        for _ in range(30):
            r = rng.randint(1, 6)
            if field.is_rationals:
                entries = [rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]) for _ in range(r)]
            else:
                entries = [rng.randint(1, 6) for _ in range(r)]
            d = diag_form(field, entries)
            assert is_witt_zero(orthogonal_sum(d, negate(d)))


def test_witt_equal_is_equivalence_and_compatible(Q):
    rng = random.Random(888)
    hyper = diag_form(Q, [1, -1])
    for _ in range(20):
        r = rng.randint(1, 3)
        a = diag_form(Q, [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(r)])
        b = diag_form(Q, [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(r)])
        a2 = orthogonal_sum(a, hyper)
        a3 = orthogonal_sum(a2, hyper)
        assert witt_equal(a, a2) and witt_equal(a2, a3) and witt_equal(a, a3)
        assert witt_equal(a2, a)
        # compatibility with sum and product
        assert witt_equal(orthogonal_sum(a, b), orthogonal_sum(a2, b))
        assert witt_equal(tensor(a, b), tensor(a2, b))


def test_four_witt_classes_over_prime_fields(F5, F7):
    for field in (F5, F7):
        ns = field.nonresidue
        forms = []
        for r in range(1, 5):
            for entries in itertools.product((1, ns), repeat=r):
                forms.append(diag_form(field, entries))
        classes = []
        for f in forms:
            if not any(witt_equal(f, c) for c in classes):
                classes.append(f)
        # the zero class is reachable too (e.g. <1,-1>); count it if missing
        if not any(is_witt_zero(c) for c in classes):
            classes.append(diag_form(field, []))
        assert len(classes) == 4


def test_display_and_parse(Q):
    d = parse_diag(Q, "1,1,-2")
    assert d.entries == (Fraction(1), Fraction(1), Fraction(-2))
    assert witt_class_display(diag_form(Q, [1, 1, 2, -2])) == "<1,1>"
    assert witt_class_display(diag_form(Q, [2, -2])) == "0"
    assert str(diag_form(Q, [1, -1])) == "<1,-1>"


def test_invariants_take_their_places_from_the_shared_factorization(Q):
    p, q = 1009, 1000003
    # the class p*q exceeds the trial-division bound, its factors do not
    inv = invariants(diag_form(Q, [Fraction(q, p)]))
    assert list(inv.hasse) == ["inf", "2", str(p), str(q)]
    assert (inv.rank, inv.signature, inv.signed_discriminant) == (1, 1, p * q)
    d = diag_form(Q, [p, q, 7 * p * q])
    assert d.entries == (p, q, 7 * p * q) and d.primes == (7, p, q)
    hasse = invariants(d).hasse
    assert hasse == _pairwise_hasse(d, {7, p, q})
    assert list(hasse) == ["inf", "2", "7", str(p), str(q)]
    # the form operations pass the primes on, exact to their entries
    assert orthogonal_sum(d, diag_form(Q, [3])).primes == (3, 7, p, q)
    assert tensor(d, diag_form(Q, [p])).primes == (7, p, q)
    assert tensor(diag_form(Q, [p]), diag_form(Q, [p])).primes == ()
    negated = DiagForm(field=Q, entries=(-p, -q, -7 * p * q), primes=(7, p, q))
    assert negate(d) == negated
    assert _strip_obvious_pairs(orthogonal_sum(d, negate(d))) == ()


def test_invariants_trust_the_primes_of_the_form(Q, monkeypatch):
    # DiagForm checks its primes once; invariants must not test them again
    d = diag_form(Q, [3, -5, 7 * 11, -13, 3 * 5 * 7, 1009])
    expected = _pairwise_hasse(d, set(d.primes))
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(fields, "is_prime", counting)
    monkeypatch.setattr(witt, "is_prime", counting)
    assert invariants(d).hasse == expected
    assert calls == []

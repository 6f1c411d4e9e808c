import random

import pytest

from wittdeg.errors import RingMismatch
from wittdeg.koszul import (
    DualityData,
    _mat_mul,
    _mat_scale,
    _mat_transpose,
    build_koszul,
    dual_differential_sign,
    generic_duality,
    resolve_dual_signs,
    rho_sign_exponent,
    symmetry_sign,
    verify_chain_map,
    verify_symmetry,
    wedge_basis,
)
from wittdeg.poly import Ring

from conftest import random_poly


def negated_level(maps, i):
    """The family with level i negated."""
    out = list(maps)
    out[i] = _mat_scale(maps[i], -1)
    return tuple(out)


def _sign_of(exponent):
    return -1 if exponent % 2 else 1


def test_wedge_basis_sorted():
    assert wedge_basis(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert wedge_basis(3, 0) == ((),)


def test_build_koszul_small(Q):
    ring = Ring(("a", "b"), Q)
    a, b = ring.gens()
    kc = build_koszul([a, b])
    # d1 = row (a, b); d2 = column (-b, a)
    assert kc.d(1) == {((), (1,)): a, ((), (2,)): b}
    assert kc.d(2) == {((1,), (1, 2)): -b, ((2,), (1, 2)): a}


def test_build_koszul_single(Q):
    ring = Ring(("a",), Q)
    kc = build_koszul([ring.var(0)])
    assert kc.d(1) == {((), (1,)): ring.var(0)}


def test_koszul_ranks_and_dd_zero(Q):
    ring = Ring(("x1", "x2", "x3"), Q)
    kc = build_koszul(list(ring.gens()))
    shapes = [
        (len({r for r, _ in kc.d(i)}), len({c for _, c in kc.d(i)}))
        for i in (1, 2, 3)
    ]
    assert shapes == [(1, 3), (3, 3), (3, 1)]
    for i in (2, 3):
        assert _mat_mul(kc.d(i - 1), kc.d(i)) == {}


def test_dd_zero_random_sequences(Q):
    rng = random.Random(2718)
    for _ in range(10):
        n = rng.randint(2, 4)
        ring = Ring(tuple(f"t{i+1}" for i in range(n)), Q)
        seq = [random_poly(rng, ring, max_degree=2) for _ in range(n)]
        kc = build_koszul(seq)
        for i in range(2, n + 1):
            assert _mat_mul(kc.d(i - 1), kc.d(i)) == {}


def test_build_koszul_ring_mismatch(Q):
    r1 = Ring(("a",), Q)
    r2 = Ring(("b",), Q)
    with pytest.raises(RingMismatch):
        build_koszul([r1.var(0), r2.var(0)])


def test_sign_patterns(Q):
    # n=1: rho_0 = +phi_0, rho_1 = -phi_1
    assert [_sign_of(rho_sign_exponent(i, 1)) for i in (0, 1)] == [1, -1]
    # n=2: signs (-, -, +) from exponents 1, 3, 6
    assert [rho_sign_exponent(i, 2) for i in (0, 1, 2)] == [1, 3, 6]
    assert [_sign_of(rho_sign_exponent(i, 2)) for i in (0, 1, 2)] == [-1, -1, 1]
    # n=3: signs (-, +, +, -)
    assert [_sign_of(rho_sign_exponent(i, 3)) for i in range(4)] == [-1, 1, 1, -1]


def test_resolved_convention_is_frozen_family(Q):
    for n in range(1, 5):
        dd = generic_duality(Q, n)
        resolved = resolve_dual_signs(dd)
        assert resolved == [dual_differential_sign(n)] * n
        assert all(s == n % 2 for s in resolved)


def test_resolve_dual_signs_all_three_outcomes(Q):
    dd = generic_duality(Q, 2)
    # negating level 0 flips the sign of square 1 only
    assert resolve_dual_signs(dd, negated_level(dd.signed_maps, 0)) == [1, 0]
    # a doubled level 1 matches neither sign in either square it enters
    doubled = list(dd.signed_maps)
    doubled[1] = {key: x + x for key, x in doubled[1].items()}
    assert resolve_dual_signs(dd, tuple(doubled)) == [None, None]


def test_chain_map_signed_family(Q):
    for n in range(1, 5):
        dd = generic_duality(Q, n)
        assert verify_chain_map(dd, dd.signed_maps)


def test_chain_map_fails_for_unsigned_family(Q):
    failures = [
        n for n in range(1, 5)
        if not verify_chain_map(generic_duality(Q, n), generic_duality(Q, n).wedge_maps)
    ]
    assert failures  # the uncorrected maps are not a morphism of complexes
    assert 1 in failures  # already fails at n = 1


def test_equal_endpoint_signs_fail_for_n1(Q):
    dd = generic_duality(Q, 1)
    # force rho_0 == rho_1 (= phi): the two squares need opposite signs
    family = (dd.wedge_maps[0], dd.wedge_maps[1])
    assert not verify_chain_map(dd, family)


def test_symmetry_signed_family(Q):
    for n in range(1, 5):
        assert verify_symmetry(generic_duality(Q, n))


def test_symmetry_fails_with_one_level_negated(Q):
    dd3 = generic_duality(Q, 3)
    signed_maps = negated_level(dd3.signed_maps, 1)
    assert not verify_symmetry(DualityData(dd3.complex, dd3.wedge_maps, signed_maps))
    dd2 = generic_duality(Q, 2)
    signed_maps = negated_level(dd2.signed_maps, 0)
    assert not verify_symmetry(DualityData(dd2.complex, dd2.wedge_maps, signed_maps))


def test_negating_everything_stays_symmetric(Q):
    # -rho is still a symmetric morphism; only mixed negations break it
    dd = generic_duality(Q, 3)
    maps = dd.signed_maps
    for i in range(4):
        maps = negated_level(maps, i)
    assert verify_symmetry(DualityData(dd.complex, dd.wedge_maps, maps))


def test_wedge_antisymmetry(Q):
    for n in range(1, 5):
        dd = generic_duality(Q, n)
        for i in range(n + 1):
            lhs = dd.wedge_maps[n - i]
            rhs = _mat_transpose(dd.wedge_maps[i])
            sign = -1 if (i * (n - i)) % 2 else 1
            assert lhs == {key: x if sign == 1 else -x for key, x in rhs.items()}


def test_symmetry_sign_closed_form():
    assert [symmetry_sign(n) for n in (1, 2, 3, 4)] == [-1, -1, 1, 1]


def _assert_sparse(dd):
    """Every stored matrix and product holds nonzero entries only."""
    n, kc = dd.n, dd.complex
    matrices = (*kc.differentials, *dd.wedge_maps, *dd.signed_maps)
    # d_i has i nonzeros per column, each duality map one
    sizes = [len(m) for m in matrices]
    assert sizes[:n] == [i * len(wedge_basis(n, i)) for i in range(1, n + 1)]
    assert sizes[n:] == 2 * [len(wedge_basis(n, i)) for i in range(n + 1)]
    for m in matrices:
        assert all(not x.is_zero for x in m.values()), n
    # a product drops every entry that cancels: d o d is empty
    for i in range(1, n + 1):
        lhs = _mat_mul(dd.signed_maps[i - 1], kc.d(i))
        assert lhs and all(not x.is_zero for x in lhs.values())
    for i in range(2, n + 1):
        assert _mat_mul(kc.d(i - 1), kc.d(i)) == {}


def test_no_stored_matrix_holds_a_zero(Q):
    for n in range(1, 5):
        _assert_sparse(generic_duality(Q, n))


def test_conventions_hold_beyond_n4(Q):
    for n in range(5, 11):
        dd = generic_duality(Q, n)
        assert resolve_dual_signs(dd) == [dual_differential_sign(n)] * n, n
        assert verify_symmetry(dd), n
        assert not verify_chain_map(dd, dd.wedge_maps), n
        _assert_sparse(dd)


def test_zero_sequence_entry_stores_no_zero(Q):
    ring = Ring(("a", "b"), Q)
    a, _ = ring.gens()
    kc = build_koszul([a, ring.zero()])
    assert kc.d(1) == {((), (1,)): a}
    assert kc.d(2) == {((2,), (1, 2)): a}

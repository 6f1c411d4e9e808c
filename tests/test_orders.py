"""The packed monomial layout of `orders` against exponent-tuple arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from wittdeg import ExponentBoundExceeded
from wittdeg.orders import BOUND, GREVLEX, LEX

# exponents near 0, near the bound, and anywhere in between
_EXPONENT = st.one_of(
    st.integers(0, 3), st.integers(BOUND - 3, BOUND), st.integers(0, BOUND)
)


@st.composite
def _monomials(draw):
    """(order, a, b): two exponent tuples within the order's bound, in
    1 to 8 variables (under GREVLEX the total degree is bounded too)."""
    order = draw(st.sampled_from((GREVLEX, LEX)))
    n = draw(st.integers(1, 8))

    def monomial():
        exps = draw(st.lists(_EXPONENT, min_size=n, max_size=n))
        total = sum(exps)
        if order is GREVLEX and total > BOUND:
            exps = [e * BOUND // total for e in exps]
        return tuple(exps)

    return order, monomial(), monomial()


def _within(order, exps):
    bound = sum(exps) if order is GREVLEX else max(exps)
    return bound <= BOUND


@settings(max_examples=400, deadline=None)
@given(_monomials())
def test_layout_matches_tuple_arithmetic(case):
    order, a, b = case
    packing = order.packing(len(a))
    ka, kb = packing.pack(a), packing.pack(b)
    one, guard = packing.one, packing.guard
    assert packing.unpack(ka) == a and packing.unpack(kb) == b
    assert not ka & guard and not kb & guard
    # integer comparison is the order
    assert (ka < kb) == (order.key(a) < order.key(b))
    assert (ka == kb) == (a == b)
    # product: a + b - one, or a guard bit once a field passes the bound
    product = tuple(x + y for x, y in zip(a, b))
    if _within(order, product):
        assert ka + kb - one == packing.pack(product)
    else:
        assert (ka + kb - one) & guard
        with pytest.raises(ExponentBoundExceeded):
            packing.pack(product)
    # divisibility by one mask test, and the quotient's offset
    divides = all(x <= y for x, y in zip(a, b))
    s = kb + packing.pad - ka
    assert (s & guard == packing.target) == divides
    if divides:
        quotient = tuple(y - x for x, y in zip(a, b))
        assert s - packing.pad == packing.pack(quotient) - one
    # lcm, field by field; only a GREVLEX degree can pass the bound, and
    # the lcm's degree is read off its key either way
    lcm = tuple(map(max, a, b))
    if _within(order, lcm):
        assert packing.lcm(ka, kb) == packing.pack(lcm)
    else:
        assert order is GREVLEX and packing.lcm(ka, kb) & guard
    assert packing.degree(ka) == sum(a)
    assert packing.degree(packing.lcm(ka, kb)) == sum(lcm)
    # the key of x^a u^b in 2n variables splits into the fields of a and b,
    # which complete to their keys in n variables
    if _within(order, a + b):
        xshift, ushift, mask = order.packing(2 * len(a)).halves()
        kab = order.packing(2 * len(a)).pack(a + b)
        assert packing.complete(kab >> xshift & mask) == ka
        assert packing.complete(kab >> ushift & mask) == kb


def test_variable_offsets_and_one():
    for order in (GREVLEX, LEX):
        packing = order.packing(3)
        assert packing.one == packing.pack((0, 0, 0))
        for i, offset in enumerate(packing.var):
            exps = tuple(int(j == i) for j in range(3))
            assert packing.pack(exps) == packing.one + offset


def test_pack_rejects_exponents_past_the_bound():
    with pytest.raises(ExponentBoundExceeded):
        LEX.packing(2).pack((0, BOUND + 1))
    with pytest.raises(ExponentBoundExceeded):
        GREVLEX.packing(2).pack((BOUND, 1))  # the total degree is bounded too
    assert LEX.packing(2).unpack(LEX.packing(2).pack((BOUND, BOUND))) == (
        BOUND,
        BOUND,
    )

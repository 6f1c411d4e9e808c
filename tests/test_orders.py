"""The packed monomial layout of `orders` against exponent-tuple arithmetic."""

from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from wittdeg.errors import ExponentBoundExceeded
from wittdeg.orders import BITS, BOUND, GREVLEX, LEX, MonomialOrder

from conftest import order_key

# exponents near 0, near the bound, and anywhere in between
_EXPONENT = st.one_of(
    st.integers(0, 3), st.integers(BOUND - 3, BOUND), st.integers(0, BOUND)
)


def _monomial(draw, order, n):
    """An exponent tuple in n variables within the order's bound (under
    GREVLEX the total degree is bounded too)."""
    exps = draw(st.lists(_EXPONENT, min_size=n, max_size=n))
    total = sum(exps)
    if order is GREVLEX and total > BOUND:
        exps = [e * BOUND // total for e in exps]
    return tuple(exps)


@st.composite
def _monomials(draw):
    """(order, a, b): two exponent tuples within the order's bound, in
    1 to 8 variables."""
    order = draw(st.sampled_from((GREVLEX, LEX)))
    n = draw(st.integers(1, 8))
    return order, _monomial(draw, order, n), _monomial(draw, order, n)


@st.composite
def _lead_lists(draw):
    """(order, a, leads): an exponent tuple and a list of 0 to 12 more, in 1
    to 8 variables, each within the order's bound."""
    order = draw(st.sampled_from((GREVLEX, LEX)))
    n = draw(st.integers(1, 8))
    leads = [_monomial(draw, order, n) for _ in range(draw(st.integers(0, 12)))]
    return order, _monomial(draw, order, n), leads


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
    key = order_key(order)
    assert (ka < kb) == (key(a) < key(b))
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
    (key,) = packing.lcms([kb], ka)
    if _within(order, lcm):
        assert key == packing.pack(lcm)
    else:
        assert order is GREVLEX and key & guard
    assert packing.degree(ka) == sum(a)
    assert packing.degree(key) == sum(lcm)


@st.composite
def _pairs(draw):
    """(order, a, b, c, d): four exponent tuples within the order's bound,
    in 1 to 4 variables: the monomials x^a u^b and x^c u^d of a dual
    ring."""
    order = draw(st.sampled_from((GREVLEX, LEX)))
    n = draw(st.integers(1, 4))
    return (order, *(_monomial(draw, order, n) for _ in range(4)))


@settings(max_examples=300, deadline=None)
@given(_pairs())
@example((GREVLEX, (0, 0), (BOUND, 0), (0, 0), (1, 0)))  # a u-borrow
@example((GREVLEX, (1, 1), (0, 1), (BOUND - 1, 0), (0, 0)))  # an x-degree
@example((LEX, (0,), (BOUND,), (0,), (1,)))
def test_paired_layout_is_two_keys_of_the_ring(case):
    """The dual ring's key of x^a u^b is pack(a) << W | pack(b), in the
    ring's own packing of width W; unpack inverts it, a product adds keys,
    and each half keeps its own guard bits."""
    order, a, b, c, d = case
    n = len(a)
    base, pairs = order.packing(n), order.pairs.packing(2 * n)
    w = base.width
    mask = (1 << w) - 1
    assert base.width == BITS * (n + 1 if order is GREVLEX else n)
    assert pairs.n == 2 * n

    def pair(x, u):
        return base.pack(x) << w | base.pack(u)

    key, other = pair(a, b), pair(c, d)
    assert pairs.unpack(key) == a + b and pairs.unpack(other) == c + d
    assert pairs.one == base.one << w | base.one
    assert pairs.guard == base.guard << w | base.guard
    assert pairs.var == tuple(v << w for v in base.var) + base.var
    if order is LEX:  # bit for bit the LEX key in 2n variables
        assert key == pairs.pack(a + b) == LEX.packing(2 * n).pack(a + b)
    # a product adds keys; a half past the bound sets a guard bit of its
    # own and leaves the other half as it is
    product = key + other - pairs.one
    x, u = tuple(map(add, a, c)), tuple(map(add, b, d))
    x_ok, u_ok = _within(order, x), _within(order, u)
    if x_ok and u_ok:
        assert product == pair(x, u) and not product & pairs.guard
        pairs.check([product])
        return
    assert product & pairs.guard
    if x_ok:  # a borrow in the u-half stops at its degree field
        assert product >> w == base.pack(x)
        assert product & mask & base.guard
    if u_ok:
        assert product & mask == base.pack(u)
        assert not product & mask & base.guard
    with pytest.raises(ExponentBoundExceeded):
        pairs.check([product])
    with pytest.raises(ExponentBoundExceeded):
        pair(x, u)


@settings(max_examples=120, deadline=None)
@given(_lead_lists())
@example((GREVLEX, (BOUND, 0), [(0, BOUND), (BOUND, 0), (1, BOUND - 1)]))
@example((LEX, (BOUND, 0, 1), [(0, BOUND, 0), (BOUND, BOUND, BOUND), (0, 0, 0)]))
def test_lcms_is_the_exponentwise_max(case):
    """lcms gives, in list order, the key of the exponent-wise maximum of
    the lead with each key of the list.  A GREVLEX lcm past the degree
    bound sets the guard bit of its degree field and no other, and still
    holds its exponents, its degree and its place in the order."""
    order, a, leads = case
    packing = order.packing(len(a))
    keys = packing.lcms([packing.pack(b) for b in leads], packing.pack(a))
    lcms = [tuple(map(max, a, b)) for b in leads]
    assert len(keys) == len(lcms)
    for key, lcm in zip(keys, lcms):
        assert packing.unpack(key) == lcm
        assert packing.degree(key) == sum(lcm)
        if _within(order, lcm):
            assert key == packing.pack(lcm) and not key & packing.guard
        else:
            assert order is GREVLEX
            assert key & packing.guard == 1 << BITS * (len(a) + 1) - 1
    assert sorted(keys) == [
        k for _, k in sorted(zip(map(order_key(order), lcms), keys))
    ]

def test_variable_offsets_and_one():
    for order in (GREVLEX, LEX):
        packing = order.packing(3)
        assert packing.one == packing.pack((0, 0, 0))
        for i, offset in enumerate(packing.var):
            exps = tuple(int(j == i) for j in range(3))
            assert packing.pack(exps) == packing.one + offset


def test_orders_are_equal_only_when_their_layouts_are():
    # packing is cached on the order, so an order equal to GREVLEX would
    # get GREVLEX's layout: a LEX layout under the name "grevlex" is
    # another order, with a packing of its own
    GREVLEX.packing(3)
    lex_layout = MonomialOrder("grevlex", False)
    assert lex_layout != GREVLEX and hash(lex_layout) != hash(GREVLEX)
    packing = lex_layout.packing(3)
    assert packing.order is lex_layout and packing != GREVLEX.packing(3)
    assert (packing.one, packing.guard) == (LEX.packing(3).one, LEX.packing(3).guard)
    assert lex_layout.pairs is lex_layout
    # the same name and layout make an equal order, which pairs the same
    same = MonomialOrder("grevlex", True)
    assert same == GREVLEX and hash(same) == hash(GREVLEX)
    assert same.pairs == GREVLEX.pairs and same.pairs.pairs is None


def test_pack_rejects_exponents_past_the_bound():
    with pytest.raises(ExponentBoundExceeded):
        LEX.packing(2).pack((0, BOUND + 1))
    with pytest.raises(ExponentBoundExceeded):
        GREVLEX.packing(2).pack((BOUND, 1))  # the total degree is bounded too
    assert LEX.packing(2).unpack(LEX.packing(2).pack((BOUND, BOUND))) == (
        BOUND,
        BOUND,
    )

"""The Witt-group-valued degree of an origin-preserving endomorphism.

Pipeline: validate that the image ideal has a finite-length quotient
supported only at the origin; form the Bezoutian (the determinant of the
divided-difference matrix in primal and dual variables); reduce it modulo
the ideal in both variable blocks; read off the symmetric Gram form over
the standard-monomial basis, row by row and on its nonzeros only.  Its
Witt class is the degree, normalized so the identity endomorphism has
class <1>.

The reduction modulo I(x) + I(u) is never run in the doubled ring.  The
union of the two block bases is a Groebner basis whose leading monomials
are pure-x or pure-u, so x^m u^m' is standard exactly when x^m and u^m'
are, and NF(x^a u^b) = NF(x^a) NF(u^b).  By linearity the normal form of
Delta = sum c_ab x^a u^b is sum_a NF(x^a) (x) (sum_b c_ab NF(u^b)), and
both factors are read off the quotient that validate built: a
`QuotientAlgebra` is the memoized table of its monomials' normal forms,
each the coordinate vector of its normal form on the basis positions, so
the border entries the support test filled are reused and every sum is
already on the positions of the Gram form.  The table divides nothing:
each entry is a linear combination of entries for smaller monomials,
seeded by the reduced basis (see `groebner`).

The monomial order is the endomorphism's ring's: the quotient's basis is
reduced in it, and the doubled ring of the Bezoutian has the block order
of two copies of it (`orders`, as Singular's (dp(n), dp(n))), whose key
of x^a u^b is the pair key(x^a) << W | key(u^b) of two keys of the
quotient's packing.  So a shift and a mask split each Bezoutian key into
the quotient keys of its x- and u-half, and one pass over the Bezoutian
reads both halves straight off the table: every u-half's normal form is
its entry, and a standard x-half is its own normal form, so its terms go
straight into the Gram row at its position.  The terms of any other
x-half are gathered into one row and spread by its normal form once.

Over Q the table entries are ints over a positive denominator, and the
Gram build keeps that form: the Bezoutian is built from the images cleared
of denominators, the rows are summed as ints over one common denominator,
and the `GramForm` holds the sums as they are, over that denominator
reduced by one gcd.  No Gram entry becomes a `Fraction`: the elimination
reads the ints, and the CLI makes each entry text from its int and the
denominator.

A `DegreeReport` stores what the four stages computed: the quotient, the
Gram form, its diagonal form and the invariants, and reads the field, n,
the length and whether the class is zero off them.  It is a value only:
the CLI makes its text and its JSON document, the factorial-divisibility
verdicts of nori-check included.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import mul

from .errors import (
    ArityMismatch,
    Frozen,
    InternalError,
    NotOriginPreserving,
    SupportNotOrigin,
)
from .fields import FieldSpec
from .groebner import (
    QuotientAlgebra,
    buchberger,
    standard_monomials,
    supported_only_at_origin,
)
from .poly import (
    Poly,
    Ring,
    _add_shifted,
    _clear,
    _lowest_all,
    _to_lcm,
    det,
    in_ring,
)
from .witt import (
    DiagForm,
    GramForm,
    WittInvariants,
    diag_form,
    diagonalize,
    invariants,
    tensor,
)

class Endo(Frozen):
    """An endomorphism of the polynomial ring: variable i maps to images[i]."""

    __slots__ = ("ring", "images")
    ring: Ring
    images: tuple[Poly, ...]

    def __init__(self, ring, images):
        if len(images) != ring.nvars:
            raise ArityMismatch(f"{len(images)} images for {ring.nvars} variables")
        in_ring(images, ring)
        super().__init__(ring, images)

    @property
    def n(self) -> int:
        return self.ring.nvars

    @property
    def field(self) -> FieldSpec:
        return self.ring.field


def validate(endo: Endo) -> QuotientAlgebra:
    """Finite-length, origin-supported quotient by the image ideal, in the
    order of the endomorphism's ring.

    Raises NotOriginPreserving, NotFiniteLength or SupportNotOrigin.

    When every image is a nonzero form (the counterexample and every
    generic benchmark map are; buchberger reads their degrees once, as
    `GroebnerBasis.degrees`), the zero set V(f) over the algebraic
    closure is a cone: with a point p it holds t * p for every t.  A
    finite-length quotient has a finite zero set, so the cone is the
    origin, and the support test is skipped.  The n forms then are a
    regular sequence, and the length is the product of their degrees
    (Bezout); a quotient of another length raises InternalError, at the
    cost of one product.
    """
    for name, p in zip(endo.ring.variables, endo.images):
        if p.constant_term:
            raise NotOriginPreserving(
                f"image of {name} has nonzero constant term"
            )
    gb = buchberger(endo.images)
    qa = standard_monomials(gb)
    degrees = gb.degrees
    if degrees is None:
        if not supported_only_at_origin(qa):
            raise SupportNotOrigin("the zero set contains a point besides the origin")
    elif qa.dimension != math.prod(degrees):
        raise InternalError(
            f"length {qa.dimension} of the quotient by forms of degrees"
            f" {list(degrees)} is not their product"
        )
    return qa


def dual_ring(ring: Ring) -> Ring:
    """Ring with dual variables u1..un (renamed on a clash) appended, over
    the same field, in the block order of two copies of the ring's order
    (`MonomialOrder.pairs`): the key of x^a u^b is the pair of the keys of
    x^a and u^b in the ring's packing."""
    base = "u"
    while any(f"{base}{i + 1}" in ring.variables for i in range(ring.nvars)):
        base += "_"
    names = ring.variables + tuple(f"{base}{i + 1}" for i in range(ring.nvars))
    return Ring(names, ring.field, ring.order.pairs)


def bezoutian(endo: Endo) -> Poly:
    """Determinant of the divided-difference matrix, in the dual ring.

    Entry (i, j) is (f_i(u_1..u_{j-1}, x_j..x_n) - f_i(u_1..u_j,
    x_{j+1}..x_n)) / (x_j - u_j).  It is filled in closed form: a term
    c * x^e of f_i contributes

        c * u_1^e_1 ... u_{j-1}^e_{j-1} * (sum_{k<e_j} x_j^k u_j^(e_j-1-k))
          * x_{j+1}^e_{j+1} ... x_n^e_n,

    and every (x, u) exponent produced is distinct (it determines e and k),
    so no coefficients combine.  The identity holds in every characteristic.
    Each term is made as its packed key in the dual ring, 1 plus the
    offsets of its variables: the offset of the u-prefix and the x-suffix
    is made once per term and column, by one step from the last column's.
    """
    n = endo.n
    ring2 = dual_ring(endo.ring)
    one, var = ring2.packing.one, ring2.packing.var
    xs, us = var[:n], var[n:]
    rows = []
    for f in endo.images:
        # each term c * x^e with the key of u_1^e_1 ... u_{j-1}^e_{j-1} *
        # x_{j+1}^e_{j+1} ... x_n^e_n for each column j
        terms = []
        for e, c in f.terms.items():  # on exponent tuples, unpacked once
            key = sum(map(mul, e, xs), one)
            keys = []
            for e_j, x_j, u_j in zip(e, xs, us):
                key -= e_j * x_j
                keys.append(key)
                key += e_j * u_j
            terms.append((e, c, keys))
        row = []
        for j in range(n):
            step = xs[j] - us[j]
            entry = {}
            for e, c, keys in terms:
                # x_j^k u_j^(e_j-1-k) for k = 0, 1, ..., e_j - 1
                key = keys[j] + (e[j] - 1) * us[j]
                for _ in range(e[j]):
                    entry[key] = c
                    key += step
            row.append(Poly(ring2, entry))
        rows.append(row)
    return det(rows)


def _gram_from_quotient(endo: Endo, qa: QuotientAlgebra) -> GramForm:
    """Sparse Gram rows from NF(Delta) = sum_a NF(x^a) (x) row_a, where
    row_a = sum_b c_ab NF(u^b) (see the module docstring).

    One pass over the Bezoutian's terms: each key is the pair of the keys
    of its x- and u-half in the quotient's packing (`dual_ring`), so
    a = e >> W and b = e & mask, W the width of one key, are the halves.
    Every u-half is read off the table as qa[b], on basis positions: a
    standard one is a seed, and any other fills the border as for any
    lookup.  A standard x^a is its own normal form, so its terms go
    straight into acc at its position; the terms of any other x-half are
    gathered in rows[a], and each gathered row is spread once, by the
    coordinates of NF(x^a).  acc maps the position of each standard
    x-monomial to {position: coefficient}, nonzeros only, so acc is the
    sparse Gram form: no d x d matrix is built.
    Over Q every sum runs on the integer table entries, over a common
    denominator, and the form keeps the sums over it.  Delta is linear in
    each image, so it is built on ints, from the images cleared of
    denominators, over the product of their denominators.
    """
    q = endo.field.modulus
    cleared = [_clear(f.packed) for f in endo.images]
    den = math.prod(d for _, d in cleared)
    if den != 1:
        ring = endo.ring
        endo = Endo(ring, tuple(Poly(ring, f) for f, _ in cleared))
    delta = bezoutian(endo)  # on ints: Delta = delta / den
    w = qa.ring.packing.width
    mask = (1 << w) - 1
    index = qa.index
    # the pass sums over one common denominator du, the spread over dx,
    # each raised to the lcm when an entry needs it (1 over F_p)
    acc: dict = {}  # position of x^m -> dx * du * den * NF(Delta)_m
    rows: dict = {}  # non-standard x-half a -> du * row_a
    du = 1
    for e, c in delta.packed.items():
        a = e >> w
        i = index.get(a)
        dst, key = (rows, a) if i is None else (acc, i)
        row = dst.get(key)
        if row is None:
            row = dst[key] = {}
        nums, d = qa[e & mask]
        if d != du:
            if du % d:
                du = _to_lcm(du, d, (*acc.values(), *rows.values()))
            c *= du // d
        _add_shifted(row, nums, 0, c, q)
    del delta  # the rows hold what the rest needs: keep the peak memory low
    dx = 1
    for a, row in rows.items():
        nums, d = qa[a]
        if dx % d:
            dx = _to_lcm(dx, d, acc.values())
        c = dx // d
        for i, v in nums.items():
            dst = acc.get(i)
            if dst is None:
                dst = acc[i] = {}
            _add_shifted(dst, row, 0, c * v, q)
    # over den / g, g the gcd of den and every entry
    den = _lowest_all(acc.values(), den * dx * du)
    # each normal-form term x^m u^m' is entry (m, m'), its int coefficient
    # nonzero, and GramForm checks the symmetry
    gram = tuple(acc.get(i) or {} for i in range(qa.dimension))
    return GramForm(endo.field, gram, den)


class DegreeReport(Frozen):
    """deg(g) in the Witt group, as the four stages computed it: the
    quotient, the Gram form of its residue pairing, a diagonal form and its
    invariants.  The field, n, the length and is_zero are read off them."""

    __slots__ = ("quotient", "gram", "diag", "invariants")
    quotient: QuotientAlgebra
    gram: GramForm
    diag: DiagForm
    invariants: WittInvariants

    @property
    def field(self) -> FieldSpec:
        return self.quotient.ring.field

    @property
    def n(self) -> int:
        return self.quotient.ring.nvars

    @property
    def length(self) -> int:
        return self.quotient.dimension

    @property
    def is_zero(self) -> bool:
        return self.invariants.is_zero


def degree_of(endo: Endo) -> DegreeReport:
    """Full degree computation; raises as validate does."""
    qa = validate(endo)
    gram = _gram_from_quotient(endo, qa)
    diag = diagonalize(gram)
    return DegreeReport(qa, gram, diag, invariants(diag))


def univariate_power_form(field: FieldSpec, m: int) -> DiagForm:
    """Witt-normal diagonal form of the one-variable power map x -> x^m.

    The Gram matrix is the m x m antidiagonal of ones: floor(m/2) hyperbolic
    planes plus, for odd m, one <1>.
    """
    entries = [field.one] * (m % 2)
    for _ in range(m // 2):
        entries.extend([field.one, field.from_int(-1)])
    return diag_form(field, entries)


def univariate_tensor_oracle(field: FieldSpec, ms: Sequence[int]) -> DiagForm:
    """Independent oracle for separated-variable maps x_i -> x_i^{m_i}.

    The quotient algebra and its pairing factor as tensor products, so the
    class is the tensor product of the univariate forms; rank prod(m_i).
    """
    if not ms:
        raise ArityMismatch("need at least one exponent")
    result = diag_form(field, [field.one])
    for m in ms:
        result = tensor(result, univariate_power_form(field, m))
    return result


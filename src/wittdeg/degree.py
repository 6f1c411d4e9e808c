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
both factors come from the memoized monomial table of the quotient that
validate built, so the border entries the support test filled are reused.
The table divides nothing: each entry is a linear combination of entries
for smaller monomials, seeded by the reduced basis (see `groebner`).

The monomial order is the endomorphism's ring's: the quotient's basis is
reduced in it, and the doubled ring of the Bezoutian keeps it, so each
Bezoutian key splits by a shift and a mask into the exponent fields of
its x- and u-part, in the layout of the quotient's keys, and no key
changes layout on the way.

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
    RingMismatch,
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
    _rescale,
    _to_lcm,
    det,
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
        for p in images:
            if p.ring != ring:
                raise RingMismatch("image in a different ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "images", images)

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
    """
    for name, p in zip(endo.ring.variables, endo.images):
        if p.constant_term:
            raise NotOriginPreserving(
                f"image of {name} has nonzero constant term"
            )
    gb = buchberger(endo.images)
    qa = standard_monomials(gb)
    if not supported_only_at_origin(qa):
        raise SupportNotOrigin("the zero set contains a point besides the origin")
    return qa


def dual_ring(ring: Ring) -> Ring:
    """Ring with dual variables u1..un (renamed on a clash) appended, over
    the same field and in the same order."""
    base = "u"
    while any(f"{base}{i + 1}" in ring.variables for i in range(ring.nvars)):
        base += "_"
    names = ring.variables + tuple(f"{base}{i + 1}" for i in range(ring.nvars))
    return Ring(names, ring.field, ring.order)


def bezoutian(endo: Endo) -> Poly:
    """Determinant of the divided-difference matrix, in doubled variables.

    Entry (i, j) is (f_i(u_1..u_{j-1}, x_j..x_n) - f_i(u_1..u_j,
    x_{j+1}..x_n)) / (x_j - u_j).  It is filled in closed form: a term
    c * x^e of f_i contributes

        c * u_1^e_1 ... u_{j-1}^e_{j-1} * (sum_{k<e_j} x_j^k u_j^(e_j-1-k))
          * x_{j+1}^e_{j+1} ... x_n^e_n,

    and every (x, u) exponent produced is distinct (it determines e and k),
    so no coefficients combine.  The identity holds in every characteristic.
    Each term is made as its packed key in the doubled ring, 1 plus the
    offsets of its variables.
    """
    n = endo.n
    ring2 = dual_ring(endo.ring)
    one, var = ring2.packing.one, ring2.packing.var
    xs, us = var[:n], var[n:]
    rows = []
    for f in endo.images:
        items = f.terms.items()  # on exponent tuples, unpacked once
        row = []
        for j in range(n):
            x_j, u_j = xs[j], us[j]
            terms = {}
            for e, c in items:
                # u_1^e_1 ... u_{j-1}^e_{j-1} * x_{j+1}^e_{j+1} ... x_n^e_n
                key = sum(map(mul, e[:j], us), one)
                key += sum(map(mul, e[j + 1 :], xs[j + 1 :]))
                for k in range(e[j]):
                    terms[key + k * x_j + (e[j] - 1 - k) * u_j] = c
            row.append(Poly(ring2, terms))
        rows.append(row)
    return det(rows)


class _PartNF(dict):
    """The quotient's normal-form table entry of a monomial, by its exponent
    fields (see `Packing.complete`), memoized: a lookup that hits runs no
    Python code."""

    __slots__ = ("table", "complete")

    def __init__(self, qa: QuotientAlgebra):
        super().__init__()
        self.table = qa._nf_table
        self.complete = qa.ring.packing.complete

    def __missing__(self, fields: int) -> tuple[dict, int]:
        value = self[fields] = self.table[self.complete(fields)]
        return value


def _gram_from_quotient(endo: Endo, qa: QuotientAlgebra) -> GramForm:
    """Sparse Gram rows from NF(Delta) = sum_a NF(x^a) (x) row_a, where
    row_a = sum_b c_ab NF(u^b) (see the module docstring).

    acc maps each standard x-monomial to {standard u-monomial: coefficient},
    nonzeros only, so row i of the form is acc of the i-th standard monomial
    with its keys replaced by their basis indices: no d x d matrix is built.
    Over Q every sum runs on the integer table entries, over a common
    denominator, and the form keeps the sums over it.  Delta is linear in
    each image, so it is built on ints, from the images cleared of
    denominators, over the product of their denominators.

    The doubled ring has the order of the endomorphism's ring.  A shift
    and a mask split each Bezoutian key into the exponent fields of its
    x- and u-part (`Packing.halves`), and `_PartNF` completes a part to its
    key in the quotient's packing and looks up its normal form, once per
    distinct part.  When NF(x^a) is one term of coefficient 1, as for a
    standard x^a, row_a itself becomes that term's entry of acc if acc has
    none yet.
    """
    q = endo.field.modulus
    cleared = [_clear(f.packed) for f in endo.images]
    den = math.prod(d for _, d in cleared)
    if den != 1:
        ring = endo.ring
        endo = Endo(ring, tuple(Poly(ring, f) for f, _ in cleared))
    delta = bezoutian(endo)  # on ints: Delta = delta / den
    xshift, ushift, mask = delta.ring.packing.halves()
    nf_of = _PartNF(qa)
    delta = delta.packed
    # the rows, then the coefficients of NF(Delta), are summed over one
    # common denominator each, raised to the lcm when an entry needs it (1
    # over F_p)
    rows: dict = {}  # the fields of an x-monomial a -> du * row_a
    du = 1
    for e, c in delta.items():
        a = e >> xshift & mask
        row = rows.get(a)
        if row is None:
            row = rows[a] = {}
        nums, d = nf_of[e >> ushift & mask]
        if d != du:
            if du % d:
                du = _to_lcm(du, d, rows.values())
            c *= du // d
        _add_shifted(row, nums, 0, c, q)
    del delta  # the rows hold what the rest needs: keep the peak memory low
    acc: dict = {}  # standard x-monomial m -> dx * du * den * NF(Delta)_m
    dx = 1
    for a, row in rows.items():
        nums, d = nf_of[a]
        if d != dx:
            if dx % d:
                dx = _to_lcm(dx, d, acc.values())
            _rescale(row, dx // d)
        for m, v in nums.items():
            dst = acc.get(m)
            if dst is None:
                if v == 1 and len(nums) == 1:  # as for a standard x^a
                    acc[m] = row  # row_a itself: no later step reads it
                    continue
                dst = acc[m] = {}
            _add_shifted(dst, row, 0, v, q)
    den *= dx * du
    if den != 1:  # over den / g, g the gcd of den and every entry
        g = math.gcd(den, *(c for dst in acc.values() for c in dst.values()))
        if g != 1:
            den //= g
            for dst in acc.values():
                for m2, c in dst.items():
                    dst[m2] = c // g
    index = {m: k for k, m in enumerate(qa.keys)}
    b = [{} for _ in qa.keys]
    # each normal-form term x^m u^m' is entry (m, m'), its int coefficient
    # nonzero, and GramForm checks the symmetry
    try:
        for m, dst in acc.items():
            b[index[m]] = {index[m2]: c for m2, c in dst.items()}
    except KeyError:
        raise InternalError("reduced Bezoutian off the standard basis") from None
    return GramForm(endo.field, tuple(b), den)


class DegreeReport(Frozen):
    """deg(g) in the Witt group, as the four stages computed it: the
    quotient, the Gram form of its residue pairing, a diagonal form and its
    invariants.  The field, n, the length and is_zero are read off them."""

    __slots__ = ("quotient", "gram", "diag", "invariants")
    quotient: QuotientAlgebra
    gram: GramForm
    diag: DiagForm
    invariants: WittInvariants

    def __init__(self, quotient, gram, diag, invariants):
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "invariants", invariants)

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


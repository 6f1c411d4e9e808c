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
validate built, so the x_i-power chain of the support test is reused.
The table divides nothing: each entry is a linear combination of entries
for smaller monomials, seeded by the reduced basis (see `groebner`).

The monomial order is the endomorphism's ring's: the quotient's basis is
reduced in it, and the doubled ring of the Bezoutian keeps it, so each
Bezoutian key splits by a shift and a mask into the exponent fields of
its x- and u-part, in the layout of the quotient's keys, and no key
changes layout on the way.

Over Q the table entries are ints over a positive denominator, and the
Gram build keeps that form: the Bezoutian is cleared of denominators, the
rows are summed as ints over one common denominator, and each Gram entry
becomes a canonical scalar once, when the `GramForm` rows are built.

A `DegreeReport` stores what the four stages computed: the quotient, the
Gram form, its diagonal form and the invariants.  Everything else is read
off them when asked for, the basis labels that only `--verbose` prints
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import (
    ArityMismatch,
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
    _ratios,
    _rescale,
    _to_lcm,
    det,
    format_monomial,
    jacobian_det,
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

@dataclass(frozen=True)
class Endo:
    """An endomorphism of the polynomial ring: variable i maps to images[i]."""

    ring: Ring
    images: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.images) != self.ring.nvars:
            raise ArityMismatch(
                f"{len(self.images)} images for {self.ring.nvars} variables"
            )
        for p in self.images:
            if p.ring != self.ring:
                raise RingMismatch("image in a different ring")

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
            row.append(Poly._from_packed(ring2, terms))
        rows.append(row)
    return det(rows)


def gram_form(endo: Endo) -> GramForm:
    """Symmetric Gram form of the residue pairing over the monomial basis."""
    qa = validate(endo)
    return _gram_from_quotient(endo, qa)


class _PartNF(dict):
    """The quotient's normal-form table entry of a monomial, by its exponent
    fields (see `Packing.complete`), memoized: a lookup that hits runs no
    Python code."""

    __slots__ = ("qa",)

    def __init__(self, qa: QuotientAlgebra):
        super().__init__()
        self.qa = qa

    def __missing__(self, fields: int) -> tuple[dict, int]:
        qa = self.qa
        value = self[fields] = qa._nf_table[qa.ring.packing.complete(fields)]
        return value


def _gram_from_quotient(endo: Endo, qa: QuotientAlgebra) -> GramForm:
    """Sparse Gram rows from NF(Delta) = sum_a NF(x^a) (x) row_a, where
    row_a = sum_b c_ab NF(u^b) (see the module docstring).

    acc maps each standard x-monomial to {standard u-monomial: coefficient},
    nonzeros only, so row i of the form is acc of the i-th standard monomial
    with its keys replaced by their basis indices: no d x d matrix is built.
    Over Q every sum runs on the integer table entries, over a common
    denominator, and each Gram entry becomes a canonical scalar once, here.

    The doubled ring has the order of the endomorphism's ring.  A shift
    and a mask split each Bezoutian key into the exponent fields of its
    x- and u-part (`Packing.halves`), and `_PartNF` completes a part to its
    key in the quotient's packing and looks up its normal form, once per
    distinct part.
    """
    q = endo.field.modulus
    delta = bezoutian(endo)
    xshift, ushift, mask = delta.ring.packing.halves()
    nf_of = _PartNF(qa)
    delta, den = _clear(delta.packed)  # Delta = delta / den
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
                dst = acc[m] = {}
            _add_shifted(dst, row, 0, v, q)
    den *= dx * du
    index = {m: k for k, m in enumerate(qa.keys)}
    b = [{} for _ in qa.keys]
    # each normal-form term x^m u^m' is entry (m, m'); its coefficient is
    # nonzero and becomes a canonical scalar here, and GramForm checks the
    # symmetry
    try:
        for m, dst in acc.items():
            b[index[m]] = {index[m2]: c for m2, c in _ratios(dst, den).items()}
    except KeyError:
        raise InternalError("reduced Bezoutian off the standard basis") from None
    return GramForm(endo.field, tuple(b))


@dataclass(frozen=True)
class DegreeReport:
    """deg(g) in the Witt group, as the four stages computed it: the
    quotient, the Gram form of its residue pairing, a diagonal form and its
    invariants.  The field, n, the length, the verdicts and the basis
    labels are read off them."""

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

    @property
    def divisible_by_n_factorial(self) -> bool:
        return self.length % math.factorial(self.n) == 0

    @property
    def divisible_by_nminus1_factorial(self) -> bool:
        return self.length % math.factorial(max(self.n - 1, 1)) == 0

    @property
    def labels(self) -> tuple[str, ...]:
        """The standard monomials as text, in basis order."""
        ring = self.quotient.ring
        return tuple(format_monomial(ring, m) for m in self.quotient.monomials)

    def to_json_dict(self) -> dict:
        inv = self.invariants
        return {
            "schema": 1,
            "field": str(self.field),
            "n": self.n,
            "length": self.length,
            "gram": self.gram.dense(str),
            "diagonal": [str(e) for e in self.diag.entries],
            "rank": inv.rank,
            "signature": inv.signature,
            "signed_discriminant": str(inv.signed_discriminant),
            "hasse": dict(inv.hasse),
            "is_zero": self.is_zero,
            "nori_n_factorial": self.divisible_by_n_factorial,
            "nori_nminus1_factorial": self.divisible_by_nminus1_factorial,
        }


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


def power_endo(field: FieldSpec, ms: Sequence[int]) -> Endo:
    """The separated-variable endomorphism x_i -> x_i^{m_i}."""
    ring = Ring(tuple(f"x{i + 1}" for i in range(len(ms))), field)
    images = tuple(
        ring.monomial(tuple(m if j == i else 0 for j in range(len(ms))))
        for i, m in enumerate(ms)
    )
    return Endo(ring=ring, images=images)


def diagonal_bezoutian_identity(endo: Endo) -> bool:
    """Check Delta(x, x) == det(Jacobian) exactly."""
    delta = bezoutian(endo)
    xs = list(endo.ring.gens())
    return delta.substitute(xs + xs) == jacobian_det(list(endo.images))

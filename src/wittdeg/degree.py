"""The Witt-group-valued degree of an origin-preserving endomorphism.

Pipeline: validate that the image ideal has a finite-length quotient
supported only at the origin; form the Bezoutian (the determinant of the
divided-difference matrix in primal and dual variables); reduce it modulo
the ideal in both variable blocks; read off the symmetric Gram form over
the standard-monomial basis, row by row and on its nonzeros only.  Its
Witt class is the degree, normalized so the identity endomorphism has
class <1>.  For a map of forms the same Gram form is, where that is
cheaper, the inverse of graded blocks of the Scheja-Storch form (below),
and no Bezoutian is formed.

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

A map of forms has a second route to the same Gram form, which forms no
Bezoutian: the inverse of the Scheja-Storch form, block by block
(Scheja & Storch, J. reine angew. Math. 1975; Kass & Wickelgren, Duke
2019).  Let the images be forms of degrees d_1..d_n
(`GroebnerBasis.degrees`), s = sum (d_i - 1), A the quotient, of length
d, and write NF(Delta) = sum B[a][b] x^a u^b on the standard monomials,
B the Gram form.

- Delta is the canonical element of A (x) A: for the Scheja-Storch
  functional eta on A, the x^a and the sum_b B[a][b] x^b are dual bases
  under G[a][c] = eta(x^a x^c).  So G B = I: B = G^(-1).
- Delta is homogeneous of degree s, so B pairs degree k only with degree
  s - k, and so does its inverse G.  G's row at the monomial 1 is eta on
  the standard basis, so eta vanishes off degree s.  A is graded, and its
  Hilbert function h, the coefficients of prod (1 + t + ... +
  t^(d_i - 1)), has h_s = 1: one standard monomial x^top has degree s, and
  eta = lambda eta_top, eta_top the coordinate of x^top.
- The two halves of Delta multiply to the Jacobian determinant J, and
  eta(J) = Tr(1) = d.  So lambda = d / eta_top(NF(J)), if the
  characteristic does not divide d.  If it does, eta(J) = 0 and
  eta_top(NF(J)) = 0: J does not fix lambda, and the Bezoutian route runs.
- Hence, with H[a][c] = eta_top(NF(x^(a + c))) read off the table,
  B_(s-k, k) = (lambda H_(k, s-k))^(-1) for each k <= s/2, and
  B_(k, s-k) is its transpose.  Each block is inverted by an exact
  sparse Gauss-Jordan whose Q row update is `poly._add_scaled`, the one
  `witt._eliminate` runs.  The Gram is made canonical as the Bezoutian
  pass makes it, so both routes give the same `GramForm`.

The route is picked before any determinant, from two counts: the blocks
hold P = sum_k h_k h_(s-k) entries, and the Bezoutian's expansion has E
terms before any cancel, the permanent of the matrix whose entry (i, j)
is the sum of e_j over the terms c x^e of f_i (such a term puts e_j
terms into entry (i, j) of the divided-difference matrix).  The blocks
are built iff P < E.  On the dense maps of the generic benchmark P is
20-146 against E 96-13,500; separated powers have E = d <= P, and the
product Nori map with n = 7 has P = 178,776 against E = 2,880.  A map
that is not a map of forms takes the Bezoutian route.

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
    _complete_intersection,
    buchberger,
    standard_monomials,
    supported_only_at_origin,
)
from .poly import (
    Poly,
    Ring,
    _add_scaled,
    _add_shifted,
    _canonical,
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
    """The Gram form of the residue pairing on the quotient's basis, by the
    graded blocks of the Scheja-Storch form where `_by_blocks` picks them,
    else by the Bezoutian pass (see the module docstring).  Both make the
    same `GramForm`."""
    if _by_blocks(endo, qa):
        return _gram_from_blocks(endo, qa)
    return _gram_from_bezoutian(endo, qa)


def _by_blocks(endo: Endo, qa: QuotientAlgebra) -> bool:
    """Whether the Gram is built from the graded blocks: the images are
    forms (`GroebnerBasis.degrees` is set), the characteristic does not
    divide the length d, and P < E.  P = sum_k h_k h_(s-k) counts the
    entries of the blocks, h the Hilbert function of the complete
    intersection; E, the permanent of the matrix whose entry (i, j) is the
    sum of e_j over the terms c x^e of f_i, counts the Bezoutian's terms
    before any cancel.  Both are read off the degrees and the images'
    exponents, before any determinant or table lookup.  h is symmetric, so
    P = sum_k h_k^2 >= sum_k h_k = d, and E <= d (separated powers have
    E = d) decides without h."""
    degrees = qa.gb.degrees
    d = qa.dimension
    q = endo.field.modulus
    if degrees is None or (q is not None and d % q == 0):
        return False
    terms = _permanent([list(map(sum, zip(*f.terms))) for f in endo.images])
    return terms > d and sum(k * k for k in _complete_intersection(degrees)) < terms


def _permanent(matrix: list) -> int:
    """The permanent of a square matrix of ints, by `det`'s shared-minor
    recursion with every sign +: the nonzero minors of the first k rows,
    keyed by the bit set of their columns, each extended by row k."""
    minors = {0: 1}
    for row in matrix:
        grown: dict = {}
        for cols, m in minors.items():
            for j, v in enumerate(row):
                if v and not cols >> j & 1:
                    key = cols | 1 << j
                    grown[key] = grown.get(key, 0) + v * m
        minors = grown
    return sum(minors.values())


def deriv(p: Poly, i: int) -> Poly:
    """The partial derivative of p by the i-th variable of its ring: a term
    c x^e with e_i > 0 goes to e_i c x^e / x_i, its key less the offset of
    x_i."""
    ring = p.ring
    q, packing = ring.field.modulus, ring.packing
    v = packing.var[i]
    terms = {}
    for key, c in p.packed.items():
        e = packing.exponent(key, i)
        if e:
            c *= e
            if q is not None:
                c %= q
            if c:
                terms[key - v] = c
    return Poly(ring, _canonical(terms, q))


def jacobian_det(images: Sequence[Poly]) -> Poly:
    """The determinant of the Jacobian matrix (d images[i] / d x_j); a
    system that is not square raises det's NotSquareSystem."""
    n = images[0].ring.nvars
    return det([[deriv(p, j) for j in range(n)] for p in images])


def _gram_from_blocks(endo: Endo, qa: QuotientAlgebra) -> GramForm:
    """The Gram form of a map of forms whose length d the characteristic
    does not divide, as the inverse of the Scheja-Storch form
    G = lambda H, H[a][c] = eta_top(NF(x^(a + c))), block by block (see
    the module docstring): B_(s-k, k) = (lambda H_(k, s-k))^(-1).

    eta_top reads the coordinate of the one standard monomial of degree s
    off a table entry, and lambda = d / eta_top(NF(J)).  The Jacobian
    determinant J is taken of the images cleared of denominators, whose
    product C then divides it; H does not depend on the images.  Over Q
    the Gram is made canonical as the Bezoutian pass makes it: ints over
    the lcm of their denominators, divided by one gcd.  A zero
    eta_top(NF(J)) or a singular block raises InternalError.
    """
    field = endo.field
    q = field.modulus
    degrees = qa.gb.degrees
    packing = qa.ring.packing
    one, degree = packing.one, packing.degree
    s = sum(degrees) - len(degrees)
    graded: dict = {}  # degree -> [(position, key)] of its standard monomials
    for i, m in enumerate(qa.keys):
        graded.setdefault(degree(m), []).append((i, m))
    socle = graded.get(s, ())
    if len(socle) != 1 or max(graded) != s:
        raise InternalError(
            f"the quotient by forms of degrees {list(degrees)} has no"
            f" one-dimensional top degree {s}"
        )
    ((top, _),) = socle

    # eta_top(NF(J)) = tn / td, over the lcm of the entries' denominators
    cleared = [_clear(f.packed) for f in endo.images]
    images = [Poly(endo.ring, f) for f, _ in cleared]
    tn, td = 0, 1
    for m, c in jacobian_det(images).packed.items():
        nums, den = qa[m]
        v = nums.get(top)
        if v:
            if td % den:
                g = den // math.gcd(td, den)
                tn *= g
                td *= g
            tn += c * v * (td // den)
    # B = H^(-1) / lambda = H^(-1) * tn / td_all
    td_all = td * math.prod(d for _, d in cleared) * qa.dimension
    if q is not None:
        tn %= q
    if not tn:
        raise InternalError(
            "eta_top(NF(J)) is zero on a quotient the characteristic does not divide"
        )
    blocks = []
    for k in range(s // 2 + 1):
        rows_a, cols_c = graded.get(k, ()), graded.get(s - k, ())
        if len(rows_a) != len(cols_c):
            raise InternalError(
                f"graded block {k}, {s - k} of the Scheja-Storch form is not square"
            )
        # H_(k, s-k), row a as ints over its own denominator: H[a][c] is
        # eta_top of the entry of x^(a + c), whose key is a + c - one
        h_rows, h_dens = [], []
        for _, a in rows_a:
            row, rden = {}, 1
            a -= one
            for j, (_, c) in enumerate(cols_c):
                nums, den = qa[a + c]
                v = nums.get(top)
                if v:
                    if rden % den:
                        rden = _to_lcm(rden, den, (row,))
                    row[j] = v * (rden // den)
            h_rows.append(row)
            h_dens.append(rden)
        blocks.append((rows_a, cols_c, _invert(h_rows, h_dens, q)))
    # B[c][a] = inv[c][a] * tn / td_all: over Q ints over lcd * td_all, lcd
    # the lcm of the inverse rows' denominators
    if q is None:
        lcd = math.lcm(*(den for *_, inv in blocks for _, den in inv))
    else:
        t = tn * pow(td_all, -1, q) % q
    gram: list = [{} for _ in qa.keys]
    for rows_a, cols_c, inv in blocks:
        for (pc, _), (nums, den) in zip(cols_c, inv):
            f = tn * (lcd // den) if q is None else t * pow(den, -1, q)
            for i, v in nums.items():
                pa = rows_a[i][0]
                gram[pc][pa] = gram[pa][pc] = v * f if q is None else v * f % q
    den = 1 if q is not None else _lowest_all(gram, lcd * td_all)
    return GramForm(field, tuple(gram), den)


def _invert(rows: list, dens: list, q) -> list:
    """The inverse of the square matrix whose row i is rows[i] / dens[i],
    rows[i] an int dict on the columns 0..h-1 (dens all 1 over F_p), as
    one (nums, den) per row of the inverse: row j is nums / den, nums on
    the columns 0..h-1 and den a positive int over Q, a nonzero residue
    over F_p.  The lists rows and dens and the dicts in rows are the
    working rows: the caller passes what it reads no more.

    Exact sparse Gauss-Jordan on [H | I], the identity on the columns
    h..2h-1: column j is cleared from every other row that holds it by
    a free row of fewest nonzeros that holds it, the pivot row, with
    `poly._add_scaled` over Q, the row update `witt._eliminate` runs, and
    with the kernel over F_p.  holders[j] is a superset of the rows that
    hold column j: an update adds the pivot row's columns to row r, and a
    cancellation leaves r listed.  When every column is cleared the pivot
    row of column j is (a e_j + E) / den, so row j of the inverse is
    E / a.  A column that no free row holds is a singular block:
    InternalError.
    """
    h = len(rows)
    holders = [set() for _ in range(h)]
    for i, (row, den) in enumerate(zip(rows, dens)):
        for j in row:
            holders[j].add(i)
        row[h + i] = den
    pivots: list = []
    pivoted = [False] * h
    for j, held in enumerate(holders):
        p = None
        for r in held:
            row_r = rows[r]
            if j in row_r and not pivoted[r] and (p is None or len(row_r) < n):
                p, n = r, len(row_r)
        if p is None:
            raise InternalError("a graded block of the Scheja-Storch form is singular")
        pivots.append(p)
        pivoted[p] = True
        if len(held) == 1:
            continue  # column j is in row p alone: nothing to clear
        row_p = rows[p]
        a = row_p[j]
        if q is None:
            sign, base = (-1, a) if a > 0 else (1, -a)
        else:
            inv = pow(-a, -1, q)
        grows = [c for c in row_p if j < c < h]
        for r in held:
            row_r = rows[r]
            v = row_r.get(j)
            if v is None or r == p:
                continue
            if q is None:
                rows[r], dens[r] = _add_scaled(
                    row_r, dens[r], row_p, sign * v, dens[r] * base
                )
            else:
                _add_shifted(row_r, row_p, 0, v * inv % q, q)
            for c in grows:
                holders[c].add(r)
    out = []
    for j, p in enumerate(pivots):
        row_p = rows[p]
        a = row_p[j]
        sign = -1 if q is None and a < 0 else 1
        out.append(({c - h: sign * v for c, v in row_p.items() if c >= h}, sign * a))
    return out


def _gram_from_bezoutian(endo: Endo, qa: QuotientAlgebra) -> GramForm:
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


"""Koszul complexes and machine-checked duality sign conventions.

For a sequence (a_1,...,a_n) the complex has Lambda^i in degree i over the
sorted wedge basis, with the contraction differential.  The duality maps

    wedge_maps[i]  : Lambda^i -> Hom(Lambda^{n-i}, Lambda^n),  p |-> p ^ -
    signed_maps[i] = (-1)^(i*n + i(i-1)/2 + n(n-1)/2) * wedge_maps[i]

The ambient conventions are resolved once by requiring the signed family to
be a chain map, then frozen:

  - dual differential:  delta_i = (-1)^n * transpose(d_{n-i+1});
  - symmetry:           transpose(P_{n-i}) = (-1)^(n(n+1)/2) * P_i, where
    P_i = transpose(signed_maps[i]) is the pairing matrix of level i (the
    double-dual sign (-1)^(n(n-1)/2) combined with a (-1)^n from the
    n-fold shift); verify_symmetry compares signed_maps[n-i] with the
    signed transpose of signed_maps[i] directly.

resolve_dual_signs recomputes the first family from scratch so tests can
confirm the frozen convention instead of trusting it.

Every matrix is a dict {(row subset, column subset): entry} of its nonzero
entries only, and callers must not mutate one.  A column of d_i holds i
nonzeros out of C(n, i-1), and each duality map is a signed permutation,
so a dense matrix is almost all zeros: a product runs over the nonzeros
only and drops the entries that cancel.  A matrix is zero when it is
empty, and two matrices are equal when their dicts are.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .errors import Frozen, InternalError, RingMismatch
from .poly import Poly, Ring


def dual_differential_sign(n: int) -> int:
    """Frozen exponent s(n) of the shifted-dual differentials, the same at
    every square."""
    return n % 2


def symmetry_sign(n: int) -> int:
    """Frozen transpose sign for n-shifted symmetry: (-1)^(n(n+1)/2)."""
    return -1 if (n * (n + 1) // 2) % 2 else 1


def wedge_basis(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Sorted k-element index subsets of {1..n} (lexicographic)."""
    return tuple(itertools.combinations(range(1, n + 1), k))


def _merge_sign(s: Sequence[int], t: Sequence[int]) -> int:
    """Sign of the permutation sorting the concatenation of two sorted
    disjoint tuples."""
    inversions = sum(1 for a in s for b in t if a > b)
    return -1 if inversions % 2 else 1


class KoszulComplex(Frozen):
    """Differentials d_i : Lambda^i -> Lambda^{i-1} in the wedge basis."""

    __slots__ = ("ring", "sequence", "differentials")
    ring: Ring
    sequence: tuple[Poly, ...]
    differentials: tuple[dict, ...]  # index i-1 -> d_i

    def __init__(self, ring, sequence, differentials):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "differentials", differentials)

    @property
    def n(self) -> int:
        return len(self.sequence)

    def d(self, i: int) -> dict:
        return self.differentials[i - 1]


def build_koszul(sequence: Sequence[Poly]) -> KoszulComplex:
    """Standard Koszul differentials; d o d = 0 is verified on the spot."""
    if not sequence:
        raise RingMismatch("empty sequence")
    ring = sequence[0].ring
    for a in sequence:
        if a.ring != ring:
            raise RingMismatch("sequence entries in different rings")
    n = len(sequence)
    # column s of d_i holds (-1)^pos * a_e in the row of s without its
    # element e at position pos
    coeff = (tuple(sequence), tuple(-a for a in sequence))
    diffs = tuple(
        {
            (s[:pos] + s[pos + 1 :], s): coeff[pos % 2][e - 1]
            for s in wedge_basis(n, i)
            for pos, e in enumerate(s)
            if not sequence[e - 1].is_zero
        }
        for i in range(1, n + 1)
    )
    kc = KoszulComplex(ring=ring, sequence=tuple(sequence), differentials=diffs)
    for i in range(2, n + 1):
        if _mat_mul(kc.d(i - 1), kc.d(i)):
            raise InternalError("Koszul differential does not square to zero")
    return kc


def _mat_mul(a: dict, b: dict) -> dict:
    """The product a * b, entries that cancel dropped."""
    b_rows: dict = {}
    for (k, j), y in b.items():
        b_rows.setdefault(k, []).append((j, y))
    out: dict = {}
    for (i, k), x in a.items():
        for j, y in b_rows.get(k, ()):
            out[i, j] = out[i, j] + x * y if (i, j) in out else x * y
    return {key: v for key, v in out.items() if not v.is_zero}


def _mat_transpose(a: dict) -> dict:
    return {(c, r): x for (r, c), x in a.items()}


def _mat_scale(a: dict, sign: int) -> dict:
    return a if sign == 1 else {key: -x for key, x in a.items()}


def rho_sign_exponent(i: int, n: int) -> int:
    return i * n + i * (i - 1) // 2 + n * (n - 1) // 2


class DualityData(Frozen):
    """Wedge pairings and their sign-corrected versions for one complex.

    wedge_maps[i] and signed_maps[i] are matrices Lambda^i -> the dual of
    Lambda^{n-i} (rows indexed by (n-i)-subsets, columns by i-subsets);
    entries are constants of the ring.
    """

    __slots__ = ("complex", "wedge_maps", "signed_maps")
    complex: KoszulComplex
    wedge_maps: tuple
    signed_maps: tuple

    def __init__(self, complex, wedge_maps, signed_maps):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "wedge_maps", wedge_maps)
        object.__setattr__(self, "signed_maps", signed_maps)

    @property
    def n(self) -> int:
        return self.complex.n


def build_duality(kc: KoszulComplex) -> DualityData:
    ring = kc.ring
    n = kc.n
    wedge = []
    signed = []
    for i in range(n + 1):
        # the i-subset s pairs with its complement t only
        mat = {}
        for s in wedge_basis(n, i):
            t = tuple(x for x in range(1, n + 1) if x not in s)
            mat[t, s] = ring.constant(_merge_sign(s, t))
        wedge.append(mat)
        signed.append(_mat_scale(mat, -1 if rho_sign_exponent(i, n) % 2 else 1))
    return DualityData(
        complex=kc,
        wedge_maps=tuple(wedge),
        signed_maps=tuple(signed),
    )


def resolve_dual_signs(dd: DualityData, maps=None) -> list[int | None]:
    """Per-square exponent making maps a chain map, or None if impossible.

    Square i compares maps[i-1] o d_i against transpose(d_{n-i+1}) o
    maps[i]; a consistent sign must relate them entrywise.
    """
    kc = dd.complex
    n = kc.n
    if maps is None:
        maps = dd.signed_maps
    out: list[int | None] = []
    for i in range(1, n + 1):
        lhs = _mat_mul(maps[i - 1], kc.d(i))
        rhs = _mat_mul(_mat_transpose(kc.d(n - i + 1)), maps[i])
        if lhs == rhs:
            out.append(0)
        elif lhs == _mat_scale(rhs, -1):
            out.append(1)
        else:
            out.append(None)
    return out


def verify_chain_map(dd: DualityData, maps) -> bool:
    """Chain-map test against the frozen dual-differential convention."""
    sign = dual_differential_sign(dd.n)
    return all(s == sign for s in resolve_dual_signs(dd, maps))


def verify_symmetry(dd: DualityData) -> bool:
    """signed_maps[n-i] = sigma * transpose(signed_maps[i]) at every level
    i, sigma the frozen uniform sign."""
    n = dd.n
    maps = dd.signed_maps
    sigma = symmetry_sign(n)
    return all(
        maps[n - i] == _mat_scale(_mat_transpose(maps[i]), sigma)
        for i in range(n + 1)
    )


def generic_duality(field, n: int) -> DualityData:
    """Duality data for the fully symbolic sequence (a_1,...,a_n)."""
    ring = Ring(tuple(f"a{i + 1}" for i in range(n)), field)
    return build_duality(build_koszul(ring.gens()))

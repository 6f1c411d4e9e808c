"""Koszul complexes and machine-checked duality sign conventions.

For a sequence (a_1,...,a_n) the complex has Lambda^i in degree i over the
sorted wedge basis, with the contraction differential.  The duality maps

    wedge_maps[i]  : Lambda^i -> Hom(Lambda^{n-i}, Lambda^n),  p |-> p ^ -
    signed_maps[i] = (-1)^(i*n + i(i-1)/2 + n(n-1)/2) * wedge_maps[i]

The ambient conventions are resolved once by requiring the signed family to
be a chain map, then frozen:

  - dual differential:  delta_i = (-1)^n * transpose(d_{n-i+1});
  - symmetry:           transpose(P_{n-i}) = (-1)^(n(n+1)/2) * P_i, where
    P_i is the pairing matrix of level i (the double-dual sign
    (-1)^(n(n-1)/2) combined with a (-1)^n from the n-fold shift).

resolve_dual_signs recomputes the first family from scratch so tests can
confirm the frozen convention instead of trusting it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalError, RingMismatch
from .poly import Poly, Ring


def dual_differential_sign(i: int, n: int) -> int:
    """Frozen exponent family s(i, n) for the shifted-dual differentials."""
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


@dataclass(frozen=True)
class KoszulComplex:
    """Differentials d_i : Lambda^i -> Lambda^{i-1} in the wedge basis."""

    ring: Ring
    sequence: tuple[Poly, ...]
    differentials: tuple[tuple[tuple[Poly, ...], ...], ...]  # index i-1 -> d_i

    @property
    def n(self) -> int:
        return len(self.sequence)

    def d(self, i: int):
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
    diffs = []
    for i in range(1, n + 1):
        rows = wedge_basis(n, i - 1)
        cols = wedge_basis(n, i)
        row_index = {s: k for k, s in enumerate(rows)}
        mat = [[ring.zero() for _ in cols] for _ in rows]
        for c, subset in enumerate(cols):
            for pos, elem in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1 :]
                coeff = sequence[elem - 1]
                if pos % 2:
                    coeff = -coeff
                r = row_index[rest]
                mat[r][c] = mat[r][c] + coeff
        diffs.append(tuple(tuple(row) for row in mat))
    kc = KoszulComplex(ring=ring, sequence=tuple(sequence), differentials=tuple(diffs))
    for i in range(2, n + 1):
        prod = _mat_mul(kc.d(i - 1), kc.d(i), ring)
        if not _mat_is_zero(prod):
            raise InternalError("Koszul differential does not square to zero")
    return kc


def _mat_mul(a, b, ring: Ring):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[ring.zero() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            entry = a[i][k]
            if entry.is_zero:
                continue
            for j in range(cols):
                if not b[k][j].is_zero:
                    out[i][j] = out[i][j] + entry * b[k][j]
    return out


def _mat_transpose(a):
    return [list(row) for row in zip(*a)]


def _mat_scale(a, sign: int):
    if sign == 1:
        return [list(row) for row in a]
    return [[-x for x in row] for row in a]


def _mat_is_zero(a) -> bool:
    return all(x.is_zero for row in a for x in row)


def rho_sign_exponent(i: int, n: int) -> int:
    return i * n + i * (i - 1) // 2 + n * (n - 1) // 2


@dataclass(frozen=True)
class DualityData:
    """Wedge pairings and their sign-corrected versions for one complex.

    wedge_maps[i] and signed_maps[i] are matrices Lambda^i -> the dual of
    Lambda^{n-i} (rows indexed by (n-i)-subsets, columns by i-subsets);
    entries are constants of the ring.
    """

    complex: KoszulComplex
    wedge_maps: tuple
    signed_maps: tuple

    @property
    def n(self) -> int:
        return self.complex.n


def build_duality(kc: KoszulComplex) -> DualityData:
    ring = kc.ring
    n = kc.n
    wedge = []
    signed = []
    for i in range(n + 1):
        cols = wedge_basis(n, i)
        rows = wedge_basis(n, n - i)
        row_index = {s: k for k, s in enumerate(rows)}
        mat = [[ring.zero() for _ in cols] for _ in rows]
        full = tuple(range(1, n + 1))
        for c, s in enumerate(cols):
            t = tuple(x for x in full if x not in s)
            sign = _merge_sign(s, t)
            mat[row_index[t]][c] = ring.constant(sign)
        wedge.append(tuple(tuple(row) for row in mat))
        sign = -1 if rho_sign_exponent(i, n) % 2 else 1
        signed.append(tuple(tuple(row) for row in _mat_scale(mat, sign)))
    return DualityData(
        complex=kc,
        wedge_maps=tuple(wedge),
        signed_maps=tuple(signed),
    )


def resolve_dual_signs(dd: DualityData, maps=None) -> list[Optional[int]]:
    """Per-square exponent making maps a chain map, or None if impossible.

    Square i compares maps[i-1] o d_i against transpose(d_{n-i+1}) o
    maps[i]; a consistent sign must relate them entrywise.
    """
    kc = dd.complex
    ring = kc.ring
    n = kc.n
    if maps is None:
        maps = dd.signed_maps
    out: list[Optional[int]] = []
    for i in range(1, n + 1):
        lhs = _mat_mul(maps[i - 1], kc.d(i), ring)
        rhs = _mat_mul(_mat_transpose(kc.d(n - i + 1)), maps[i], ring)
        if lhs == rhs:
            out.append(0)
        elif lhs == _mat_scale(rhs, -1):
            out.append(1)
        else:
            out.append(None)
    return out


def verify_chain_map(dd: DualityData, maps=None) -> bool:
    """Chain-map test against the frozen dual-differential convention."""
    n = dd.n
    resolved = resolve_dual_signs(dd, maps)
    return all(
        s == dual_differential_sign(i + 1, n) for i, s in enumerate(resolved)
    )


def pairing_matrix(dd: DualityData, i: int, maps=None):
    """Matrix of the level-i pairing: rows i-subsets, columns (n-i)-subsets."""
    if maps is None:
        maps = dd.signed_maps
    return _mat_transpose(maps[i])


def verify_symmetry(dd: DualityData, maps=None) -> bool:
    """Transpose relation with the frozen uniform sign, all levels."""
    n = dd.n
    sigma = symmetry_sign(n)
    for i in range(n + 1):
        lhs = _mat_transpose(pairing_matrix(dd, n - i, maps))
        rhs = _mat_scale(pairing_matrix(dd, i, maps), sigma)
        if lhs != rhs:
            return False
    return True


def generic_duality(field, n: int) -> DualityData:
    """Duality data for the fully symbolic sequence (a_1,...,a_n)."""
    ring = Ring(tuple(f"a{i + 1}" for i in range(n)), field)
    return build_duality(build_koszul(ring.gens()))

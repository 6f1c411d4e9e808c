"""Symmetric bilinear forms over the base field and their Witt classes.

Conventions (fixed for reproducibility):
  - signed discriminant of <a_1,...,a_r> is the square class of
    (-1)^(r(r-1)/2) * prod(a_i);
  - Hasse symbol at a place v is prod_{i<j} (a_i, a_j)_v;
  - the rank-2m hyperbolic form has Hasse symbol (-1,-1)_v^(m(m-1)/2).

A Gram matrix is diagonalized by one symmetric elimination, _eliminate,
which returns the raw pivots and nothing else: no caller needs the
congruence transform P, so it is never built.

The Hasse symbol is computed as prod_{j>=2} (a_1 ... a_{j-1}, a_j)_v, with
the prefix products kept as running square classes: r - 1 Hilbert symbols
per place instead of r(r-1)/2.  Both products agree because the Hilbert
symbol is bimultiplicative, (xy, z)_v = (x, z)_v (y, z)_v, so that
(a_1 ... a_{j-1}, a_j)_v = prod_{i<j} (a_i, a_j)_v; and it depends only on
square classes, so the prefix may be replaced by its class.

Over Q a form is hyperbolic iff rank is even, signature is zero, the signed
discriminant is trivial and the Hasse symbols match the hyperbolic reference
at every relevant place (complete by the classification of rational
quadratic forms).  Over F_p: rank even and trivial signed discriminant.
WittInvariants.is_zero decides this from the invariants alone, so the
verdict of a report comes from the same classification it prints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field
from itertools import accumulate
from typing import Optional

from .errors import DegenerateForm, NonCanonicalForm, RingMismatch
from .fields import (
    FieldSpec,
    hilbert_symbol,
    relevant_places,
    square_class,
    square_class_mul,
)


@dataclass(frozen=True)
class GramForm:
    """A symmetric matrix over the field, with labelled basis."""

    field: FieldSpec
    matrix: tuple[tuple[object, ...], ...]
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = self.matrix
        if any(len(row) != len(m) for row in m):
            raise DegenerateForm("Gram matrix is not square")
        # tuple equality tests identity first; most entries share one zero
        if tuple(zip(*m)) != tuple(map(tuple, m)):
            raise DegenerateForm("Gram matrix is not symmetric")


@dataclass(frozen=True)
class DiagForm:
    """<a_1,...,a_r> with entries canonical square-class representatives.

    Over F_p an entry must be 1 or the least non-residue.  Over Q it must be
    a nonzero integer, and being squarefree is the caller's contract: it is
    not checked, because that would mean factoring every entry.  diag_form
    canonicalizes arbitrary nonzero scalars.
    """

    field: FieldSpec
    entries: tuple[object, ...]

    def __post_init__(self):
        field = self.field
        if field.is_rationals:
            bad = [e for e in self.entries if not e or e.denominator != 1]
        else:
            canonical = (1, field.least_nonresidue())
            bad = [e for e in self.entries if e not in canonical]
        if bad:
            raise NonCanonicalForm(
                f"entry {field.format_scalar(bad[0])} is not a canonical "
                "square-class representative (diag_form canonicalizes)"
            )

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __str__(self):
        return "<" + ",".join(self.field.format_scalar(e) for e in self.entries) + ">"


def diag_form(field: FieldSpec, entries) -> DiagForm:
    """Canonicalize the entries to square-class representatives."""
    return DiagForm(
        field=field, entries=tuple(square_class(field, e) for e in entries)
    )


def diagonalize(g: GramForm) -> DiagForm:
    """Diagonal form congruent to g, entries canonicalized."""
    return diag_form(g.field, _eliminate(g))


def _eliminate(g: GramForm) -> list:
    """Raw diagonal entries of a form congruent to g.

    Symmetric Gaussian elimination; a zero diagonal pivot is repaired by a
    basis swap or, failing that, by adding another basis vector (2a != 0
    since the characteristic is not 2).  Raises DegenerateForm if the form
    is singular.

    Pivot k subtracts c_r = m[k][r] / m[k][k] times row and column k from
    each later index r: on the trailing block this is the Schur complement
    m[r][s] -= c_r * m[k][s] (r, s > k), while the eliminated row and
    column k are never read again and so are not written.  Rows r with
    m[k][r] == 0 are untouched, and within a row only the columns s where
    m[k][s] != 0 change.  The block stays exactly symmetric: each update
    is computed once and stored at (r, s) and (s, r).  The inner loop does
    its arithmetic inline (Fraction over Q, % p over F_p).
    """
    field = g.field
    q = field.modulus
    n = len(g.matrix)
    m = [list(row) for row in g.matrix]
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
                pivot = field.mul(field.from_int(2), row_k[t])
                for s in range(k + 1, n):
                    row_k[s] = field.add(row_k[s], row_t[s])
                row_k[k] = pivot
        row_k = m[k]
        pivot = row_k[k]
        pivots.append(pivot)
        support = [s for s in range(k + 1, n) if row_k[s]]
        if not support:
            continue
        inv = field.inv(pivot)
        for i, r in enumerate(support):
            c = field.mul(row_k[r], inv)
            row_r = m[r]
            if q is None:
                for s in support[i:]:
                    row_r[s] = m[s][r] = row_r[s] - c * row_k[s]
            else:
                for s in support[i:]:
                    row_r[s] = m[s][r] = (row_r[s] - c * row_k[s]) % q
    return pivots


@dataclass(frozen=True)
class WittInvariants:
    """Classification data deciding identity in the Witt group."""

    field: FieldSpec
    rank: int
    signature: Optional[int]
    signed_discriminant: object
    hasse: dict = dataclass_field(default_factory=dict)

    def equivalent(self, other: "WittInvariants") -> bool:
        """Equality with Hasse maps compared over the union of places."""
        if (
            self.field != other.field
            or self.rank != other.rank
            or self.signature != other.signature
            or self.signed_discriminant != other.signed_discriminant
        ):
            return False
        places = set(self.hasse) | set(other.hasse)
        return all(
            self.hasse.get(v, 1) == other.hasse.get(v, 1) for v in places
        )

    @property
    def is_zero(self) -> bool:
        """True iff the classified form is hyperbolic (zero in W(k)).

        Rank even and signed discriminant trivial; over Q also signature 0
        and every Hasse symbol equal to that of the rank-2m hyperbolic form,
        (-1,-1)_v^(m(m-1)/2).  (-1,-1)_v is -1 exactly at the real place and
        at 2.  Stripping hyperbolic pairs first would not change the answer
        (Witt cancellation), so none are stripped.
        """
        if self.rank % 2 or self.signed_discriminant != self.field.one:
            return False
        if not self.field.is_rationals:
            return True
        m = self.rank // 2
        twisted = (m * (m - 1) // 2) % 2
        return self.signature == 0 and all(
            s == (-1 if twisted and v in ("inf", "2") else 1)
            for v, s in self.hasse.items()
        )


def invariants(d: DiagForm) -> WittInvariants:
    field = d.field
    r = d.rank
    # prefixes[j] is the square class of a_1 * ... * a_j
    prefixes = list(
        accumulate(
            d.entries, lambda x, y: square_class_mul(field, x, y), initial=field.one
        )
    )
    sign_factor = field.from_int(-1 if (r * (r - 1) // 2) % 2 else 1)
    signed_disc = square_class_mul(field, prefixes[-1], sign_factor)
    if not field.is_rationals:
        return WittInvariants(
            field=field,
            rank=r,
            signature=None,
            signed_discriminant=signed_disc,
            hasse={},
        )
    signature = sum(1 if e > 0 else -1 for e in d.entries)
    # prod_{i<j} (a_i, a_j)_v as prod_{j>=2} (a_1...a_{j-1}, a_j)_v: see above
    pairs = list(zip(prefixes[1:-1], d.entries[1:]))
    hasse = {}
    for v in relevant_places(d.entries):
        s = 1
        for prefix, a in pairs:
            s *= hilbert_symbol(prefix, a, v)
        hasse[str(v)] = s
    return WittInvariants(
        field=field,
        rank=r,
        signature=signature,
        signed_discriminant=signed_disc,
        hasse=hasse,
    )


def _strip_obvious_pairs(d: DiagForm) -> DiagForm:
    """Remove <a, b> pairs with a ~ -b; preserves the Witt class.

    One left-to-right pass: each surviving entry cancels against the
    earliest later surviving entry equal to the class of its negative.
    Entries are canonical, so class equality is value equality and the
    later entries of each class wait in an index queue.
    """
    field = d.field
    minus_one = square_class(field, field.from_int(-1))
    entries = d.entries
    queues: dict = {}
    for j, e in enumerate(entries):
        queues.setdefault(e, deque()).append(j)
    removed = [False] * len(entries)
    for i, e in enumerate(entries):
        if removed[i]:
            continue
        queue = queues.get(square_class_mul(field, minus_one, e))
        while queue and (queue[0] <= i or removed[queue[0]]):
            queue.popleft()
        if queue:
            removed[i] = removed[queue.popleft()] = True
    return DiagForm(
        field=field,
        entries=tuple(e for e, gone in zip(entries, removed) if not gone),
    )


def is_witt_zero(d: DiagForm) -> bool:
    """True iff the form is hyperbolic (trivial in the Witt group)."""
    return invariants(d).is_zero


def negate(d: DiagForm) -> DiagForm:
    return diag_form(d.field, tuple(d.field.neg(e) for e in d.entries))


def orthogonal_sum(d1: DiagForm, d2: DiagForm) -> DiagForm:
    if d1.field != d2.field:
        raise RingMismatch("forms over different fields")
    return DiagForm(field=d1.field, entries=d1.entries + d2.entries)


def tensor(d1: DiagForm, d2: DiagForm) -> DiagForm:
    if d1.field != d2.field:
        raise RingMismatch("forms over different fields")
    entries = tuple(
        square_class_mul(d1.field, a, b) for a in d1.entries for b in d2.entries
    )
    return DiagForm(field=d1.field, entries=entries)


def witt_equal(d1: DiagForm, d2: DiagForm) -> bool:
    """Same Witt class: d1 + (-d2) is hyperbolic."""
    return is_witt_zero(orthogonal_sum(d1, negate(d2)))


def witt_class_display(d: DiagForm) -> str:
    """Short representative for reports: obvious hyperbolic pairs stripped."""
    reduced = _strip_obvious_pairs(d)
    if reduced.rank == 0:
        return "0"
    return str(reduced)


def parse_diag(field: FieldSpec, text: str) -> DiagForm:
    """Parse the comma-separated serialization, e.g. "1,1,-2"."""
    entries = [field.parse_scalar(part) for part in text.split(",")]
    return diag_form(field, entries)

"""Symmetric bilinear forms over the base field and their Witt classes.

Conventions (fixed for reproducibility):
  - signed discriminant of <a_1,...,a_r> is the square class of
    (-1)^(r(r-1)/2) * prod(a_i);
  - Hasse symbol at a place v is prod_{i<j} (a_i, a_j)_v;
  - the rank-2m hyperbolic form has Hasse symbol (-1,-1)_v^(m(m-1)/2).

A Gram form is stored as symmetric sparse rows, one {column: entry} dict
per basis vector with no zero stored: the residue-pairing forms of graded
and near-monomial maps have about one nonzero per row.  It is diagonalized
by one symmetric elimination, _eliminate, which works on those rows: swaps
relabel two positions in the rows of their neighbours only, a heap of
positions with nonzero diagonal answers "first later nonzero diagonal",
and each Schur update runs over the support of the pivot row.  It returns
the raw pivots and nothing else: no caller needs the congruence transform
P, so it is never built.  The dense matrix exists only as a view for
output (GramForm.dense).

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

import math
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate
from typing import Optional

from .errors import DegenerateForm, NonCanonicalForm, RingMismatch
from .fields import (
    FieldSpec,
    _hilbert,
    hasse_places,
    is_prime,
    square_class,
    square_class_mul,
    square_classes,
)


@dataclass(frozen=True)
class GramForm:
    """A symmetric form over the field, stored sparse.

    rows[i] maps a column j to the nonzero entry (i, j); a zero is never
    stored, and the mirror entry rows[j][i] holds the same value.  An entry
    is an int, or over Q a non-integral Fraction; anything else, such as a
    float or an integral Fraction, raises DegenerateForm.  The dense d x d
    matrix is not kept: `dense` derives it for output.
    """

    field: FieldSpec
    rows: tuple[dict[int, object], ...]

    def __post_init__(self):
        rows = self.rows
        d = len(rows)
        over_q = self.field.is_rationals
        for i, row in enumerate(rows):
            for j, x in row.items():
                if not 0 <= j < d:
                    raise DegenerateForm(f"Gram column {j} is out of range")
                if not x:
                    raise DegenerateForm("Gram form stores an explicit zero")
                if type(x) is not int and (
                    not over_q or type(x) is not Fraction or x.denominator == 1
                ):
                    raise DegenerateForm(
                        f"Gram entry {x!r} is not an int or, over Q, a "
                        "non-integral Fraction"
                    )
                if rows[j].get(i) != x:
                    raise DegenerateForm("Gram matrix is not symmetric")

    def dense(self, fmt=lambda x: x) -> list[list]:
        """The d x d matrix, each entry passed through fmt; zero is
        formatted once and shared by every empty position."""
        d = len(self.rows)
        zero = fmt(self.field.zero)
        out = []
        for row in self.rows:
            line = [zero] * d
            for j, x in row.items():
                line[j] = fmt(x)
            out.append(line)
        return out


@dataclass(frozen=True)
class DiagForm:
    """<a_1,...,a_r> with entries canonical square-class representatives.

    Over F_p an entry must be the int 1 or the least non-residue; over Q a
    nonzero squarefree integer, given as an int or an integral Fraction and
    stored as an int.  Any other scalar, a float included, raises
    NonCanonicalForm.  After init, primes is always the ascending tuple of
    primes dividing some entry.  Given primes are checked by integer
    division only (non-primes, and primes dividing no entry, are dropped);
    without them the entries are factored once.  diag_form canonicalizes
    nonzero scalars.
    """

    field: FieldSpec
    entries: tuple[object, ...]
    primes: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        field, used, given = self.field, set(), self.primes is not None
        if field.is_rationals:
            bad = [
                e
                for e in self.entries
                if type(e) not in (int, Fraction) or not e or e.denominator != 1
            ]
            if not bad:  # an integral Fraction is stored as its int
                entries = tuple(e.numerator for e in self.entries)
                object.__setattr__(self, "entries", entries)
            primes = {p for p in self.primes or () if is_prime(p)}
            if not given and not bad:
                primes = square_classes(field, self.entries)[1]
            for a in () if bad else set(self.entries):
                mine = [p for p in primes if a % p == 0]
                used.update(mine)
                n = abs(a) // math.prod(mine)  # 1 iff a product of distinct primes
                if n != 1 and given and all(n % p for p in primes):
                    raise NonCanonicalForm(f"primes {self.primes} do not cover {a}")
                if n != 1:
                    bad.append(a)
        else:
            canonical = (1, field.least_nonresidue())
            bad = [e for e in self.entries if type(e) is not int or e not in canonical]
        if bad:
            raise NonCanonicalForm(
                f"entry {bad[0]} is not a canonical "
                "square-class representative (diag_form canonicalizes)"
            )
        object.__setattr__(self, "primes", tuple(sorted(used)))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __str__(self):
        return "<" + ",".join(map(str, self.entries)) + ">"


def diag_form(field: FieldSpec, entries) -> DiagForm:
    """Canonicalize the entries to square-class representatives."""
    classes, primes = square_classes(field, entries)
    return DiagForm(field=field, entries=tuple(classes), primes=primes)


def diagonalize(g: GramForm) -> DiagForm:
    """Diagonal form congruent to g, entries canonicalized."""
    return diag_form(g.field, _eliminate(g))


def _eliminate(g: GramForm) -> list:
    """Raw diagonal entries of a form congruent to g.

    Symmetric Gaussian elimination on the sparse rows of g; a zero diagonal
    pivot is repaired by a basis swap or, failing that, by adding another
    basis vector (2a != 0 since the characteristic is not 2).  Raises
    DegenerateForm if the form is singular.

    At pivot k the rows of positions >= k hold exactly the nonzeros of the
    trailing block, symmetrically.  A zero pivot swaps e_k with the first
    later e_t of nonzero diagonal: a heap holds the positions whose
    diagonal is (or was) nonzero, and entries gone stale are dropped when
    they reach the top.  The swap relabels k and t in their own rows and in
    the rows of their neighbours, the only rows that hold column k or t.
    With no such t, e_k += e_t for the first column t of row k; the
    diagonals of k and t are zero, so the new pivot is 2 m[k][t], and only
    row k is rewritten, since column k is never read again.

    Pivot k subtracts c_r = m[k][r] / m[k][k] times row and column k from
    each later index r: on the trailing block this is the Schur complement
    m[r][s] -= c_r * m[k][s], run over r, s in the support of row k.  Each
    update is computed once and stored at (r, s) and (s, r); an entry that
    cancels is deleted from both rows.  Column k is first removed from the
    rows of its neighbours, so no row keeps an eliminated position.  The
    inner loop does its arithmetic inline: over Q on ints and Fractions,
    storing an integral result as an int, and % p over F_p.
    """
    field = g.field
    q = field.modulus
    n = len(g.rows)
    rows = [dict(row) for row in g.rows]
    nonzero_diag = [k for k in range(n) if k in rows[k]]  # sorted: a heap
    pivots = []
    for k in range(n):
        row_k = rows[k]
        if k not in row_k:
            while nonzero_diag:
                t = nonzero_diag[0]
                if t > k and t in rows[t]:
                    _swap(rows, k, t)
                    row_k = rows[k]
                    break
                heappop(nonzero_diag)
        rows[k] = None
        pivot = row_k.pop(k, None)
        for s in row_k:
            del rows[s][k]
        if pivot is None:
            if not row_k:
                raise DegenerateForm(
                    "form is degenerate (zero block of positive size)"
                )
            t = min(row_k)
            # e_k += e_t: row_k[s] += m[t][s] for s > k (row t no longer
            # holds column k), and the zero diagonals give pivot 2 m[k][t]
            pivot = field.mul(field.from_int(2), row_k[t])
            for s, v in rows[t].items():
                w = row_k.get(s)
                w = v if w is None else field.add(w, v)
                if w:
                    row_k[s] = w
                else:
                    del row_k[s]
        pivots.append(pivot)
        if not row_k:
            continue
        support = list(row_k)
        inv = field.inv(pivot)
        for i, r in enumerate(support):
            c = field.mul(row_k[r], inv)
            row_r = rows[r]
            for s in support[i:]:
                w = row_r.get(s)
                v = c * row_k[s]
                if w is None:
                    w = -v if q is None else -v % q
                    if r == s:
                        heappush(nonzero_diag, r)
                else:
                    w = w - v if q is None else (w - v) % q
                    if not w:
                        del row_r[s]
                        if r != s:
                            del rows[s][r]
                        continue
                if type(w) is Fraction and w.denominator == 1:
                    w = w.numerator
                row_r[s] = rows[s][r] = w
    return pivots


def _swap(rows: list, k: int, t: int) -> None:
    """Relabel positions k and t of the symmetric sparse rows in place."""
    row_k, row_t = rows[k], rows[t]
    for j in row_k.keys() | row_t.keys():
        if j != k and j != t:
            row = rows[j]
            x, y = row.pop(k, None), row.pop(t, None)
            if x is not None:
                row[t] = x
            if y is not None:
                row[k] = y
    label = {k: t, t: k}
    rows[k] = {label.get(j, j): v for j, v in row_t.items()}
    rows[t] = {label.get(j, j): v for j, v in row_k.items()}


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
    # prod_{i<j} (a_i, a_j)_v as prod_{j>=2} (a_1...a_{j-1}, a_j)_v: see
    # above.  Classes and entries are squarefree integers, and the places
    # come from the primes that DiagForm checked, so the kernel runs as is
    pairs = [(x.numerator, a.numerator) for x, a in zip(prefixes[1:-1], d.entries[1:])]
    hasse = {}
    for v in hasse_places(d.primes):
        s = 1
        for prefix, a in pairs:
            s *= _hilbert(prefix, a, v)
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
    kept = tuple(e for e, gone in zip(entries, removed) if not gone)
    return DiagForm(field=field, entries=kept, primes=d.primes)


def is_witt_zero(d: DiagForm) -> bool:
    """True iff the form is hyperbolic (trivial in the Witt group)."""
    return invariants(d).is_zero


def negate(d: DiagForm) -> DiagForm:
    return tensor(d, diag_form(d.field, [-1]))


def orthogonal_sum(d1: DiagForm, d2: DiagForm) -> DiagForm:
    if d1.field != d2.field:
        raise RingMismatch("forms over different fields")
    return DiagForm(d1.field, d1.entries + d2.entries, d1.primes + d2.primes)


def tensor(d1: DiagForm, d2: DiagForm) -> DiagForm:
    if d1.field != d2.field:
        raise RingMismatch("forms over different fields")
    entries = tuple(
        square_class_mul(d1.field, a, b) for a in d1.entries for b in d2.entries
    )
    return DiagForm(field=d1.field, entries=entries, primes=d1.primes + d2.primes)


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

"""Symmetric bilinear forms over the base field and their Witt classes.

Conventions (fixed for reproducibility):
  - signed discriminant of <a_1,...,a_r> is the square class of
    (-1)^(r(r-1)/2) * prod(a_i);
  - Hasse symbol at a place v is prod_{i<j} (a_i, a_j)_v;
  - the rank-2m hyperbolic form has Hasse symbol (-1,-1)_v^(m(m-1)/2).

A Gram form is stored as symmetric sparse rows of ints over one positive
denominator, one {column: numerator} dict per basis vector with no zero
stored: the residue-pairing forms of graded and near-monomial maps have
about one nonzero per row.  This is the integer working form of the
Groebner side (`poly`), and the Gram build makes it directly.  The form is
diagonalized by one symmetric elimination, _eliminate, which works on
those rows: swaps relabel two positions in the rows of their neighbours
only, a heap of positions with nonzero diagonal answers "first later
nonzero diagonal", and each Schur update runs over the support of the
pivot row.  Every row is an int dict over its own positive denominator (1
over F_p); rescaling a row changes no zero pattern, so each decision is
that of the rational elimination, and a pivot leaves it as a reduced
(numerator, denominator) int pair, whose square class is read off its two
ints.  This is Bareiss's integer-preserving elimination (Math. Comp. 22,
1968) applied one row at a time: only the rows in the pivot row's support
are touched, not the whole trailing block.  The kernel returns the pivots
and nothing else: no caller needs the congruence transform P, so it is
never built.  The dense matrix is only a derived view for output, which
the CLI writes from the sparse rows.

The invariants are read off the distinct entries and their counts: a
Gram form of rank r has few distinct diagonal classes.  The signature and
the discriminant are sums and products over the counts, and the Hasse
symbol prod_{i<j} (a_i, a_j)_v is built group by group.  With the
distinct entries in order, a group of k copies of a after the prefix
class P (the class of the product of all earlier entries) contributes
(P, a)_v^k (a, -1)_v^(k(k-1)/2): the Hilbert symbol is bimultiplicative,
(xy, z)_v = (x, z)_v (y, z)_v, it depends only on square classes, so the
prefix may be replaced by its class, and (a, a)_v = (a, -1)_v.  A symbol
is +-1, so only odd exponents count: at most two Hilbert symbols per
distinct entry, where the definition takes r(r-1)/2.  At an odd place p
a symbol of two squarefree integers that p does not divide is 1, so only
the symbols with an argument divisible by p are evaluated there.

Over Q a form is hyperbolic iff rank is even, signature is zero, the signed
discriminant is trivial and the Hasse symbols match the hyperbolic reference
at every relevant place (complete by the classification of rational
quadratic forms).  Over F_p: rank even and trivial signed discriminant.
WittInvariants.is_zero decides this from the invariants alone, so the
verdict of a report comes from the same classification it prints.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from heapq import heappop, heappush
from math import gcd, lcm

from .errors import DegenerateForm, Frozen, NonCanonicalForm, RingMismatch
from .fields import (
    FieldSpec,
    _hilbert,
    _pair_classes,
    hasse_places,
    is_prime,
    square_class,
    square_class_mul,
    square_classes,
)
from .poly import _lowest, _rescale


class GramForm(Frozen):
    """A symmetric form over the field, stored sparse over one denominator.

    Entry (i, j) is rows[i][j] / den: rows[i] maps a column j to a nonzero
    int, a zero is never stored, and the mirror entry rows[j][i] holds the
    same int.  den is a positive int coprime to the entries taken together,
    and 1 over F_p, so the pair is the form's one representation.  Anything
    else, such as a float or a Fraction entry, raises DegenerateForm.  The
    dense d x d matrix is only a derived view for output: the CLI writes it
    row by row from these rows and never builds it.
    """

    __slots__ = ("field", "rows", "den")
    field: FieldSpec
    rows: tuple[dict[int, int], ...]
    den: int

    def __init__(self, field, rows, den):
        d = len(rows)
        if type(den) is not int or den < 1:
            raise DegenerateForm(f"Gram denominator {den!r} is not a positive int")
        if den != 1 and not field.is_rationals:
            raise DegenerateForm(f"Gram denominator {den} over {field}")
        g = den
        for i, row in enumerate(rows):
            for j, x in row.items():
                if not 0 <= j < d:
                    raise DegenerateForm(f"Gram column {j} is out of range")
                if type(x) is not int:
                    raise DegenerateForm(f"Gram entry {x!r} is not an int")
                if not x:
                    raise DegenerateForm("Gram form stores an explicit zero")
                if rows[j].get(i) != x:
                    raise DegenerateForm("Gram matrix is not symmetric")
                if g != 1:
                    g = gcd(g, x)
        if g != 1:
            raise DegenerateForm(f"Gram denominator {den} shares {g} with every entry")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.rows, self.den) == (other.field, other.rows, other.den)


class DiagForm(Frozen):
    """<a_1,...,a_r> with entries canonical square-class representatives,
    each an int, as the entries of a GramForm are.

    Over F_p an entry must be 1 or the least non-residue; over Q a nonzero
    squarefree int whose primes are among primes.  Any other scalar, a
    Fraction or a float included, raises NonCanonicalForm.  primes is
    checked, not found: each given prime is tested with is_prime (a
    non-prime is dropped), and each distinct entry is checked against them
    by integer division only.  After init primes is the ascending tuple of
    the given primes dividing some entry (empty over F_p).  diag_form
    canonicalizes nonzero scalars and finds their primes.
    """

    __slots__ = ("field", "entries", "primes")
    field: FieldSpec
    entries: tuple[int, ...]
    primes: tuple[int, ...]

    def __init__(self, field, entries, primes):
        used = set()
        if field.is_rationals:
            bad = [e for e in entries if type(e) is not int or not e]
            given = {p for p in primes if is_prime(p)}
            for a in () if bad else set(entries):
                mine = [p for p in given if a % p == 0]
                used.update(mine)
                n = abs(a) // math.prod(mine)  # 1 iff a product of distinct primes
                if n != 1 and all(n % p for p in given):
                    raise NonCanonicalForm(f"primes {primes} do not cover {a}")
                if n != 1:
                    bad.append(a)
        else:
            canonical = (1, field.least_nonresidue())
            bad = [e for e in entries if type(e) is not int or e not in canonical]
        if bad:
            raise NonCanonicalForm(
                f"entry {bad[0]} is not a canonical "
                "square-class representative (diag_form canonicalizes)"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "primes", tuple(sorted(used)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.field == other.field
            and self.entries == other.entries
            and self.primes == other.primes
        )

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __str__(self):
        return _angled(self.entries)


def _angled(entries) -> str:
    """The text <a_1,...,a_r> of diagonal entries: the str of a form, and a
    displayed class."""
    return "<" + ",".join(map(str, entries)) + ">"


def diag_form(field: FieldSpec, entries) -> DiagForm:
    """Canonicalize the entries to square-class representatives."""
    classes, primes = square_classes(field, entries)
    return DiagForm(field=field, entries=tuple(classes), primes=primes)


def diagonalize(g: GramForm) -> DiagForm:
    """Diagonal form congruent to g, entries canonicalized."""
    classes, primes = _pair_classes(g.field, _eliminate(g))
    return DiagForm(field=g.field, entries=tuple(classes), primes=primes)


def _eliminate(g: GramForm) -> list[tuple[int, int]]:
    """Diagonal entries of a form congruent to g, each as the reduced int
    pair (num, den) of num / den, den > 0 (1 over F_p).

    Symmetric Gaussian elimination on the sparse rows of g; a zero diagonal
    pivot is repaired by a basis swap or, failing that, by adding another
    basis vector (2a != 0 since the characteristic is not 2).  Raises
    DegenerateForm if the form is singular.

    Row i is kept as an int dict nums_i over its own positive denominator
    dens[i], so that row i of the matrix is nums_i / dens[i]; every row
    starts as a copy of g's, over g.den, and over F_p every denominator is
    1.  The zero pattern is that of the matrix, so every decision below is
    the one exact rational arithmetic makes, and each pivot a / dens[k]
    leaves as its pair in lowest terms, by one gcd.

    At pivot k the rows of positions >= k hold exactly the nonzeros of the
    trailing block, symmetrically.  A zero pivot swaps e_k with the first
    later e_t of nonzero diagonal: a heap holds the positions whose
    diagonal is (or was) nonzero, and entries gone stale are dropped when
    they reach the top.  The swap relabels k and t in their own rows and in
    the rows of their neighbours, the only rows that hold column k or t,
    and exchanges their denominators.  With no such t, e_k += e_t for the
    first column t of row k: rows k and t are added over the lcm of their
    denominators; the diagonals of k and t are zero, so the new pivot is
    2 m[k][t], and only row k is rewritten, since column k is never read
    again.

    Pivot k, a / dens[k], subtracts c_r = m[k][r] / m[k][k] times row k
    from each later row r in the support of row k: the Schur complement
    m[r][s] -= c_r * m[k][s], run over r, s in that support, each row
    updated on its own so that the rows share no denominator.  With
    base = dens[k] * |a| and L = lcm(dens[r], base), row r becomes
    (L / dens[r]) nums_r - sign(a) (L / base) nums_k[r] nums_k over L.
    The two multipliers and L are first divided by the gcd of the
    multipliers, and the row and its denominator then by theirs; over F_p
    the multiplier is nums_k[r] / a mod p.  Column k is first removed from
    the rows of its neighbours, so no row keeps an eliminated position, and
    an entry that cancels is deleted.
    """
    q = g.field.modulus
    n = len(g.rows)
    rows = [dict(row) for row in g.rows]
    dens = [g.den] * n
    nonzero_diag = [k for k in range(n) if k in rows[k]]  # sorted: a heap
    pivots = []
    for k in range(n):
        row_k = rows[k]
        if k not in row_k:
            while nonzero_diag:
                t = nonzero_diag[0]
                if t > k and t in rows[t]:
                    _swap(rows, k, t)
                    dens[k], dens[t] = dens[t], dens[k]
                    row_k = rows[k]
                    break
                heappop(nonzero_diag)
        rows[k] = None
        den_k = dens[k]
        a = row_k.pop(k, None)
        for s in row_k:
            del rows[s][k]
        if a is None:
            if not row_k:
                raise DegenerateForm(
                    "form is degenerate (zero block of positive size)"
                )
            t = min(row_k)
            # e_k += e_t over the lcm of the denominators (row t no longer
            # holds column k), and the zero diagonals give pivot 2 m[k][t]
            den = lcm(den_k, dens[t])
            fk, ft = den // den_k, den // dens[t]
            if fk != 1:
                _rescale(row_k, fk)
            a = 2 * row_k[t] if q is None else 2 * row_k[t] % q
            for s, v in rows[t].items():
                w = row_k.get(s, 0) + v * ft
                if q is not None:
                    w %= q
                if w:
                    row_k[s] = w
                else:
                    del row_k[s]
            den_k = den
        if den_k == 1:
            pivots.append((a, 1))
        else:
            h = gcd(a, den_k)
            pivots.append((a // h, den_k // h))
        if not row_k:
            continue
        support = list(row_k)
        if q is None:
            sign, base = (1, den_k * a) if a > 0 else (-1, -den_k * a)
        else:
            inv = pow(a, -1, q)
        for r in support:
            row_r = rows[r]
            if q is None:
                den_r = dens[r]
                d = gcd(den_r, base)
                fr = base // d
                c = sign * (den_r // d) * row_k[r]
                h = gcd(fr, c)
                if h != 1:
                    fr //= h
                    c //= h
                if fr != 1:
                    _rescale(row_r, fr)
            else:
                c = row_k[r] * inv % q
            for s in support:
                w = row_r.get(s)
                v = c * row_k[s]
                if w is None:
                    row_r[s] = -v if q is None else -v % q
                    if r == s:
                        heappush(nonzero_diag, r)
                    continue
                w = w - v if q is None else (w - v) % q
                if w:
                    row_r[s] = w
                else:
                    del row_r[s]
            if q is None and den_r * fr != 1:
                rows[r], dens[r] = _lowest(row_r, den_r * fr)
    return pivots


def _swap(rows: list, k: int, t: int) -> None:
    """Relabel positions k and t of the symmetric sparse rows in place:
    exchange the keys k and t in rows k and t and in the rows of their
    neighbours, the only rows that hold either, then the two rows."""
    row_k, row_t = rows[k], rows[t]
    for j in {k, t, *row_k, *row_t}:
        row = rows[j]
        x, y = row.pop(k, None), row.pop(t, None)
        if x is not None:
            row[t] = x
        if y is not None:
            row[k] = y
    rows[k], rows[t] = row_t, row_k


class WittInvariants(Frozen):
    """Classification data deciding identity in the Witt group.

    hasse maps each place to its Hasse symbol."""

    __slots__ = ("field", "rank", "signature", "signed_discriminant", "hasse")
    field: FieldSpec
    rank: int
    signature: int | None
    signed_discriminant: object
    hasse: dict

    def __init__(self, field, rank, signature, signed_discriminant, hasse):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "signed_discriminant", signed_discriminant)
        object.__setattr__(self, "hasse", hasse)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.field == other.field
            and self.rank == other.rank
            and self.signature == other.signature
            and self.signed_discriminant == other.signed_discriminant
            and self.hasse == other.hasse
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
    counts = Counter(d.entries)  # entry -> its count, in first-seen order
    disc = field.one  # the class of a_1 ... a_r: an even count drops out
    for a, k in counts.items():
        if k % 2:
            disc = square_class_mul(field, disc, a)
    sign_factor = square_class(field, -1) if (r * (r - 1) // 2) % 2 else field.one
    signed_disc = square_class_mul(field, disc, sign_factor)
    signature, hasse = None, {}
    if field.is_rationals:
        signature = sum(k if a > 0 else -k for a, k in counts.items())
        # prod_{i<j} (a_i, a_j)_v group by group, as the Hilbert symbols
        # (prefix, a)_v^k (a, -1)_v^(k(k-1)/2) (see above); a symbol is +-1,
        # so only odd exponents count, and a symbol with an argument 1 is 1.
        # Classes and entries are squarefree integers, and the places come
        # from the primes that DiagForm checked, so the kernel runs as is
        symbols = []
        prefix = 1
        for a, k in counts.items():
            if a == 1:
                continue
            if k % 2:
                if prefix != 1:
                    symbols.append((prefix, a))
                prefix = square_class_mul(field, prefix, a)
            if k * (k - 1) // 2 % 2:
                symbols.append((a, -1))
        for v in hasse_places(d.primes):
            if v in ("inf", 2):
                pairs = symbols
            else:  # both arguments are units at v unless v divides one
                pairs = [(x, a) for x, a in symbols if not (x % v and a % v)]
            hasse[str(v)] = math.prod(_hilbert(x, a, v) for x, a in pairs)
    return WittInvariants(
        field=field,
        rank=r,
        signature=signature,
        signed_discriminant=signed_disc,
        hasse=hasse,
    )


def _strip_obvious_pairs(d: DiagForm) -> tuple[int, ...]:
    """The entries of d with <a, b> pairs, a ~ -b, removed; what is left has
    the Witt class of d.

    One pass over the entries: each entry cancels the oldest waiting entry
    of its negative's class, or it waits.  Entries are canonical, so class
    equality is value equality, and the waiting entries of each class are
    a queue of their places in kept.
    """
    field = d.field
    minus_one = square_class(field, field.from_int(-1))
    kept: list = []
    waiting: dict = {}
    for e in d.entries:
        queue = waiting.get(square_class_mul(field, minus_one, e))
        if queue:
            kept[queue.popleft()] = None
        else:
            waiting.setdefault(e, deque()).append(len(kept))
            kept.append(e)
    return tuple(e for e in kept if e is not None)


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
    kept = _strip_obvious_pairs(d)
    return _angled(kept) if kept else "0"


def parse_diag(field: FieldSpec, text: str) -> DiagForm:
    """Parse the comma-separated serialization, e.g. "1,1,-2"."""
    entries = [field.parse_scalar(part) for part in text.split(",")]
    return diag_form(field, entries)

"""Unimodular rows over finitely presented algebras.

A row is unimodular when its entries generate the unit ideal modulo the
presentation relations.  A certificate (cofactors b_i with sum b_i * a_i
== 1) is the certificate of a certifying Buchberger, which groebner builds
only for the unit ideal and returns unchecked; is_unimodular reduces it
modulo the relations and checks once, by exact expansion, that it gives 1
there.

The obstruction report ties a validated endomorphism to the completability
of the induced row over S_n = k[x_1..x_n, y_1..y_n]/(sum x_i y_i - 1): a
nonzero degree class means the row (f_1,...,f_n) is not completable there.
Vanishing of the class decides nothing (the obstruction is not known to be
injective), and the verdict strings keep that asymmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .degree import DegreeReport, Endo, degree_of
from .errors import ArityMismatch, EvenN, InternalError, RingMismatch
from .groebner import buchberger, contains_one_with_certificate, normal_form
from .poly import Poly, Ring
from .witt import witt_class_display


@dataclass(frozen=True)
class AlgebraPresentation:
    """k[variables] / (relations); relations may be empty."""

    ring: Ring
    relations: tuple[Poly, ...] = ()

    def __post_init__(self):
        for r in self.relations:
            if r.ring != self.ring:
                raise RingMismatch("relation outside the declared ring")


@dataclass(frozen=True)
class UnimodularRow:
    """A row of polynomial lifts over a presented algebra."""

    algebra: AlgebraPresentation
    entries: tuple[Poly, ...]

    def __post_init__(self):
        for e in self.entries:
            if e.ring != self.algebra.ring:
                raise RingMismatch("row entry outside the algebra's ring")

    @property
    def n(self) -> int:
        return len(self.entries)


def is_unimodular(row: UnimodularRow) -> Optional[tuple[Poly, ...]]:
    """Certificate (b_1,...,b_n) with sum(b_i * a_i) == 1 mod relations.

    Returns None when 1 is not in the ideal.  The entry cofactors of
    Buchberger's unit basis are reduced modulo the relation ideal, and
    sum(b_i * a_i) - 1 must then reduce to 0 there.  This is the only check
    of a certificate; a failure raises InternalError.
    """
    gens = list(row.entries) + list(row.algebra.relations)
    cert = contains_one_with_certificate(gens)
    if cert is None:
        return None
    ring = row.algebra.ring
    entry_cofs = list(cert[: row.n])
    if row.algebra.relations:
        relgb = buchberger(list(row.algebra.relations))
        entry_cofs = [normal_form(c, relgb) for c in entry_cofs]
    check = -ring.one()
    for b, a in zip(entry_cofs, row.entries):
        check = check + b * a
    if row.algebra.relations:
        check = normal_form(check, relgb)
    if not check.is_zero:
        raise InternalError("certificate failed re-verification")
    return tuple(entry_cofs)


def compose_with_endo(row: UnimodularRow, endo: Endo) -> UnimodularRow:
    """Entry j of the result is endo.images[j] evaluated on the row."""
    if endo.n != row.n:
        raise ArityMismatch(
            f"endomorphism arity {endo.n} != row length {row.n}"
        )
    entries = tuple(img.substitute(list(row.entries)) for img in endo.images)
    return UnimodularRow(algebra=row.algebra, entries=entries)


def obstruction_report(endo: Endo) -> tuple[DegreeReport, str]:
    """Degree report plus a completability verdict for the induced row.

    Only defined for odd arity (the row-level symbol does not factor
    through SL_n for even n).  The non-completability claim covers the row
    (f_1,...,f_n) over S_n; nothing is claimed when the class vanishes, and
    for n = 1 the class is reported without a row-level claim.
    """
    n = endo.n
    if n % 2 == 0:
        raise EvenN("the row-level obstruction needs odd arity")
    report = degree_of(endo)
    cls = witt_class_display(report.diag)
    row_str = ", ".join(str(p) for p in endo.images)
    field = report.field
    if n == 1:
        verdict = (
            f"degree class {cls} in W({field}); no row-level claim for n = 1"
        )
    elif not report.is_zero:
        verdict = (
            f"obstruction {cls} != 0 in W({field}): "
            f"row ({row_str}) over S_{n} is not completable"
        )
    else:
        verdict = (
            f"obstruction vanishes in W({field}): completability of "
            f"row ({row_str}) over S_{n} is not decided by this invariant"
        )
    return report, verdict

import pathlib
from fractions import Fraction
from types import SimpleNamespace

import pytest

from wittdeg import cli, groebner, umrow
from wittdeg.cli import run
from wittdeg.degree import Endo, degree_of
from wittdeg.errors import ArityMismatch, EvenN, InternalError
from wittdeg.groebner import GroebnerBasis, buchberger, normal_form
from wittdeg.poly import Poly, Ring, parse_poly
from wittdeg.umrow import (
    AlgebraPresentation,
    UnimodularRow,
    compose_with_endo,
    is_unimodular,
)
from wittdeg.witt import witt_class_display

from conftest import (
    basis_of,
    certificate,
    counterexample_endo,
    make_endo,
    universal_row,
)


def _verify_certificate(row, cert):
    ring = row.algebra.ring
    total = ring.zero()
    for b, a in zip(cert, row.entries):
        total = total + b * a
    residue = total - ring.one()
    if row.algebra.relations:
        relgb = buchberger(list(row.algebra.relations))
        residue = normal_form(residue, relgb)
    assert residue.is_zero


def test_is_unimodular_affine_line(Q):
    ring = Ring(("x",), Q)
    alg = AlgebraPresentation(ring=ring, relations=())
    row = UnimodularRow(algebra=alg, entries=(ring.var(0), ring.one() - ring.var(0)))
    cert = is_unimodular(row)
    assert cert == (ring.one(), ring.one())
    _verify_certificate(row, cert)


def test_is_unimodular_proper_ideal(Q):
    ring = Ring(("x1", "x2", "x3"), Q)
    alg = AlgebraPresentation(ring=ring, relations=())
    row = UnimodularRow(algebra=alg, entries=ring.gens())
    assert is_unimodular(row) is None


def test_tautological_row_certificate(Q):
    row = universal_row(Q, 3)
    cert = is_unimodular(row)
    ys = row.algebra.ring.gens()[3:]
    assert cert == tuple(ys)
    _verify_certificate(row, cert)


def test_apply_elementary_preserves_certificate(Q):
    # the elementary column move x3 -> x3 + x1 * x1
    row = universal_row(Q, 3)
    x1, x2, x3 = row.entries
    moved = UnimodularRow(algebra=row.algebra, entries=(x1, x2, x3 + x1 * x1))
    cert = is_unimodular(moved)
    assert cert is not None
    _verify_certificate(moved, cert)


def test_compose_with_endo_counterexample(Q):
    row = universal_row(Q, 3)
    comp = compose_with_endo(row, counterexample_endo(Q))
    ring = row.algebra.ring
    assert comp.entries == (
        parse_poly("x1^2 - x2^2", ring),
        parse_poly("x1*x2", ring),
        parse_poly("x3", ring),
    )


def test_compose_with_identity(Q):
    row = universal_row(Q, 3)
    ring3 = Ring(("x1", "x2", "x3"), Q)
    ident = Endo(ring=ring3, images=ring3.gens())
    assert compose_with_endo(row, ident).entries == row.entries


def test_compose_arity_checked(Q):
    row = universal_row(Q, 3)
    endo2 = make_endo(Q, ("x1", "x2"), ("x1", "x2"))
    with pytest.raises(ArityMismatch):
        compose_with_endo(row, endo2)


def test_composed_rows_stay_certifiable(Q):
    row = universal_row(Q, 3)
    endos = [
        counterexample_endo(Q),  # length 4
        make_endo(Q, ("x1", "x2", "x3"), ("x1", "x2", "x3")),  # length 1
        make_endo(Q, ("x1", "x2", "x3"), ("x1^2", "x2", "x3")),  # length 2
        make_endo(Q, ("x1", "x2", "x3"), ("x2", "x3", "x1^3")),  # length 3
        make_endo(Q, ("x1", "x2", "x3"), ("x1^2", "x2^3", "x3")),  # length 6
    ]
    for endo in endos:
        comp = compose_with_endo(row, endo)
        cert = is_unimodular(comp)
        assert cert is not None
        _verify_certificate(comp, cert)


def _nori_check(endo):
    """The degree report of endo and the verdict nori-check prints for it."""
    report = degree_of(endo)
    cls = witt_class_display(report.diag)
    return report, cli._verdict(report, endo.images, cls)


def test_obstruction_report_counterexample(Q):
    report, verdict = _nori_check(counterexample_endo(Q))
    assert not report.is_zero
    assert verdict == (
        "obstruction <1,1> != 0 in W(Q): row (x1^2 - x2^2, x1*x2, x3) "
        "over S_3 is not completable"
    )


def test_obstruction_report_identity(Q):
    ring = Ring(("x1", "x2", "x3"), Q)
    report, verdict = _nori_check(Endo(ring=ring, images=ring.gens()))
    assert not report.is_zero
    assert "<1> != 0" in verdict and "not completable" in verdict


def test_obstruction_report_vanishing(F5):
    # -1 canonicalizes to 4 in F5, so the image formats as x1^2 + 4*x2^2
    report, verdict = _nori_check(counterexample_endo(F5))
    assert report.is_zero
    assert verdict == (
        "obstruction vanishes in W(F5): completability of row "
        "(x1^2 + 4*x2^2, x1*x2, x3) over S_3 is not decided by this invariant"
    )


def test_obstruction_report_requires_odd_arity(tmp_path, monkeypatch):
    # nori-check refuses even n before any algebra: degree_of is never called
    job = tmp_path / "identity2.job"
    job.write_text("field = Q\nvars = x1, x2\nmap x1 = x1\nmap x2 = x2\n")
    monkeypatch.setattr(cli, "degree_of", None)
    args = SimpleNamespace(file=str(job), order="grevlex", json=False)
    with pytest.raises(EvenN):
        cli._cmd_nori_check(args)


def test_failed_reverification_is_internal_error(Q, monkeypatch, capsys):
    # a certificate that does not sum to 1 must surface as InternalError
    # (exit 2 from the CLI), not as a bare assertion.  First a unit basis
    # with a wrong certificate, on a row with a relation: groebner returns
    # the certificate unchecked, and the one check, modulo the relation,
    # fails
    row = universal_row(Q, 1)
    ring = row.algebra.ring
    unit = basis_of([ring.one()])
    wrong = GroebnerBasis(
        unit.generators,
        unit.entries,
        cofactors=(((ring.var(1) + ring.one()).packed, {}), 1),
    )
    with monkeypatch.context() as m:
        m.setattr(groebner, "buchberger", lambda *a, **k: wrong)
        with pytest.raises(InternalError, match="re-verification"):
            is_unimodular(row)
    # then zero cofactors, on a row without relations and from the CLI
    monkeypatch.setattr(
        umrow,
        "contains_one_with_certificate",
        lambda gens: (tuple({} for _ in gens), 1),
    )
    ring = Ring(("x",), Q)
    x = ring.var(0)
    row = UnimodularRow(
        algebra=AlgebraPresentation(ring=ring, relations=()),
        entries=(x, ring.one() - x),
    )
    with pytest.raises(InternalError):
        is_unimodular(row)
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    assert run(["row", "check", "docs/jobs/taut3.row"]) == 2
    assert "re-verification" in capsys.readouterr().err


def test_check_reduces_cofactors_modulo_the_relations(Q, F7, monkeypatch):
    # the one check works modulo the relations: an entry cofactor moved by a
    # multiple of the relation still passes and prints the same reduced
    # certificate, and one moved by a unit fails.  The row's entries are
    # scaled by 2/3 over Q, so the certificate has a denominator
    certify = groebner.contains_one_with_certificate
    for field in (Q, F7):
        row = universal_row(field, 3)
        ring = row.algebra.ring
        (rel,) = row.algebra.relations
        x1, x2, _, y1, _, y3 = ring.gens()
        scaled = UnimodularRow(
            algebra=row.algebra,
            entries=tuple(a * Fraction(2, 3) for a in row.entries),
        )
        expected = is_unimodular(scaled)
        nums, den = certify(list(scaled.entries) + [rel])
        assert den > 1 or field is F7
        for index, move, passes in (
            (0, (x2 * y3 - 5) * rel, True),
            (2, y1 * y1 * rel, True),
            (1, ring.one(), False),
            (0, -x1 * y1, False),
        ):
            moved = list(nums)
            b = Poly(ring, moved[index]) + move * den
            moved[index] = b.packed
            monkeypatch.setattr(
                umrow,
                "contains_one_with_certificate",
                lambda gens: (tuple(moved), den),
            )
            if passes:
                assert is_unimodular(scaled) == expected
            else:
                with pytest.raises(InternalError, match="re-verification"):
                    is_unimodular(scaled)
            monkeypatch.undo()


def test_non_unimodular_rows_replay_nothing(Q, tmp_path, monkeypatch, capsys):
    # a certificate is replayed only for the unit ideal: a row that is not
    # unimodular is answered without building any cofactor vector
    calls = []
    replay = groebner._certificate

    def counted(*args):
        calls.append(args)
        return replay(*args)

    monkeypatch.setattr(groebner, "_certificate", counted)
    proper = tmp_path / "proper.row"
    proper.write_text("field = Q\nvars = x, y\nrel = x*y\nrow = x, y^2\n")
    assert run(["row", "check", str(proper)]) == 0
    assert capsys.readouterr().out.endswith("unimodular: no\n")
    assert calls == []
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    assert run(["row", "check", "docs/jobs/taut3.row"]) == 0
    assert "unimodular: yes" in capsys.readouterr().out
    assert len(calls) == 1
    ring = Ring(("x", "y"), Q)
    x, y = ring.gens()
    assert certificate(buchberger([x, y * y, x * y], certify=True)) is None
    assert len(calls) == 1

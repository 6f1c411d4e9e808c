"""Answer checks that do not reuse the code path that produced the answer.

- separated power maps: the Witt class equals the tensor product of the
  univariate forms (``univariate_tensor_oracle``);
- realified complex powers and triangular systems: length from the
  structure of the map, and signature equal to the real local degree
  (Eisenbud-Levine-Khimshiashvili);
- generic homogeneous maps: length = product of the degrees (Bezout), and
  the form is nondegenerate, so rank = length;
- Q jobs with an F_p twin: rank and signed discriminant reduced mod p
  equal those of the twin.  Staircases get their twin here; the generic
  workload runs its twins as jobs;
- rows: the certificate is expanded against the composed row and reduced
  modulo the relation, which must leave exactly 1.

``check`` raises :class:`OracleMismatch` on a wrong answer; a job the
program refused (nonzero exit) has no answer and is not checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from math import prod

from wittdeg import cli
from wittdeg.degree import univariate_tensor_oracle
from wittdeg.fields import FieldSpec
from wittdeg.groebner import buchberger, normal_form
from wittdeg.poly import Ring, parse_poly
from wittdeg.witt import diag_form, witt_equal

from workloads import FP, PRIME, ROW_RELATION, ROW_VARS

Q = FieldSpec.rationals()


class OracleMismatch(Exception):
    """The program returned an answer an oracle rejects."""


def _expect(job, what: str, got, want) -> None:
    if got != want:
        raise OracleMismatch(
            f"job {job.index} ({job.family}, {job.field}): {what} is {got!r}, "
            f"expected {want!r}"
        )


def _is_square_mod_p(value: str) -> bool:
    """Whether a nonzero rational is a square mod p (Euler's criterion)."""
    x = Fraction(value)
    a = x.numerator * x.denominator % PRIME
    if a == 0:
        raise OracleMismatch(f"signed discriminant {value} vanishes mod {PRIME}")
    return pow(a, (PRIME - 1) // 2, PRIME) == 1


class Oracles:
    """Checks jobs of one run; ``scratch`` holds staircase twin job files."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self._row_ring = {}

    def check(self, job, rec: dict, records: dict) -> None:
        if rec["rc"] != 0:
            return
        if job.family == "row":
            self._row(job, rec)
            return
        _expect(job, "rank", rec["rank"], rec["length"])
        p = job.params
        if job.family == "power":
            _expect(job, "length", rec["length"], prod(p["ms"]))
            got = diag_form(Q, [Fraction(e) for e in rec["diagonal"]])
            if not witt_equal(got, univariate_tensor_oracle(Q, p["ms"])):
                raise OracleMismatch(
                    f"job {job.index}: class {got} differs from the tensor oracle"
                )
        elif job.family == "realified":
            _expect(job, "length", rec["length"], p["m"] ** 2 * p["j"])
            _expect(job, "signature", rec["signature"], p["m"] * (p["j"] % 2))
        elif job.family == "triangular":
            _expect(job, "length", rec["length"], p["m"] ** p["n"])
            _expect(job, "signature", rec["signature"], p["m"] % 2)
        elif job.family == "staircase":
            twin = self._fp_twin(job)
            if twin is not None:
                self._compare_twins(job, rec, twin)
        else:  # generic homogeneous maps
            _expect(job, "length", rec["length"], p["d"] ** p["n"])
            if job.field == "Q":
                twin = records.get(job.twin)
                if twin is not None and twin["rc"] == 0:
                    self._compare_twins(job, rec, twin)

    def _compare_twins(self, job, q_rec: dict, fp_rec: dict) -> None:
        _expect(job, "length of the F_p twin", fp_rec["length"], q_rec["length"])
        _expect(job, "rank of the F_p twin", fp_rec["rank"], q_rec["rank"])
        _expect(
            job,
            "signed discriminant mod p is a square",
            _is_square_mod_p(q_rec["signed_discriminant"]),
            fp_rec["signed_discriminant"] == "1",
        )

    def _fp_twin(self, job):
        """The F_p run of a Q job, or None if F_p is a bad prime for it."""
        path = os.path.join(self.scratch, f"twin-{job.index}.job")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(job.files["job"].replace("field = Q", f"field = {FP}", 1))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(["--json", "degree", path])
        return json.loads(out.getvalue()) if rc == 0 else None

    def _row(self, job, rec: dict) -> None:
        _expect(job, "unimodular", rec["unimodular"], True)
        if job.field not in self._row_ring:
            field = Q if job.field == "Q" else FieldSpec.prime_field(PRIME)
            ring = Ring(ROW_VARS, field)
            rel = parse_poly(ROW_RELATION, ring)
            self._row_ring[job.field] = (ring, buchberger([rel]))
        ring, relgb = self._row_ring[job.field]
        entries = [parse_poly(s, ring) for s in job.params["images"]]
        cert = [parse_poly(s, ring) for s in rec["certificate"]]
        total = ring.zero()
        for b, a in zip(cert, entries):
            total = total + b * a
        if not normal_form(total - ring.one(), relgb).is_zero:
            raise OracleMismatch(
                f"job {job.index}: certificate does not combine the row to 1"
            )
        rec["cert_terms"] = sum(len(b.terms) for b in cert)

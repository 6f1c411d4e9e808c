"""Command-line front end.

Subcommands: degree, nori-check, witt invariants, witt is-zero,
koszul verify, row check, row compose.  Output is deterministic; --json
emits the versioned report schema.

This module makes every byte of output; the pipeline modules return values
only.  Each subcommand returns its exit status and its output: the JSON
document under --json, otherwise its list of text lines.  `run` alone
writes, and every number is made text before the first byte, so an error,
a number too long to print included, leaves stdout empty.  A JSON document
is json.dumps(indent=2)'s text; only a degree report's Gram matrix has a
writer of its own, which prints it row by row from the sparse form.

nori-check ties a validated endomorphism to the completability of the
induced row over S_n = k[x_1..x_n, y_1..y_n]/(sum x_i y_i - 1): a nonzero
degree class means the row (f_1,...,f_n) is not completable there.  A
zero class decides nothing (the obstruction is not known to be
injective), and the verdicts keep that asymmetry.  Even n is refused
before any algebra, since the row-level symbol does not factor through
SL_n for even n; for n = 1 the class is reported without a row-level
claim.

Exit codes: 0 success, 1 a check of koszul verify failed (in text and
--json output alike), 2 parse or validation error, or a number too long to
print (DigitLimitExceeded), 3 mathematical hypothesis failure
(NotFiniteLength, SupportNotOrigin, NotOriginPreserving, EvenN).

Job files::

    field = Q            # or F<p>, p an odd prime in ASCII digits
    vars = x1, x2, x3
    map x1 = x1^2 - x2^2 # degree jobs: one map line per variable
    map x2 = x1*x2
    map x3 = x3

Row files use the same header plus optional ``rel = <poly>`` lines and one
``row = <poly>, <poly>, ...`` line.  ``field``, ``vars`` and ``row`` may each
appear once.  `read_endo` and `read_row` read the two kinds of file, each
in one call.  Every error in a line, including a bad field or scalar, is
reported as a JobFileError carrying ``path:line``; so is a file that is not
UTF-8 text, and a missing header, map or row line carries ``path``.
``--order`` is the monomial order each file's ring is declared in, and with
it the order of every Groebner computation.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .degree import DegreeReport, Endo, degree_of
from .errors import (
    AlgebraError,
    DigitLimitExceeded,
    EvenN,
    JobFileError,
    NotFiniteLength,
    NotOriginPreserving,
    SupportNotOrigin,
)
from .fields import FieldSpec, ratio
from .orders import MonomialOrder, by_name
from .poly import Poly, Ring, parse_poly
from .umrow import UnimodularRow, compose_with_endo, is_unimodular
from .witt import (
    GramForm,
    WittInvariants,
    invariants,
    is_witt_zero,
    parse_diag,
    witt_class_display,
)

HYPOTHESIS_ERRORS = (NotFiniteLength, SupportNotOrigin, NotOriginPreserving, EvenN)


_FIELD_RE = re.compile(r"F([1-9][0-9]*)")


def _parse_field(text: str) -> FieldSpec:
    """Q, or F<p> with p in ASCII digits and no leading zero."""
    text = text.strip()
    if text == "Q":
        return FieldSpec.rationals()
    m = _FIELD_RE.fullmatch(text)
    if m:
        try:
            return FieldSpec.prime_field(int(m.group(1)))
        except ValueError:  # more digits than the interpreter converts
            pass
    raise AlgebraError(f"bad field {text!r} (expected Q or F<p>)")


def parse_job_file(path: str, order: MonomialOrder):
    """(ring, maps, relations, row) of the job or row file at path, its ring
    in the given monomial order: maps the {variable: image} of its map
    lines, relations a tuple, and row a tuple or None."""
    field = None
    ring = None
    maps: dict[str, Poly] = {}
    relations: list[Poly] = []
    row = None
    with open(path, "rb") as fh:
        data = fh.read()
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            # the line ends before the bad byte, as text mode splits them
            head = data[: exc.start]
            lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise JobFileError(f"{path}:{lineno}: not UTF-8 text") from None
        if "\r" in text:  # the newlines text mode translates
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        for lineno, raw in enumerate(text.split("\n"), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if not _ or not value:
                    raise JobFileError("expected 'key = value'")
                if key == "field":
                    if field is not None:
                        raise JobFileError("duplicate 'field' line")
                    field = _parse_field(value)
                elif key == "vars":
                    if field is None:
                        raise JobFileError("'field' must precede 'vars'")
                    if ring is not None:
                        raise JobFileError("duplicate 'vars' line")
                    names = [v.strip() for v in value.split(",")]
                    if "" in names:
                        raise JobFileError("empty variable name in 'vars'")
                    for i, v in enumerate(names):
                        # the name token of poly's grammar, [A-Za-z_][A-Za-z0-9_]*
                        if not (v.isascii() and v.isidentifier()):
                            raise JobFileError(f"bad variable name {v!r} in 'vars'")
                        if v in names[:i]:
                            raise JobFileError(f"duplicate variable {v!r} in 'vars'")
                    ring = Ring(tuple(names), field, order)
                elif key.startswith("map "):
                    if ring is None:
                        raise JobFileError("'vars' must precede 'map'")
                    var = key[4:].strip()
                    if var not in ring.variables:
                        raise JobFileError(f"map for undeclared variable {var!r}")
                    if var in maps:
                        raise JobFileError(f"duplicate map for {var!r}")
                    maps[var] = parse_poly(value, ring)
                elif key == "rel":
                    if ring is None:
                        raise JobFileError("'vars' must precede 'rel'")
                    relations.append(parse_poly(value, ring))
                elif key == "row":
                    if ring is None:
                        raise JobFileError("'vars' must precede 'row'")
                    if row is not None:
                        raise JobFileError("duplicate 'row' line")
                    row = tuple(
                        parse_poly(part, ring) for part in value.split(",")
                    )
                else:
                    raise JobFileError(f"unknown key {key!r}")
            except AlgebraError as exc:
                raise JobFileError(f"{path}:{lineno}: {exc}") from None
    if field is None or ring is None:
        raise JobFileError(f"{path}: missing 'field' or 'vars'")
    return ring, maps, tuple(relations), row


def read_endo(path: str, order: MonomialOrder) -> Endo:
    """The endomorphism of the job file at path, one map line per variable."""
    ring, maps, _, _ = parse_job_file(path, order)
    missing = [v for v in ring.variables if v not in maps]
    if missing:
        raise JobFileError(f"{path}: missing map for {', '.join(missing)}")
    return Endo(ring, tuple(maps[v] for v in ring.variables))


def read_row(path: str, order: MonomialOrder) -> UnimodularRow:
    """The row of the row file at path over its ring modulo its relations."""
    ring, _, relations, row = parse_job_file(path, order)
    if row is None:
        raise JobFileError(f"{path}: missing 'row' line")
    return UnimodularRow(ring, relations, row)


# -- output helpers ---------------------------------------------------------


class _GramText:
    """The dense matrix of a GramForm as text, kept as its nonzero cells:
    cells[i] holds the (column, text) pairs of row i in column order, and
    every other entry is "0".  Each nonzero entry v / den is made text
    here as str(ratio(v, den)): str(v) over den 1, and otherwise once per
    distinct entry, since a Gram form has few.  A "0" is never a Python
    object of its own."""

    __slots__ = ("cells",)

    def __init__(self, gram: GramForm):
        den, rows = gram.den, gram.rows
        text = str
        if den != 1:
            values = {v for row in rows for v in row.values()}
            text = {v: str(ratio(v, den)) for v in values}.__getitem__
        self.cells = [
            sorted([(j, text(v)) for j, v in row.items()]) for row in rows
        ]

    def lines(self, head: str, sep: str, tail: str):
        """Each row as head + its d entries joined by sep + tail: the row's
        cells spliced by slicing into one template, the row of zeros."""
        template = head + sep.join("0" * len(self.cells)) + tail
        base, stride = len(head), len(sep) + 1
        for row in self.cells:
            pieces = []
            start = 0
            for j, text in row:
                at = base + j * stride
                pieces.append(template[start:at])
                pieces.append(text)
                start = at + 1
            pieces.append(template[start:])
            yield "".join(pieces)


def _write_json(data: dict, write) -> None:
    """Pass json.dumps(data, indent=2) to write, a GramForm under "gram"
    being its dense d x d matrix of entry strings.

    The document is schema 1: str, int, bool, None, list and dict with str
    keys.  Every byte around the Gram is json.dumps(indent=2)'s: the
    document with null under "gram" is dumped whole and split there, and
    `_GramText` writes the Gram one row at a time between the two halves,
    so the dense matrix is never built.  Every number is made text before
    the first piece, so json.dumps's ValueError for an int past CPython's
    digit limit leaves nothing written."""
    import json

    gram = data.get("gram")
    if not isinstance(gram, GramForm):
        write(json.dumps(data, indent=2))
        return
    rows = _GramText(gram)
    doc = json.dumps({**data, "gram": None}, indent=2)
    head, _, tail = doc.partition('"gram": null')
    write(head + '"gram": ')
    if rows.cells:
        sep = "[\n    "
        for line in rows.lines('[\n      "', '",\n      "', '"\n    ]'):
            write(sep)
            write(line)
            sep = ",\n    "
        write("\n  ]")
    else:
        write("[]")
    write(tail)


def _degree_json(report: DegreeReport) -> dict:
    """The report in JSON schema 1, every value but "gram" ready for
    `_write_json`, which prints the sparse GramForm under "gram" as the
    dense d x d matrix of entry strings that schema 1 holds, one row at a
    time, so that matrix is never built."""
    nm1, nf = _factorials(report.n)
    return {
        "schema": 1,
        "field": str(report.field),
        "n": report.n,
        "length": report.length,
        "gram": report.gram,
        "diagonal": [str(e) for e in report.diag.entries],
        **_invariants_json(report.invariants),
        "is_zero": report.is_zero,
        "nori_n_factorial": report.length % nf == 0,
        "nori_nminus1_factorial": report.length % nm1 == 0,
    }


def _invariants_json(inv: WittInvariants) -> dict:
    """The four invariant keys of schema 1, in their order."""
    return {
        "rank": inv.rank,
        "signature": inv.signature,
        "signed_discriminant": str(inv.signed_discriminant),
        "hasse": dict(inv.hasse),
    }


def _degree_summary(report: DegreeReport, cls: str) -> str:
    """The one-line answer, cls the class text."""
    status = "zero" if report.is_zero else "nonzero"
    return (
        f"length {report.length}; degree = {cls}; {status} in W({report.field})"
    )


def _degree_verbose_lines(report: DegreeReport) -> list[str]:
    ring = report.quotient.ring
    labels = ", ".join(str(Poly(ring, {m: 1})) for m in report.quotient.keys)
    return [
        f"standard monomials: {labels}",
        "gram matrix:",
        *_GramText(report.gram).lines("  [", ", ", "]"),
        f"diagonal form: {report.diag}",
        *_invariant_lines(report.invariants),
    ]


def _invariant_lines(inv: WittInvariants) -> list[str]:
    """The rank/signature/discriminant line and, if any, the hasse line."""
    sig = "" if inv.signature is None else f"; signature {inv.signature}"
    lines = [f"rank {inv.rank}{sig}; signed discriminant {inv.signed_discriminant}"]
    if inv.hasse:
        lines.append("hasse: " + ", ".join(f"{v} {s:+d}" for v, s in inv.hasse.items()))
    return lines


def _factorials(n: int) -> tuple[int, int]:
    """(n-1)! and n!, the divisors of the length that Nori's question asks
    about; (n-1)! is read as 1 for n = 1."""
    return math.factorial(max(n - 1, 1)), math.factorial(n)


def _nori_lines(report: DegreeReport) -> list[str]:
    nm1, nf = _factorials(report.n)
    length = report.length
    return [
        f"(n-1)! = {nm1} divides length: " + ("no" if length % nm1 else "yes"),
        f"n! = {nf} divides length: " + ("no" if length % nf else "yes"),
    ]


def _verdict(report: DegreeReport, images, cls: str) -> str:
    """The completability verdict for the row of the images over S_n (see
    the module docstring), cls the class text."""
    n, field = report.n, report.field
    if n == 1:
        return f"degree class {cls} in W({field}); no row-level claim for n = 1"
    row = ", ".join(str(p) for p in images)
    if not report.is_zero:
        return (
            f"obstruction {cls} != 0 in W({field}): "
            f"row ({row}) over S_{n} is not completable"
        )
    return (
        f"obstruction vanishes in W({field}): completability of "
        f"row ({row}) over S_{n} is not decided by this invariant"
    )


# -- subcommands -------------------------------------------------------------


def _cmd_degree(args) -> tuple[int, dict | list[str]]:
    report = degree_of(read_endo(args.file, by_name(args.order)))
    if args.json:
        return 0, _degree_json(report)
    lines = [_degree_summary(report, witt_class_display(report.diag))]
    if args.verbose:
        lines += _degree_verbose_lines(report)
    return 0, lines


def _cmd_nori_check(args) -> tuple[int, dict | list[str]]:
    endo = read_endo(args.file, by_name(args.order))
    if endo.n % 2 == 0:
        raise EvenN("the row-level obstruction needs odd arity")
    report = degree_of(endo)
    cls = witt_class_display(report.diag)
    verdict = _verdict(report, endo.images, cls)
    if args.json:
        return 0, {**_degree_json(report), "verdict": verdict}
    summary = _degree_summary(report, cls)
    return 0, [summary, *_nori_lines(report), f"verdict: {verdict}"]


def _cmd_witt_invariants(args) -> tuple[int, dict | list[str]]:
    field = _parse_field(args.field)
    d = parse_diag(field, args.entries)
    inv = invariants(d)
    if args.json:
        return 0, {
            "schema": 1,
            "field": str(field),
            "entries": [str(e) for e in d.entries],
            **_invariants_json(inv),
        }
    return 0, _invariant_lines(inv)


def _cmd_witt_is_zero(args) -> tuple[int, dict | list[str]]:
    field = _parse_field(args.field)
    d = parse_diag(field, args.entries)
    zero = is_witt_zero(d)
    if args.json:
        return 0, {
            "schema": 1,
            "field": str(field),
            "entries": [str(e) for e in d.entries],
            "is_zero": zero,
        }
    return 0, ["zero (hyperbolic)" if zero else f"nonzero in W({field})"]


def _cmd_koszul_verify(args) -> tuple[int, dict | list[str]]:
    # the one command that reads koszul, so no other run pays its import
    from .koszul import (
        dual_differential_sign,
        generic_duality,
        resolve_dual_signs,
        symmetry_sign,
        verify_chain_map,
        verify_symmetry,
    )

    n = args.n
    if n < 1:
        raise AlgebraError("--n must be at least 1")
    diffs, wedge, signed = generic_duality(FieldSpec.rationals(), n)
    # square i passes when its resolved sign is the frozen one
    sign = dual_differential_sign(n)
    squares = [s == sign for s in resolve_dual_signs(diffs, signed)]
    chain_ok = all(squares)
    sym_ok = verify_symmetry(signed)
    unsigned_ok = verify_chain_map(diffs, wedge)
    dsign = -1 if sign else 1
    ssign = symmetry_sign(n)
    status = 0 if chain_ok and sym_ok and not unsigned_ok else 1
    if args.json:
        return status, {
            "schema": 1,
            "n": n,
            "dual_differential_sign": dsign,
            "double_dual_sign": ssign,
            "squares": {str(i): ok for i, ok in enumerate(squares, 1)},
            "chain_map": chain_ok,
            "symmetry": sym_ok,
            "unsigned_family_chain_map": unsigned_ok,
        }
    return status, [
        f"n = {n}; resolved convention: dual differential = "
        f"{dsign:+d} * transpose(d_(n-i+1)); "
        f"symmetry transpose sign = {ssign:+d}",
        *(
            f"square i={i}: {'pass' if ok else 'FAIL'}"
            for i, ok in enumerate(squares, 1)
        ),
        f"symmetry: {'pass' if sym_ok else 'FAIL'}",
        "unsigned family chain map: "
        + ("unexpectedly passes" if unsigned_ok else "fails (expected)"),
    ]


def _report_row(row: UnimodularRow, args) -> tuple[int, dict | list[str]]:
    """The row and its certificate, if it has one."""
    cert = is_unimodular(row)
    if args.json:
        data = {
            "schema": 1,
            "field": str(row.ring.field),
            "row": [str(p) for p in row.entries],
            "relations": [str(r) for r in row.relations],
            "unimodular": cert is not None,
        }
        if cert is not None:
            data["certificate"] = [str(c) for c in cert]
        return 0, data
    ring = row.ring
    lines = [f"row: ({', '.join(str(p) for p in row.entries)})"]
    if row.relations:
        lines.append(f"relations: {'; '.join(str(r) for r in row.relations)}")
    lines.append(f"ring: {', '.join(ring.variables)} over {ring.field}")
    if cert is None:
        lines.append("unimodular: no")
    else:
        lines.append("unimodular: yes")
        lines.append(f"certificate: ({', '.join(str(c) for c in cert)})")
    return 0, lines


def _cmd_row_check(args) -> tuple[int, dict | list[str]]:
    return _report_row(read_row(args.file, by_name(args.order)), args)


def _cmd_row_compose(args) -> tuple[int, dict | list[str]]:
    order = by_name(args.order)
    row = read_row(args.rowfile, order)
    endo = read_endo(args.endofile, order)
    if endo.field != row.ring.field:
        raise AlgebraError("row and endomorphism use different fields")
    return _report_row(compose_with_endo(row, endo), args)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `run` call and reused by later ones;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wittdeg",
        description=(
            "Exact Witt-group degrees of endomorphisms of punctured affine "
            "space and unimodular-row obstructions"
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument(
        "--order",
        choices=("grevlex", "lex"),
        default="grevlex",
        help="monomial order for Groebner computations",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print intermediate data"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degree", help="degree of the endomorphism in a job file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser(
        "nori-check", help="degree plus factorial-divisibility verdicts"
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_nori_check)

    witt = sub.add_parser("witt", help="diagonal-form utilities")
    wsub = witt.add_subparsers(dest="witt_command", required=True)
    p = wsub.add_parser("invariants", help="rank/signature/discriminant/hasse")
    p.add_argument("entries", help='comma-separated entries, e.g. "1,1,-2"')
    p.add_argument("--field", default="Q", help="Q (default) or F<p>")
    p.set_defaults(func=_cmd_witt_invariants)
    p = wsub.add_parser("is-zero", help="decide triviality in the Witt group")
    p.add_argument("entries")
    p.add_argument("--field", default="Q", help="Q (default) or F<p>")
    p.set_defaults(func=_cmd_witt_is_zero)

    koszul = sub.add_parser("koszul", help="duality sign verification")
    ksub = koszul.add_subparsers(dest="koszul_command", required=True)
    p = ksub.add_parser("verify", help="check the sign family symbolically")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_koszul_verify)

    row = sub.add_parser("row", help="unimodular-row utilities")
    rsub = row.add_subparsers(dest="row_command", required=True)
    p = rsub.add_parser("check", help="certify unimodularity of a row file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_row_check)
    p = rsub.add_parser("compose", help="compose a row with an endomorphism")
    p.add_argument("rowfile")
    p.add_argument("endofile")
    p.set_defaults(func=_cmd_row_compose)

    return parser


def run(argv) -> int:
    """Run one command and write its output; on an error, write the one
    line ``error: NAME: message`` to stderr and exit 2 or 3 with stdout
    empty."""
    args = _parser().parse_args(argv)
    try:
        status, output = args.func(args)
        if args.json:
            write = sys.stdout.write
            _write_json(output, write)
            write("\n")
        else:
            # print, not one join: --verbose output can run to megabytes
            print(*output, sep="\n")
        return status
    except ValueError as exc:
        # CPython's limit on converting a long int to text; any other
        # ValueError is a fault of the program and keeps its traceback
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        err = DigitLimitExceeded(f"a number in the output has more than {limit} digits")
    except (AlgebraError, OSError) as exc:
        err = exc
    name = type(err).__name__ if isinstance(err, AlgebraError) else "IOError"
    print(f"error: {name}: {err}", file=sys.stderr)
    return 3 if isinstance(err, HYPOTHESIS_ERRORS) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

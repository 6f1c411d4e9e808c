"""Command-line front end.

Subcommands: degree, nori-check, witt invariants, witt is-zero,
koszul verify, row check, row compose.  Output is deterministic; --json
emits the versioned report schema.  Exit codes: 0 success, 1 a check of
koszul verify failed (in text and --json output alike), 2 parse or
validation error, or a number too long to print
(DigitLimitExceeded), 3 mathematical hypothesis failure (NotFiniteLength,
SupportNotOrigin, NotOriginPreserving, EvenN).

Job files::

    field = Q            # or F<p> with p an odd prime
    vars = x1, x2, x3
    map x1 = x1^2 - x2^2 # degree jobs: one map line per variable
    map x2 = x1*x2
    map x3 = x3

Row files use the same header plus optional ``rel = <poly>`` lines and one
``row = <poly>, <poly>, ...`` line.  ``field``, ``vars`` and ``row`` may each
appear once.  Every error in a line, including a bad field or scalar, is
reported as a JobFileError carrying ``path:line``; so is a file that is not
UTF-8 text.  ``--order`` is the monomial order each file's ring is declared
in, and with it the order of every Groebner computation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

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
from .fields import FieldSpec
from .koszul import (
    dual_differential_sign,
    generic_duality,
    resolve_dual_signs,
    symmetry_sign,
    verify_chain_map,
    verify_symmetry,
)
from .orders import GREVLEX, MonomialOrder, by_name
from .poly import Poly, Ring, parse_poly
from .umrow import (
    AlgebraPresentation,
    UnimodularRow,
    compose_with_endo,
    is_unimodular,
    obstruction_report,
)
from .witt import (
    WittInvariants,
    invariants,
    is_witt_zero,
    parse_diag,
    witt_class_display,
)

HYPOTHESIS_ERRORS = (NotFiniteLength, SupportNotOrigin, NotOriginPreserving, EvenN)


@dataclass
class JobFile:
    """Parsed job or row file."""

    ring: Ring
    maps: dict[str, Poly]
    relations: tuple[Poly, ...]
    row: Optional[tuple[Poly, ...]]


def _parse_field(text: str) -> FieldSpec:
    text = text.strip()
    if text == "Q":
        return FieldSpec.rationals()
    if text.startswith("F"):
        try:
            return FieldSpec.prime_field(int(text[1:]))
        except ValueError:
            pass
    raise AlgebraError(f"bad field {text!r} (expected Q or F<p>)")


def parse_job_file(path: str, order: MonomialOrder = GREVLEX) -> JobFile:
    """The job or row file at path, its ring in the given monomial order."""
    field = None
    ring = None
    maps: dict[str, Poly] = {}
    relations: list[Poly] = []
    row = None
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            lineno = exc.object.count(b"\n", 0, exc.start) + 1
            raise JobFileError(f"{path}:{lineno}: not UTF-8 text") from None
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
                    dup = next((v for i, v in enumerate(names) if v in names[:i]), None)
                    if dup is not None:
                        raise JobFileError(f"duplicate variable {dup!r} in 'vars'")
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
    return JobFile(ring=ring, maps=maps, relations=tuple(relations), row=row)


def _endo_from_job(job: JobFile, path: str) -> Endo:
    missing = [v for v in job.ring.variables if v not in job.maps]
    if missing:
        raise JobFileError(f"{path}: missing map for {', '.join(missing)}")
    images = tuple(job.maps[v] for v in job.ring.variables)
    return Endo(ring=job.ring, images=images)


def _row_from_job(job: JobFile, path: str) -> UnimodularRow:
    if job.row is None:
        raise JobFileError(f"{path}: missing 'row' line")
    alg = AlgebraPresentation(ring=job.ring, relations=job.relations)
    return UnimodularRow(algebra=alg, entries=job.row)


# -- output helpers ---------------------------------------------------------


def _print_json(data: dict) -> None:
    """Write the bytes of print(json.dumps(data, indent=2)) to the current
    sys.stdout, streamed a line or a list of strings at a time."""
    write = sys.stdout.write
    _write_json(data, write)
    write("\n")


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(value, write, level: int = 0) -> None:
    """Pass json.dumps(value, indent=2) to write in pieces.  Dicts and mixed
    lists go item by item; a list of strings (a Gram row) is one piece, quoted
    by one join when no entry needs escaping.  Dict keys must be strings."""
    if isinstance(value, str):
        write(_encode_str(value))
        return
    if not value or not isinstance(value, (dict, list)):
        write(json.dumps(value))
        return
    pad = "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        sep = "{" + pad
        for key, item in value.items():
            write(sep + _encode_str(key) + ": ")
            _write_json(item, write, level + 1)
            sep = "," + pad
        write(pad[:-2] + "}")
        return
    try:
        flat = "".join(value)
    except TypeError:
        sep = "[" + pad
        for item in value:
            write(sep)
            _write_json(item, write, level + 1)
            sep = "," + pad
    else:
        if len(_encode_str(flat)) == len(flat) + 2:
            body = '"' + ('",' + pad + '"').join(value) + '"'
        else:
            body = ("," + pad).join(map(_encode_str, value))
        write("[" + pad + body)
    write(pad[:-2] + "]")


def _degree_summary(report: DegreeReport) -> str:
    cls = witt_class_display(report.diag)
    status = "zero" if report.is_zero else "nonzero"
    return (
        f"length {report.length}; degree = {cls}; {status} in W({report.field})"
    )


def _print_degree_verbose(report: DegreeReport) -> None:
    print(f"standard monomials: {', '.join(report.labels)}")
    print("gram matrix:")
    for row in report.gram.dense(str):
        print("  [" + ", ".join(row) + "]")
    print(f"diagonal form: {report.diag}")
    _print_invariants(report.invariants)


def _print_invariants(inv: WittInvariants) -> None:
    """The rank/signature/discriminant line and, if any, the hasse line."""
    sig = "" if inv.signature is None else f"; signature {inv.signature}"
    print(f"rank {inv.rank}{sig}; signed discriminant {inv.signed_discriminant}")
    if inv.hasse:
        print("hasse: " + ", ".join(f"{v} {s:+d}" for v, s in inv.hasse.items()))


def _nori_lines(report: DegreeReport) -> list[str]:
    n = report.n
    nm1 = math.factorial(max(n - 1, 1))
    nf = math.factorial(n)
    return [
        f"(n-1)! = {nm1} divides length: "
        + ("yes" if report.divisible_by_nminus1_factorial else "no"),
        f"n! = {nf} divides length: "
        + ("yes" if report.divisible_by_n_factorial else "no"),
    ]


# -- subcommands -------------------------------------------------------------


def _cmd_degree(args) -> int:
    job = parse_job_file(args.file, by_name(args.order))
    endo = _endo_from_job(job, args.file)
    report = degree_of(endo)
    if args.json:
        _print_json(report.to_json_dict())
    else:
        print(_degree_summary(report))
        if args.verbose:
            _print_degree_verbose(report)
    return 0


def _cmd_nori_check(args) -> int:
    job = parse_job_file(args.file, by_name(args.order))
    endo = _endo_from_job(job, args.file)
    report, verdict = obstruction_report(endo)
    if args.json:
        data = report.to_json_dict()
        data["verdict"] = verdict
        _print_json(data)
    else:
        print(_degree_summary(report))
        for line in _nori_lines(report):
            print(line)
        print(f"verdict: {verdict}")
    return 0


def _cmd_witt_invariants(args) -> int:
    field = _parse_field(args.field)
    d = parse_diag(field, args.entries)
    inv = invariants(d)
    if args.json:
        _print_json(
            {
                "schema": 1,
                "field": str(field),
                "entries": [str(e) for e in d.entries],
                "rank": inv.rank,
                "signature": inv.signature,
                "signed_discriminant": str(inv.signed_discriminant),
                "hasse": dict(inv.hasse),
            }
        )
    else:
        _print_invariants(inv)
    return 0


def _cmd_witt_is_zero(args) -> int:
    field = _parse_field(args.field)
    d = parse_diag(field, args.entries)
    zero = is_witt_zero(d)
    if args.json:
        _print_json(
            {
                "schema": 1,
                "field": str(field),
                "entries": [str(e) for e in d.entries],
                "is_zero": zero,
            }
        )
    else:
        print("zero (hyperbolic)" if zero else f"nonzero in W({field})")
    return 0


def _cmd_koszul_verify(args) -> int:
    n = args.n
    if n < 1:
        raise AlgebraError("--n must be at least 1")
    dd = generic_duality(FieldSpec.rationals(), n)
    # square i passes when its resolved sign is the frozen one
    squares = [
        s == dual_differential_sign(i, n)
        for i, s in enumerate(resolve_dual_signs(dd), 1)
    ]
    chain_ok = all(squares)
    sym_ok = verify_symmetry(dd)
    unsigned_ok = verify_chain_map(dd, dd.wedge_maps)
    dsign = -1 if dual_differential_sign(1, n) else 1
    ssign = symmetry_sign(n)
    status = 0 if chain_ok and sym_ok and not unsigned_ok else 1
    if args.json:
        _print_json(
            {
                "schema": 1,
                "n": n,
                "dual_differential_sign": dsign,
                "double_dual_sign": ssign,
                "squares": {str(i): ok for i, ok in enumerate(squares, 1)},
                "chain_map": chain_ok,
                "symmetry": sym_ok,
                "unsigned_family_chain_map": unsigned_ok,
            }
        )
        return status
    print(
        f"n = {n}; resolved convention: dual differential = "
        f"{dsign:+d} * transpose(d_(n-i+1)); "
        f"symmetry transpose sign = {ssign:+d}"
    )
    for i, ok in enumerate(squares, 1):
        print(f"square i={i}: {'pass' if ok else 'FAIL'}")
    print(f"symmetry: {'pass' if sym_ok else 'FAIL'}")
    print(
        "unsigned family chain map: "
        + ("unexpectedly passes" if unsigned_ok else "fails (expected)")
    )
    return status


def _describe_row(row: UnimodularRow) -> list[str]:
    ring = row.algebra.ring
    lines = [f"row: ({', '.join(str(p) for p in row.entries)})"]
    if row.algebra.relations:
        rels = "; ".join(str(r) for r in row.algebra.relations)
        lines.append(f"relations: {rels}")
    lines.append(f"ring: {', '.join(ring.variables)} over {ring.field}")
    return lines


def _report_row(row: UnimodularRow, args) -> int:
    """Print the row and its certificate, every line formatted before the
    first is printed: an error while formatting leaves stdout empty."""
    cert = is_unimodular(row)
    if args.json:
        data = {
            "schema": 1,
            "field": str(row.algebra.ring.field),
            "row": [str(p) for p in row.entries],
            "relations": [str(r) for r in row.algebra.relations],
            "unimodular": cert is not None,
        }
        if cert is not None:
            data["certificate"] = [str(c) for c in cert]
        _print_json(data)
        return 0
    lines = _describe_row(row)
    if cert is None:
        lines.append("unimodular: no")
    else:
        lines.append("unimodular: yes")
        lines.append(f"certificate: ({', '.join(str(c) for c in cert)})")
    print("\n".join(lines))
    return 0


def _cmd_row_check(args) -> int:
    job = parse_job_file(args.file, by_name(args.order))
    row = _row_from_job(job, args.file)
    return _report_row(row, args)


def _cmd_row_compose(args) -> int:
    order = by_name(args.order)
    rowjob = parse_job_file(args.rowfile, order)
    row = _row_from_job(rowjob, args.rowfile)
    endojob = parse_job_file(args.endofile, order)
    endo = _endo_from_job(endojob, args.endofile)
    if endo.field != row.algebra.ring.field:
        raise AlgebraError("row and endomorphism use different fields")
    composed = compose_with_endo(row, endo)
    return _report_row(composed, args)


def build_parser() -> argparse.ArgumentParser:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `run` call and reused by later ones;
    parsing leaves it unchanged."""
    return build_parser()


def run(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except HYPOTHESIS_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # CPython's limit on converting a long int to text; any other
        # ValueError is a fault of the program and keeps its traceback
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        exc = DigitLimitExceeded(f"a number in the output has more than {limit} digits")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, OSError) as exc:
        name = type(exc).__name__ if isinstance(exc, AlgebraError) else "IOError"
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

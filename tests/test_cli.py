import contextlib
import hashlib
import io
import itertools
import json
import math
import pathlib
import random
import re
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from wittdeg import cli, koszul
from wittdeg.cli import run
from wittdeg.fields import FieldSpec
from wittdeg.witt import GramForm, WittInvariants

from conftest import canonical_gram, dense

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_degree_counterexample(capsys):
    code, out, err = run_cli(capsys, "degree", "docs/jobs/counterexample.job")
    assert code == 0
    assert out == "length 4; degree = <1,1>; nonzero in W(Q)\n"


def test_degree_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "degree", "docs/jobs/counterexample.job"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["field"] == "Q"
    assert data["n"] == 3
    assert data["length"] == 4
    assert data["rank"] == 4
    assert data["signature"] == 2
    assert data["signed_discriminant"] == "-1"
    assert data["is_zero"] is False
    assert data["nori_nminus1_factorial"] is True
    assert data["nori_n_factorial"] is False
    assert data["gram"][0] == ["0", "0", "0", "1"]


def test_degree_deterministic(capsys):
    _, first, _ = run_cli(capsys, "degree", "docs/jobs/counterexample.job")
    _, second, _ = run_cli(capsys, "degree", "docs/jobs/counterexample.job")
    assert first == second


def test_degree_lex_order(capsys):
    code, out, _ = run_cli(
        capsys, "--order", "lex", "degree", "docs/jobs/counterexample.job"
    )
    assert code == 0
    assert "length 4" in out and "nonzero in W(Q)" in out


def test_degree_exit_3_not_finite(capsys):
    code, out, err = run_cli(capsys, "degree", "docs/jobs/not-finite.job")
    assert code == 3
    assert out == ""
    assert "NotFiniteLength" in err


def test_degree_exit_3_support(capsys):
    code, _, err = run_cli(capsys, "degree", "docs/jobs/support-not-origin.job")
    assert code == 3
    assert "SupportNotOrigin" in err


def test_degree_exit_3_origin(tmp_path, capsys):
    job = tmp_path / "shift.job"
    job.write_text("field = Q\nvars = x1\nmap x1 = x1 + 1\n")
    code, _, err = run_cli(capsys, "degree", str(job))
    assert code == 3
    assert "NotOriginPreserving" in err


def test_degree_exit_2_missing_file(capsys):
    code, _, err = run_cli(capsys, "degree", "docs/jobs/missing.job")
    assert code == 2


def test_degree_exit_2_bad_poly(tmp_path, capsys):
    job = tmp_path / "bad.job"
    job.write_text("field = Q\nvars = x1\nmap x1 = x1 + z9\n")
    code, _, err = run_cli(capsys, "degree", str(job))
    assert code == 2
    assert "bad.job:3" in err


def test_degree_exit_2_exponent_bound(tmp_path, capsys):
    job = tmp_path / "big.job"
    job.write_text("field = Q\nvars = x1, x2\nmap x1 = x1^32768\nmap x2 = x2\n")
    code, out, err = run_cli(capsys, "degree", str(job))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: JobFileError: {job}:3: exponent 32768 of x1 is above 32767"
        " (at position 0)\n"
    )


def test_degree_exit_2_missing_map(tmp_path, capsys):
    job = tmp_path / "partial.job"
    job.write_text("field = Q\nvars = x1, x2\nmap x1 = x1\n")
    code, _, err = run_cli(capsys, "degree", str(job))
    assert code == 2
    assert "missing map" in err


def test_degree_exit_2_empty_variable_name(tmp_path, capsys):
    job = tmp_path / "empty.job"
    job.write_text("field = Q\nvars = x,\nmap x = x^2\n")
    code, out, err = run_cli(capsys, "degree", str(job))
    assert code == 2
    assert out == ""
    assert "empty.job:2" in err and "empty variable name" in err
    assert "Traceback" not in err


def test_degree_exit_2_duplicate_variable_name(tmp_path, capsys):
    job = tmp_path / "dup.job"
    job.write_text("field = Q\nvars = x, y, x\nmap x = x^2\nmap y = y\n")
    code, out, err = run_cli(capsys, "degree", str(job))
    assert code == 2
    assert out == ""
    assert "JobFileError" in err and "dup.job:2" in err
    assert "duplicate variable 'x'" in err


@pytest.mark.parametrize(
    "text, line, message",
    [
        # neither may win silently: a later field would not be the one the
        # maps were parsed over, and a later ring would not hold them
        ("field = Q\nvars = x\nmap x = x^2\nfield = F7\n", 4, "duplicate 'field' line"),
        ("field = Q\nvars = x\nmap x = x^2\nvars = x, y\n", 4, "duplicate 'vars' line"),
        # field and scalar errors are located like every other line error
        ("field = F2\nvars = x\nmap x = x^2\n", 1, "characteristic 2"),
        ("field = F9\nvars = x\nmap x = x^2\n", 1, "modulus 9 is not prime"),
        # is_prime is proven only below the bound, itself a pseudoprime
        (
            "field = F318665857834031151167461\nvars = x\nmap x = x^2\n",
            1,
            "modulus 318665857834031151167461 is not below 318665857834031151167461",
        ),
        ("field = F7\nvars = x\nmap x = 1/7*x^2\n", 3, "denominator divisible by 7"),
        # a GREVLEX ring bounds the total degree of a term where it is parsed
        (
            "field = Q\nvars = x, y\nmap x = x^20000*y^20000\nmap y = y\n",
            3,
            "a total degree above 32767 in 2 variables under grevlex",
        ),
        # each header check of the parser, in the line that breaks it
        ("field = Q\nvars x\n", 2, "expected 'key = value'"),
        ("vars = x\nfield = Q\n", 1, "'field' must precede 'vars'"),
        ("field = Q\nmap x = x\n", 2, "'vars' must precede 'map'"),
        ("field = Q\nrel = x\n", 2, "'vars' must precede 'rel'"),
        ("field = Q\nrow = x\n", 2, "'vars' must precede 'row'"),
        ("field = Q\nvars = x\nmap y = y\n", 3, "map for undeclared variable 'y'"),
        ("field = Q\nvars = x\nmap x = x\nmap x = x^2\n", 4, "duplicate map for 'x'"),
        ("field = Q\nvars = x\nrow = x\nrow = x\n", 4, "duplicate 'row' line"),
        ("field = Q\nvars = x\nfoo = x\n", 3, "unknown key 'foo'"),
        ("field = Fx\nvars = x\n", 1, "bad field 'Fx' (expected Q or F<p>)"),
        # F and ASCII digits without a leading zero, nothing else: int()
        # would read each of these as a number
        ("field = F7_1\nvars = x\n", 1, "bad field 'F7_1' (expected Q or F<p>)"),
        ("field = F+7\nvars = x\n", 1, "bad field 'F+7' (expected Q or F<p>)"),
        ("field = F 7\nvars = x\n", 1, "bad field 'F 7' (expected Q or F<p>)"),
        ("field = F07\nvars = x\n", 1, "bad field 'F07' (expected Q or F<p>)"),
        (
            "field = F\u0661\u0663\nvars = x\n",
            1,
            "bad field 'F\u0661\u0663' (expected Q or F<p>)",
        ),
        (
            "field = Q\nvars = x\nmap x = x^\u0661\u0663 + \u0663*x^\u0662\n",
            3,
            "unexpected character '\u0661' (at position 2)",
        ),
    ],
    ids=[
        "field-twice",
        "vars-twice",
        "F2",
        "F9",
        "F-proven-bound",
        "1/7-over-F7",
        "total-degree",
        "no-equals",
        "vars-before-field",
        "map-before-vars",
        "rel-before-vars",
        "row-before-vars",
        "undeclared-map",
        "map-twice",
        "row-twice",
        "unknown-key",
        "Fx",
        "F7_1",
        "F+7",
        "F-space-7",
        "F07",
        "F-arabic-indic-13",
        "arabic-indic-exponent",
    ],
)
def test_degree_exit_2_line_error_carries_location(
    tmp_path, capsys, text, line, message
):
    job = tmp_path / "bad.job"
    job.write_text(text)
    code, out, err = run_cli(capsys, "degree", str(job))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: JobFileError: {job}:{line}: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["degree"], "field = Q\n", "missing 'field' or 'vars'"),
        (["row", "check"], "field = Q\nvars = x\n", "missing 'row' line"),
    ],
    ids=["no-vars", "no-row"],
)
def test_exit_2_whole_file_error_carries_path(
    tmp_path, capsys, argv, text, message
):
    job = tmp_path / "short.job"
    job.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(job))
    assert code == 2
    assert out == ""
    assert err == f"error: JobFileError: {job}: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["row", "compose", "{dir}/taut3-f7.row", "docs/jobs/counterexample.job"],
            "AlgebraError: row and endomorphism use different fields",
        ),
        (["koszul", "verify", "--n", "0"], "AlgebraError: --n must be at least 1"),
        (
            ["witt", "invariants", "--field", "Fx", "1"],
            "AlgebraError: bad field 'Fx' (expected Q or F<p>)",
        ),
        (
            ["witt", "invariants", "--field", "F7_1", "1"],
            "AlgebraError: bad field 'F7_1' (expected Q or F<p>)",
        ),
        (
            ["witt", "is-zero", "--field", "F+7", "1"],
            "AlgebraError: bad field 'F+7' (expected Q or F<p>)",
        ),
        (
            ["witt", "invariants", "--field", "F 7", "1"],
            "AlgebraError: bad field 'F 7' (expected Q or F<p>)",
        ),
        (
            ["witt", "is-zero", "--field", "F07", "1"],
            "AlgebraError: bad field 'F07' (expected Q or F<p>)",
        ),
        (
            ["witt", "invariants", "--field", "F\u0661\u0663", "1"],
            "AlgebraError: bad field 'F\u0661\u0663' (expected Q or F<p>)",
        ),
        (
            ["witt", "invariants", "1,399165290221", "--field", "F318665857834031151167461"],
            "AlgebraError: modulus 318665857834031151167461 is not below 318665857834031151167461, "
            "the bound of proven primality",
        ),
        (
            ["witt", "invariants", "1,\u0661"],
            "ParseError: bad scalar '\u0661' (at position 0)",
        ),
        (
            ["witt", "invariants", "1," + "3" * 5000],
            "ParseError: number of 5000 digits (at position 0)",
        ),
        (["witt", "invariants", "1/0"], "ParseError: zero denominator (at position 0)"),
    ],
    ids=[
        "compose-F7-row-with-Q-map",
        "koszul-n-0",
        "witt-field-Fx",
        "witt-field-F7_1",
        "witt-field-F+7",
        "witt-field-F-space-7",
        "witt-field-F07",
        "witt-field-arabic-indic-13",
        "witt-field-proven-bound",
        "witt-arabic-indic-entry",
        "witt-entry-past-digit-limit",
        "witt-zero-denominator",
    ],
)
def test_exit_2_argument_errors(tmp_path, capsys, argv, message):
    taut = (REPO_ROOT / "docs/jobs/taut3.row").read_text()
    (tmp_path / "taut3-f7.row").write_text(taut.replace("field = Q", "field = F7"))
    argv = [a.format(dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["degree"], b"field = Q\nvars = x\nmap x = x\xff^2\n"),
        (["row", "check"], b"field = Q\nvars = x, y\nrow = x, \xffy\n"),
    ],
    ids=["degree", "row-check"],
)
def test_exit_2_job_file_not_utf8(tmp_path, capsys, argv, text):
    job = tmp_path / "latin1.job"
    job.write_bytes(text)
    code, out, err = run_cli(capsys, *argv, str(job))
    assert code == 2
    assert out == ""
    assert err == f"error: JobFileError: {job}:3: not UTF-8 text\n"


def test_order_option_reaches_the_ring(capsys):
    # every documented job that has a degree has the same invariants under
    # both orders; the quotient bases, and with them the Gram matrices,
    # differ for some, so the option is not dropped on the way.  A Hasse
    # map lists the places of its diagonal's primes, which depend on the
    # basis: places missing from one map have the symbol +1 there, as in
    # the comparison of conftest.equivalent
    jobs = sorted(p.relative_to(REPO_ROOT) for p in REPO_ROOT.glob("docs/jobs/*.job"))
    keys = ("length", "rank", "signature", "signed_discriminant")
    compared = grams_differ = 0
    for job in map(str, jobs):
        code, out, _ = run_cli(capsys, "--json", "degree", job)
        if code != 0:
            continue
        code, lex_out, _ = run_cli(capsys, "--order", "lex", "--json", "degree", job)
        assert code == 0, job
        default, lex = json.loads(out), json.loads(lex_out)
        assert {k: default[k] for k in keys} == {k: lex[k] for k in keys}, job
        places = set(default["hasse"]) | set(lex["hasse"])
        for v in places:
            assert default["hasse"].get(v, 1) == lex["hasse"].get(v, 1), (job, v)
        compared += 1
        grams_differ += default["gram"] != lex["gram"]
    assert compared >= 7 and grams_differ >= 3


def test_nori_check_counterexample(capsys):
    code, out, _ = run_cli(capsys, "nori-check", "docs/jobs/counterexample.job")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "length 4; degree = <1,1>; nonzero in W(Q)"
    assert lines[1] == "(n-1)! = 2 divides length: yes"
    assert lines[2] == "n! = 6 divides length: no"
    assert lines[3].startswith("verdict: obstruction <1,1> != 0 in W(Q)")


def test_nori_check_even_arity(tmp_path, capsys):
    job = tmp_path / "even.job"
    job.write_text("field = Q\nvars = x1, x2\nmap x1 = x1\nmap x2 = x2\n")
    code, _, err = run_cli(capsys, "nori-check", str(job))
    assert code == 3
    assert "EvenN" in err


def test_witt_invariants(capsys):
    code, out, _ = run_cli(capsys, "witt", "invariants", "1,1,-2")
    assert code == 0
    assert out.splitlines()[0] == "rank 3; signature 1; signed discriminant 2"


def test_witt_invariants_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "witt", "invariants", "2,-2")
    data = json.loads(out)
    assert data["rank"] == 2
    assert data["signature"] == 0
    assert data["signed_discriminant"] == "1"


def test_witt_is_zero(capsys):
    code, out, _ = run_cli(capsys, "witt", "is-zero", "1,-1")
    assert code == 0
    assert out == "zero (hyperbolic)\n"
    code, out, _ = run_cli(capsys, "witt", "is-zero", "1,1")
    assert out == "nonzero in W(Q)\n"
    code, out, _ = run_cli(capsys, "witt", "is-zero", "1,1", "--field", "F5")
    assert out == "zero (hyperbolic)\n"


def test_witt_bad_entries(capsys):
    code, _, err = run_cli(capsys, "witt", "is-zero", "1,q")
    assert code == 2


def test_koszul_verify(capsys):
    for n in (1, 2, 3, 4):
        code, out, _ = run_cli(capsys, "koszul", "verify", "--n", str(n))
        assert code == 0
        assert f"square i={n}: pass" in out
        assert "symmetry: pass" in out
        assert "fails (expected)" in out


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_koszul_verify_failed_check_exits_1(capsys, monkeypatch, flags):
    monkeypatch.setattr(koszul, "verify_symmetry", lambda dd: False)
    code, out, _ = run_cli(capsys, *flags, "koszul", "verify", "--n", "2")
    assert code == 1
    if flags:
        assert json.loads(out)["symmetry"] is False
    else:
        assert "symmetry: FAIL" in out


def test_row_check(capsys):
    code, out, _ = run_cli(capsys, "row", "check", "docs/jobs/taut3.row")
    assert code == 0
    assert "unimodular: yes" in out
    assert "certificate: (y1, y2, y3)" in out


def test_row_check_json(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "row", "check", "docs/jobs/taut3.row"
    )
    data = json.loads(out)
    assert data["unimodular"] is True
    assert data["certificate"] == ["y1", "y2", "y3"]


def test_row_check_not_unimodular(tmp_path, capsys):
    row = tmp_path / "proper.row"
    row.write_text("field = Q\nvars = x1, x2\nrow = x1, x2\n")
    code, out, _ = run_cli(capsys, "row", "check", str(row))
    assert code == 0
    assert "unimodular: no" in out


def test_row_compose(capsys):
    code, out, _ = run_cli(
        capsys,
        "row",
        "compose",
        "docs/jobs/taut3.row",
        "docs/jobs/counterexample.job",
    )
    assert code == 0
    assert "row: (x1^2 - x2^2, x1*x2, x3)" in out
    assert "unimodular: yes" in out


def test_row_compose_arity_mismatch(tmp_path, capsys):
    endo = tmp_path / "two.job"
    endo.write_text("field = Q\nvars = x1, x2\nmap x1 = x1\nmap x2 = x2\n")
    code, _, err = run_cli(
        capsys, "row", "compose", "docs/jobs/taut3.row", str(endo)
    )
    assert code == 2
    assert "ArityMismatch" in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_row_compose_number_past_digit_limit(tmp_path, capsys, flags):
    # c has 1,500 digits, and the certificate's numbers pass 4,300; every
    # line is formatted before the first is printed, so the row line is not
    # printed either
    c = "7" * 1500
    endo = tmp_path / "wide.job"
    endo.write_text(
        "field = Q\nvars = x1, x2, x3\n"
        f"map x1 = {c}*x1\nmap x2 = {c}*x2 + x1^2\nmap x3 = {c}*x3 + x2^2\n"
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        code, out, err = run_cli(
            capsys, *flags, "row", "compose", "docs/jobs/taut3.row", str(endo)
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert err == (
        "error: DigitLimitExceeded: a number in the output has more than"
        " 4300 digits\n"
    )
    assert out == ""


def test_other_value_errors_keep_their_traceback(monkeypatch):
    """Only CPython's digit limit becomes exit 2; any other ValueError is a
    fault of the program and is raised."""

    def boom(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "_cmd_witt_invariants", boom)
    cli._parser.cache_clear()  # the parser holds the command it was built with
    try:
        with pytest.raises(ValueError, match="^boom$"):
            run(["witt", "invariants", "1"])
    finally:
        cli._parser.cache_clear()


def test_reused_parser_matches_fresh_calls(capsys):
    job = "docs/jobs/counterexample.job"
    calls = (
        ["degree"],  # usage error: the job file is missing
        ["degree", job],
        ["--json", "row", "compose", "docs/jobs/taut3.row", job],
        ["witt", "invariants", "1,1,-2"],
    )

    def call(argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = f"SystemExit {exc.code}"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert fresh[0][0] == "SystemExit 2"
    assert "usage: wittdeg degree" in fresh[0][2]
    assert [code for code, _, _ in fresh[1:]] == [0, 0, 0]
    cli._parser.cache_clear()
    assert [call(argv) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1


@st.composite
def _sparse_forms(draw):
    """A GramForm of size 0 to 12 over Q (Fractions, negative values) or
    F_10007, with few nonzeros."""
    field = draw(st.sampled_from((FieldSpec.rationals(), FieldSpec.prime_field(10007))))
    d = draw(st.integers(0, 12))
    if field.is_rationals:
        scalars = st.fractions(-(10**6), 10**6, max_denominator=60)
    else:
        scalars = st.integers(0, field.modulus - 1)
    m = [[0] * d for _ in range(d)]
    if d:
        cells = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), scalars)
        for i, j, x in draw(st.lists(cells, max_size=2 * d)):
            m[i][j] = m[j][i] = x
    return canonical_gram(field, m)


@settings(max_examples=80, deadline=None)
@given(_sparse_forms())
def test_gram_rendered_from_sparse_rows(g):
    """A Gram form is written as json.dumps writes its dense matrix of entry
    strings at a report's nesting, and --verbose prints each row of it as
    "  [" + ", ".join(row) + "]".  A later string holding a quote and the
    text "gram": null leaves the split around the Gram where it is."""
    rows = dense(g, str)
    pieces = []
    note = 'a "quote" and "gram": null'
    cli._write_json(
        {"schema": 1, "gram": g, "rank": len(rows), "note": note}, pieces.append
    )
    expected = {"schema": 1, "gram": rows, "rank": len(rows), "note": note}
    assert "".join(pieces) == json.dumps(expected, indent=2)
    inv = WittInvariants(g.field, len(rows), None, 1, {})
    quotient = SimpleNamespace(ring=None, keys=())
    report = SimpleNamespace(quotient=quotient, gram=g, diag="<>", invariants=inv)
    lines = cli._degree_verbose_lines(report)
    start = lines.index("gram matrix:") + 1
    assert lines[start : start + len(rows)] == [
        "  [" + ", ".join(row) + "]" for row in rows
    ]
    assert lines[start + len(rows)] == "diagonal form: <>"


def test_gram_text_cell_is_str_of_fraction():
    """Each cell of _GramText is str(Fraction(v, den)) of its int entry v
    over the form's den: negative entries, entries past 2^64, and dens that
    share factors with some entries but not with all."""
    rng = random.Random(4180)
    cells = fractional = 0
    for _ in range(300):
        den = rng.choice((1, 2, 12, 10**9 + 7, rng.randint(1, 2**70)))
        values = []
        for _ in range(rng.randint(0, 6)):
            g = math.gcd(den, rng.randint(1, 2**72))
            v = g * rng.choice((rng.randint(1, 10**3), rng.randint(1, 2**80)))
            values.append(rng.choice((1, -1)) * v)
        values.append(rng.choice((1, -1)) * rng.randint(1, 2**66) * den + 1)
        rows = tuple({i: v} for i, v in enumerate(values))
        text = cli._GramText(GramForm(field=FieldSpec.rationals(), rows=rows, den=den))
        for i, (v, row) in enumerate(zip(values, text.cells)):
            assert row == [(i, str(Fraction(v, den)))]
            cells += 1
            fractional += "/" in row[0][1]
    assert cells >= 1000 and fractional >= 300, (cells, fractional)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
@pytest.mark.parametrize("flag", ["--json", "--verbose"])
def test_degree_json_gram_entry_past_digit_limit(tmp_path, capsys, flag):
    # c has 4,215 digits and the Gram entry 1/c^2 twice as many; the entry is
    # made text before the first piece or line is written, so stdout stays
    # empty
    c = 2**14000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        job = tmp_path / "wide.job"
        job.write_text(f"field = Q\nvars = x, y\nmap x = {c}*x\nmap y = {c}*y\n")
        code, out, err = run_cli(capsys, flag, "degree", str(job))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert err == (
        "error: DigitLimitExceeded: a number in the output has more than"
        " 4300 digits\n"
    )
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["degree", "docs/jobs/counterexample.job"],
        ["nori-check", "docs/jobs/counterexample.job"],
        ["witt", "invariants", "3,5,7"],
        ["witt", "is-zero", "1,1", "--field", "F5"],
        ["koszul", "verify", "--n", "3"],
        ["row", "check", "docs/jobs/taut3.row"],
        ["row", "compose", "docs/jobs/taut3.row", "docs/jobs/counterexample.job"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_json_output_is_stdlib_indent2(capsys, argv):
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# JSON text that tests an encoder: non-ASCII, control characters, quotes,
# backslashes and lone surrogates
_JSON_STRINGS = st.one_of(
    st.text(max_size=8),
    st.text(
        st.sampled_from(
            ("a", '"', "\\", "/", "\x00", "\x1f", "\x7f", "\n")
            + ("\u00e9", "\u2028", "\ud800", "\U0001f600")
        ),
        max_size=6,
    ),
)
_SMALL_INTS = st.integers(-(2**70), 2**70)
# small ints, and one draw in three an int of 4,291 to 4,300 digits, the
# most CPython converts
_JSON_INTS = st.one_of(
    _SMALL_INTS,
    _SMALL_INTS,
    st.sampled_from((10**4299, -(10**4300 - 1), 7 * 10**4290 + 3)),
)
_JSON_KEYS = st.one_of(_JSON_STRINGS, st.integers(-99, 10**6).map(str))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _JSON_INTS, _JSON_STRINGS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_JSON_KEYS, inner, max_size=4)
    ),
    max_leaves=12,
)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_JSON_KEYS, _JSON_VALUES, max_size=5))
def test_json_writer_is_json_dumps_indent2(doc):
    """The schema-1 writer prints a document as json.dumps(indent=2) does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        pieces = []
        cli._write_json(doc, pieces.append)
        assert "".join(pieces) == json.dumps(doc, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
def test_json_writer_raises_the_digit_limit_error():
    """An int of 4,301 digits raises the ValueError of json.dumps, which
    `run` maps to exit 2, and nothing is written."""
    doc = {"schema": 1, "rows": [["1", -(10**4300)]]}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        with pytest.raises(ValueError) as expected:
            json.dumps(doc, indent=2)
        pieces = []
        with pytest.raises(ValueError) as raised:
            cli._write_json(doc, pieces.append)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(raised.value) == str(expected.value)
    assert "integer string conversion" in str(raised.value)
    assert pieces == []

@st.composite
def _valid_jobs(draw):
    """The text of a job file that parses: a map in 1 to 3 variables over
    Q, F5 or F7, each image a sum of terms with exponents at most 3 and
    small coefficients, some of them p/q, and now and then a constant term."""
    n = draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(1, n + 1)]
    scalars = st.one_of(
        st.integers(1, 4).map(str),
        st.builds("{}/{}".format, st.integers(1, 4), st.integers(2, 4)),
    )
    exponents = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    term = st.tuples(st.sampled_from("+-"), scalars, exponents)
    terms = st.lists(term, min_size=1, max_size=3)
    field = draw(st.sampled_from(("Q", "F5", "F7")))
    # the variable whose image has a constant term, mostly none
    constant = draw(st.sampled_from((None,) * 6 + tuple(names)))
    lines = [f"field = {field}", f"vars = {', '.join(names)}"]
    for name in names:
        text = ""
        for sign, c, exps in draw(terms):
            factors = (v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)
            text += f" {sign} " + "*".join([c, *factors])
        if name == constant:
            text += f" + {draw(scalars)}"
        lines.append(f"map {name} ={text.removeprefix(' +')}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_valid_jobs())
def test_exit_codes_on_random_valid_maps(text):
    """Each command on a valid job file exits 0, 2 or 3 and raises nothing:
    on a nonzero exit stdout is empty and stderr one error line, and a
    --json document has one Gram row per element of the quotient basis."""
    with tempfile.TemporaryDirectory() as tmp:
        job = pathlib.Path(tmp, "random.job")
        job.write_text(text)
        commands = (["--json", "degree"], ["nori-check"], ["--order", "lex", "degree"])
        for flags in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([*flags, str(job)])
            assert code in (0, 2, 3), (flags, text)
            if code:
                assert out.getvalue() == ""
                assert re.fullmatch(r"error: \w+: [^\n]*\n", err.getvalue())
            elif flags[0] == "--json":
                doc = json.loads(out.getvalue())
                assert doc["length"] == len(doc["gram"])


def _as_streamed(job):
    """The job's argv, as the stream gives it and again with --order lex."""
    return [job.argv, ("--order", "lex", *job.argv)]


def _as_text(job):
    """The job's map through the text paths and the nori-check document."""
    commands = (
        ("degree",), ("--verbose", "degree"), ("nori-check",), ("--json", "nori-check")
    )
    return [(*c, "{job}") for c in commands]


# The SHA-256 of every exit code, stdout and stderr that `run` gives on the
# first jobs of benchmark workloads at seed 1, f"{rc}\n{stdout}\n{stderr}\n"
# per run, the runs of each job in the order the argv function lists them.
# The first pins the bytes of the paths the benchmark times, on 84 jobs of
# each workload.  The second pins the text output, the --verbose labels and
# the nori-check verdicts on 28 jobs of each degree workload: 16 vanishing
# and 12 nonzero verdicts, 26 EvenN and 2 FactorBoundExceeded exits.
# Re-pin a digest only for an intended change of output, or when a change
# to bench/workloads.py changes the streams.
STREAMS = [
    pytest.param(
        ("structured-q", "generic", "rows"),
        84,
        _as_streamed,
        "64607dc4c4345c9fc7926dc953171d65a8174bb0f13e5ca7eab89dc71b5d8cbc",
        id="bench",
    ),
    pytest.param(
        ("structured-q", "generic"),
        28,
        _as_text,
        "53ef400357cc37df17a10d2ed774f009b92ad9f0a3065ce0330f542322c1053a",
        id="text",
    ),
]


@pytest.mark.parametrize("names, count, argvs, expected", STREAMS)
def test_benchmark_streams_are_byte_identical(
    tmp_path, monkeypatch, names, count, argvs, expected
):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    import workloads

    digest = hashlib.sha256()
    for workload in names:
        for job in itertools.islice(workloads.jobs(workload, 1), count):
            paths = {}
            for key, text in job.files.items():
                path = tmp_path / f"{workload}-{job.index}-{key}"
                path.write_text(text)
                paths[key] = str(path)
            for template in argvs(job):
                argv = [arg.format(**paths) for arg in template]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(argv)
                digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    assert digest.hexdigest() == expected

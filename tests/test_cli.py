import json
import pathlib
import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wittdeg import cli
from wittdeg.cli import run

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
    ],
    ids=[
        "field-twice",
        "vars-twice",
        "F2",
        "F9",
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
    ],
    ids=["compose-F7-row-with-Q-map", "koszul-n-0", "witt-field-Fx"],
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
    # basis: places missing from one map have the symbol +1 there
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
    monkeypatch.setattr(cli, "verify_symmetry", lambda dd: False)
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


# Strings over the first alphabet take the writer's one-join path; the
# second holds a quote, a backslash, control characters and non-ASCII text.
_PLAIN = string.ascii_letters + string.digits + " -^*/"
_ESCAPED = 'a"\\\x00\n\x1f\x7f\xe9\u20ac\U0001f600'
_json_strings = st.text(_PLAIN, max_size=5) | st.text(_ESCAPED, max_size=5)
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | _json_strings | st.lists(_json_strings),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=40, deadline=None)
@given(_json_trees)
def test_write_json_matches_stdlib(value):
    pieces = []
    cli._write_json(value, pieces.append)
    assert "".join(pieces) == json.dumps(value, indent=2)


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

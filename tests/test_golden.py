"""Every documented example under docs/golden runs as a golden test.

A .cmd file holds one CLI invocation (optionally prefixed with exit=N);
the matching .out file is the expected stdout, byte for byte.  A golden
with a nonzero exit has a matching .err file, the expected stderr; every
other golden writes nothing to stderr.
"""

import contextlib
import io
import pathlib

import pytest

from wittdeg.cli import run

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "docs" / "golden"

CASES = sorted(GOLDEN_DIR.glob("*.cmd"))


@pytest.mark.parametrize("cmd_file", CASES, ids=lambda p: p.stem)
def test_golden(cmd_file, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    parts = cmd_file.read_text().split()
    expected_exit = 0
    if parts and parts[0].startswith("exit="):
        expected_exit = int(parts[0][5:])
        parts = parts[1:]
    expected_out = cmd_file.with_suffix(".out").read_text()
    err_file = cmd_file.with_suffix(".err")
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf):
        with contextlib.redirect_stderr(err):
            code = run(parts)
    assert code == expected_exit
    assert buf.getvalue() == expected_out
    assert err.getvalue() == (err_file.read_text() if expected_exit else "")


def test_golden_corpus_nonempty():
    assert len(CASES) >= 10
    for cmd_file in CASES:
        assert cmd_file.with_suffix(".out").exists()

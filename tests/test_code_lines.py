"""tools/code_lines.py: the code lines of each module of a directory, and
with --rev the same count at a committed revision, read from git."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True
    )


def test_rev_counts_each_module_at_the_revision_and_in_the_directory(tmp_path):
    def git(*args):
        config = ("user.name=t", "user.email=t@example.org", "commit.gpgsign=false")
        subprocess.run(
            ["git", *(f for c in config for f in ("-c", c)), *args],
            cwd=tmp_path,
            check=True,
            capture_output=True,
        )

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    # a docstring, a blank line and a comment are no code; a bracketed
    # expression counts each of its lines
    (pkg / "a.py").write_text('"""Doc."""\n\nx = 1  # one\ny = (\n    2\n)\n')
    (pkg / "gone.py").write_text("z = 3\n")
    (tmp_path / "top.py").write_text("outside = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (pkg / "a.py").write_text('"""Doc."""\n\nx = 1  # one\ny = (\n    2\n)\nw = 4\n')
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("# new\nu = 5\nv = 6\n")
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    (pkg / "a.py").write_text("x = 1\n")  # uncommitted: the directory counts

    plain = _tool(str(pkg))
    assert plain.returncode == 0 and plain.stderr == ""
    assert plain.stdout == "     1  a\n     2  new\n     3  total\n"

    against = _tool(str(pkg), "--rev", "HEAD^1")
    assert against.returncode == 0 and against.stderr == ""
    assert against.stdout.splitlines() == [
        "   rev    dir change  module",
        "     4      1     -3  a",
        "     1      0     -1  gone",
        "     0      2     +2  new",
        "     5      3     -2  total",
    ]
    assert _tool(str(pkg), "--rev", "HEAD").stdout.splitlines()[1:] == [
        "     5      1     -4  a",
        "     2      2     +0  new",
        "     7      3     -4  total",
    ]

    missing = _tool(str(pkg), "--rev", "HEAD~5")
    assert missing.returncode == 2 and missing.stdout == ""
    assert missing.stderr.startswith("fatal:")

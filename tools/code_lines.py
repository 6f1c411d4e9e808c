"""Count the code lines of the Python modules in a directory.

A line counts when it holds a token that is not a comment, not layout (a
newline, an indent or a dedent) and not part of a string that is a
statement on its own, as a docstring is.  A token that spans lines counts
each of them.  Prints the count of each module, then the total.

With --rev, each module of DIR is also counted as committed at the git
revision REV, read from the local repository with ``git show``; each line
then holds the count at REV, the count in DIR and the change, for each
module of either and for the total.

Usage: python tools/code_lines.py DIR [--rev REV]
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """The number of code lines in the module source."""
    # the span of every string that is a statement on its own: one string
    # token, or several that are concatenated
    statements = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    ]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(
            start <= tok.start and tok.end <= end for start, end in statements
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def committed(directory: Path, rev: str) -> dict[str, str]:
    """The source of each module of directory as committed at rev, by name."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(directory), *args],
            check=True,
            capture_output=True,
            text=True,
        ).stdout

    names = git("ls-tree", "-z", "--name-only", rev).split("\0")
    return {
        name[:-3]: git("show", f"{rev}:./{name}")
        for name in names
        if name.endswith(".py")
    }


def main(argv: list[str]) -> int:
    args = argv[1:]
    rev = None
    if len(args) == 3 and args[1] == "--rev":
        rev = args.pop()
        args.pop()
    if len(args) != 1 or not Path(args[0]).is_dir():
        print("usage: code_lines.py DIR [--rev REV]", file=sys.stderr)
        return 2
    directory = Path(args[0])
    counts = {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.py"))
    }
    if rev is None:
        for name, count in counts.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total")
        return 0
    try:
        before = {name: code_lines(s) for name, s in committed(directory, rev).items()}
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.strip(), file=sys.stderr)
        return 2
    print(f"{'rev':>6} {'dir':>6} {'change':>6}  module")
    for name in sorted(before.keys() | counts.keys()):
        old, new = before.get(name, 0), counts.get(name, 0)
        print(f"{old:6d} {new:6d} {new - old:+6d}  {name}")
    old, new = sum(before.values()), sum(counts.values())
    print(f"{old:6d} {new:6d} {new - old:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

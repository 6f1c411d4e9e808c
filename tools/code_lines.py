"""Count the code lines of the Python modules in a directory.

A line counts when it holds a token that is not a comment, not layout (a
newline, an indent or a dedent) and not part of a string that is a
statement on its own, as a docstring is.  A token that spans lines counts
each of them.  Prints the count of each module, then the total.

Usage: python tools/code_lines.py DIR
"""

import ast
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


def code_lines(path: Path) -> int:
    """The number of code lines in the module at path."""
    source = path.read_text()
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
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _LAYOUT:
                continue
            if tok.type == tokenize.STRING and any(
                start <= tok.start and tok.end <= end for start, end in statements
            ):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print("usage: code_lines.py DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[1]).glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.stem}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

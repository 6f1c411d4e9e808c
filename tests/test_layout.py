"""Static checks on the package layout, read with ``ast`` only.

The package namespace re-exports a name only if the layers share it, and no
module keeps an import it does not use.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wittdeg"


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _imported(tree) -> list:
    """(bound name, imported name, line) for every import in the module,
    ``from __future__`` aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.extend((a.asname or a.name, a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            out.extend(
                (a.asname or a.name.split(".")[0], a.name, node.lineno)
                for a in node.names
            )
    return out


def test_reexports_are_shared_between_modules():
    modules = _modules()
    shared = {
        name
        for stem, tree in modules.items()
        if stem != "__init__"
        for _, name, _ in _imported(tree)
    }
    unshared = [
        name for _, name, _ in _imported(modules["__init__"]) if name not in shared
    ]
    assert not unshared, f"re-exported but imported by no module: {unshared}"


def test_no_module_imports_an_unused_name():
    unused = []
    for stem, tree in _modules().items():
        if stem == "__init__":
            continue  # its imports are the re-exports
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused.extend(
            f"{stem}.py:{line}: {bound}"
            for bound, _, line in _imported(tree)
            if bound not in loaded
        )
    assert not unused, unused

"""Checks on the package layout, read with ``ast``, and on what importing
the CLI loads.

The package namespace binds no names, so each name is imported from the
module that defines it; no module keeps an import it does not use; every
public function, every public member of a class and every public slot
field is reached by a command, a pipeline stage or the benchmark; only
`fields` and `poly` import ``fractions``; and the CLI's start-up loads
neither a code generator nor a module that only one command or the JSON
writer reads.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wittdeg"


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


def test_package_namespace_is_its_docstring_alone():
    tree = _modules()["__init__"]
    assert ast.get_docstring(tree) and len(tree.body) == 1, (
        "wittdeg/__init__.py binds names: import each from its defining module"
    )


def test_no_module_imports_an_unused_name():
    unused = []
    for stem, tree in _modules().items():
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


def _names_used(node) -> set:
    """Every name, attribute, imported name and string constant in node."""
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.alias):
            used.add(child.name.split(".")[-1])
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            used.add(child.value)
    return used


def _console_script_targets() -> set:
    """The functions named in pyproject.toml's [project.scripts]."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r":(\w+)\"", section.group(1)))


def test_every_public_function_is_reached():
    """A public module-level function of the package is named somewhere
    other than in its own body: by another statement of the package (not an
    import, so being imported alone does not count), by the benchmark's
    scripts, or as a console-script entry point.  What only tests call
    belongs in tests."""
    reached = _console_script_targets()
    for path in (ROOT / "bench").glob("*.py"):
        reached |= _names_used(ast.parse(path.read_text()))
    defined = []
    for stem, tree in _modules().items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            reached |= _names_used(stmt) - {own}
            if own is not None and not own.startswith("_"):
                defined.append((stem, own))
    unreached = [f"{stem}.{name}" for stem, name in defined if name not in reached]
    assert not unreached, f"public functions that nothing reaches: {unreached}"


def _attributes_read(node) -> set:
    """The name of every attribute read, x.name, in node."""
    return {
        child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
    }


def _bench_attributes_read() -> set:
    """The name of every attribute the benchmark's scripts read."""
    reached = set()
    for path in (ROOT / "bench").glob("*.py"):
        reached |= _attributes_read(ast.parse(path.read_text()))
    return reached


def test_every_public_member_is_reached():
    """A public method, property or classmethod of a package class is read
    as an attribute, x.name, somewhere other than in its own body: by
    another statement of the package or by the benchmark's scripts.
    Dunders and _-names are exempt.  A member is known by its name only, so
    one that shares its name with a member read elsewhere (Ring.zero and
    FieldSpec.zero) passes.  What only tests read belongs in tests."""
    reached = _bench_attributes_read()
    defined = []
    for stem, tree in _modules().items():
        for stmt in tree.body:
            if not isinstance(stmt, ast.ClassDef):
                reached |= _attributes_read(stmt)
                continue
            for node in stmt.body:
                own = node.name if isinstance(node, ast.FunctionDef) else None
                reached |= _attributes_read(node) - {own}
                if own is not None and not own.startswith("_"):
                    defined.append((f"{stem}.{stmt.name}", own))
    unreached = [f"{cls}.{name}" for cls, name in defined if name not in reached]
    assert not unreached, f"public members that nothing reaches: {unreached}"


def _slots(cls) -> tuple:
    """The names in the class's ``__slots__`` assignment, if it has one."""
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return ()


def test_every_public_slot_is_read():
    """A public field in the ``__slots__`` of a package class is read as an
    attribute, x.name, by the package or by the benchmark's scripts; _-names
    are exempt.  As for members, a field is known by its name only.  A field
    that only tests read belongs in tests."""
    reached = _bench_attributes_read()
    defined = []
    for stem, tree in _modules().items():
        reached |= _attributes_read(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defined.extend(
                    f"{stem}.{cls.name}.{name}"
                    for name in _slots(cls)
                    if not name.startswith("_")
                )
    unread = [field for field in defined if field.rsplit(".", 1)[1] not in reached]
    assert not unread, f"public slots that nothing reads: {unread}"


def test_records_set_their_fields_in_init_alone():
    """A read-only record (``errors.Frozen``) sets each field once, in the
    one constructor of every record: the package's only
    ``object.__setattr__`` call sits in ``errors.Frozen.__init__``, so no
    record changes after its constructor has returned, and a record that
    checks its fields hands them to that constructor."""
    calls = []
    for stem, tree in _modules().items():
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for func in cls.body:
                    if isinstance(func, ast.FunctionDef):
                        owner.update(
                            (id(node), f"{stem}.{cls.name}.{func.name}")
                            for node in ast.walk(func)
                        )
        calls.extend(
            owner.get(id(node), f"{stem}.py:{node.lineno}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        )
    assert calls == ["errors.Frozen.__init__"], calls


def _imports_with_scope(tree) -> list:
    """(module, line, inside a function) for every import in the module,
    ``from __future__`` aside; a relative import's module is named without
    its dots, and ``from . import x`` names x."""
    nested = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        out.extend((name, node.lineno, id(node) in nested) for name in names)
    return out


def test_only_fields_and_poly_import_fractions():
    """A Q scalar is made canonical in two places: FieldSpec arithmetic
    (`fields`) and the making of a `Poly` (`poly`); every other module
    works on ints and on the scalars those two make."""
    importers = sorted(
        stem
        for stem, tree in _modules().items()
        for name, _, _ in _imports_with_scope(tree)
        if name == "fractions"
    )
    assert importers == ["fields", "poly"], importers


def test_start_up_imports_stay_light():
    """No module imports dataclasses or typing: records are ``errors.Frozen``
    classes, and every annotation is a string under ``from __future__
    import annotations``.  Only cli imports koszul, inside the one command that
    reads it, so no other run pays for that import."""
    bad = []
    for stem, tree in _modules().items():
        for name, line, in_function in _imports_with_scope(tree):
            heavy = name.split(".")[0] in ("dataclasses", "typing")
            koszul = name.split(".")[-1] == "koszul"
            if heavy or koszul and not (stem == "cli" and in_function):
                bad.append(f"{stem}.py:{line}: {name}")
    assert not bad, bad


def test_cli_import_loads_no_heavy_module():
    """Importing the CLI loads neither a code generator, nor koszul, nor
    json, which only the JSON writer reads, inside the call that writes."""
    # -S keeps site out: on some interpreters it loads typing or inspect
    # itself
    code = "import sys, wittdeg.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(done.stdout.split())
    assert "wittdeg.cli" in loaded
    heavy = {"dataclasses", "inspect", "json", "typing", "wittdeg.koszul"}
    assert not heavy & loaded, sorted(heavy & loaded)

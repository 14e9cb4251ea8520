"""Every module under src/hologrid, and every test module, uses each name it imports.

``__init__.py`` is skipped: its imports are the package's re-exports.
"""
from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hologrid"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scanner_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from . import dsl\n"
        "from .perception import Grid, to_rc as rc\n"
        "x: Grid = rc(np.zeros(1))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dsl")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert modules and tests
    unused = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for path in modules + tests
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []

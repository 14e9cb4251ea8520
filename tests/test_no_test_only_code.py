"""Every function the package defines is used by the package or the benchmark.

A module-level function, or a method or property that is not a dunder,
under src/hologrid must be referenced by name from a module under
src/hologrid or perfbench: as a ``Name``, an ``Attribute`` or an import
alias. Code that only tests call is deleted, except for the names on
``KEEP``, each kept for the reason given.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hologrid").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

KEEP = {
    "circulant_matrix": "the dense bridge of the factored-versus-dense LinearParameter test",
    "fractional_power": "a primitive of the paper's spatial algebra",
    "operation_loss_grad": "the exact condition gradient that criterion 2 checks",
    "parameter_loss": "the dense parameter loss that criterion 2 checks",
    "parameter_loss_grad": "the dense parameter gradient that criterion 2 checks",
    "validate_sort_of_arc": "an oracle of generated tasks, independent of the solver",
    "program_from_json": "the documented reload half of program JSON",
}


def defined_names(source: str) -> set[str]:
    """Module-level functions, and methods and properties of module-level classes, minus dunders."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = {node.name for node in tree.body if isinstance(node, functions)}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        names.update(node.name for node in cls.body if isinstance(node, functions))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def referenced_names(source: str) -> set[str]:
    """Names read as ``name``, ``x.name`` or imported as ``name``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_scanner_reads_definitions_and_references():
    source = (
        "from m import used_elsewhere\n"
        "def f():\n"
        "    return g\n"
        "def g():\n"
        "    pass\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.read()\n"
        "    def read(self):\n"
        "        def inner():\n"
        "            pass\n"
        "    @property\n"
        "    def idle(self):\n"
        "        pass\n"
    )
    assert defined_names(source) == {"f", "g", "read", "idle"}
    assert {"used_elsewhere", "g", "read", "self"} <= referenced_names(source)
    assert not {"f", "idle", "inner", "__init__"} & referenced_names(source)


def test_every_definition_is_referenced_outside_tests():
    texts = [path.read_text(encoding="utf-8") for path in SOURCES]
    package = [text for path, text in zip(SOURCES, texts) if path.parent.name == "hologrid"]
    defined = set().union(*(defined_names(text) for text in package))
    referenced = set().union(*(referenced_names(text) for text in texts))
    assert sorted(defined - referenced - set(KEEP)) == []


def test_every_kept_name_is_still_defined():
    package = [p.read_text(encoding="utf-8") for p in SOURCES if p.parent.name == "hologrid"]
    defined = set().union(*(defined_names(text) for text in package))
    assert sorted(set(KEEP) - defined) == []

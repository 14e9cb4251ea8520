"""Every function the package defines is used by the package or the benchmark.

A module-level function, or a method or property that is not a dunder,
under src/hologrid must be referenced from a module under src/hologrid or
perfbench. A function counts when read as a ``Name``, an ``Attribute`` or
an import alias; a method or property counts only when read as an
attribute (``x.name``), so a local variable of the same name does not
hide it. Code that only tests call is deleted, except for the names on
``KEEP``, each kept for the reason given.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hologrid").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

KEEP = {
    "fractional_power": "a primitive of the paper's spatial algebra",
    "validate_sort_of_arc": "an oracle of generated tasks, independent of the solver",
    "program_from_json": "the documented reload half of program JSON",
}


def defined_names(source: str) -> tuple[set[str], set[str]]:
    """(module-level functions, methods and properties of module-level classes), minus dunders."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = {node.name for node in tree.body if isinstance(node, functions)}
    members = {node.name for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body if isinstance(node, functions)}
    dunders = {name for name in names | members if name.startswith("__") and name.endswith("__")}
    return names - dunders, members - dunders


def referenced_names(source: str) -> tuple[set[str], set[str]]:
    """(names read as ``name`` or imported as ``name``, names read as ``x.name``)."""
    bare: set[str] = set()
    attributes: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            bare.add(node.name)
    return bare, attributes


def unreferenced(package_texts, all_texts) -> set[str]:
    """Functions no text names, and methods and properties no text reads as an attribute."""
    functions, members = (set().union(*group) for group in zip(*map(defined_names, package_texts)))
    bare, attributes = (set().union(*group) for group in zip(*map(referenced_names, all_texts)))
    return (functions - bare - attributes) | (members - attributes)


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
        "    def shadowed(self):\n"
        "        shadowed = 1\n"
        "        return shadowed\n"
    )
    assert defined_names(source) == ({"f", "g"}, {"read", "idle", "shadowed"})
    bare, attributes = referenced_names(source)
    assert {"used_elsewhere", "g", "self", "shadowed"} <= bare
    assert "read" in attributes
    assert not {"f", "idle", "inner", "__init__"} & (bare | attributes)
    # A local variable named like a method does not count as a use of it.
    assert unreferenced([source], [source]) == {"f", "idle", "shadowed"}


def test_every_definition_is_referenced_outside_tests():
    texts = [path.read_text(encoding="utf-8") for path in SOURCES]
    package = [text for path, text in zip(SOURCES, texts) if path.parent.name == "hologrid"]
    assert sorted(unreferenced(package, texts) - set(KEEP)) == []


def test_every_kept_name_is_still_defined():
    package = [p.read_text(encoding="utf-8") for p in SOURCES if p.parent.name == "hologrid"]
    defined = set().union(*(set().union(*defined_names(text)) for text in package))
    assert sorted(set(KEEP) - defined) == []

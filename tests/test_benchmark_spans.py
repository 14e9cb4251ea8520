"""Every benchmark span wraps a function the solver calls.

perfbench times the names listed in ``perfbench/tracing.py`` ``PATCH_POINTS``.
A name that no module under src/hologrid calls gives a span that reads 0 on
every run. The tuple is read from the source, so nothing is imported from
perfbench.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hologrid"
TRACING = ROOT / "perfbench" / "tracing.py"


def patched_names(source: str) -> list[str]:
    """The attribute name of each ``PATCH_POINTS`` entry, in order."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PATCH_POINTS" for t in node.targets):
            return [entry.elts[1].value for entry in node.value.elts]
    raise AssertionError("no PATCH_POINTS assignment")


def called_names(source: str) -> set[str]:
    """Names called as ``name(...)`` or ``x.name(...)``, except inside a definition of that name."""
    called: set[str] = set()

    def visit(node, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name not in enclosing:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return called


def test_scanner_skips_calls_inside_the_named_definition():
    source = (
        "PATCH_POINTS = ((m, 'f', 'm.f', None), (m, 'h', 'm.h', observe))\n"
        "def f(n):\n"
        "    return f(n - 1)\n"
        "def g():\n"
        "    return obj.h(len([]))\n"
    )
    assert patched_names(source) == ["f", "h"]
    assert called_names(source) == {"h", "len"}


def test_every_patch_point_is_called_from_the_package():
    names = patched_names(TRACING.read_text(encoding="utf-8"))
    assert names
    called = set().union(*(called_names(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")))
    assert [name for name in names if name not in called] == []

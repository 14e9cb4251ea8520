"""Each constant the report fingerprint lists has one home and is read from it.

``harness._fingerprint`` reads every constant as ``module.NAME`` when the
report is built, promising that the value printed is the value the solver
used. That holds only if the constant is assigned in exactly one module
and no module copies it into its own namespace with ``from … import``,
where a later change to the home module's value would not reach it.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hologrid"


def parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def fingerprinted_constants() -> dict[str, str]:
    """NAME -> module for each ``module.NAME`` that ``harness._fingerprint`` reads."""
    harness = parse("harness")
    modules = {
        alias.asname or alias.name: alias.name
        for node in harness.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    (fingerprint,) = [n for n in harness.body if isinstance(n, ast.FunctionDef) and n.name == "_fingerprint"]
    return {
        node.attr: modules[node.value.id]
        for node in ast.walk(fingerprint)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def module_assignments(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def from_imports(tree: ast.Module) -> set[str]:
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_fingerprint_reads_the_solver_constants():
    constants = fingerprinted_constants()
    assert constants["OP_COST"] == "abduction" and constants["BLUR_SIGMA"] == "perception"
    assert {"TAU_SAME", "FIRE_THRESHOLD", "LEARNING_RATE", "NODE_BUDGET"} <= set(constants)


def test_each_fingerprinted_constant_has_one_home_and_no_copies():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    problems = []
    for name, home in sorted(fingerprinted_constants().items()):
        owners = sorted(m for m, tree in trees.items() if name in module_assignments(tree))
        if owners != [home]:
            problems.append(f"{name} is assigned in {owners}, but the fingerprint reads {home}.{name}")
        problems.extend(f"{m}.py binds {name} with from-import" for m, tree in trees.items() if name in from_imports(tree))
    assert problems == []

"""Every public top-level function and class in the package has a caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "passloc"
# Helpers that only the acceptance gates call: c02 and c01.
GATE_HELPERS = {"projection_matrix", "solve_position_ls"}


def _names(node):
    """Identifiers that ``node`` refers to: names, attributes, imported names and
    strings that are exactly an identifier."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            found.add(n.value)
    return found


def unreferenced_public_names() -> set:
    """Public top-level names of src/passloc that no package module, demo or benchmark uses.

    A definition's own body does not count as a use of it; test modules do not count.
    """
    users = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(p for p in (ROOT / "benchmarks").glob("*.py") if not p.name.startswith("test_"))]
    # per file, each top-level statement and the names it refers to
    statements = {path: [(node, _names(node)) for node in ast.parse(path.read_text()).body]
                  for path in users}
    uses = [(node, names) for stmts in statements.values() for node, names in stmts]
    return {node.name for path in PACKAGE.glob("*.py") for node, _ in statements[path]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and not any(node.name in names for other, names in uses if other is not node)}


def test_every_public_library_name_has_a_non_test_caller():
    assert unreferenced_public_names() - GATE_HELPERS == set()

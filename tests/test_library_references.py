"""Every public top-level function and class in the package has a caller outside the tests,
and every optional parameter of a public function or method is passed by one."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "passloc"
# Helpers that only the acceptance gates call: c02 and c01.
GATE_HELPERS = {"projection_matrix", "solve_position_ls"}
# Optional parameters that no package, demo or benchmark call passes, and why each stays.
KEPT_OPTIONS = {
    "cli_main.argv": "the tests drive the CLI through it; the console script passes none",
    "solve_position_ls.epsilon": "c01 passes its own ridge",
    "build_polar_dictionary.dh": "the channel-domain reference the tests compare polar_dictionary "
                                 "against is built at the nf height gap",
}


def _user_files() -> list:
    """The package modules, the demos and the benchmark scripts other than their tests."""
    return [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
            *(p for p in (ROOT / "benchmarks").glob("*.py") if not p.name.startswith("test_"))]


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
    users = _user_files()
    # per file, each top-level statement and the names it refers to
    statements = {path: [(node, _names(node)) for node in ast.parse(path.read_text()).body]
                  for path in users}
    uses = [(node, names) for stmts in statements.values() for node, names in stmts]
    return {node.name for path in PACKAGE.glob("*.py") for node, _ in statements[path]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and not any(node.name in names for other, names in uses if other is not node)}


def test_every_public_library_name_has_a_non_test_caller():
    assert unreferenced_public_names() - GATE_HELPERS == set()


def _options(node, method: bool) -> list:
    """(name, position or None when keyword-only) of every parameter of ``node`` with a default.

    A method's position does not count its self or cls.
    """
    a = node.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    if method and not static:
        positional = positional[1:]
    found = [(name, i) for i, name in enumerate(positional)
             if i >= len(positional) - len(a.defaults)]
    return found + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _calls() -> dict:
    """Per called name, the (arguments, keywords) of every call in a package, demo or benchmark
    file; partial(f, *args, **keywords) counts as a call of f."""
    calls = {}
    for path in _user_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func, args = node.func, node.args
                if getattr(func, "id", None) == "partial" and args:
                    func, args = args[0], args[1:]
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append((args, node.keywords))
    return calls


def _passes(args, keywords, name: str, position) -> bool:
    """Whether a call passes the parameter: by keyword, by position, or through a * or **."""
    if any(isinstance(a, ast.Starred) for a in args) or any(k.arg in (None, name) for k in keywords):
        return True
    return position is not None and len(args) > position


def unpassed_options() -> set:
    """"function.parameter" for every optional parameter of a public top-level function, or of a
    public method of a public class, that no package, demo or benchmark call passes."""
    calls = _calls()
    functions = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node, False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                functions += [(f, True) for f in node.body if isinstance(f, ast.FunctionDef)]
    return {f"{node.name}.{name}" for node, method in functions if not node.name.startswith("_")
            for name, position in _options(node, method)
            if not any(_passes(*call, name, position) for call in calls.get(node.name, []))}


def test_every_optional_parameter_is_passed_by_a_non_test_caller():
    assert unpassed_options() - set(KEPT_OPTIONS) == set()

"""Source hygiene: no module under src/catgen or tests imports a name it never uses."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "catgen"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imported(scope):
    """(name, line) bound by the imports of ``scope`` itself, not of a nested function."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)
        stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    """Imported names that the module, or the function importing them, never reads."""
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        found += [f"{name} (line {line})" for name, line in _imported(scope) if name not in used]
    return sorted(found)


def test_the_check_finds_an_unused_import():
    source = (
        "import math\nfrom .errors import A, B\n"
        "def f():\n    from .data import load_matrix, save_matrix\n    return A, load_matrix\n"
        "def g():\n    return math.pi, save_matrix\n"
    )
    assert unused_imports(source) == ["B (line 2)", "save_matrix (line 4)"]


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

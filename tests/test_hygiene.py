"""Source hygiene: every name a package module imports is used in that
module or re-exported through its ``__all__``, and every private
module-level helper is referred to somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "prelie_calculus"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source):
    """(line, name) for each imported name that is neither referenced
    nor listed in a module-level ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert "exact_core.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("source, expected", [
    ("from a import b, c\nc()\n", [(1, "b")]),
    ("import os.path\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as x\n__all__ = ['x']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n", [(2, "b")]),
])
def test_detector(source, expected):
    assert unused_imports(source) == expected


def _names(node, skip):
    """Every name, attribute and imported name under node, leaving out
    the subtree skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _names(child, skip)


def dead_private_helpers(sources):
    """(module, name) for each module-level ``_``-prefixed function or
    class that no module refers to outside the helper's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    return sorted(
        (module, node.name)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in _names(other, node)
                    for other in trees.values()))


def test_no_dead_private_helpers():
    sources = {module: (SRC / module).read_text() for module in MODULES}
    assert dead_private_helpers(sources) == []


@pytest.mark.parametrize("sources, expected", [
    ({"a": "def _f():\n    pass\n"}, [("a", "_f")]),
    ({"a": "def _f():\n    pass\n_f()\n"}, []),
    ({"a": "def _f():\n    return _f()\n"}, [("a", "_f")]),
    ({"a": "class _C:\n    pass\nx = [_C]\n"}, []),
    ({"a": "def __getattr__(name):\n    pass\n"}, []),
    ({"a": "def g():\n    def _h():\n        pass\n"}, []),
    ({"a": "def _f():\n    pass\n", "b": "from a import _f\n"}, []),
    ({"a": "def _f():\n    pass\n", "b": "import a\na._f()\n"}, []),
    ({"a": "def _f():\n    pass\n", "b": "def _f():\n    pass\n"},
     [("a", "_f"), ("b", "_f")]),
])
def test_dead_helper_detector(sources, expected):
    assert dead_private_helpers(sources) == expected

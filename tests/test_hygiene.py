"""Source hygiene: every name a package module imports is used in that
module or re-exported through its ``__all__``."""

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

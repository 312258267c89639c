"""Source hygiene: every name a package module imports is used in that
module or re-exported through its ``__all__``, every private
module-level helper is referred to somewhere in the package, every
public method of a package class is named somewhere in the project, and
every public function that the package does not reach is library-only
API that README names."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prelie_calculus"
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


def dead_public_methods(package, others=()):
    """(module, class, method) for each public method of a module-level
    package class that no source, of the package or among others, names
    outside the method's own body."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    named = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        named.update(_names(tree, None))
    return sorted(
        (module, cls.name, node.name)
        for module, tree in trees.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and named[node.name] == Counter(_names(node, None))[node.name])


def test_no_dead_public_methods():
    package = {module: (SRC / module).read_text() for module in MODULES}
    others = [path.read_text() for folder in ("tests", "perfbench")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    assert dead_public_methods(package, others) == []


CLASS_F = "class C:\n    def f(self):\n        pass\n"


@pytest.mark.parametrize("package, others, expected", [
    ({"a": CLASS_F}, [], [("a", "C", "f")]),
    ({"a": CLASS_F + "C().f()\n"}, [], []),
    ({"a": CLASS_F, "b": "from a import C\nC.f\n"}, [], []),
    ({"a": CLASS_F}, ["c.f()\n"], []),
    ({"a": "class C:\n    def f(self):\n        return self.f()\n"}, [],
     [("a", "C", "f")]),
    ({"a": CLASS_F + "    def g(self):\n        return self.f()\n"}, [],
     [("a", "C", "g")]),
    ({"a": "class C:\n    def _f(self):\n        pass\n"}, [], []),
    ({"a": "class C:\n    def __len__(self):\n        return 0\n"}, [], []),
    ({"a": "def g():\n" + "".join("    " + line + "\n"
                                 for line in CLASS_F.splitlines())}, [], []),
])
def test_dead_method_detector(package, others, expected):
    assert dead_public_methods(package, others) == expected


def unreached_public_functions(sources):
    """(module, name) for each module-level public function that no
    module names outside the function's own body; an ``__all__`` entry
    is a string, not a name, so it does not count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    return sorted(
        (module, node.name)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and not any(node.name in _names(other, node)
                    for other in trees.values()))


# the library-only API: public functions that no subcommand reaches,
# each named in README
LIBRARY_ONLY = [
    ("constructions.py", "bisum_bialgebra"),
    ("constructions.py", "check_tangent_bicovariance"),
    ("constructions.py", "cocycle_D"),
    ("constructions.py", "infinitesimal_braiding"),
    ("constructions.py", "tangent_prelie"),
    ("liebialg.py", "bicross_sum"),
    ("liebialg.py", "check_crossed_module"),
    ("liebialg.py", "double_cross_sum"),
    ("metric.py", "normal_order_localized"),
    ("prelie.py", "prelie_from_table"),
]


def test_unreached_public_functions_are_the_library_only_api():
    sources = {module: (SRC / module).read_text() for module in MODULES}
    assert unreached_public_functions(sources) == LIBRARY_ONLY
    readme = (ROOT / "README.md").read_text()
    assert [name for _, name in LIBRARY_ONLY
            if f"`{name}`" not in readme] == []


@pytest.mark.parametrize("sources, expected", [
    ({"a": "def f():\n    pass\n"}, [("a", "f")]),
    ({"a": "def f():\n    pass\n__all__ = ['f']\n"}, [("a", "f")]),
    ({"a": "def f():\n    return f()\n"}, [("a", "f")]),
    ({"a": "def f():\n    pass\nx = f\n"}, []),
    ({"a": "def f():\n    pass\n", "b": "from a import f\n"}, []),
    ({"a": "def f():\n    pass\n", "b": "import a\na.f()\n"}, []),
    ({"a": "def _f():\n    pass\n"}, []),
    ({"a": "class C:\n    pass\n"}, []),
    ({"a": "def g():\n    def f():\n        pass\n    return f\ng()\n"},
     []),
])
def test_unreached_function_detector(sources, expected):
    assert unreached_public_functions(sources) == expected

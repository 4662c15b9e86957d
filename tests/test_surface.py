"""Static guard on the package surface: every module-level import is used,
every ``__all__`` entry names something the module defines, every
function, class and method, private or public, has a caller in the
package (the public names of PUBLIC_WITHOUT_A_CALLER excepted, each with
its reason), no module imports ``fractions``
(coefficients are ints end to end), no module imports ``dataclasses``
or, outside a function, ``argparse`` (each costs every cold CLI call its
import), no module reads the process
environment (the entry cap is --max-entries on the command line and
weilcoh.linalg.entry_cap in the library), and every module parses as
Python 3.10, the floor that pyproject.toml declares.

Only the standard-library ``ast`` module is used, so the check needs no
linter and does not import the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weilcoh"
MODULES = sorted(SRC.glob("*.py"))
PYTHON_FLOOR = (3, 10)  # the oldest Python the package supports


def _imported_names(tree):
    """(bound name, line) for each module-level import, minus __future__."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0],
                            node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _defined_names(tree):
    """Names bound at module level by a def, class, assignment or import."""
    out = {name for name, _ in _imported_names(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                out.update(n.id for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    return out


def _module_names(nodes):
    """Top-level names of the modules the import nodes among nodes
    import; relative imports are skipped."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def imported_modules(source):
    """Top-level names of the modules imported anywhere in source,
    including imports inside functions; relative imports are skipped."""
    return _module_names(ast.walk(ast.parse(source)))


def import_time_modules(source):
    """Top-level names of the modules that importing source imports:
    those imported anywhere outside a function body."""
    nodes, stack = [], list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
    return _module_names(nodes)


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """Lines that read the environment: an environ or getenv attribute
    (os.environ, os.getenv, and the same through any alias of os), or
    one of those names imported from os."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            out.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(alias.name in ENV_READERS for alias in node.names):
            out.append(node.lineno)
    return sorted(out)


def unused_imports(source):
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_all_entries(tree))
    return [(name, line) for name, line in _imported_names(tree)
            if name not in used]


def unresolved_all(source):
    tree = ast.parse(source)
    defined = _defined_names(tree)
    return [name for name in _all_entries(tree) if name not in defined]


def _defs(tree, private):
    """(name, line) of each private (or each public) function or class
    defined at module level or in the body of a module-level class;
    dunders excluded."""
    bodies = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    return [(node.name, node.lineno) for body in bodies for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") == private
            and not node.name.endswith("__")]


def _orphaned(sources, private):
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [(mod, name, line) for mod, tree in sorted(trees.items())
            for name, line in _defs(tree, private) if name not in used]


def orphaned_private_names(sources):
    """(module, name, line) of each private def in the {module: source}
    map that no Name or Attribute in any of the sources refers to."""
    return _orphaned(sources, private=True)


def orphaned_public_names(sources):
    """(module, name, line) of each public def in the {module: source}
    map that no Name or Attribute in any of the sources refers to; an
    ``__all__`` entry is not a reference."""
    return _orphaned(sources, private=False)


# {public name: why it stays} for the names no module of the package
# refers to; an entry that gains a caller is dropped from here
PUBLIC_WITHOUT_A_CALLER = {
    "invariant_quotient_dims": "perfbench/test_perfbench.py imports it",
}


def test_private_names_have_a_caller():
    sources = {path.name: path.read_text() for path in MODULES}
    assert orphaned_private_names(sources) == []


def test_public_names_have_a_caller():
    sources = {path.name: path.read_text() for path in MODULES}
    assert sorted(name for _, name, _ in orphaned_public_names(sources)) \
        == sorted(PUBLIC_WITHOUT_A_CALLER)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    assert unresolved_all(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_fractions_import(path):
    assert "fractions" not in imported_modules(path.read_text())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # dataclasses pulls in inspect, ast, dis and tokenize, a cost that
    # every cold CLI call pays at import
    assert "dataclasses" not in imported_modules(path.read_text())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_argparse_import_at_module_level(path):
    # argparse and the gettext and locale lookups of its parser cost a
    # cold CLI call more than a small table; weilcoh.cli imports it inside
    # the function that builds the parser for help and usage errors
    assert "argparse" not in import_time_modules(path.read_text())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python = ">=3.10"
    ast.parse(path.read_text(), feature_version=PYTHON_FLOOR)


def test_checks_flag_what_they_guard():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import gcd, comb\n"
        "from .x import exported\n"
        "__all__ = ['exported', 'f', 'gone']\n"
        "def f():\n"
        "    return gcd(1, 2) + osp.sep\n"
    )
    assert unused_imports(src) == [("os", 2), ("comb", 4)]
    assert unresolved_all(src) == ["gone"]
    assert imported_modules(src) == {"__future__", "os", "math"}
    assert "fractions" in imported_modules(
        "def f():\n    from fractions import Fraction\n")
    assert "fractions" in imported_modules("import fractions as fr\n")
    assert import_time_modules(src) == imported_modules(src)
    assert import_time_modules(
        "def parser():\n    import argparse\n") == set()
    assert import_time_modules(
        "try:\n    import argparse\nexcept ImportError:\n    pass\n"
        "class C:\n    from argparse import Namespace\n"
        "    def f(self):\n        import json\n") == {"argparse"}
    assert environment_reads(src) == []
    ast.parse(src, feature_version=PYTHON_FLOOR)
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=PYTHON_FLOOR)
    assert environment_reads(
        "import os\n"
        "import os as o\n"
        "from os import getenv\n"
        "def cap():\n"
        "    return os.environ.get('CAP') or o.getenv('CAP')\n"
        "os.environ['CAP'] = '5'\n") == [3, 5, 5, 6]
    # _primitive is used while reduce calls it, and named once reduce
    # stops; a private method that nothing calls is named as well
    linalg = (
        "def _primitive(row):\n"
        "    return row\n"
        "class Eliminator:\n"
        "    def __init__(self):\n"
        "        self._cap = 0\n"
        "    def _check_cap(self):\n"
        "        return self._cap\n"
        "    def _unused(self):\n"
        "        return 0\n"
        "    def reduce(self, row):\n"
        "        self._check_cap()\n"
        "        return %s\n"
    )
    koszul = "from .linalg import Eliminator\nE = Eliminator()\n"
    assert orphaned_private_names({
        "linalg.py": linalg % "_primitive(row)", "koszul.py": koszul,
    }) == [("linalg.py", "_unused", 8)]
    assert orphaned_private_names({
        "linalg.py": linalg % "row", "koszul.py": koszul,
    }) == [("linalg.py", "_primitive", 1), ("linalg.py", "_unused", 8)]
    # the public twin: reduce has no caller in either source, and an
    # __all__ entry does not count as one; Eliminator is called in koszul
    assert orphaned_public_names({
        "linalg.py": "__all__ = ['Eliminator']\n" + linalg % "row",
        "koszul.py": koszul,
    }) == [("linalg.py", "reduce", 11)]
    assert orphaned_public_names({
        "linalg.py": linalg % "row",
        "koszul.py": koszul + "E.reduce({})\n",
    }) == []

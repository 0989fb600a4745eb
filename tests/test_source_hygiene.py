"""Source hygiene of the package, read with the standard library's ``ast``.

Two kinds of dead code fail here: an import that its module never reads,
and a private module-level name (``_x``) that no module of the package
reads.  ``__init__.py`` imports to re-export, so its imports count as read.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gpmspace"
MODULES = {p.name: ast.parse(p.read_text(encoding="utf-8"), p.name)
           for p in sorted(SRC.glob("*.py"))}


def read_names(tree):
    """Every name a module reads: loaded names, attribute names and the names
    it imports from elsewhere."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree):
    """(bound name, line) for every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def private_definitions(tree):
    """(name, line) for every private module-level function, class or variable."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for n in nodes for t in ast.walk(n) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_every_import_is_read(module):
    tree = MODULES[module]
    read = read_names(tree)
    unused = [f"{module}:{line} {name}" for name, line in imported_names(tree)
              if name not in read]
    assert unused == []


def test_every_private_module_name_is_read():
    imported = {alias.name for tree in MODULES.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set().union(*(read_names(tree) for tree in MODULES.values())) | imported
    unread = [f"{module}:{line} {name}" for module, tree in MODULES.items()
              for name, line in private_definitions(tree) if name not in read]
    assert unread == []


def test_the_checks_see_dead_code():
    tree = ast.parse("import os\nfrom math import inf\n_DEAD = 1\n_live = 2\n\n"
                     "def _unused():\n    return _live\n")
    assert [name for name, _ in imported_names(tree) if name not in read_names(tree)] == \
        ["os", "inf"]
    assert [name for name, _ in private_definitions(tree)
            if name not in read_names(tree)] == ["_DEAD", "_unused"]

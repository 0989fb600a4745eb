"""Source hygiene of the package, read with the standard library's ``ast``.

Three kinds of dead code fail here: an import that its module never reads,
a private module-level name (``_x``) that no module of the package reads,
and a function parameter that the function body never reads.
``__init__.py`` imports to re-export, so its imports count as read.
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


def unread_parameters(tree):
    """(function, parameter) for every parameter, ``self`` and ``cls`` aside,
    that its function's body (nested functions included) never loads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for name in params:
                if name not in read and name not in ("self", "cls"):
                    yield node.name, name


def battery_functions(tree):
    """The batteries and ``applies`` predicates ``cli._BATTERIES`` names: each
    takes the one battery signature, whatever it reads of it."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_BATTERIES" for t in node.targets):
            return {f.id for entry in node.value.values for f in entry.elts[:2]
                    if isinstance(f, ast.Name)}
    return set()


# parameters kept for callers that still pass them (perfbench/replay.py)
KEPT_PARAMETERS = {("separation.py", "countable_base"): {"max_points"},
                   ("induced.py", "compare_topologies"): {"max_points", "solver"}}


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


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_parameter_is_read(module):
    tree = MODULES[module]
    batteries = battery_functions(tree) if module == "cli.py" else set()
    unread = [f"{module} {function}({name})" for function, name in unread_parameters(tree)
              if function not in batteries
              and name not in KEPT_PARAMETERS.get((module, function), ())]
    assert unread == []


def test_the_checks_see_dead_code():
    tree = ast.parse("import os\nfrom math import inf\n_DEAD = 1\n_live = 2\n\n"
                     "def _unused():\n    return _live\n")
    assert [name for name, _ in imported_names(tree) if name not in read_names(tree)] == \
        ["os", "inf"]
    assert [name for name, _ in private_definitions(tree)
            if name not in read_names(tree)] == ["_DEAD", "_unused"]
    # a parameter read only by a nested function counts as read; one that is
    # only overwritten, and an unread *args or keyword, do not
    tree = ast.parse("def knob(self, used, nested, unused, overwritten, *rest, flag=1):\n"
                     "    overwritten = 0\n"
                     "    def inner():\n        return nested\n"
                     "    return used, inner\n\n"
                     "def _applies(inst, opts):\n    return True\n\n"
                     "_BATTERIES = {'x': (knob, _applies, None)}\n")
    assert list(unread_parameters(tree)) == [
        ("knob", "unused"), ("knob", "overwritten"), ("knob", "flag"), ("knob", "rest"),
        ("_applies", "inst"), ("_applies", "opts")]
    assert battery_functions(tree) == {"knob", "_applies"}

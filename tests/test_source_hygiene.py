"""Source hygiene of the package, read with the standard library's ``ast``
and a call trace.

Four kinds of dead code fail here: an import that its module never reads,
a private module-level name (``_x``) that no module of the package reads,
a function parameter that the function body never reads, and a function
that no command enters, unless ``UNENTERED`` names it with its reason.
``__init__.py`` imports to re-export, so its imports count as read.
"""
import ast
import os
import pathlib
import sys

import pytest

import gpmspace as g

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gpmspace"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
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


def defined_functions():
    """(file name, first line) -> ``module.qualified.name`` of every function
    of the package, methods and nested functions included.  The first line
    is a decorated function's first decorator, as in its code object."""
    out = {}

    def walk(node, prefix, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[name, first] = f"{name[:-3]}.{prefix}{child.name}"
                walk(child, f"{prefix}{child.name}.", name)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", name)
            else:
                walk(child, prefix, name)

    for name, tree in MODULES.items():
        walk(tree, "", name)
    return out


# the functions no command enters, each with its reason:
#   replay     the benchmark (perfbench/replay.py and run.py) calls it; item
#              11 deletes it once the replay drives the battery entry points
#   primitive  a public building block of the toolkit that no battery composes
#   library    plumbing for library callers: dunders, reprs, alternate views,
#              constructors run at import, and a branch only rare inputs reach
#   oracle     an independent re-check that tests compare against
UNENTERED = {
    "balls.SubsetMask.__eq__": "library",
    "balls.SubsetMask.__hash__": "library",
    "balls.SubsetMask.__iter__": "library",
    "balls.SubsetMask.__repr__": "library",
    "balls.SubsetMask.contains": "primitive",
    "balls.SubsetMask.difference": "primitive",
    "balls.SubsetMask.empty": "primitive",
    "balls.SubsetMask.from_indices": "replay",
    "balls.SubsetMask.from_labels": "primitive",
    "balls.SubsetMask.intersection": "primitive",
    "balls.SubsetMask.union": "primitive",
    "balls.TopologyFamily.__contains__": "library",
    "balls.TopologyFamily.__eq__": "library",
    "balls.TopologyFamily.__hash__": "library",
    "balls.TopologyFamily.__init__": "replay",
    "balls.TopologyFamily.__iter__": "library",
    "balls.TopologyFamily.__len__": "replay",
    "balls.TopologyFamily.to_jsonable": "replay",
    "balls.TopologyFamily.verify": "oracle",
    "balls._mask_of_flags": "replay",
    "balls._min_P": "replay",
    "balls.closed_ball": "primitive",
    "balls.closure_and_limit_points": "primitive",
    "balls.generate_topology": "replay",
    "balls.generate_topology.build": "replay",
    "balls.grid_ball_masks": "replay",
    "balls.grid_ball_masks.build": "replay",
    "balls.interior": "primitive",
    "balls.open_ball": "primitive",
    "binop.BinaryOperation.__repr__": "library",
    "binop.BinaryOperation.closed_form": "library",  # PLUS and MAX, at import
    "binop.BinaryOperation.max_": "library",
    "binop.BinaryOperation.plus": "library",
    "binop.SampleGrid.__post_init__": "primitive",
    "binop._continuity_witnesses": "primitive",
    "binop.check_op_axiom": "primitive",
    "binop.solve_third": "primitive",
    "binop.solve_third.fits": "primitive",
    "binop.split_below": "primitive",
    "cli.Report.to_jsonable": "library",
    "cli.validate_instance_file": "library",
    "core.FiniteCarrier.base_distance": "primitive",
    "core.GpmsInstance.__repr__": "library",
    "core.IntervalCarrier.base_distance": "primitive",
    "core.IntervalCarrier.size": "library",
    "core._sqrt_bound_holds": "library",  # a near-tie of the scaled/plus P3 bound
    "core.check_P_axiom": "replay",
    "core.eval_P": "replay",
    "core.p4_violations": "oracle",
    "core.tabulate_step_family": "primitive",
    "errors.ConstructionError.__init__": "library",
    "errors.ParseError.__init__": "library",
    "induced.d_alpha": "primitive",
    "reports.CheckReport.failed": "library",
    "reports.ScanWitnesses.__iter__": "library",
    "reports.Templated.__init_subclass__": "library",  # at import
    "reports.Templated.to_jsonable": "library",
    "reports.canonical": "library",
    "separation.BallSpec.to_jsonable": "replay",
    "separation.SeparationWitness.to_jsonable": "library",
    "separation.WitnessBatch.report": "replay",
    "separation.WitnessRow.data": "library",
    "separation.WitnessRow.note": "library",
    "separation.WitnessRow.samples_tested": "replay",
    "separation._mask_of": "replay",
    "separation._require_closed": "replay",
    "separation.countable_base": "replay",
    "separation.separation_witness": "replay",
    "separation.verify_witness": "replay",
    "separation.verify_witness.claim": "replay",
    "sequences.check_bounded": "replay",
    "sequences.check_closure_diameter": "primitive",
    "sequences.check_compact_closed_bounded": "replay",
    "sequences.diameter": "primitive",
    "sequences.joint_continuity_check": "replay",
    "sequences.subsequence_completeness_check": "replay",
}


def entered_functions(tmp_path):
    """(file name, first line) of every package function entered while every
    command runs in process on every golden instance, with and without
    ``--csv``."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(str(SRC)):
            code = frame.f_code
            entered.add((os.path.basename(code.co_filename), code.co_firstlineno))

    payloads = ["--out", str(tmp_path / "report.json"), "--csv", str(tmp_path / "payload.csv")]
    sys.setprofile(profile)
    try:
        for path in sorted(GOLDEN.glob("*.instance.json")):
            for command in g.COMMANDS:
                for extra in ([], payloads):
                    g.main([command, str(path), *extra])
    finally:
        sys.setprofile(None)
    return entered


def test_every_function_is_entered_by_a_command_or_listed(tmp_path, capsys):
    defined = defined_functions()
    entered = {defined[key] for key in entered_functions(tmp_path) if key in defined}
    capsys.readouterr()
    assert set(UNENTERED.values()) <= {"replay", "primitive", "library", "oracle"}
    assert sorted(set(UNENTERED) - set(defined.values())) == []  # no stale entry
    assert sorted(set(UNENTERED) & entered) == []  # an entered function leaves the list
    assert sorted(set(defined.values()) - entered - set(UNENTERED)) == []

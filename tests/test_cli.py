import contextlib
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import balls, core, induced, reports, separation
from gpmspace.cli import Options
from helpers import workload_docs

BASE = {
    "version": 1,
    "points": ["a", "b", "c"],
    "d": [[0, 1, 3], [1, 0, 2], [3, 2, 0]],
    "family": "scaled",
    "params": {},
    "op": "max",
    "t_grid": [1e-4, 0.5, 1, 2, 4, 50],
    "alpha_grid": [0.25, 0.5, 1, 2, 4],
    "seed": 7,
    "tol": 1e-6,
}


def write(tmp_path, doc, name="inst.json"):
    """Write ``doc`` as a JSON instance file, or as it is if it holds bytes."""
    path = tmp_path / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_load_instance_round_trip(tmp_path):
    f = g.load_instance(write(tmp_path, BASE))
    assert f.version == 1
    assert f.seed == 7 and f.tol == 1e-6
    assert f.instance.family == "scaled"
    assert f.instance.op.kind == "max"
    assert len(f.digest) == 64
    assert g.validate_instance_file(write(tmp_path, BASE)).carrier.labels == ("a", "b", "c")


def test_interval_instance_file(tmp_path):
    doc = dict(BASE)
    doc.pop("points")
    doc.pop("d")
    doc["interval"] = [-2.0, 2.0]
    doc["resolution"] = 0.25
    f = g.load_instance(write(tmp_path, doc))
    assert f.instance.carrier.kind == "interval"


def test_asymmetric_table_names_symmetry_axiom(tmp_path):
    doc = dict(BASE, d=[[0, 1, 3], [2, 0, 2], [3, 2, 0]])
    with pytest.raises(g.ConstructionError) as err:
        g.load_instance(write(tmp_path, doc))
    assert err.value.axiom == "P2"


def test_zero_in_t_grid_is_a_parse_error(tmp_path):
    doc = dict(BASE, t_grid=[0, 1, 2])
    with pytest.raises(g.ParseError) as err:
        g.load_instance(write(tmp_path, doc))
    assert err.value.field == "t_grid"


@pytest.mark.parametrize("key", ["t_grid", "alpha_grid"])
@pytest.mark.parametrize("grid, message", [
    ([], "must be non-empty"), ([1, 1], "must be strictly increasing"),
    ([-1, 2], "values must be finite and positive"), ("1", None)])
def test_grid_faults_name_their_field(tmp_path, capsys, key, grid, message):
    # the file's grids are checked by core's grid rule; an error names the field
    path = write(tmp_path, dict(BASE, **{key: grid}))
    with pytest.raises(g.ParseError) as err:
        g.load_instance(path)
    assert err.value.field == key
    if message is not None:
        assert str(err.value) == f"{key} {message}"
    assert g.main(["axioms", path]) == 2
    assert capsys.readouterr().err.endswith(f"(field {key!r})\n")


@pytest.mark.parametrize("family, params", [("scaled", {}), ("damped", {}),
                                            ("discrete", {"c": 1e308})])
def test_d_alpha_past_the_largest_float_is_inf_without_a_warning(tmp_path, family, params):
    # d = 1e308 on every pair: d / alpha and c / alpha overflow for scaled and
    # discrete, and 2d for damped; d_alpha is +inf there, exactly, and the
    # overflow raises no RuntimeWarning (the test config makes one an error)
    doc = dict(BASE, d=[[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]],
               family=family, params=params, t_grid=[40, 50], alpha_grid=[0.25, 0.5, 1])
    inst_file = g.load_instance(write(tmp_path, doc))
    for command in ("axioms", "dalpha", "full-report"):
        g.run_command(command, inst_file)
    am = g.AlphaMetric(inst_file.instance, 0.25)
    assert g.alpha_metric_table(am) == [[0.0 if i == j else math.inf for j in range(3)]
                                        for i in range(3)]


def test_unknown_field_rejected(tmp_path):
    doc = dict(BASE, wibble=3)
    with pytest.raises(g.ParseError) as err:
        g.load_instance(write(tmp_path, doc))
    assert err.value.field == "wibble"


def test_missing_carrier_block(tmp_path):
    doc = {k: v for k, v in BASE.items() if k not in ("points", "d")}
    with pytest.raises(g.ParseError):
        g.load_instance(write(tmp_path, doc))


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  oops\n}', encoding="utf-8")
    with pytest.raises(g.ParseError) as err:
        g.load_instance(str(path))
    assert err.value.line == 3


def test_tabulated_op_descriptor(tmp_path):
    doc = dict(BASE, op={"table": {"grid": [0.0, 1.0, 2.0],
                                   "values": [[0, 1, 2], [1, 2, 3], [2, 3, 4]]}})
    f = g.load_instance(write(tmp_path, doc))
    assert f.instance.op.kind == "tabulated"


TABULATED = dict(BASE, family="tabulated", params={"tables": [
    {"pair": ["a", "b"], "t": [1, 2], "v": [2, 1]},
    {"pair": ["a", "c"], "t": [1], "v": [3]},
    {"pair": ["b", "c"], "t": [1, 2], "v": [2, 1]}]})


def _table_entry(k, **changes):
    tables = [dict(e) for e in TABULATED["params"]["tables"]]
    tables[k].update(changes)
    return dict(TABULATED, params={"tables": [
        {f: v for f, v in e.items() if v is not None} for e in tables]})


INTERVAL = {**{k: v for k, v in BASE.items() if k not in ("points", "d")},
            "interval": [-2.0, 2.0], "resolution": 0.5}

MALFORMED = {
    "tables-object": (dict(TABULATED, params={"tables": {"ab": 1}}), "params.tables"),
    "entry-not-object": (dict(TABULATED, params={"tables": [[1, 2]]}), "params.tables[0]"),
    "entry-without-v": (_table_entry(0, v=None), "params.tables[0]"),
    "v-not-numeric": (_table_entry(1, v=["x"]), "params.tables[1]"),
    "pair-not-a-list": (_table_entry(2, pair=5), "params.tables[2]"),
    "pair-repeated": (dict(TABULATED, params={"tables": TABULATED["params"]["tables"] + [
        {"pair": ["b", "a"], "t": [1], "v": [1]}]}), "params.tables[3]"),
    "d-not-numeric": (dict(BASE, d=[[0, "x", 3], [1, 0, 2], [3, 2, 0]]), "distance table d"),
    "d-ragged": (dict(BASE, d=[[0, 1, 3], [1, 0], [3, 2, 0]]), "distance table d"),
    "op-table-ragged": (dict(BASE, op={"table": {"grid": [0, 1], "values": [[0, 1], [1]]}}),
                        "op table"),
    "interval-not-numeric": ({**INTERVAL, "interval": ["x", 2]}, "interval"),
    # about 1e9 sample points: refused before the point list is built
    "interval-too-fine": ({**INTERVAL, "interval": [0, 1], "resolution": 1e-9}, "resolution"),
    # numbers must be JSON numbers: numpy and float() read true and "1" as 1
    "seed-true": (dict(BASE, seed=True), "seed"),
    "resolution-true": ({**INTERVAL, "resolution": True}, "resolution"),
    "c-true": (dict(BASE, family="discrete", params={"c": True}), "params.c"),
    "d-true": (dict(BASE, d=[[0, True, 3], [True, 0, 2], [3, 2, 0]]), "distance table d"),
    "d-numeric-string": (dict(BASE, d=[[0, "1", 3], ["1", 0, 2], [3, 2, 0]]),
                         "distance table d"),
    "d-integer-beyond-float": (dict(BASE, d=[[0, 1, 10 ** 400], [1, 0, 2], [10 ** 400, 2, 0]]),
                               "distance table d"),
    "interval-numeric-string": ({**INTERVAL, "interval": ["-2", 2]}, "interval"),
    "op-grid-numeric-string": (dict(BASE, op={"table": {"grid": ["0", 1],
                                                        "values": [[0, 1], [1, 2]]}}),
                               "op.table.grid"),
    "op-values-numeric-string": (dict(BASE, op={"table": {"grid": [0, 1],
                                                          "values": [[0, 1], [1, "2"]]}}),
                                 "op.table.values"),
    "table-t-numeric-string": (_table_entry(0, t=["1", 2]), "params.tables[0].t"),
    "table-v-numeric-string": (_table_entry(2, v=[2, "1"]), "params.tables[2].v"),
    # two bad fields: the one-pass scan refuses, the field-by-field scan names the first
    "two-table-fields-numeric-strings": (dict(TABULATED, params={"tables": [
        dict(e, **change) for e, change in zip(TABULATED["params"]["tables"],
                                               ({}, {"t": ["1"]}, {"v": [2, "1"]}))]}),
        "params.tables[1].t"),
    # a NaN is not positive: a one-node table has no step to compare it with
    "table-t-nan-one-node": (_table_entry(1, t=[math.nan]),
                             "table t nodes for ('a', 'c') must be strictly increasing positives"),
    "version-2": (dict(BASE, version=2), "version"),
    # a family reads only its own params: discrete c, tabulated tables
    "params-c-on-scaled": (dict(BASE, params={"c": 2}), "params.c"),
    "params-unknown-key": (dict(BASE, params={"zzz": 1}), "params.zzz"),
    "params-c-on-tabulated": (dict(TABULATED, params={**TABULATED["params"], "c": 1}),
                              "params.c"),
    "params-tables-on-discrete": (dict(BASE, family="discrete", params={"c": 1, "tables": []}),
                                  "params.tables"),
    # a label is a string or a number, never str() of another JSON value
    "points-label-object": (dict(BASE, points=[{"x": 1}, "b", "c"]), "points"),
    "points-label-list": (dict(BASE, points=["a", ["b"], "c"]), "points"),
    "points-label-bool": (dict(BASE, points=["a", "b", True]), "points"),
    "points-label-null": (dict(BASE, points=[None, "b", "c"]), "points"),
    # P overflows to inf: at t = 5e-324, and at 1e308 / 0.5
    "P-inf-at-subnormal-t": (dict(BASE, t_grid=[5e-324, 1]), "P(a,c,5e-324) is not finite"),
    "P-inf-at-huge-d": (dict(BASE, d=[[0, 1e308, 1e308], [1e308, 0, 1e308],
                                      [1e308, 1e308, 0]], t_grid=[0.5, 1]),
                        "P(a,b,0.5) is not finite"),
    # a byte-order mark of UTF-16 and "{": not UTF-8
    "not-utf-8": (b"\xff\xfe{", "cannot read instance file"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, case):
    doc, field = MALFORMED[case]
    # pytest captures warnings before stderr; as errors, one fails the call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g.main(["axioms", write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and err.count("\n") == 1


def test_string_and_number_labels_load_as_their_text(tmp_path):
    f = g.load_instance(write(tmp_path, dict(BASE, points=["a", 1, 2.5])))
    assert f.instance.carrier.labels == ("a", "1", "2.5")


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_DOCS = []
for _name in sorted(os.listdir(GOLDEN)):
    if _name.endswith(".instance.json"):
        with open(os.path.join(GOLDEN, _name), encoding="utf-8") as _fh:
            GOLDEN_DOCS.append(json.load(_fh))

ODD_VALUES = (None, True, 0, -1, 1, 2.5, 1e-300, 1e300, math.nan, math.inf, "", "x",
              [], [0], [1, 2], {}, {"table": 1})


@st.composite
def mutated_documents(draw):
    """A golden instance document with one or two values perturbed, replaced,
    deleted or duplicated at drawn paths (at least one level below the top)."""
    doc = copy.deepcopy(draw(st.sampled_from(GOLDEN_DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        parent = doc
        key = draw(st.sampled_from(sorted(parent)))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.integers(0, 3)):
            parent = parent[key]
            key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                       else range(len(parent))))
        action = draw(st.sampled_from(("perturb", "replace", "delete", "duplicate")))
        value = parent[key]
        if action == "perturb" and isinstance(value, (int, float)) and not isinstance(value, bool):
            parent[key] = draw(st.sampled_from((2 * value, value / 2, value + 1, -value, 0)))
        elif action in ("perturb", "replace"):
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[draw(st.sampled_from(("extra", "t", "pair", "grid")))] = \
                copy.deepcopy(parent[key])
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_documents(), st.sampled_from(g.COMMANDS))
def test_mutated_golden_documents_never_raise(doc, command):
    # every outcome is a report (exit 0 or 1) or one error line (exit 2)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = g.main([command, path])
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        report = json.loads(out.getvalue())
        assert report["command"] == command
        assert code == (0 if all(c["verdict"] == "pass" for c in report["checks"]) else 1)


@pytest.mark.parametrize("command", ("dalpha", "sequences"))
@pytest.mark.parametrize("tol", ("nan", "-1", "0", "inf"))
def test_bad_tol_flag_exits_2_naming_tol(tmp_path, capsys, tol, command):
    # the flag follows the file's rule: a positive finite number
    out = tmp_path / "report.json"
    assert g.main([command, write(tmp_path, BASE), "--tol", tol, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tol" in err
    assert not out.exists()


@pytest.mark.parametrize("command", g.COMMANDS)
def test_negative_max_points_exits_2_naming_the_flag(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    path = os.path.join(GOLDEN, "constant-max-d3.instance.json")
    assert g.main([command, path, "--max-points", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --max-points must be >= 0, got -1\n"
    assert not out.exists()
    g.main([command, path, "--max-points", "0", "--out", str(out)])  # 0 is a cap
    assert "must be >= 0" not in capsys.readouterr().err


def test_axioms_command_all_pass(tmp_path):
    f = g.load_instance(write(tmp_path, BASE))
    report = g.run_command("axioms", f)
    assert report.exit_code == 0
    names = [c.name for c in report.checks]
    assert names == ["P1", "P2", "P3", "P4", "P5", "monotone"]


def test_axioms_command_fails_on_constant_max(tmp_path):
    doc = dict(BASE, family="constant")
    f = g.load_instance(write(tmp_path, doc))
    report = g.run_command("axioms", f)
    assert report.exit_code == 1
    verdicts = {c.name: c.verdict for c in report.checks}
    assert verdicts["P3"] == "fail" and verdicts["P4"] == "fail"


def test_topology_command_coarse_two_point(tmp_path):
    doc = dict(BASE, points=["a", "b"], d=[[0, 1], [1, 0]],
               t_grid=[1.0], alpha_grid=[2.0])
    f = g.load_instance(write(tmp_path, doc))
    report = g.run_command("topology", f)
    assert report.exit_code == 0
    fam = next(c for c in report.checks if c.name == "topology_family")
    assert fam.data == {"classes": [["a", "b"]], "count": 2}


def test_dalpha_command_table_is_double_the_base(tmp_path):
    f = g.load_instance(write(tmp_path, BASE))
    report = g.run_command("dalpha", f, Options(alpha=0.5))
    assert report.exit_code == 0
    table = next(c for c in report.checks if c.name.startswith("d_alpha_table")).data["table"]
    for i in range(3):
        for j in range(3):
            assert table[i][j] == pytest.approx(2 * BASE["d"][i][j], abs=2e-6)


@pytest.mark.parametrize("command", ["dalpha", "full-report"])
def test_tolerance_below_float_spacing_still_gives_a_report(tmp_path, capsys, command):
    # bisection stops at float spacing instead of running out of iterations
    path = write(tmp_path, dict(BASE, tol=1e-17))
    out = tmp_path / "report.json"
    assert g.main([command, path, "--out", str(out)]) in (0, 1)
    doc = json.loads(out.read_text())
    table = next(c for c in doc["checks"] if c["name"].startswith("d_alpha_table"))["data"]["table"]
    assert all(isinstance(v, float) and math.isfinite(v) for row in table for v in row)
    assert table[0][2] == pytest.approx(3.0, abs=1e-9)


def test_dalpha_command_requires_max(tmp_path):
    doc = dict(BASE, op="plus")
    f = g.load_instance(write(tmp_path, doc))
    with pytest.raises(g.HypothesisError):
        g.run_command("dalpha", f)


def test_separation_and_sequences_and_cantor_commands(tmp_path):
    f = g.load_instance(write(tmp_path, BASE))
    assert g.run_command("separation", f).exit_code == 0
    assert g.run_command("sequences", f).exit_code == 0
    cantor = g.run_command("cantor", f)
    # a scaled diameter is +inf exactly (P = d / t grows without bound as
    # t -> 0+): the battery is skipped with a note, not failed
    assert cantor.checks == []
    assert cantor.notes == ["cantor: skipped (hypotheses not satisfiable on this instance: "
                            "a member has infinite diameter; the intersection theorem needs "
                            "finite shrinking diameters)"]
    assert cantor.exit_code == 0
    assert g.diameter(f.instance, ["a", "b"]) == math.inf


def test_cantor_command_on_damped_interval(tmp_path):
    doc = dict(BASE, family="damped")
    doc.pop("points")
    doc.pop("d")
    doc["interval"] = [-2.0, 2.0]
    doc["resolution"] = 0.25
    f = g.load_instance(write(tmp_path, doc))
    report = g.run_command("cantor", f)
    assert [c.name for c in report.checks] == ["cantor_intersection"]
    assert report.checks[0].verdict == "pass"


def test_cantor_runs_on_the_tabulated_benchmark_instance(tmp_path):
    # P = d^2 / t tabulated from t = 1e-4: a step table extends its first
    # value to the left, so the diameter is that value, d^2 / 1e-4, finite
    doc = workload_docs("finite-topology", 11)["random-tabulated"]
    report = g.run_command("cantor", g.load_instance(write(tmp_path, doc)))
    assert report.notes == []
    cantor, = report.checks
    assert cantor.verdict == "pass"
    assert cantor.data["diameters"][0] == 810_000.0 == max(
        e["v"][0] for e in doc["params"]["tables"])


def test_full_report_reruns_byte_identical(tmp_path):
    f = g.load_instance(write(tmp_path, BASE))
    r1 = g.run_command("full-report", f).to_canonical_json()
    r2 = g.run_command("full-report", f).to_canonical_json()
    assert r1 == r2
    assert "wall" not in r1  # timing never enters the canonical body


def test_unknown_command_rejected(tmp_path):
    f = g.load_instance(write(tmp_path, BASE))
    with pytest.raises(g.DomainError):
        g.run_command("frobnicate", f)


def test_cli_subprocess_determinism_and_exit_codes(tmp_path):
    path = write(tmp_path, BASE)
    cmd = [sys.executable, "-m", "gpmspace", "full-report", path]
    p1 = subprocess.run(cmd, capture_output=True)
    p2 = subprocess.run(cmd, capture_output=True)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout and p1.stdout
    assert b"wall time" in p1.stderr

    bad = write(tmp_path, dict(BASE, t_grid=[0, 1]), name="bad.json")
    p3 = subprocess.run([sys.executable, "-m", "gpmspace", "axioms", bad],
                        capture_output=True)
    assert p3.returncode == 2
    assert b"t_grid" in p3.stderr

    failing = write(tmp_path, dict(BASE, family="constant"), name="c.json")
    p4 = subprocess.run([sys.executable, "-m", "gpmspace", "axioms", failing],
                        capture_output=True)
    assert p4.returncode == 1


def test_cli_out_and_csv(tmp_path):
    path = write(tmp_path, BASE)
    out = tmp_path / "report.json"
    csv = tmp_path / "table.csv"
    code = g.main(["dalpha", path, "--alpha", "1.0", "--out", str(out),
                   "--csv", str(csv)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "dalpha"
    lines = csv.read_text().splitlines()
    assert lines[0] == ",a,b,c"
    row_a = lines[1].split(",")
    assert row_a[0] == "a" and float(row_a[2]) == pytest.approx(1.0, abs=2e-6)


def test_csv_rows_are_built_only_when_written(tmp_path, monkeypatch):
    # a battery hands over its CSV rows as a function that run_command calls
    # only for the payload it writes: the P trace of the test sequence takes
    # one kernel call over the whole t grid, made under sequences --csv alone
    interval = {k: v for k, v in BASE.items() if k not in ("points", "d")}
    path = write(tmp_path, dict(interval, family="damped", interval=[-2.0, 2.0],
                                resolution=0.25))
    calls = []
    real = core._kernel

    def kernel(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(core, "_kernel", kernel)
    counts = {}
    for command in ("sequences", "full-report"):
        for csv in (None, tmp_path / f"{command}.csv"):
            del calls[:]
            g.run_command(command, g.load_instance(path), Options(csv=csv and str(csv)))
            counts[command, csv is not None] = len(calls)
    assert counts["sequences", True] == counts["sequences", False] + 1
    assert counts["full-report", True] == counts["full-report", False]
    assert (tmp_path / "sequences.csv").exists() and not (tmp_path / "full-report.csv").exists()


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_unwritable_output_path_exits_2_naming_option_and_path(tmp_path, capsys, option):
    # exit 1 means a check failed, so an unwritable path must not die with it
    target = str(tmp_path / "missing" / "x.out")
    assert g.main(["dalpha", write(tmp_path, BASE), option, target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{option} {target}" in captured.err


def test_unwritable_out_leaves_no_csv(tmp_path, capsys):
    # the report is written before the CSV, so a failed --out writes neither
    csv = tmp_path / "t.csv"
    target = str(tmp_path / "missing" / "r.json")
    assert g.main(["dalpha", write(tmp_path, BASE), "--csv", str(csv), "--out", target]) == 2
    assert f"--out {target}" in capsys.readouterr().err
    assert not csv.exists()


TINY = 5e-324  # the smallest subnormal: half of it rounds to 0


@pytest.mark.parametrize("command", ["separation", "full-report"])
@pytest.mark.parametrize("doc,refusal", [
    # alpha0 = 5e-324 gives alpha1 = 0 under max: a ball of radius 0
    (dict(BASE, points=["a", "b"], d=[[0, TINY], [TINY, 0]], family="constant"),
     "open ball radius must be positive, got 0.0"),
    # t0 = 5e-324 gives the scale t0 / 2 = 0
    (dict(BASE, family="constant", t_grid=[TINY, 1.0]),
     "t must be a finite positive real, got 0.0"),
    (dict(BASE, family="damped", t_grid=[TINY, 1.0]), "t must be a finite positive real, got 0.0"),
], ids=["d-subnormal-constant", "t-subnormal-constant", "t-subnormal-damped"])
def test_witness_with_a_refused_ball_is_inconclusive(tmp_path, capsys, command, doc, refusal):
    # a ball open_ball refuses makes its witness inconclusive, not the command an error
    assert g.main([command, write(tmp_path, doc)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    refused = [c["name"] for c in checks if refusal in c["note"]]
    assert refused and all(name.startswith(("T2(", "regular(", "normal(")) for name in refused)
    for c in checks:
        if c["name"] in refused:
            assert c["verdict"] == "inconclusive"
            assert c["note"] == f"not certifiable on this instance: {refusal}"
        elif c["name"].startswith(("T0(", "T1(")):
            assert c["verdict"] == "pass"


def test_inconclusive_checks_exit_one(tmp_path):
    # a coarse grid leaves the topology comparison inconclusive; "0 iff all
    # pass" therefore yields exit status 1
    doc = dict(BASE, points=["a", "b"], d=[[0, 1], [1, 0]],
               t_grid=[1.0], alpha_grid=[2.0])
    f = g.load_instance(write(tmp_path, doc))
    report = g.run_command("dalpha", f, Options(alpha=1.0))
    verdicts = {c.name: c.verdict for c in report.checks}
    assert any(v == "inconclusive" for v in verdicts.values())
    assert report.exit_code == 1


def test_seed_and_tol_recorded(tmp_path):
    f = g.load_instance(write(tmp_path, BASE))
    report = g.run_command("axioms", f, Options(seed=123, tol=1e-7))
    payload = report.to_jsonable()
    assert payload["seed"] == 123
    assert payload["tol"] == 1e-7


def test_max_points_caps_the_listing_not_the_carrier(tmp_path, capsys):
    # max_points caps the number of classes whose 2^k open sets the library
    # lists; topology states tau_P by its classes and lists no open set, so
    # --max-points leaves its bytes alone on the whole carrier
    n = 16
    doc = dict(BASE, points=[f"x{i}" for i in range(n)],
               d=[[abs(i - j) for j in range(n)] for i in range(n)])
    path = write(tmp_path, doc)
    texts = set()
    for max_points in (0, 15, 48):
        assert g.main(["topology", path, "--max-points", str(max_points)]) == 0
        texts.add(capsys.readouterr().out)
    text, = texts
    family, = [c for c in json.loads(text)["checks"] if c["name"] == "topology_family"]
    assert family["data"] == {"classes": [[f"x{i}"] for i in range(n)], "count": 2 ** n}
    assert family["note"] == f"tau_P is the partition topology of its {n} classes"
    assert g.main(["dalpha", path, "--max-points", "0"]) == 0
    assert [c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]
            if c["name"].startswith("topology_identity")] == ["pass"]
    inst = g.load_instance(path).instance
    assert len(balls.generate_topology(inst, n)) == 2 ** n
    with pytest.raises(g.SizeError, match="exceed max_points=15"):
        balls.generate_topology(inst, 15)


def test_max_points_caps_the_separation_carrier_only(tmp_path, capsys):
    # only separation, with its n^2 checks, still caps the carrier
    n = 16
    doc = dict(BASE, points=[f"x{i}" for i in range(n)],
               d=[[abs(i - j) for j in range(n)] for i in range(n)])
    path = write(tmp_path, doc)
    assert g.main(["separation", path]) == 2
    assert "--max-points" in capsys.readouterr().err
    assert g.main(["separation", path, "--max-points", str(n)]) == 0
    capsys.readouterr()
    assert g.main(["dalpha", path]) == 0
    assert [c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]
            if c["name"].startswith("topology_identity")] == ["pass"]
    g.main(["full-report", path])
    assert [note for note in json.loads(capsys.readouterr().out)["notes"]
            if "needs a finite carrier" in note] == ["separation: skipped (needs a finite "
                                                     "carrier within --max-points)"]


def test_full_report_work_counts(tmp_path, monkeypatch):
    # machine-independent work of one fresh line-9 scaled/max full-report;
    # a change that derives something twice raises these counts
    n = 9
    doc = dict(BASE, points=[f"x{i}" for i in range(n)],
               d=[[abs(i - j) for j in range(n)] for i in range(n)])
    inst_file = g.load_instance(write(tmp_path, doc))
    values, rays = [], []
    real_kernel, real_ray_start = core._kernel, induced.ray_start

    def kernel(*args):
        out = real_kernel(*args)
        values.append(np.size(out))
        return out

    def ray_start(*args):
        out = real_ray_start(*args)
        rays.append(out.size)
        return out

    monkeypatch.setattr(core, "_kernel", kernel)
    monkeypatch.setattr(induced, "ray_start", ray_start)
    g.run_command("full-report", inst_file)
    # P over the t grid is one tensor per instance, core.grid_P (6 x 81
    # values), that the grid balls, the classes of tau_P (its slice at the
    # least t) and separation read; separation adds two per-instance tensors:
    # P at half of each grid t (6 x 81 values) and the 64 base-ball depths
    # (64 x 81 values); the axioms battery reads no P (scaled/max is decided
    # from d, and the line meets the triangle inequality, so no witness is
    # evaluated); the sequences battery makes one call for its 9 convergence
    # rows (9 x 8 window terms x 6 t) and one for the K_t table that bounded
    # and compact_closed_bounded share (P at the farthest pair, 6 t);
    # cantor's diameters and the P4 gate of the topology identity read no P
    assert (len(values), sum(values)) == (5, 6594)
    # d_alpha: one 9 x 9 matrix, read by the table, the metric axioms and the
    # topology identity (its P4 gate too), and one pair at the 5 monotonicity
    # alphas in one call
    assert (len(rays), sum(rays)) == (2, 86)


def test_separation_rows_are_written_from_their_batches(tmp_path, monkeypatch):
    # the 12-point clustered workload file: 198 rows hold and 198 are refused
    # (a singleton is not closed on its t grid [1, 2, 4]); every row is a view
    # of its witness batch, so the command builds only the 13 countable_base
    # reports, and the writer writes each row from its template
    inst_file = g.load_instance(write(tmp_path, workload_docs("finite-topology", 11)["clustered"]))
    built, reports_of_rows, plain = [], [], []
    real_post_init, real_report, real_plain = (g.CheckReport.__post_init__,
                                               separation.WitnessBatch.report, reports._plain)

    def post_init(self):
        built.append(self.name)
        real_post_init(self)

    def report(self, *args, **kwargs):
        reports_of_rows.append(args)
        return real_report(self, *args, **kwargs)

    def counted_plain(obj):
        plain.append(type(obj))
        return real_plain(obj)

    monkeypatch.setattr(g.CheckReport, "__post_init__", post_init)
    monkeypatch.setattr(separation.WitnessBatch, "report", report)
    monkeypatch.setattr(reports, "_plain", counted_plain)
    result = g.run_command("separation", inst_file)
    rows = [c for c in result.checks if isinstance(c, separation.WitnessRow)]
    assert sorted(c.verdict for c in rows) == ["inconclusive"] * 198 + ["pass"] * 198
    bases = [c.name for c in result.checks if not isinstance(c, separation.WitnessRow)]
    assert bases == [f"countable_base[local@{x}]" for x in inst_file.instance.carrier.labels] + \
        ["countable_base[global]"]
    assert len(rows) + len(bases) == len(result.checks)
    assert built == bases
    built.clear()
    text = result.to_canonical_json()
    # one sentinel report per template: T0 rows (no V), the other witness
    # rows and the refused rows
    assert built == ["\x000\x00"] * 3
    assert reports_of_rows == []
    assert separation.WitnessRow not in set(plain)
    # the row views read as the reports they stand for
    assert text == json.dumps(result.to_jsonable(), sort_keys=True, indent=2) + "\n"


def test_a_separation_report_derives_each_template_once(tmp_path, monkeypatch):
    # the writer fills rows a column at a time: per call, one template per
    # (type, shape, layout) and one json_columns call per list and row type,
    # never a row's own tree; the countable_base checks are plain reports
    inst_file = g.load_instance(write(tmp_path, workload_docs("finite-topology", 11)["clustered"]))
    result = g.run_command("separation", inst_file)
    templates, lists, trees = [], [], []
    real_template = reports._template

    def template(kind, shape, size, newline, *args):
        templates.append((kind, shape, newline))
        return real_template(kind, shape, size, newline, *args)

    def counted(kind):
        real = kind.json_columns

        def json_columns(items):
            lists.append((kind, len(items)))
            return real(items)
        return staticmethod(json_columns)

    def tree(self):
        trees.append(self)

    monkeypatch.setattr(reports, "_template", template)
    monkeypatch.setattr(separation.WitnessRow, "json_columns", counted(separation.WitnessRow))
    monkeypatch.setattr(reports.Templated, "to_jsonable", tree)
    for write_text in (result.to_canonical_json, lambda: reports.compact_json(result._body())):
        templates.clear()
        lists.clear()
        write_text()
        assert len(templates) == len(set(templates)) == 3
        assert {(kind, shape) for kind, shape, _ in templates} == {
            (separation.WitnessRow, (1, 0)), (separation.WitnessRow, (1, 1)),
            (separation.WitnessRow, None)}
        assert lists == [(separation.WitnessRow, 396)]
    assert trees == []


def wide_instance_file(tmp_path, n=48):
    """A random n-point shortest-path metric, scaled/max on the BASE grids."""
    rng = random.Random(48)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, 10)
    for k in range(n):  # shortest-path closure makes d a metric
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return g.load_instance(write(tmp_path, dict(BASE, points=[f"w{i}" for i in range(n)], d=d)))


def test_only_the_listing_enumerates_open_sets(tmp_path, monkeypatch):
    # tau_P is a partition topology, so separation and topology_identity read
    # its 2^k open sets off the classes: with the one function that lists
    # them refusing, both run on 48 points, where the listing would hold
    # 2^48; topology_identity runs there under the default --max-points and
    # lists nothing at all
    n = 48
    inst_file = wide_instance_file(tmp_path, n)

    def refuse(*args):
        raise AssertionError("the open sets were listed")

    monkeypatch.setattr(balls, "generate_topology", refuse)
    start = time.perf_counter()
    opts = Options(max_points=n)
    checks = g.run_command("separation", inst_file, opts).checks
    bases = [c for c in checks if c.name.startswith("countable_base[")]
    assert (len(checks) - len(bases), len(bases)) == (6768, 49)
    assert all(c.ok for c in checks)
    identity, = [c for c in g.run_command("dalpha", inst_file, Options()).checks
                 if c.name.startswith("topology_identity")]
    assert (identity.verdict, identity.data["tau_P_size"]) == ("pass", 2 ** n)
    assert time.perf_counter() - start < 20


def test_max_points_beyond_the_listing_bound_lists_nothing(tmp_path, monkeypatch):
    # --max-points 48 on 48 classes once built all 2^48 unions and ran out of
    # memory; topology and full-report now list no open set at any
    # --max-points, and the library listing stops at LISTING_BOUND classes
    # whatever max_points says
    n = 48
    inst_file = wide_instance_file(tmp_path, n)

    def refuse(*args):
        raise AssertionError("the open sets were listed")

    with monkeypatch.context() as patch:
        patch.setattr(balls, "generate_topology", refuse)
        start = time.perf_counter()
        for command in ("topology", "full-report"):
            for options in (Options(), Options(max_points=n)):
                report = g.run_command(command, inst_file, options)
                assert report.exit_code in (0, 1)
                family, = [c for c in report.checks if c.name == "topology_family"]
                assert (len(family.data["classes"]), family.data["count"]) == (n, 2 ** n)
                assert family.note == f"tau_P is the partition topology of its {n} classes"
        assert time.perf_counter() - start < 20
    assert balls.LISTING_BOUND == 16
    with pytest.raises(g.SizeError, match="exceed the listing bound of 16 classes"):
        balls.generate_topology(inst_file.instance, 48)
    with pytest.raises(g.SizeError, match="exceed max_points=15"):
        balls.generate_topology(inst_file.instance, 15)


def test_topology_identity_is_inconclusive_beyond_the_listing_bound(tmp_path):
    # no open set is listed, so the listing bound no longer enters: at t 1 and
    # alpha 1.5 tau_P merges the pairs at distance 1, while d_alpha = d / 0.5
    # keeps all 20 points apart, so tau_d_alpha is discrete and tau_P is a
    # grid artifact, whose merged classes are named
    source = wide_instance_file(tmp_path, 20).source
    inst_file = g.load_instance(write(tmp_path, dict(source, t_grid=[1, 2, 4],
                                                     alpha_grid=[1.5, 3, 6])))
    classes = balls.tau_p_classes(inst_file.instance)
    assert len(classes) < 20
    for max_points in (0, 48):
        checks = g.run_command("dalpha", inst_file,
                               Options(max_points=max_points, alpha=0.5)).checks
        identity, = [c for c in checks if c.name.startswith("topology_identity")]
        assert identity.verdict == "inconclusive"
        assert identity.note == "tau_P lacks open sets at this grid resolution (grid artifact)"
        assert identity.data == {"alpha": 0.5, "tau_P_size": 2 ** len(classes),
                                 "tau_d_alpha_size": 2 ** 20,
                                 "merged_classes": [list(c.labels(inst_file.instance.carrier))
                                                    for c in classes if c.count > 1]}


def test_axioms_battery_evaluates_one_grid_tensor(tmp_path, monkeypatch):
    # under a table op P is read by the three P3 gathers alone: P1, P2, P4,
    # P5 and monotone are decided from d and the formula, as under max, and
    # scaled P4 finds no pair to show; under max, scaled P is read nowhere
    interval = {k: v for k, v in BASE.items() if k not in ("points", "d")}
    table = {"table": {"grid": [0.0, 1.0, 2.0], "values": [[0.0, 1.0, 2.0], [1.0, 1.5, 2.5],
                                                           [2.0, 2.5, 3.0]]}}
    cases = [dict(BASE, op=table),
             dict(interval, op=table, interval=[-2.0, 2.0], resolution=0.01)]
    values = []
    real_kernel = core._kernel

    def kernel(*args):
        out = real_kernel(*args)
        values.append(np.size(out))
        return out

    monkeypatch.setattr(core, "_kernel", kernel)
    for doc in cases:
        inst_file = g.load_instance(write(tmp_path, doc))
        values.clear()
        g.run_command("axioms", inst_file)
        assert values == [1000, 1000, 1000]
    for doc in (BASE, dict(interval, interval=[-2.0, 2.0], resolution=0.01)):
        inst_file = g.load_instance(write(tmp_path, doc))
        values.clear()
        assert g.run_command("axioms", inst_file).exit_code == 0
        assert values == []

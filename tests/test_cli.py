import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import core, induced
from gpmspace.cli import Options

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
    "version-2": (dict(BASE, version=2), "version"),
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
    assert fam.data["open_sets"] == [[], ["a", "b"]]


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
    # scaled diameters diverge: the battery is skipped with a note, not failed
    assert cantor.checks == []
    assert any("cantor: skipped" in n for n in cantor.notes)
    assert cantor.exit_code == 0


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


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_unwritable_output_path_exits_2_naming_option_and_path(tmp_path, capsys, option):
    # exit 1 means a check failed, so an unwritable path must not die with it
    target = str(tmp_path / "missing" / "x.out")
    assert g.main(["dalpha", write(tmp_path, BASE), option, target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{option} {target}" in captured.err


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


def test_carrier_above_max_points_makes_topology_identity_inconclusive(tmp_path, capsys):
    n = 16
    doc = dict(BASE, points=[f"x{i}" for i in range(n)],
               d=[[abs(i - j) for j in range(n)] for i in range(n)])
    path = write(tmp_path, doc)
    for command in ("topology", "separation"):
        assert g.main([command, path]) == 2
        assert "max-points" in capsys.readouterr().err
    for command in ("dalpha", "full-report"):
        assert g.main([command, path]) == 1
        report = json.loads(capsys.readouterr().out)
        identity = [c for c in report["checks"] if c["name"].startswith("topology_identity")]
        assert [c["verdict"] for c in identity] == ["inconclusive"]
        assert "max_points=15" in identity[0]["note"]
    # within the cap the same check runs
    assert g.main(["dalpha", path, "--max-points", "16"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["verdict"] for c in report["checks"]
            if c["name"].startswith("topology_identity")] == ["pass"]


def test_full_report_work_counts(tmp_path, monkeypatch):
    # machine-independent work of one fresh line-9 scaled/max full-report;
    # a change that derives something twice raises these counts
    n = 9
    doc = dict(BASE, points=[f"x{i}" for i in range(n)],
               d=[[abs(i - j) for j in range(n)] for i in range(n)])
    inst_file = g.load_instance(write(tmp_path, doc))
    values, pairs = [], []
    real_kernel, real_solve = core._kernel, induced._solve_d_alpha

    def kernel(*args):
        out = real_kernel(*args)
        values.append(np.size(out))
        return out

    def solve(inst, todo, *args):
        pairs.append(len(todo))
        return real_solve(inst, todo, *args)

    monkeypatch.setattr(core, "_kernel", kernel)
    monkeypatch.setattr(induced, "_solve_d_alpha", solve)
    g.run_command("full-report", inst_file)
    # separation reads two per-instance tensors: P at the t grid and its halves
    # (12 x 81 values) and the 64 base-ball depths (64 x 81 values)
    assert (len(values), sum(values)) == (239, 14712)
    assert (len(pairs), sum(pairs)) == (5, 49)

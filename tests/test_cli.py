import json
import subprocess
import sys

import pytest

import gpmspace as g
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
    path = tmp_path / name
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
    "interval-not-numeric": ({**{k: v for k, v in BASE.items() if k not in ("points", "d")},
                              "interval": ["x", 2], "resolution": 0.5}, "interval"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, case):
    doc, field = MALFORMED[case]
    assert g.main(["axioms", write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


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

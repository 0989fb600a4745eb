"""Golden canonical reports: full-report bytes must not change.

``golden/`` holds small instance files that cover the plus, max and table
operations and all five families, finite and interval carriers.
``golden/full-report.sha256`` lists the sha256 of each instance's canonical
full-report, ``golden/commands.sha256`` that of the canonical report of every
(instance, command) pair, or ``exit-2`` where the command refuses the instance,
and ``golden/csv.sha256`` the sha256 of the ``--csv`` payload of ``dalpha``,
``sequences`` and ``full-report`` on every instance where the command writes one.
``golden/verdicts.txt`` holds one ``<verdict>/<witness_count>  <instance>
<check name>`` line per check of every full-report, so a diff of it shows a
verdict move apart from a format change.
``golden/workloads.sha256`` lists the ``instance_digest`` of every benchmark
workload file at the seeds CI replays, so the normalized instance the
benchmark measures cannot move unnoticed.
Any change of report or payload bytes fails here; a change that means to
alter them regenerates the manifests with ``golden/regenerate.py``, which
prints every entry that moved, and says so.
"""
import contextlib
import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings

import gpmspace as g
from gpmspace import balls
from helpers import all_workload_docs, gallery_instances, perfbench_module, workload_docs

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _manifest(name):
    """``{rest of the line: sha256}``: "instance", or "instance command" for CSV payloads."""
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return {" ".join(rest): sha for sha, *rest in (line.split() for line in fh if line.strip())}


MANIFEST = _manifest("full-report.sha256")
COMMANDS_MANIFEST = _manifest("commands.sha256")
CSV_MANIFEST = _manifest("csv.sha256")
WORKLOADS_MANIFEST = _manifest("workloads.sha256")
VERDICTS = _manifest("verdicts.txt")  # {"instance check": "verdict/witness_count"}


def _instance_path(name):
    return os.path.join(GOLDEN, f"{name}.instance.json")


def _load_doc(name):
    with open(_instance_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_set_covers_every_family_and_op():
    docs = [_load_doc(name) for name in MANIFEST]
    assert {d["family"] for d in docs} == set(g.FAMILIES)
    assert {d["op"] if isinstance(d["op"], str) else "table" for d in docs} == \
        {"plus", "max", "table"}
    assert any("interval" in d for d in docs)
    assert sorted(f for f in os.listdir(GOLDEN) if f.endswith(".instance.json")) == \
        sorted(f"{name}.instance.json" for name in MANIFEST)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_full_report_bytes_match_golden(name):
    f = g.load_instance(_instance_path(name))
    # twice on one instance: the second report reads the memoized derivations
    for _ in range(2):
        text = g.run_command("full-report", f).to_canonical_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MANIFEST[name]


def test_commands_manifest_covers_every_pair():
    assert set(COMMANDS_MANIFEST) == {f"{name} {command}" for name in MANIFEST
                                      for command in g.cli.COMMANDS}
    for name in MANIFEST:
        assert COMMANDS_MANIFEST[f"{name} full-report"] == MANIFEST[name]


@pytest.mark.parametrize("command", g.cli.COMMANDS)
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_command_report_bytes_match_golden(name, command):
    f = g.load_instance(_instance_path(name))
    expected = COMMANDS_MANIFEST[f"{name} {command}"]
    if expected == "exit-2":
        with pytest.raises(g.GpmsError):
            g.run_command(command, f)
        return
    report = g.run_command(command, f)
    text = report.to_canonical_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
    # the one-pass writer against the indenting encoder it replaced
    assert text == json.dumps(report.to_jsonable(), sort_keys=True, indent=2) + "\n"
    # the benchmark's counts and gate read these off the check objects, not the text
    trees = json.loads(text)["checks"]
    assert [(c.name, c.verdict, c.note, c.samples_tested, len(c.witnesses))
            for c in report.checks] == \
        [(t["name"], t["verdict"], t["note"], t["samples_tested"], t["witness_count"])
         for t in trees]


def test_verdicts_cover_every_instance():
    assert {key.split()[0] for key in VERDICTS} == set(MANIFEST)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_verdicts_match_golden(name):
    report = g.run_command("full-report", g.load_instance(_instance_path(name)))
    assert {f"{name} {c.name}": f"{c.verdict}/{len(c.witnesses)}" for c in report.checks} == \
        {key: v for key, v in VERDICTS.items() if key.split()[0] == name}


def test_every_golden_fail_witness_passes_the_benchmark_gate():
    # the gate re-evaluates each stated P1-P4 and monotone violation through
    # eval_P and eval_op; every such check comes from axioms and full-report
    gate = perfbench_module("gate")
    gated = 0
    for name in sorted(MANIFEST):
        for command in g.COMMANDS:
            f = g.load_instance(_instance_path(name))
            try:
                report = g.run_command(command, f)
            except g.GpmsError:
                continue
            gated += sum(c.name in gate.GATED and c.verdict == "fail" for c in report.checks)
            assert gate.irreproducible(f.instance, report.checks) == [], (name, command)
    fails = [key for key, v in VERDICTS.items()
             if key.split()[1] in gate.GATED and v.startswith("fail/")]
    assert gated == 2 * len(fails) > 0


def test_workload_digests_match_golden(tmp_path):
    docs = all_workload_docs()
    assert list(docs) == list(WORKLOADS_MANIFEST)
    path = tmp_path / "workload.json"
    for key, doc in docs.items():
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert g.load_instance(str(path)).digest == WORKLOADS_MANIFEST[key], key


def test_reports_never_enter_the_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):  # the guard is live: indent selects that encoder
        json.dumps([1], indent=2)
    name = "scaled-max-line4"
    f = g.load_instance(_instance_path(name))  # the instance digest: compact C encoder
    text = g.run_command("full-report", f).to_canonical_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MANIFEST[name]


@pytest.mark.parametrize("name", ("scaled-max-collinear3", "interval-sweep1-damped"))
def test_false_fail_reproducers_pass_p3(name):
    # two rounding artifacts that the grid scans once reported as P3 fails:
    # the collinear points 0, 6, 14 (scaled/max, t grid 1.7999999999999998,
    # 2.4) and the damped interval-sweep instance at seed 1
    f = g.load_instance(_instance_path(name))
    p3, = [c for c in g.run_command("axioms", f).checks if c.name == "P3"]
    assert p3.verdict == "pass" and "all t > 0, exact" in p3.note


def test_p4_pass_and_the_topology_identity_agree_on_clustered6():
    # scaled P = d / t is unbounded as t -> 0+, so P4 holds and no d_alpha is
    # 0: tau_d_alpha is discrete, and tau_P's two clusters of three are a grid
    # artifact, not a per-alpha separation failure
    f = g.load_instance(_instance_path("scaled-max-clustered6"))
    checks = {c.name: c for c in g.run_command("full-report", f).checks}
    assert checks["P4"].verdict == "pass"
    identity = checks["topology_identity[alpha=4]"]
    assert identity.verdict == "inconclusive"
    assert identity.note == "tau_P lacks open sets at this grid resolution (grid artifact)"
    assert identity.data == {"alpha": 4.0, "tau_P_size": 4, "tau_d_alpha_size": 64,
                             "merged_classes": [["p0", "p1", "p2"], ["p3", "p4", "p5"]]}
    assert not any("per-alpha separation fails" in c.note for c in checks.values())


@pytest.mark.parametrize("name", [f"golden/{n}" for n in sorted(MANIFEST) if "points" in
                                  _load_doc(n)] + [f"finite-topology/{n}" for n in
                                                   sorted(workload_docs("finite-topology", 11))])
def test_topology_family_states_tau_p_by_its_classes(tmp_path, name):
    # tau_P is the partition topology of its classes: the report states the
    # classes and the count 2^k.  Each class holds the points that its least
    # point reaches through shared least grid balls B(x, min alpha, min t),
    # found with eval_P: an oracle that lists nothing.  Within the 15-class
    # bound of generate_topology, the unions of the classes are its listing
    kind, key = name.split("/")
    doc = _load_doc(key) if kind == "golden" else workload_docs("finite-topology", 11)[key]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    inst_file = g.load_instance(str(path))
    inst, car = inst_file.instance, inst_file.instance.carrier
    family, = [c for c in g.run_command("topology", inst_file).checks
               if c.name == "topology_family"]
    classes = family.data["classes"]
    assert set(family.data) == {"classes", "count"}
    assert sorted(p for c in classes for p in c) == sorted(car.labels)
    assert all(classes) and family.data["count"] == 2 ** len(classes)
    t, alpha = min(inst.t_grid), min(inst.alpha_grid)
    least = {x: {y for y in car.labels if g.eval_P(inst, x, y, t) < alpha} for x in car.labels}
    for c in classes:
        reach, todo = {c[0]}, [c[0]]
        while todo:
            new = least[todo.pop()] - reach
            reach |= new
            todo += new
        assert reach == set(c)
    if len(classes) > 15:
        return
    unions = [frozenset()]
    for c in classes:
        unions += [u | frozenset(c) for u in unions]
    assert set(unions) == set(map(frozenset, g.generate_topology(inst).to_jsonable(car)))


@pytest.mark.parametrize("command", ("dalpha", "sequences", "full-report"))
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_csv_payload_bytes_match_golden(tmp_path, name, command):
    path = tmp_path / "payload.csv"
    f = g.load_instance(_instance_path(name))
    # dalpha refuses an op other than max; then, as elsewhere, no payload is written
    with contextlib.suppress(g.HypothesisError):
        g.run_command(command, f, g.Options(csv=str(path)))
    key = f"{name} {command}"
    if key not in CSV_MANIFEST:
        assert not path.exists()
        return
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_MANIFEST[key]


# command -> (its refusal, full-report's skip reason)
REFUSALS = {
    "topology": ("topology generation needs a finite carrier", "needs a finite carrier"),
    "separation": ("separation needs a finite carrier within --max-points",
                   "needs a finite carrier within --max-points"),
    "dalpha": ("the dalpha command requires op = max", "requires op = max"),
}


def _single_commands(inst_file):
    """The checks of the six single commands concatenated in ``COMMANDS`` order,
    their notes, the skip note of each command that refuses the instance, and
    the refused commands."""
    checks, notes, refused = [], [], []
    for command in g.COMMANDS[:-1]:
        try:
            report = g.run_command(command, inst_file)
        except g.GpmsError as exc:
            refusal, why = REFUSALS[command]
            assert str(exc) == refusal
            notes.append(f"{command}: skipped ({why})")
            refused.append(command)
            continue
        checks += report.to_jsonable()["checks"]
        notes += report.notes
    return checks, notes, refused


def _assert_full_report_is_the_six_commands(inst_file):
    full = g.run_command("full-report", inst_file).to_jsonable()
    checks, notes, refused = _single_commands(inst_file)
    assert full["checks"] == checks
    assert full["notes"] == notes
    return refused


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_full_report_is_the_six_commands_in_order(capsys, name):
    refused = _assert_full_report_is_the_six_commands(g.load_instance(_instance_path(name)))
    for command in refused:
        assert g.main([command, _instance_path(name)]) == 2
        assert capsys.readouterr().err == f"error: {REFUSALS[command][0]}\n"


@settings(max_examples=40, deadline=None)
@given(gallery_instances())
def test_full_report_is_the_six_commands_on_gallery_instances(inst):
    inst_file = g.InstanceFile(version=1, instance=inst, seed=0, tol=1e-6, digest="",
                               source={})
    _assert_full_report_is_the_six_commands(inst_file)


def _invariants(inst):
    """What must not depend on the order of the points: verdicts, and the
    topology, its classes and d_alpha table keyed by labels."""
    car = inst.carrier
    verdicts = {ax: g.check_P_axiom(inst, ax).verdict for ax in ("P1", "P2", "P4", "P5", "monotone")}
    verdicts["P3"] = g.check_P_axiom(inst, "P3", exhaustive=True).verdict
    for theorem in ("ball_open", "closed_ball_closed"):
        verdicts[theorem] = g.verify_ball_theorem(inst, theorem).verdict

    def labels(bits):
        return frozenset(g.SubsetMask(car.size, bits).labels(car))

    out = {"verdicts": verdicts,
           "tau_P": {labels(m.bits) for m in g.generate_topology(inst)},
           "classes": {labels(c.bits) for c in balls.tau_p_classes(inst)}}
    if inst.op.kind == "max":
        alpha = inst.alpha_grid[len(inst.alpha_grid) // 2]
        try:
            verdicts["topology_identity"] = g.compare_topologies(inst, alpha).verdict
        except g.HypothesisError:
            verdicts["topology_identity"] = "hypothesis fails"
        table = g.alpha_metric_table(g.AlphaMetric(inst, alpha))
        out["d_alpha"] = {(a, b): table[i][j] for i, a in enumerate(car.labels)
                          for j, b in enumerate(car.labels)}
    return out


@pytest.mark.parametrize("name", sorted(n for n in MANIFEST if "points" in _load_doc(n)))
def test_permuting_the_points_permutes_every_result(tmp_path, name):
    # sampled P3 is left out: it draws its trials by point index
    doc = _load_doc(name)
    n = len(doc["points"])
    perm = list(range(n))
    random.Random(name).shuffle(perm)
    if perm == sorted(perm):
        perm = perm[1:] + perm[:1]
    shuffled = dict(doc, points=[doc["points"][i] for i in perm],
                    d=[[doc["d"][i][j] for j in perm] for i in perm])
    path = tmp_path / "permuted.json"
    path.write_text(json.dumps(shuffled), encoding="utf-8")
    permuted = g.load_instance(str(path)).instance
    original = g.load_instance(_instance_path(name)).instance
    assert permuted.carrier.labels != original.carrier.labels
    assert _invariants(permuted) == _invariants(original)

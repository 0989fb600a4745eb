"""Smoke test of the benchmark itself, on tiny carriers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
import json
import os
import tempfile

import pytest

import run
import workloads

gpmspace = run._import_program()

import gate  # noqa: E402  (needs the sources on the path first)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        a = workloads.write_instances(workload, 3, os.path.join(tmp, "a"), tiny=True)
        b = workloads.write_instances(workload, 3, os.path.join(tmp, "b"), tiny=True)
        assert list(a) == list(b)
        for name in a:
            with open(a[name], "rb") as fa, open(b[name], "rb") as fb:
                assert fa.read() == fb.read()
            assert gpmspace.load_instance(a[name]).seed == 3
    assert workloads.instance_docs(workload, 4, tiny=True) != \
        workloads.instance_docs(workload, 3, tiny=True)


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_prints(workload, trace, capsys, monkeypatch):
    real = run.run_workload
    monkeypatch.setattr(run, "run_workload",
                        lambda *a, **kw: real(*a, tiny=True, **kw))
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True  # gate and traced replay agree with the reports
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        assert any(f" {name} = " in line for line in lines[:-1])
    # a time that is constant across runs would be rejected; unused layers are not 0
    assert all(m["value"] != 0 for m in result["metrics"].values() if m["unit"] == "s")


def _constant_max_p3():
    carrier = gpmspace.FiniteCarrier(("a", "b", "c"), [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    inst = gpmspace.gallery_construct("constant", {}, carrier, gpmspace.MAX,
                                      (0.5, 1.0, 2.0), (0.5, 1.0, 2.0))
    check = gpmspace.check_P_axiom(inst, "P3", exhaustive=True)
    assert check.verdict == gpmspace.FAIL
    return inst, check


def test_gate_accepts_reproducible_witnesses():
    inst, check = _constant_max_p3()
    assert gate.irreproducible(inst, [check]) == []


@pytest.mark.parametrize("change", [{"lhs": 1.0}, {"rhs": 99.0}])
def test_gate_flags_planted_witness(change):
    inst, check = _constant_max_p3()
    real = check.witnesses[0]
    planted = gpmspace.Witness(points=real.points, values={**real.values, **change},
                               detail=real.detail)
    check.witnesses = (planted,) + check.witnesses[1:]
    assert gate.irreproducible(inst, [check]) == [("P3", planted)]


def test_gate_flags_stated_values_without_violation():
    inst, _ = _constant_max_p3()
    s, t = 0.5, 0.5
    lhs = gpmspace.eval_P(inst, "a", "b", s + t)
    rhs = gpmspace.eval_op(inst.op, gpmspace.eval_P(inst, "a", "a", s),
                           gpmspace.eval_P(inst, "b", "a", t))
    planted = gpmspace.Witness(points=("a", "b", "a"),
                               values={"s": s, "t": t, "lhs": lhs, "rhs": rhs})
    check = gpmspace.CheckReport(name="P3", verdict=gpmspace.FAIL, witnesses=(planted,))
    assert gate.irreproducible(inst, [check]) == [("P3", planted)]


def test_gate_flags_foreign_point():
    inst, _ = _constant_max_p3()
    planted = gpmspace.Witness(points=("a", "zz"), values={"t": 1.0, "lhs": 1.0, "rhs": 2.0})
    check = gpmspace.CheckReport(name="P2", verdict=gpmspace.FAIL, witnesses=(planted,))
    assert gate.irreproducible(inst, [check]) == [("P2", planted)]

"""Golden canonical reports: full-report bytes must not change.

``golden/`` holds small instance files that cover the plus, max and table
operations and all five families, finite and interval carriers.
``golden/full-report.sha256`` lists the sha256 of each instance's canonical
full-report, and ``golden/csv.sha256`` the sha256 of the ``--csv`` payload of
``dalpha`` and ``sequences`` on every instance where the command writes one.
Any change of report or payload bytes fails here; a change that means to
alter them regenerates the manifest and says so.
"""
import contextlib
import hashlib
import json
import os

import pytest

import gpmspace as g

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _manifest(name):
    """``{rest of the line: sha256}``: "instance", or "instance command" for CSV payloads."""
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return {" ".join(rest): sha for sha, *rest in (line.split() for line in fh if line.strip())}


MANIFEST = _manifest("full-report.sha256")
CSV_MANIFEST = _manifest("csv.sha256")


def _instance_path(name):
    return os.path.join(GOLDEN, f"{name}.instance.json")


def test_golden_set_covers_every_family_and_op():
    docs = []
    for name in MANIFEST:
        with open(_instance_path(name), encoding="utf-8") as fh:
            docs.append(json.load(fh))
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


@pytest.mark.parametrize("command", ("dalpha", "sequences"))
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

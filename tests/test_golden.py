"""Golden canonical reports: full-report bytes must not change.

``golden/`` holds small instance files that cover the plus, max and table
operations and all five families, finite and interval carriers.
``golden/full-report.sha256`` lists the sha256 of each instance's canonical
full-report.  Any change of report bytes fails here; a change that means to
alter reports regenerates the manifest and says so.
"""
import hashlib
import json
import os

import pytest

import gpmspace as g

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _manifest():
    with open(os.path.join(GOLDEN, "full-report.sha256"), encoding="utf-8") as fh:
        return dict(reversed(line.split()) for line in fh if line.strip())


MANIFEST = _manifest()


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

"""Rewrite the golden manifests from the instance files next to this script.

    python3 tests/golden/regenerate.py

runs every command on every ``*.instance.json`` here and rewrites
``full-report.sha256``, ``commands.sha256``, ``csv.sha256`` and
``verdicts.txt`` (see ``tests/test_golden.py`` for what each holds).  It also
loads every file of every benchmark workload at the seeds CI replays
(``helpers.all_workload_docs``) and rewrites ``workloads.sha256`` with each
file's ``instance_digest``.
Every entry that is added, changed or dropped is printed, so a change that
means to alter report bytes can name what moved; with no change the files
are rewritten byte for byte.
"""
import contextlib
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
sys.path.insert(0, os.path.dirname(HERE))

import gpmspace as g  # noqa: E402
from helpers import all_workload_docs  # noqa: E402

CSV_COMMANDS = ("dalpha", "sequences", "full-report")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(name):
    path = os.path.join(HERE, name)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return {" ".join(rest): sha for sha, *rest in (line.split() for line in fh if line.strip())}


def _write(name, entries):
    """Write ``entries`` (key -> sha, in order) and print what moved."""
    old = _read(name)
    with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
        fh.writelines(f"{sha}  {key}\n" for key, sha in entries.items())
    for key in sorted(old.keys() | entries.keys()):
        if old.get(key) != entries.get(key):
            print(f"{name}: {key}: {old.get(key, '-')} -> {entries.get(key, '-')}")


def verdict_lines(name, report):
    """``{"instance check": "verdict/witness_count"}`` for every check of ``report``."""
    return {f"{name} {c.name}": f"{c.verdict}/{len(c.witnesses)}" for c in report.checks}


def main():
    names = sorted(f[:-len(".instance.json")] for f in os.listdir(HERE)
                   if f.endswith(".instance.json"))
    commands, csvs, verdicts = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "payload.csv")
        for name in names:
            instance_path = os.path.join(HERE, f"{name}.instance.json")
            for command in g.COMMANDS:
                f = g.load_instance(instance_path)
                try:
                    report = g.run_command(command, f)
                except g.GpmsError:
                    commands[f"{name} {command}"] = "exit-2"
                else:
                    commands[f"{name} {command}"] = _sha(report.to_canonical_json().encode("utf-8"))
                    if command == "full-report":
                        verdicts.update(verdict_lines(name, report))
                if command not in CSV_COMMANDS:
                    continue
                # a command that refuses the instance writes no payload
                with contextlib.suppress(g.HypothesisError):
                    g.run_command(command, g.load_instance(instance_path),
                                  g.Options(csv=csv_path))
                if os.path.exists(csv_path):
                    with open(csv_path, "rb") as fh:
                        csvs[f"{name} {command}"] = _sha(fh.read())
                    os.remove(csv_path)
        digests = {}
        doc_path = os.path.join(tmp, "workload.json")
        for key, doc in all_workload_docs().items():
            with open(doc_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            digests[key] = g.load_instance(doc_path).digest
    _write("full-report.sha256", {name: commands[f"{name} full-report"] for name in names})
    _write("commands.sha256", commands)
    # the dalpha and sequences payloads by instance, then the full-report ones
    _write("csv.sha256", {key: csvs[key] for key in sorted(
        csvs, key=lambda key: (key.endswith(" full-report"), key))})
    _write("workloads.sha256", digests)
    _write("verdicts.txt", verdicts)


if __name__ == "__main__":
    main()

"""File-driven front end: parse instance files, dispatch checks, emit reports.

Instance file schema (JSON, version 1); unknown fields are rejected::

    {
      "version": 1,
      "points": ["a", "b", "c"],          # finite carrier ...
      "d": [[0,1,3],[1,0,2],[3,2,0]],
      # ... or an interval carrier instead:
      # "interval": [-2.0, 2.0], "resolution": 0.25,
      "family": "scaled",                  # scaled|constant|damped|discrete|tabulated
      "params": {},                        # {"c": 1.0} for discrete,
                                           # {"tables": [{"pair": [..], "t": [..], "v": [..]}]}
      "op": "plus",                        # "plus" | "max" | {"table": {"grid": [...],
                                           #                             "values": [[...]]}}
      "t_grid": [0.0001, 0.5, 1, 2, 4, 50],
      "alpha_grid": [0.25, 0.5, 1, 2, 4],
      "seed": 0,
      "tol": 1e-6
    }

Every number in the file must be a JSON number: booleans, numeric strings
and integers beyond the float range are refused, naming the field.

Each command but ``full-report`` runs one battery of checks, one call to
the entry point of the module that owns it; ``full-report`` runs all six in
this order.  A battery that does not apply refuses its own command and is
skipped with a note under ``full-report``::

    command     entry point (its docstring lists the checks)  applies when
    axioms      core.check_P_axioms                           always
    topology    balls.topology_battery                        finite carrier
    separation  separation.separation_battery                 finite carrier within --max-points
    dalpha      induced.dalpha_battery                        op = max
    sequences   sequences.sequence_battery                    always
    cantor      sequences.cantor_battery                      always

This module only parses, dispatches and writes; a ``cantor`` battery whose
hypotheses fail gives a ``cantor: skipped (...)`` note and no check.

``topology`` states tau_P by its classes and their count 2^k, listing no
open set; ``--max-points`` (default 15) caps only the carrier ``separation``
runs on, whose checks grow as n^2.

``--csv`` writes the d_alpha table (``dalpha`` and ``full-report``, finite
carriers) or the P trace of the test sequence (``sequences``, intervals).
Its rows are built only when written, after the report.  Exit status is 0
iff every emitted check passes, 1 otherwise, 2 on errors, among them an
instance file that cannot be read as UTF-8 JSON and an ``--out`` or
``--csv`` path that cannot be written.  Reports serialize canonically
(sorted keys, floats at 12 significant digits) so byte-identical output
certifies determinism; wall time goes to stderr only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import chain

from . import balls, core, induced, separation, sequences
from .binop import MAX, PLUS, BinaryOperation
from .errors import (
    ConstructionError,
    DomainError,
    GpmsError,
    HypothesisError,
    ParseError,
    SizeError,
)
from .reports import PASS, Templated, canonical, canonical_json, compact_json

REPORT_VERSION = 2

_TOP_FIELDS = {"version", "points", "d", "interval", "resolution", "family",
               "params", "op", "t_grid", "alpha_grid", "seed", "tol"}
# the params each family reads; the other families read none
_FAMILY_PARAMS = {"discrete": {"c"}, "tabulated": {"tables"}}


@dataclass
class InstanceFile:
    version: int
    instance: core.GpmsInstance
    seed: int
    tol: float
    digest: str
    source: dict


@dataclass
class Options:
    seed: int | None = None
    tol: float | None = None
    max_points: int = 15
    alpha: float | None = None
    n_samples: int = 1000
    out: str | None = None
    csv: str | None = None


@dataclass
class Report:
    command: str
    digest: str
    grids: dict
    seed: int
    tol: float
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    wall_time: float = 0.0  # stderr only; kept out of the canonical body

    @property
    def exit_code(self) -> int:
        return 0 if all(c.verdict == PASS for c in self.checks) else 1

    def _body(self):
        return {
            "report_version": REPORT_VERSION,
            "command": self.command,
            "instance_digest": self.digest,
            "grids": self.grids,
            "seed": self.seed,
            "tol": self.tol,
            # a row view (``Templated``) stays as it is, for the writer to
            # write a column at a time; every other check is written as its tree
            "checks": [c if isinstance(c, Templated) else c.to_jsonable() for c in self.checks],
            "notes": list(self.notes),
        }

    def to_jsonable(self):
        return canonical(self._body())

    def to_canonical_json(self) -> str:
        return canonical_json(self._body())


def _parse_op(spec) -> BinaryOperation:
    if spec == "plus":
        return PLUS
    if spec == "max":
        return MAX
    if isinstance(spec, dict) and set(spec) == {"table"}:
        table = spec["table"]
        if not isinstance(table, dict) or set(table) != {"grid", "values"}:
            raise ParseError("op table needs exactly the fields 'grid' and 'values'", field="op")
        return BinaryOperation.tabulated(table["grid"], table["values"])
    raise ParseError(f"op must be 'plus', 'max' or {{'table': ...}}, got {spec!r}", field="op")


def _expect(doc, key, types, what):
    if key not in doc:
        raise ParseError(f"missing required field {key!r}", field=key)
    val = doc[key]
    if not isinstance(val, types):
        raise ParseError(f"field {key!r} must be {what}", field=key)
    return val


def _grid(doc, key):
    """The file's t or alpha grid, checked by ``core``'s grid rule."""
    raw = _expect(doc, key, list, "a list of numbers")
    try:
        return core._validate_grid(raw, key)
    except ConstructionError as exc:
        raise ParseError(str(exc), field=key) from None


def _number_fields(doc):
    """``(field, value)`` for each value of the file that holds numbers only."""
    fields = [(key, doc[key]) for key in ("version", "d", "interval", "resolution",
                                          "t_grid", "alpha_grid", "seed", "tol") if key in doc]
    params = doc.get("params")
    if isinstance(params, dict):
        if "c" in params:
            fields.append(("params.c", params["c"]))
        if isinstance(params.get("tables"), list):
            for k, entry in enumerate(params["tables"]):
                if isinstance(entry, dict):
                    fields += [(f"params.tables[{k}].{key}", entry[key])
                               for key in ("t", "v") if key in entry]
    op = doc.get("op")
    if isinstance(op, dict) and isinstance(op.get("table"), dict):
        fields += [(f"op.table.{key}", op["table"][key])
                   for key in ("grid", "values") if key in op["table"]]
    return fields


def _non_number(value):
    """Why ``value`` (a number, or nested lists of them) holds something other
    than a JSON number within the float range, or None if it does not."""
    level = [value]
    while level:
        kinds = set(map(type, level))
        if not kinds <= {int, float, list}:
            bad = next(v for v in level if type(v) not in (int, float, list))
            return f"must hold JSON numbers only, got {bad!r}"
        rows = [v for v in level if type(v) is list] if list in kinds else []
        if int in kinds:
            try:  # adding an int to a float converts it
                sum([v for v in level if type(v) is not list] if rows else level, 0.0)
            except OverflowError:
                return "holds an integer beyond the float range"
        level = list(chain.from_iterable(rows))
    return None


def _check_numbers(doc):
    """Refuse anything but JSON numbers where the schema holds numbers, naming
    the field: NumPy and ``float`` read ``true`` and ``"1"`` as 1, and raise
    ``OverflowError`` on an integer beyond the float range.  One scan reads
    every field; only a file it refuses is scanned again, field by field, to
    name the first that fails."""
    fields = _number_fields(doc)
    if _non_number([value for _, value in fields]) is None:
        return
    for key, value in fields:
        why = _non_number(value)
        if why is not None:
            raise ParseError(f"{'distance table d' if key == 'd' else key} {why}", field=key)


def load_instance(path) -> InstanceFile:
    """Parse, validate and sanity-check an instance file.

    The instance digest is the SHA-256 hex digest of the UTF-8 bytes of
    ``json.dumps(canonical(inst.describe()), sort_keys=True)``, which
    ``reports.compact_json`` writes in one pass.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read instance file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance file must hold a JSON object")
    unknown = sorted(set(doc) - _TOP_FIELDS)
    if unknown:
        raise ParseError(f"unknown field {unknown[0]!r}", field=unknown[0])

    _check_numbers(doc)
    version = _expect(doc, "version", int, "an integer")
    if version != 1:
        raise ParseError(f"version must be 1, got {version}", field="version")

    has_finite = "points" in doc or "d" in doc
    has_interval = "interval" in doc or "resolution" in doc
    if has_finite == has_interval:
        raise ParseError("provide either points + d or interval + resolution", field="points")
    if has_finite:
        labels = _expect(doc, "points", list, "a list of labels")
        odd = [x for x in labels if type(x) not in (str, int, float)]  # type(True) is bool
        if odd:
            raise ParseError(f"a label must be a string or number, got {odd[0]!r}", field="points")
        table = _expect(doc, "d", list, "a square matrix")
        carrier = core.FiniteCarrier(labels, table)
    else:
        iv = _expect(doc, "interval", list, "a pair [lo, hi]")
        if len(iv) != 2:
            raise ParseError("interval must be a pair [lo, hi]", field="interval")
        res = _expect(doc, "resolution", (int, float), "a positive number")
        carrier = core.IntervalCarrier(iv[0], iv[1], res)

    family = _expect(doc, "family", str, "a family name")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("params must be an object", field="params")
    if family in core.FAMILIES:  # construction names an unknown family
        unread = sorted(set(params) - _FAMILY_PARAMS.get(family, set()))
        if unread:
            raise ParseError(f"unknown field 'params.{unread[0]}' for the {family} family",
                             field=f"params.{unread[0]}")
    op = _parse_op(_expect(doc, "op", (str, dict), "an op descriptor"))
    t_grid = _grid(doc, "t_grid")
    alpha_grid = _grid(doc, "alpha_grid")
    seed = _expect(doc, "seed", int, "an integer")
    tol = _expect(doc, "tol", (int, float), "a positive number")
    if not (math.isfinite(tol) and tol > 0):
        raise ParseError("tol must be a positive finite number", field="tol")

    inst = core.gallery_construct(family, params, carrier, op, t_grid, alpha_grid)
    digest = hashlib.sha256(compact_json(inst.describe()).encode("utf-8")).hexdigest()
    return InstanceFile(version=version, instance=inst, seed=int(seed),
                        tol=float(tol), digest=digest, source=doc)


def validate_instance_file(path) -> core.GpmsInstance:
    """Parse an instance file; returns the sanity-checked instance."""
    return load_instance(path).instance


# -- command batteries: ``(inst, opts, seed, tol) -> (checks, notes, csv_rows)``,
# each one call to its entry point; ``csv_rows`` is None or builds the rows,
# the header row first, only when the payload is written


def _axioms(inst, opts, seed, tol):
    return core.check_P_axioms(inst, seed=seed, n_samples=opts.n_samples), [], None


def _topology(inst, opts, seed, tol):
    return balls.topology_battery(inst), [], None


def _separation(inst, opts, seed, tol):
    return separation.separation_battery(inst), [], None


def _dalpha(inst, opts, seed, tol):
    checks, rows = induced.dalpha_battery(inst, opts.alpha, tol, seed)
    return checks, [], rows


def _sequences(inst, opts, seed, tol):
    checks, rows = sequences.sequence_battery(inst, tol)
    return checks, [], rows


def _cantor(inst, opts, seed, tol):
    try:
        return [sequences.cantor_battery(inst, tol)], [], None
    except (HypothesisError, DomainError) as exc:
        return [], [f"cantor: skipped (hypotheses not satisfiable on this instance: {exc})"], None


def _finite(inst, opts):
    return inst.carrier.kind == "finite"


def _small_finite(inst, opts):
    return _finite(inst, opts) and inst.carrier.size <= opts.max_points


def _op_max(inst, opts):
    return inst.op.kind == "max"


_SMALL_FINITE = "needs a finite carrier within --max-points"

# name -> (battery, applies, error, refusal, skip reason), in the order
# full-report runs them; a battery whose ``applies`` is None always applies
_BATTERIES = {
    "axioms": (_axioms, None, None, None, None),
    "topology": (_topology, _finite, DomainError,
                 "topology generation needs a finite carrier", "needs a finite carrier"),
    "separation": (_separation, _small_finite, SizeError,
                   f"separation {_SMALL_FINITE}", _SMALL_FINITE),
    "dalpha": (_dalpha, _op_max, HypothesisError,
               "the dalpha command requires op = max", "requires op = max"),
    "sequences": (_sequences, None, None, None, None),
    "cantor": (_cantor, None, None, None, None),
}

COMMANDS = (*_BATTERIES, "full-report")


def run_command(command: str, inst_file: InstanceFile, options: Options | None = None) -> Report:
    """Run one battery, or all of them for ``full-report``, and aggregate the
    check reports.  A battery that does not apply refuses its own command and
    is skipped with a note under ``full-report``.  The report goes to
    ``options.out`` and then the CSV payload to ``options.csv``, when set."""
    if command not in COMMANDS:
        raise DomainError(f"unknown command {command!r}; expected one of {COMMANDS}")
    opts = options or Options()
    inst = inst_file.instance
    seed = opts.seed if opts.seed is not None else inst_file.seed
    tol = opts.tol if opts.tol is not None else inst_file.tol
    if not (math.isfinite(tol) and tol > 0):  # the file's rule, for --tol
        raise DomainError(f"tol must be a positive finite number, got {tol!r}")
    if opts.max_points < 0:
        raise DomainError(f"--max-points must be >= 0, got {opts.max_points}")
    start = time.perf_counter()
    report = Report(command=command, digest=inst_file.digest,
                    grids={"t_grid": list(inst.t_grid), "alpha_grid": list(inst.alpha_grid)},
                    seed=seed, tol=tol)
    csv_rows = None
    for name in _BATTERIES if command == "full-report" else (command,):
        battery, applies, error, refusal, why = _BATTERIES[name]
        if applies is not None and not applies(inst, opts):
            if name == command:
                raise error(refusal)
            report.notes.append(f"{name}: skipped ({why})")
            continue
        checks, notes, rows = battery(inst, opts, seed, tol)
        report.checks += checks
        report.notes += notes
        if name in (command, "dalpha"):  # full-report writes the d_alpha table
            csv_rows = rows

    report.wall_time = time.perf_counter() - start
    if opts.out:  # before the CSV: a report that cannot be written leaves no CSV
        _write_text("--out", opts.out, report.to_canonical_json())
    if opts.csv and csv_rows is not None:
        # '.' decimal separator and '\n' line endings regardless of locale
        text = "".join(",".join(map(_fmt, row)) + "\n" for row in csv_rows())
        _write_text("--csv", opts.csv, text)
    return report


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".12g")
    return str(x)


def _write_text(option, path, text):
    """Write ``text`` to the ``path`` that ``option`` names; a path that cannot
    be written is an error naming both."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {option} {path}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpmspace",
        description="Check generalized parametric metric instances: axioms, "
                    "topologies, separation witnesses, induced metrics, sequences.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("instance", help="path to an instance JSON file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-points", type=int, default=15,
                        help="the largest finite carrier separation runs on (default 15)")
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--csv", default=None, help="write the command's CSV payload here")
    args = parser.parse_args(argv)

    opts = Options(seed=args.seed, tol=args.tol, max_points=args.max_points,
                   alpha=args.alpha, out=args.out, csv=args.csv)
    try:
        inst_file = load_instance(args.instance)
        report = run_command(args.command, inst_file, opts)
        text = "" if opts.out else report.to_canonical_json()
    except ParseError as exc:
        where = f" (field {exc.field!r})" if exc.field else \
            f" (line {exc.line})" if exc.line else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    except GpmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(text)
    print(f"wall time: {report.wall_time:.3f}s", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

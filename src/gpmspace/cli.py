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

Each command but ``full-report`` runs one battery of checks; ``full-report``
runs all six in this order.  A battery that does not apply refuses its own
command and is skipped with a note under ``full-report``::

    command     checks                                  applies when
    axioms      P1-P5, monotone                         always
    topology    tau_P and the two ball theorems         finite carrier within --max-points
    separation  T0-T2, regular, normal, countable base  finite carrier within --max-points
    dalpha      the d_alpha table, axioms, monotone,    op = max
                topology identity
    sequences   convergence, Cauchy, bounded, ...       always
    cantor      Cantor's intersection theorem           always

``--csv`` writes the d_alpha table (``dalpha`` and ``full-report``, finite
carriers) or the P trace of the test sequence (``sequences``, intervals).
Exit status is 0 iff every emitted check passes, 1 otherwise,
2 on errors, among them an instance file that cannot be read as UTF-8 JSON
and an ``--out`` or ``--csv`` path that cannot be written.  Reports serialize canonically (sorted keys, floats at 12
significant digits) so byte-identical output certifies determinism; wall
time goes to stderr only.
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

import numpy as np

from . import balls, core, induced, separation, sequences
from .binop import MAX, PLUS, BinaryOperation
from .errors import (
    DomainError,
    GpmsError,
    HypothesisError,
    ParseError,
    PreconditionError,
    SizeError,
    WitnessNotFoundError,
)
from .reports import INCONCLUSIVE, PASS, CheckReport, canonical, canonical_json

REPORT_VERSION = 1

_TOP_FIELDS = {"version", "points", "d", "interval", "resolution", "family",
               "params", "op", "t_grid", "alpha_grid", "seed", "tol"}


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
            "checks": [c.to_jsonable() for c in self.checks],
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


def _positive_grid(doc, key):
    raw = _expect(doc, key, list, "a list of numbers")
    vals = []
    for v in raw:
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
            raise ParseError(f"{key} entries must be positive finite numbers "
                             f"(t and alpha must be positive), got {v!r}", field=key)
        vals.append(float(v))
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ParseError(f"{key} must be strictly increasing", field=key)
    return vals


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
    the field: numpy and ``float`` read ``true`` and ``"1"`` as 1, and raise
    ``OverflowError`` on an integer beyond the float range."""
    for key, value in _number_fields(doc):
        why = _non_number(value)
        if why is not None:
            raise ParseError(f"{'distance table d' if key == 'd' else key} {why}", field=key)


def load_instance(path) -> InstanceFile:
    """Parse, validate and sanity-check an instance file."""
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
    op = _parse_op(_expect(doc, "op", (str, dict), "an op descriptor"))
    t_grid = _positive_grid(doc, "t_grid")
    alpha_grid = _positive_grid(doc, "alpha_grid")
    seed = _expect(doc, "seed", int, "an integer")
    tol = _expect(doc, "tol", (int, float), "a positive number")
    if not (math.isfinite(tol) and tol > 0):
        raise ParseError("tol must be a positive finite number", field="tol")

    inst = core.gallery_construct(family, params, carrier, op, t_grid, alpha_grid)
    digest = hashlib.sha256(
        json.dumps(canonical(inst.describe()), sort_keys=True).encode("utf-8")).hexdigest()
    return InstanceFile(version=version, instance=inst, seed=int(seed),
                        tol=float(tol), digest=digest, source=doc)


def validate_instance_file(path) -> core.GpmsInstance:
    """Parse an instance file; returns the sanity-checked instance."""
    return load_instance(path).instance


# -- command batteries ----------------------------------------------------
#
# Each battery is ``(inst, opts, seed, tol) -> (checks, notes, csv_rows)``;
# ``csv_rows`` is None or a list of rows, the header row first.


def _axioms_checks(inst, opts, seed, tol):
    return [core.check_P_axiom(inst, ax, seed=seed, n_samples=opts.n_samples)
            for ax in core.P_AXIOMS], [], None


def _topology_checks(inst, opts, seed, tol):
    fam = balls.generate_topology(inst, opts.max_points)
    # the family is a topology by construction; note and sample count keep
    # the report bytes of the 2^n scan with its pairwise check
    checks = [CheckReport(
        name="topology_family", verdict=PASS, samples_tested=1 << inst.carrier.size,
        note="family verified closed under unions and pairwise intersections",
        data={"open_sets": fam.to_jsonable(inst.carrier), "count": len(fam)})]
    checks.append(balls.verify_ball_theorem(inst, "ball_open"))
    checks.append(balls.verify_ball_theorem(inst, "closed_ball_closed"))
    return checks, [], None


def _guarded(name, fn):
    """Run one battery item; hypothesis/precondition gaps become inconclusive."""
    try:
        return fn()
    except (HypothesisError, PreconditionError, WitnessNotFoundError) as exc:
        return CheckReport(name=name, verdict=INCONCLUSIVE,
                           note=f"not certifiable on this instance: {exc}")


def _separation_checks(inst, opts, seed, tol):
    labels = inst.carrier.labels
    n = len(labels)
    single = np.eye(n, dtype=bool)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    outside = [(x, i) for i in range(n) for x in range(n) if x != i]  # point x, closed {i}

    def batch(kind, rows):  # one row per (X, Y) of single points
        return separation.witness_batch(inst, kind, single[[x for x, _ in rows]],
                                        single[[y for _, y in rows]])

    def witness(name, b, r):
        def build():
            rep = b.report(r)
            rep.name = name
            return rep
        return _guarded(name, build)

    def base(name, mode, x=None):
        return _guarded(name, lambda: separation.countable_base(
            inst, mode, x=x, max_points=opts.max_points)[1])

    t_kinds = [batch(kind, pairs) for kind in ("T0", "T1", "T2")]
    regular, normal = batch("regular", outside), batch("normal", pairs)
    checks = [witness(f"{b.kind}({labels[i]},{labels[j]})", b, r)
              for r, (i, j) in enumerate(pairs) for b in t_kinds]
    checks += [witness(f"regular({{{labels[i]}}},{labels[x]})", regular, r)
               for r, (x, i) in enumerate(outside)]
    checks += [witness(f"normal({{{labels[i]}}},{{{labels[j]}}})", normal, r)
               for r, (i, j) in enumerate(pairs)]
    checks += [base(f"countable_base[local@{x}]", "local", x) for x in labels]
    checks.append(base("countable_base[global]", "global"))
    return checks, [], None


def _dalpha_checks(inst, opts, seed, tol):
    alpha = opts.alpha if opts.alpha is not None else inst.alpha_grid[len(inst.alpha_grid) // 2]
    solver = induced.BisectionSettings(tolerance=min(tol, 1e-6))
    am = induced.AlphaMetric(inst, alpha, solver)
    checks = []
    rows = None
    if inst.carrier.kind == "finite":
        table = induced.alpha_metric_table(am)
        checks.append(CheckReport(
            name=f"d_alpha_table[alpha={alpha:.12g}]", verdict=PASS,
            samples_tested=len(table) ** 2,
            data={"labels": list(inst.carrier.labels), "table": table}))
        labels = inst.carrier.labels
        rows = [["", *labels]] + [[lab, *row] for lab, row in zip(labels, table)]
    checks.append(induced.check_alpha_metric_axioms(am, seed=seed))
    checks.append(_guarded("alpha_monotonicity", lambda: induced.check_alpha_monotonicity(
        inst, inst.carrier.points()[0], inst.carrier.points()[-1],
        inst.alpha_grid, solver)))
    if inst.carrier.kind == "finite":
        checks.append(_guarded(
            f"topology_identity[alpha={alpha:.12g}]",
            lambda: induced.compare_topologies(inst, alpha, opts.max_points, solver)))
    return checks, [], rows


def _interval_frame(carrier):
    """The middle of an interval carrier and a quarter of its width."""
    return 0.5 * (carrier.lo + carrier.hi), 0.25 * (carrier.hi - carrier.lo)


def _sequences_checks(inst, opts, seed, tol):
    checks = []
    rows = None
    if inst.carrier.kind == "interval":
        mid, w = _interval_frame(inst.carrier)
        seqx = sequences.SequenceSpec("geometric", c=mid, a=w, r=0.5, n_terms=200)
        seqy = sequences.SequenceSpec("geometric", c=mid, a=-w, r=0.5, n_terms=200)
        checks.append(sequences.check_convergence(inst, seqx, mid, tol))
        checks.append(sequences.check_cauchy(inst, seqx, tol))
        checks.append(sequences.check_bounded(inst, seqx, tol, limit=mid))
        checks.append(_guarded("joint_continuity", lambda: sequences.joint_continuity_check(
            inst, seqx, seqy, mid, mid, tol)))
        indices = [2 ** k for k in range(1, 8)]
        checks.append(_guarded("subsequence_completeness",
                               lambda: sequences.subsequence_completeness_check(
                                   inst, seqx, indices, mid, tol)))
        u, v = core.coords(inst, seqx.terms(inst.carrier)), core.coords(inst, mid)
        rows = [["n", "t", "value"]] + [
            [n + 1, t, value] for t in inst.t_grid
            for n, value in enumerate(core.P_at(inst, u, v, t).tolist())]
    else:
        labels = inst.carrier.labels
        for p in labels:
            const = sequences.SequenceSpec("explicit", points=(p,) * 40)
            rep = sequences.check_convergence(inst, const, p, tol)
            rep.name = f"convergence[const@{p}]"
            checks.append(rep)
        full = balls.SubsetMask.full(inst.carrier.size)
        checks.append(sequences.check_bounded(inst, full, tol))
        checks.append(sequences.check_compact_closed_bounded(inst, full, tol))
    return checks, [], rows


def _cantor_checks(inst, opts, seed, tol):
    try:
        if inst.carrier.kind == "interval":
            mid, w = _interval_frame(inst.carrier)
            # depth 24 halvings leave a width of about 1.2e-7, below default tol
            fam = [sequences.ClosedInterval(mid - w * 0.5 ** i, mid + w * 0.5 ** i)
                   for i in range(1, 25)]
        else:
            n = inst.carrier.size
            fam = [balls.SubsetMask.from_indices(n, range(n - k))
                   for k in range(n)]
        estimate, diams, rep = sequences.cantor_intersection(inst, fam, point_tol=tol)
    except (HypothesisError, DomainError) as exc:
        return [], [f"cantor: skipped (hypotheses not satisfiable on this instance: {exc})"], None
    rep.data["estimate"] = estimate
    return [rep], [], None


def _small_finite(inst, opts):
    return inst.carrier.kind == "finite" and inst.carrier.size <= opts.max_points


def _op_max(inst, opts):
    return inst.op.kind == "max"


_SMALL_FINITE = "needs a finite carrier within --max-points"

# name -> (battery, applies, error, refusal, skip reason), in the order
# full-report runs them; a battery whose ``applies`` is None always applies
_BATTERIES = {
    "axioms": (_axioms_checks, None, None, None, None),
    "topology": (_topology_checks, _small_finite, SizeError,
                 f"topology generation {_SMALL_FINITE}", _SMALL_FINITE),
    "separation": (_separation_checks, _small_finite, SizeError,
                   f"separation {_SMALL_FINITE}", _SMALL_FINITE),
    "dalpha": (_dalpha_checks, _op_max, HypothesisError,
               "the dalpha command requires op = max", "requires op = max"),
    "sequences": (_sequences_checks, None, None, None, None),
    "cantor": (_cantor_checks, None, None, None, None),
}

COMMANDS = (*_BATTERIES, "full-report")


def run_command(command: str, inst_file: InstanceFile, options: Options | None = None) -> Report:
    """Run one battery, or all of them for ``full-report``, and aggregate the
    check reports.  A battery that does not apply refuses its own command and
    is skipped with a note under ``full-report``."""
    if command not in COMMANDS:
        raise DomainError(f"unknown command {command!r}; expected one of {COMMANDS}")
    opts = options or Options()
    inst = inst_file.instance
    seed = opts.seed if opts.seed is not None else inst_file.seed
    tol = opts.tol if opts.tol is not None else inst_file.tol
    if not (math.isfinite(tol) and tol > 0):  # the file's rule, for --tol
        raise DomainError(f"tol must be a positive finite number, got {tol!r}")
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
    if opts.csv and csv_rows is not None:
        # '.' decimal separator and '\n' line endings regardless of locale
        text = "".join(",".join(map(_fmt, row)) + "\n" for row in csv_rows)
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
    parser.add_argument("--max-points", type=int, default=15)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--csv", default=None, help="write the command's CSV payload here")
    args = parser.parse_args(argv)

    opts = Options(seed=args.seed, tol=args.tol, max_points=args.max_points,
                   alpha=args.alpha, out=args.out, csv=args.csv)
    try:
        inst_file = load_instance(args.instance)
        report = run_command(args.command, inst_file, opts)
        text = report.to_canonical_json()
        if opts.out:
            _write_text("--out", opts.out, text)
    except ParseError as exc:
        where = f" (field {exc.field!r})" if exc.field else \
            f" (line {exc.line})" if exc.line else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    except GpmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not opts.out:
        sys.stdout.write(text)
    print(f"wall time: {report.wall_time:.3f}s", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

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

Commands: axioms, topology, separation, dalpha, sequences, cantor,
full-report.  Exit status is 0 iff every emitted check passes, 1 otherwise,
2 on errors.  Reports serialize canonically (sorted keys, floats at 12
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
from .reports import INCONCLUSIVE, PASS, CheckReport, canonical

COMMANDS = ("axioms", "topology", "separation", "dalpha", "sequences",
            "cantor", "full-report")

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

    def to_jsonable(self):
        return canonical({
            "report_version": REPORT_VERSION,
            "command": self.command,
            "instance_digest": self.digest,
            "grids": self.grids,
            "seed": self.seed,
            "tol": self.tol,
            "checks": [c.to_jsonable() for c in self.checks],
            "notes": list(self.notes),
        })

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\n"


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
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v) or v <= 0:
            raise ParseError(f"{key} entries must be positive finite numbers "
                             f"(t and alpha must be positive), got {v!r}", field=key)
        vals.append(float(v))
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ParseError(f"{key} must be strictly increasing", field=key)
    return vals


def load_instance(path) -> InstanceFile:
    """Parse, validate and sanity-check an instance file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except OSError as exc:
        raise ParseError(f"cannot read instance file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance file must hold a JSON object")
    unknown = sorted(set(doc) - _TOP_FIELDS)
    if unknown:
        raise ParseError(f"unknown field {unknown[0]!r}", field=unknown[0])

    version = _expect(doc, "version", int, "an integer")
    if isinstance(version, bool) or version < 1:
        raise ParseError("version must be a positive integer", field="version")

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
    if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0):
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


def _axioms_checks(inst, seed, n_samples):
    return [core.check_P_axiom(inst, ax, seed=seed, n_samples=n_samples)
            for ax in core.P_AXIOMS]


def _topology_checks(inst, max_points):
    fam = balls.generate_topology(inst, max_points)
    # the family is a topology by construction; note and sample count keep
    # the report bytes of the 2^n scan with its pairwise check
    checks = [CheckReport(
        name="topology_family", verdict=PASS, samples_tested=1 << inst.carrier.size,
        note="family verified closed under unions and pairwise intersections",
        data={"open_sets": fam.to_jsonable(inst.carrier), "count": len(fam)})]
    checks.append(balls.verify_ball_theorem(inst, "ball_open"))
    checks.append(balls.verify_ball_theorem(inst, "closed_ball_closed"))
    return checks


def _guarded(name, fn):
    """Run one battery item; hypothesis/precondition gaps become inconclusive."""
    try:
        return fn()
    except (HypothesisError, PreconditionError, WitnessNotFoundError) as exc:
        return CheckReport(name=name, verdict=INCONCLUSIVE,
                           note=f"not certifiable on this instance: {exc}")


def _separation_checks(inst, max_points):
    labels = inst.carrier.labels
    n = len(labels)
    single = [balls.SubsetMask.from_indices(n, [i]) for i in range(n)]

    def witness(name, kind, **kw):
        def build():
            rep = separation.separation_witness(inst, kind, **kw).report
            rep.name = name
            return rep
        return _guarded(name, build)

    def base(name, mode, x=None):
        return _guarded(name, lambda: separation.countable_base(
            inst, mode, x=x, max_points=max_points)[1])

    checks = [witness(f"{kind}({a},{b})", kind, a=a, b=b)
              for i, a in enumerate(labels) for b in labels[i + 1:]
              for kind in ("T0", "T1", "T2")]
    checks += [witness(f"regular({{{a}}},{x})", "regular", a=x, subset=single[i])
               for i, a in enumerate(labels) for x in labels if x != a]
    checks += [witness(f"normal({{{a}}},{{{labels[j]}}})", "normal",
                       subset=single[i], subset_b=single[j])
               for i, a in enumerate(labels) for j in range(i + 1, n)]
    checks += [base(f"countable_base[local@{x}]", "local", x) for x in labels]
    checks.append(base("countable_base[global]", "global"))
    return checks


def _dalpha_checks(inst, alpha, tol, max_points, seed):
    solver = induced.BisectionSettings(tolerance=min(tol, 1e-6))
    am = induced.AlphaMetric(inst, alpha, solver)
    checks = []
    if inst.carrier.kind == "finite":
        table = induced.alpha_metric_table(am)
        checks.append(CheckReport(
            name=f"d_alpha_table[alpha={alpha:.12g}]", verdict=PASS,
            samples_tested=len(table) ** 2,
            data={"labels": list(inst.carrier.labels), "table": table}))
    checks.append(induced.check_alpha_metric_axioms(am, seed=seed))
    checks.append(_guarded("alpha_monotonicity", lambda: induced.check_alpha_monotonicity(
        inst, inst.carrier.points()[0], inst.carrier.points()[-1],
        inst.alpha_grid, solver)))
    if inst.carrier.kind == "finite":
        checks.append(_guarded(
            f"topology_identity[alpha={alpha:.12g}]",
            lambda: induced.compare_topologies(inst, alpha, max_points, solver)))
    table_payload = induced.alpha_metric_table(am) if inst.carrier.kind == "finite" else None
    return checks, table_payload


def _sequences_checks(inst, tol):
    checks = []
    trace = None
    if inst.carrier.kind == "interval":
        lo, hi = inst.carrier.lo, inst.carrier.hi
        mid = 0.5 * (lo + hi)
        w = 0.25 * (hi - lo)
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
        terms = seqx.terms(inst.carrier)
        trace = [(n + 1, t, core.eval_P(inst, terms[n], mid, t))
                 for t in inst.t_grid for n in range(len(terms))]
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
    return checks, trace


def _cantor_checks(inst, tol):
    checks = []
    notes = []
    try:
        if inst.carrier.kind == "interval":
            lo, hi = inst.carrier.lo, inst.carrier.hi
            mid = 0.5 * (lo + hi)
            w = 0.25 * (hi - lo)
            # depth 24 halvings leave a width of about 1.2e-7, below default tol
            fam = [sequences.ClosedInterval(mid - w * 0.5 ** i, mid + w * 0.5 ** i)
                   for i in range(1, 25)]
        else:
            n = inst.carrier.size
            fam = [balls.SubsetMask.from_indices(n, range(n - k))
                   for k in range(n)]
        estimate, diams, rep = sequences.cantor_intersection(inst, fam, point_tol=tol)
        rep.data["estimate"] = estimate
        checks.append(rep)
    except (HypothesisError, DomainError) as exc:
        notes.append(f"cantor: skipped (hypotheses not satisfiable on this instance: {exc})")
    return checks, notes


def run_command(command: str, inst_file: InstanceFile, options: Options | None = None) -> Report:
    """Dispatch one command and aggregate its check reports."""
    if command not in COMMANDS:
        raise DomainError(f"unknown command {command!r}; expected one of {COMMANDS}")
    opts = options or Options()
    inst = inst_file.instance
    seed = opts.seed if opts.seed is not None else inst_file.seed
    tol = opts.tol if opts.tol is not None else inst_file.tol
    start = time.perf_counter()
    report = Report(command=command, digest=inst_file.digest,
                    grids={"t_grid": list(inst.t_grid), "alpha_grid": list(inst.alpha_grid)},
                    seed=seed, tol=tol)
    csv_payload = None

    def topology_applicable():
        return inst.carrier.kind == "finite" and inst.carrier.size <= opts.max_points

    if command in ("axioms", "full-report"):
        report.checks.extend(_axioms_checks(inst, seed, opts.n_samples))
    if command in ("topology", "full-report"):
        if topology_applicable():
            report.checks.extend(_topology_checks(inst, opts.max_points))
        elif command == "topology":
            raise SizeError("topology generation needs a finite carrier within --max-points")
        else:
            report.notes.append("topology: skipped (needs a finite carrier within --max-points)")
    if command in ("separation", "full-report"):
        if topology_applicable():
            report.checks.extend(_separation_checks(inst, opts.max_points))
        elif command == "separation":
            raise SizeError("separation needs a finite carrier within --max-points")
        else:
            report.notes.append("separation: skipped (needs a finite carrier within --max-points)")
    if command in ("dalpha", "full-report"):
        alpha = opts.alpha if opts.alpha is not None else inst.alpha_grid[len(inst.alpha_grid) // 2]
        if inst.op.kind == "max":
            checks, csv_payload = _dalpha_checks(inst, alpha, tol, opts.max_points, seed)
            report.checks.extend(checks)
        elif command == "dalpha":
            raise HypothesisError("the dalpha command requires op = max")
        else:
            report.notes.append("dalpha: skipped (requires op = max)")
    if command in ("sequences", "full-report"):
        checks, trace = _sequences_checks(inst, tol)
        report.checks.extend(checks)
        if command == "sequences":
            csv_payload = trace
    if command in ("cantor", "full-report"):
        checks, notes = _cantor_checks(inst, tol)
        report.checks.extend(checks)
        report.notes.extend(notes)

    report.wall_time = time.perf_counter() - start
    if opts.csv and csv_payload is not None:
        _write_csv(opts.csv, command, inst, csv_payload)
    return report


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".12g")
    return str(x)


def _write_csv(path, command, inst, payload):
    # '.' decimal separator and '\n' line endings regardless of locale
    lines = []
    if command in ("dalpha", "full-report"):
        labels = list(inst.carrier.labels)
        lines.append(",".join([""] + labels))
        for lab, row in zip(labels, payload):
            lines.append(",".join([lab] + [_fmt(v) for v in row]))
    else:
        lines.append("n,t,value")
        for n, t, v in payload:
            lines.append(f"{n},{_fmt(t)},{_fmt(v)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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
    except ParseError as exc:
        where = f" (field {exc.field!r})" if exc.field else \
            f" (line {exc.line})" if exc.line else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    except GpmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = report.to_canonical_json()
    if opts.out:
        with open(opts.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"wall time: {report.wall_time:.3f}s", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

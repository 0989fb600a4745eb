"""Traced replay of ``gpmspace.run_command``.

The replay makes the same public layer calls, in the same order, as the
command batteries in ``gpmspace.cli`` and puts a span around each call.
It rebuilds the list of checks, so the caller can assert that the replay's
``(name, verdict)`` list equals the untraced report's: a battery that
changes shape then breaks the benchmark instead of silently leaving the
trace behind.  Spans are taken in this file only; the program itself is
not instrumented.

One call is not on the command path: before a finite topology is
generated, ``grid_ball_masks`` runs once on its own, to time one derivation
of the grid balls and count them (``balls.grid_ball_masks`` /
``balls.grid_balls``).
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from gpmspace import (
    INCONCLUSIVE,
    PASS,
    CheckReport,
    DomainError,
    HypothesisError,
    Options,
    PreconditionError,
    Report,
    SizeError,
    WitnessNotFoundError,
    balls,
    core,
    induced,
    load_instance,
    separation,
    sequences,
)

DEFAULTS = Options()


class Tracer:
    """Spans ``(op id, name, start, end)`` kept in memory, plus counters.

    Set ``op`` before replaying an operation; spans outside operations
    (loading) carry ``None``.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.op, name, start, time.perf_counter()))


def _guarded(name, fn):
    # same exception set as the CLI's battery guard
    try:
        return fn()
    except (HypothesisError, PreconditionError, WitnessNotFoundError) as exc:
        return CheckReport(name=name, verdict=INCONCLUSIVE,
                           note=f"not certifiable on this instance: {exc}")


def load(tr, path):
    """Replay ``load_instance``: the whole call, then its core constructors alone."""
    with tr.span("cli.load_instance"):
        inst_file = load_instance(path)
    doc = inst_file.source
    with tr.span("core.construct"):
        if "points" in doc:
            carrier = core.FiniteCarrier(doc["points"], doc["d"])
        else:
            carrier = core.IntervalCarrier(*doc["interval"], doc["resolution"])
        core.gallery_construct(doc["family"], doc.get("params", {}), carrier,
                               inst_file.instance.op, doc["t_grid"], doc["alpha_grid"])
    return inst_file


def _axioms(tr, inst, seed):
    checks = []
    for ax in core.P_AXIOMS:
        with tr.span(f"core.{ax}"):
            checks.append(core.check_P_axiom(inst, ax, seed=seed, n_samples=DEFAULTS.n_samples))
    return checks


def _topology(tr, inst):
    with tr.span("balls.grid_ball_masks"):
        tr.counts["balls.grid_balls"] += sum(len(b) for b in balls.grid_ball_masks(inst))
    with tr.span("balls.generate_topology"):
        fam = balls.generate_topology(inst, DEFAULTS.max_points)
    # the open-set list is most of a report's bytes, so serialization is timed with it
    checks = [CheckReport(name="topology_family", verdict=PASS,
                          samples_tested=1 << inst.carrier.size,
                          data={"open_sets": fam.to_jsonable(inst.carrier), "count": len(fam)})]
    for theorem in ("ball_open", "closed_ball_closed"):
        with tr.span(f"balls.{theorem}"):
            checks.append(balls.verify_ball_theorem(inst, theorem))
    return checks


def _witness(tr, inst, name, kind, **kw):
    def build():
        w = separation.separation_witness(inst, kind, **kw)
        rep = separation.verify_witness(inst, w)
        rep.name = name
        return rep
    with tr.span("separation.witness"):
        return _guarded(name, build)


def _separation(tr, inst):
    labels = inst.carrier.labels
    n = inst.carrier.size
    single = [balls.SubsetMask.from_indices(n, [i]) for i in range(n)]
    checks = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            for kind in ("T0", "T1", "T2"):
                checks.append(_witness(tr, inst, f"{kind}({a},{b})", kind, a=a, b=b))
    if n >= 2:
        for i, a in enumerate(labels):
            for x in labels:
                if x != a:
                    checks.append(_witness(tr, inst, f"regular({{{a}}},{x})", "regular",
                                           a=x, subset=single[i]))
        for i, a in enumerate(labels):
            for j in range(i + 1, n):
                checks.append(_witness(tr, inst, f"normal({{{a}}},{{{labels[j]}}})", "normal",
                                       subset=single[i], subset_b=single[j]))

    def base(mode, x=None):
        name = f"countable_base[local@{x}]" if mode == "local" else "countable_base[global]"
        with tr.span("separation.countable_base"):
            return _guarded(name, lambda: separation.countable_base(
                inst, mode, x=x, max_points=DEFAULTS.max_points)[1])
    checks.extend(base("local", x) for x in labels)
    checks.append(base("global"))
    return checks


def _dalpha(tr, inst, alpha, tol, seed):
    solver = induced.BisectionSettings(tolerance=min(tol, 1e-6))
    finite = inst.carrier.kind == "finite"
    checks = []
    with tr.span("induced.alpha_table"):
        am = induced.AlphaMetric(inst, alpha, solver)
        if finite:
            table = induced.alpha_metric_table(am)
            checks.append(CheckReport(name=f"d_alpha_table[alpha={alpha:.12g}]", verdict=PASS,
                                      samples_tested=len(table) ** 2,
                                      data={"labels": list(inst.carrier.labels), "table": table}))
    with tr.span("induced.metric_axioms"):
        checks.append(induced.check_alpha_metric_axioms(am, seed=seed))
    pts = inst.carrier.points()
    with tr.span("induced.monotonicity"):
        checks.append(_guarded("alpha_monotonicity", lambda: induced.check_alpha_monotonicity(
            inst, pts[0], pts[-1], inst.alpha_grid, solver)))
    if finite:
        with tr.span("induced.compare_topologies"):
            checks.append(_guarded(
                f"topology_identity[alpha={alpha:.12g}]",
                lambda: induced.compare_topologies(inst, alpha, DEFAULTS.max_points, solver)))
        with tr.span("induced.alpha_table"):
            induced.alpha_metric_table(am)
    return checks


def _sequences(tr, inst, tol):
    checks = []

    def run(layer, name, fn):
        with tr.span(f"sequences.{layer}"):
            rep = fn()
        if name:
            rep.name = name
        checks.append(rep)

    if inst.carrier.kind == "interval":
        lo, hi = inst.carrier.lo, inst.carrier.hi
        mid = 0.5 * (lo + hi)
        w = 0.25 * (hi - lo)
        seqx = sequences.SequenceSpec("geometric", c=mid, a=w, r=0.5, n_terms=200)
        seqy = sequences.SequenceSpec("geometric", c=mid, a=-w, r=0.5, n_terms=200)
        run("convergence", None, lambda: sequences.check_convergence(inst, seqx, mid, tol))
        run("cauchy", None, lambda: sequences.check_cauchy(inst, seqx, tol))
        run("bounded", None, lambda: sequences.check_bounded(inst, seqx, tol, limit=mid))
        run("joint_continuity", None, lambda: _guarded(
            "joint_continuity",
            lambda: sequences.joint_continuity_check(inst, seqx, seqy, mid, mid, tol)))
        indices = [2 ** k for k in range(1, 8)]
        run("subsequence", None, lambda: _guarded(
            "subsequence_completeness",
            lambda: sequences.subsequence_completeness_check(inst, seqx, indices, mid, tol)))
        with tr.span("sequences.csv_trace"):
            terms = seqx.terms(inst.carrier)
            for t in inst.t_grid:
                for x in terms:
                    core.eval_P(inst, x, mid, t)
    else:
        for p in inst.carrier.labels:
            const = sequences.SequenceSpec("explicit", points=(p,) * 40)
            run("convergence", f"convergence[const@{p}]",
                lambda: sequences.check_convergence(inst, const, p, tol))
        full = balls.SubsetMask.full(inst.carrier.size)
        run("bounded", None, lambda: sequences.check_bounded(inst, full, tol))
        run("compact", None, lambda: sequences.check_compact_closed_bounded(inst, full, tol))
    return checks


def _cantor(tr, inst, tol):
    if inst.carrier.kind == "interval":
        lo, hi = inst.carrier.lo, inst.carrier.hi
        mid = 0.5 * (lo + hi)
        w = 0.25 * (hi - lo)
        fam = [sequences.ClosedInterval(mid - w * 0.5 ** i, mid + w * 0.5 ** i)
               for i in range(1, 25)]
    else:
        n = inst.carrier.size
        fam = [balls.SubsetMask.from_indices(n, range(n - k)) for k in range(n)]
    with tr.span("sequences.cantor"):
        try:
            return [sequences.cantor_intersection(inst, fam, point_tol=tol)[2]]
        except (HypothesisError, DomainError):
            return []


def replay(tr, command, inst_file):
    """Replay one command; returns its list of checks.

    Raises what ``run_command`` raises for the same inputs, so an operation
    that fails untraced fails in the replay too.
    """
    inst = inst_file.instance
    seed, tol = inst_file.seed, inst_file.tol
    finite_small = inst.carrier.kind == "finite" and inst.carrier.size <= DEFAULTS.max_points
    full = command == "full-report"
    checks = []
    if command == "axioms" or full:
        checks += _axioms(tr, inst, seed)
    if command == "topology" or full:
        if finite_small:
            checks += _topology(tr, inst)
        elif not full:
            raise SizeError("topology generation needs a finite carrier within --max-points")
    if command == "separation" or full:
        if finite_small:
            checks += _separation(tr, inst)
        elif not full:
            raise SizeError("separation needs a finite carrier within --max-points")
    if command == "dalpha" or full:
        if inst.op.kind == "max":
            checks += _dalpha(tr, inst, inst.alpha_grid[len(inst.alpha_grid) // 2], tol, seed)
        elif not full:
            raise HypothesisError("the dalpha command requires op = max")
    if command == "sequences" or full:
        checks += _sequences(tr, inst, tol)
    if command == "cantor" or full:
        checks += _cantor(tr, inst, tol)
    report = Report(command=command, digest=inst_file.digest,
                    grids={"t_grid": list(inst.t_grid), "alpha_grid": list(inst.alpha_grid)},
                    seed=seed, tol=tol, checks=checks)
    with tr.span("cli.serialize"):
        report.to_canonical_json()
    return checks

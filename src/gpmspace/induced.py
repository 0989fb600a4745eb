"""Induced alpha-metrics: d_alpha(a,b) = inf { t > 0 : P(a,b,t) < alpha }.

Requires op = max.  Because P(a,b,.) is non-increasing in t, the set
{ t : P(a,b,t) < alpha } is an upward-closed ray; d_alpha is its left
endpoint, 0 when the ray is all of t > 0 and +inf when it is empty.  Every
gallery family has it in closed form, which ``core.ray_start`` evaluates
over arrays of kernel coordinates: a d_alpha matrix is one ``coords`` call
and one ``ray_start`` call, and a finite carrier's is derived once per
instance and alpha (``core.derive``).  Nothing is searched, so no tolerance
enters a value, and the same points give the same values on every request.

The topology identity needs P4 at alpha, and a distinct pair fails it
exactly where its d_alpha is 0, the rule ``core``'s P4 check reports.  With
no such pair every class of d_alpha = 0 is a single point, so tau_d_alpha is
discrete, and tau_P, a partition topology, is contained in it: the two are
equal iff tau_P has one class per point, and no open set is ever listed.

``dalpha_battery`` is the battery of the ``dalpha`` command, all of whose
checks read one d_alpha matrix.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .balls import tau_p_classes
from .core import GpmsInstance, _scan_table, _triangle_rows, coords, derive, ray_start
from .errors import DomainError, HypothesisError
from .reports import FAIL, INCONCLUSIVE, PASS, CheckReport, ScanWitnesses, Witness, guarded


@dataclass(frozen=True)
class BisectionSettings:
    """The comparison slack of the d_alpha checks: the triangle inequality
    holds within 4 x ``tolerance`` and monotonicity in alpha within 2 x it.
    ``tolerance`` is finite and >= 0.  The d_alpha values come in closed
    form; the class keeps the name of the bisection solver they replaced,
    because callers construct it by name."""

    tolerance: float = 1e-6

    def __post_init__(self):
        tol = self.tolerance
        if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol >= 0):
            raise DomainError(f"solver tolerance must be finite and >= 0, got {tol!r}")


class AlphaMetric:
    """The two-point map d_alpha derived from an instance at a fixed alpha."""

    def __init__(self, inst: GpmsInstance, alpha: float, solver: BisectionSettings | None = None):
        _check_alpha(inst, alpha)
        self.instance = inst
        self.alpha = float(alpha)
        self.solver = solver or BisectionSettings()


def _check_alpha(inst: GpmsInstance, alpha):
    """Refuse an op other than max, then an alpha that is not a positive real."""
    if inst.op.kind != "max":
        raise HypothesisError("the induced alpha-metric requires op = max")
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be a positive real, got {alpha!r}")


def d_alpha(am: AlphaMetric, a, b) -> float:
    """Left endpoint of { t : P(a,b,t) < alpha }, or +inf if the ray is empty."""
    u, v = (coords(am.instance, p) for p in (a, b))
    if np.ndim(u) or np.ndim(v):  # a list of points is no point
        raise DomainError(f"d_alpha takes one point each, got {a!r} and {b!r}")
    return float(ray_start(am.instance, u, v, am.alpha))


def _distance_matrix(am: AlphaMetric, pts) -> np.ndarray:
    """D[i, j] = d_alpha(pts[i], pts[j]), exactly symmetric: ``ray_start`` is
    symmetric in its coordinates (d is validated symmetric, an interval
    reads |u - v| and step tables are filled for both orders)."""
    c = coords(am.instance, pts)
    return ray_start(am.instance, c[:, None], c[None, :], am.alpha)


def _matrix(am: AlphaMetric) -> np.ndarray:
    """d_alpha over a finite carrier's labels, derived once per instance and
    alpha and read by the table, the metric axioms and the topology identity;
    read-only, since the table's report holds it."""
    inst = am.instance

    def build():
        D = _distance_matrix(am, inst.carrier.labels)
        D.flags.writeable = False
        return D
    return derive(inst, ("d_alpha", am.alpha), build)


def check_alpha_metric_axioms(am: AlphaMetric, seed: int = 0, n_samples: int = 64) -> CheckReport:
    """Zero diagonal, positivity, triangle inequality of d_alpha, which is
    symmetric by construction (``_distance_matrix``).

    Exhaustive on finite carriers; sampled on interval carriers.  Positivity
    becomes inconclusive whenever +inf values appear (the map is then not
    real-valued, so metric-ness cannot be certified either way).  The
    triangle witnesses (``_triangle_rows``) follow the others in a
    ``ScanWitnesses``, built only when read.  On a finite carrier the scan
    reads the matrix's ``_scan_table``, derived once per instance and alpha
    like the matrix; the witnesses' values come from D.
    """
    inst = am.instance
    tol = am.solver.tolerance
    if inst.carrier.kind == "finite":
        pts, D = list(inst.carrier.labels), _matrix(am)
        scan = derive(inst, ("d_alpha scan", am.alpha), lambda: _scan_table(D))
    else:
        rng = random.Random(seed)
        lo, hi = inst.carrier.lo, inst.carrier.hi
        pts = sorted(lo + (hi - lo) * rng.random() for _ in range(max(3, n_samples)))
        D = scan = _distance_matrix(am, pts)
    k = len(pts)
    witnesses = [Witness(points=(pts[i],), values={"value": float(D[i, i])},
                         detail="d_alpha(a,a) != 0")
                 for i in np.flatnonzero(np.diag(D) != 0.0)]
    upper = np.triu(np.ones((k, k), dtype=bool), 1)
    infinite = np.isinf(D)
    has_inf = bool((upper & infinite).any())
    not_positive = ~infinite & ~(D > 0)
    witnesses += [Witness(points=(pts[i], pts[j]), values={"value": float(D[i, j]),
                                                           "alpha": am.alpha},
                          detail="distinct pair at d_alpha = 0 "
                                 "(the per-alpha separation hypothesis fails here)")
                  for i, j in np.argwhere(upper & not_positive)]
    rows = _triangle_rows(scan, 4 * tol)
    i, j, l = rows.T
    witnesses = ScanWitnesses(pts, rows, {"lhs": D[i, l], "rhs": D[i, j] + D[j, l]},
                              "triangle inequality fails", head=tuple(witnesses))
    if witnesses:
        verdict = FAIL
        note = "metric axiom violated"
    elif has_inf:
        verdict = INCONCLUSIVE
        note = "d_alpha takes the value inf; positivity holds but the map is not real-valued"
    else:
        verdict = PASS
        note = "all metric axioms hold within tol for symmetry and 4*tol for the triangle"
    return CheckReport(name=f"alpha_metric_axioms[alpha={am.alpha:.12g}]", verdict=verdict,
                       samples_tested=k + k * (k - 1) // 2 + k ** 3, note=note,
                       witnesses=witnesses)


def check_alpha_monotonicity(inst: GpmsInstance, a, b, alpha_list,
                             solver: BisectionSettings | None = None) -> CheckReport:
    """d_alpha(a,b) must be non-increasing as alpha increases (fixed pair),
    read from one ``ray_start`` call over the alpha list."""
    alphas = [float(v) for v in alpha_list]
    if any(y <= x for x, y in zip(alphas, alphas[1:])) or any(v <= 0 for v in alphas):
        raise DomainError("alpha_list must be strictly increasing positives")
    st = solver or BisectionSettings()
    for al in alphas:
        _check_alpha(inst, al)
    u, v = coords(inst, [a, b])
    values = ray_start(inst, u, v, np.array(alphas)).tolist()
    slack = 2 * st.tolerance
    witnesses = []
    for (a1, v1), (a2, v2) in zip(zip(alphas, values), zip(alphas[1:], values[1:])):
        if v2 > v1 + slack:
            witnesses.append(Witness(points=(a, b),
                                     values={"alpha1": a1, "alpha2": a2, "v1": v1, "v2": v2},
                                     detail="d_alpha increased with alpha"))
    verdict = FAIL if witnesses else PASS
    return CheckReport(name="alpha_monotonicity", verdict=verdict,
                       samples_tested=max(len(alphas) - 1, 0), witnesses=tuple(witnesses),
                       data={"alphas": alphas, "values": values})


def compare_topologies(inst: GpmsInstance, alpha: float, max_points: int = 15,
                       solver: BisectionSettings | None = None) -> CheckReport:
    """Compare tau_P against the metric topology of d_alpha for set equality.

    A distinct pair at d_alpha = 0 fails P4 at alpha and raises
    HypothesisError.  Otherwise tau_d_alpha is discrete, so the two are
    equal iff tau_P has one class per point; fewer classes are reported
    inconclusive (grid artifact: coarse alpha/t grids admit fewer sets),
    naming the classes of more than one point.  The zero test reads the
    d_alpha matrix the table and the metric axioms read (``_matrix``), and
    ``samples_tested`` counts its n(n-1)/2 distinct pairs.  ``max_points``
    and ``solver`` are kept for callers and no longer read: nothing is
    listed, and d_alpha comes in closed form.
    """
    if inst.carrier.kind != "finite":
        raise DomainError("topology comparison needs a finite carrier")
    if inst.op.kind != "max":
        raise HypothesisError("the topology identity requires op = max")
    am = AlphaMetric(inst, alpha)
    labels = inst.carrier.labels
    zero = np.argwhere(np.triu(_matrix(am) == 0.0, 1))
    if zero.size:
        pairs = ", ".join(f"({labels[i]}, {labels[j]})" for i, j in zero[:4].tolist())
        raise HypothesisError(
            f"per-alpha separation fails at alpha={alpha:.12g} (pairs {pairs}); "
            "d_alpha is not a metric here")
    classes = tau_p_classes(inst)
    n = len(labels)
    data = {
        "alpha": alpha,
        "tau_P_size": 1 << len(classes),  # 2^k unions of the k classes
        "tau_d_alpha_size": 1 << n,  # discrete: every subset
        "merged_classes": [list(c.labels(inst.carrier)) for c in classes if c.count > 1],
    }
    verdict, note = PASS, "families identical"
    if len(classes) < n:
        verdict = INCONCLUSIVE
        note = "tau_P lacks open sets at this grid resolution (grid artifact)"
    # the work is the zero test of the d_alpha matrix, one read per distinct pair
    return CheckReport(name=f"topology_identity[alpha={alpha:.12g}]", verdict=verdict,
                       samples_tested=n * (n - 1) // 2, data=data, note=note)


def alpha_metric_table(am: AlphaMetric):
    """Square list-of-lists of d_alpha values in carrier label order."""
    if am.instance.carrier.kind != "finite":
        raise DomainError("tables need a finite carrier")
    return _matrix(am).tolist()


def dalpha_battery(inst: GpmsInstance, alpha: float | None, tol: float, seed: int):
    """The table, metric axioms, monotonicity in alpha and topology identity
    at ``alpha`` (by default the middle of the alpha grid), at the slack
    ``min(tol, 1e-6)``; returns ``(checks, rows)``, ``rows`` building the
    table's CSV rows on a finite carrier, else None.  The table's check
    holds the d_alpha matrix itself (``_matrix``), which the report writer
    writes from the array; its list is built only for the CSV rows."""
    if alpha is None:
        alpha = inst.alpha_grid[len(inst.alpha_grid) // 2]
    solver = BisectionSettings(tolerance=min(tol, 1e-6))
    am = AlphaMetric(inst, alpha, solver)  # one d_alpha matrix serves three checks
    checks, rows = [], None
    if inst.carrier.kind == "finite":
        labels, table = inst.carrier.labels, _matrix(am)
        checks.append(CheckReport(
            name=f"d_alpha_table[alpha={alpha:.12g}]", verdict=PASS,
            samples_tested=table.size, data={"labels": list(labels), "table": table}))

        def rows():
            return [["", *labels]] + [[lab, *row]
                                      for lab, row in zip(labels, alpha_metric_table(am))]
    checks.append(check_alpha_metric_axioms(am, seed=seed))
    pts = inst.carrier.points()
    checks.append(guarded("alpha_monotonicity", lambda: check_alpha_monotonicity(
        inst, pts[0], pts[-1], inst.alpha_grid, solver)))
    if inst.carrier.kind == "finite":
        checks.append(guarded(f"topology_identity[alpha={alpha:.12g}]",
                              lambda: compare_topologies(inst, alpha)))
    return checks, rows

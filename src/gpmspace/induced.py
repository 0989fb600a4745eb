"""Induced alpha-metrics: d_alpha(a,b) = inf { t > 0 : P(a,b,t) < alpha }.

Requires op = max.  Because P(a,b,.) is non-increasing in t, the set
{ t : P(a,b,t) < alpha } is an upward-closed ray; d_alpha is its left
endpoint, found by bracket doubling from t = 1 (0 below 2^-64, +inf for an
empty ray above 2^64) and bisection down to the tolerance or to float
spacing, for all the pairs a request needs at once.  Tabulated step
families return the exact step location.  Solved pairs and P4 scans are
derived once per instance (``core.derive``), shared by every AlphaMetric.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .balls import (_least, _reach, _require_max_points, generate_topology,
                    topology_from_classes)
from .core import GpmsInstance, P_at, coords, derive, p4_violations, step_ray_start
from .errors import DomainError, HypothesisError
from .reports import FAIL, INCONCLUSIVE, PASS, CheckReport, Witness

_GROWTH = 2.0
_T_START = 1.0
_T_CAP = 2.0 ** 64
_T_FLOOR = 2.0 ** -64


@dataclass(frozen=True)
class BisectionSettings:
    """``tolerance`` is finite and >= 0; at 0 the bisection stops at float spacing."""

    tolerance: float = 1e-6

    def __post_init__(self):
        tol = self.tolerance
        if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol >= 0):
            raise DomainError(f"solver tolerance must be finite and >= 0, got {tol!r}")


class AlphaMetric:
    """The two-point map d_alpha derived from an instance at a fixed alpha."""

    def __init__(self, inst: GpmsInstance, alpha: float, solver: BisectionSettings | None = None):
        if inst.op.kind != "max":
            raise HypothesisError("the induced alpha-metric requires op = max")
        if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
            raise DomainError(f"alpha must be a positive real, got {alpha!r}")
        self.instance = inst
        self.alpha = float(alpha)
        self.solver = solver or BisectionSettings()

    @property
    def p4_failures(self) -> tuple:
        """Distinct pairs below alpha on the whole t grid, scanned once per instance."""
        return derive(self.instance, ("p4", self.alpha),
                      lambda: tuple(p4_violations(self.instance, self.alpha)))

    @property
    def p4_ok(self) -> bool:
        return not self.p4_failures


def d_alpha(am: AlphaMetric, a, b) -> float:
    """Left endpoint of { t : P(a,b,t) < alpha }, or +inf if the ray is empty."""
    car = am.instance.carrier
    if not car.contains(a) or not car.contains(b):
        raise DomainError(f"point not in carrier: {a!r} or {b!r}")
    return _cached(am, [(a, b)])[0]


def _cached(am: AlphaMetric, pairs) -> list:
    """d_alpha of each pair; the pairs not solved yet are solved together."""
    inst, tolerance = am.instance, am.solver.tolerance
    solved = derive(inst, ("d_alpha", am.alpha, tolerance), dict)
    keys = [(min(a, b), max(a, b)) for a, b in pairs]
    missing = [k for k in dict.fromkeys(keys) if k not in solved]
    if missing:
        solved.update(zip(missing, _solve_d_alpha(inst, missing, am.alpha, tolerance)))
    return [solved[k] for k in keys]


def _solve_d_alpha(inst, pairs, alpha, tolerance) -> list:
    """d_alpha of each (a, b) in ``pairs``, searched together with one P call
    per step on the pairs still searching; each pair makes the float
    operations of a search of it alone.  The pairs still halving (or
    doubling) from t = 1 share one bracket end, and each pair's points are
    mapped to kernel coordinates once, not at every step."""
    if inst.family == "tabulated":
        return [0.0 if a == b else step_ray_start(inst, a, b, alpha) for a, b in pairs]
    out = np.zeros(len(pairs))  # a == b, and a ray reaching below 2^-64, give 0
    todo = np.array([i for i, (a, b) in enumerate(pairs) if a != b], dtype=np.intp)
    u, v = (coords(inst, side) for side in zip(*pairs))

    def in_ray(idx, t):
        return P_at(inst, u[idx], v[idx], t) < alpha

    lo, hi = np.full((2, len(pairs)), np.nan)  # a bracketed pair gets finite ends
    inside = in_ray(todo, _T_START)
    halving, doubling = todo[inside], todo[~inside]
    end = _T_START  # hi of every pair still halving
    while halving.size and end > _T_FLOOR:
        inside = in_ray(halving, end / _GROWTH)
        lo[halving[~inside]], hi[halving[~inside]] = end / _GROWTH, end
        halving, end = halving[inside], end / _GROWTH
    end = _T_START  # lo of every pair still doubling
    while doubling.size and end < _T_CAP:
        inside = in_ray(doubling, end * _GROWTH)
        lo[doubling[inside]], hi[doubling[inside]] = end, end * _GROWTH
        doubling, end = doubling[~inside], end * _GROWTH
    out[doubling] = math.inf
    active = bracketed = np.flatnonzero(~np.isnan(lo))
    while active.size:
        left, right = lo[active], hi[active]
        mid = 0.5 * (left + right)
        go = (right - left > tolerance) & (mid != left) & (mid != right)
        active, mid = active[go], mid[go]
        inside = in_ray(active, mid)
        hi[active[inside]] = mid[inside]
        lo[active[~inside]] = mid[~inside]
    out[bracketed] = 0.5 * (lo[bracketed] + hi[bracketed])
    return out.tolist()


def _distance_matrix(am: AlphaMetric, pts) -> np.ndarray:
    """D[i, j] = d_alpha(pts[i], pts[j]); the pairs not solved yet are solved together."""
    rows, cols = np.triu_indices(len(pts))
    D = np.empty((len(pts), len(pts)))
    D[rows, cols] = D[cols, rows] = _cached(am, [(pts[i], pts[j]) for i, j
                                                 in zip(rows.tolist(), cols.tolist())])
    return D


def check_alpha_metric_axioms(am: AlphaMetric, seed: int = 0, n_samples: int = 64) -> CheckReport:
    """Zero diagonal, symmetry, positivity, triangle inequality of d_alpha.

    Exhaustive on finite carriers; sampled on interval carriers.  Positivity
    becomes inconclusive whenever +inf values appear (the map is then not
    real-valued, so metric-ness cannot be certified either way).
    """
    inst = am.instance
    tol = am.solver.tolerance
    if inst.carrier.kind == "finite":
        pts = list(inst.carrier.labels)
    else:
        rng = random.Random(seed)
        lo, hi = inst.carrier.lo, inst.carrier.hi
        pts = sorted(lo + (hi - lo) * rng.random() for _ in range(max(3, n_samples)))
    k = len(pts)
    D = _distance_matrix(am, pts)
    witnesses = [Witness(points=(pts[i],), values={"value": float(D[i, i])},
                         detail="d_alpha(a,a) != 0")
                 for i in np.flatnonzero(np.diag(D) != 0.0)]
    upper = np.triu(np.ones((k, k), dtype=bool), 1)
    infinite = np.isinf(D)
    has_inf = bool((upper & infinite).any())
    not_positive = ~infinite & ~(D > 0)
    with np.errstate(invalid="ignore"):  # inf - inf is nan, and nan > tol is False
        asymmetric = np.abs(D - D.T) > tol
    for i, j in np.argwhere(upper & (not_positive | asymmetric)):
        x, y = pts[i], pts[j]
        if not_positive[i, j]:
            witnesses.append(Witness(points=(x, y), values={"value": float(D[i, j]),
                                                            "alpha": am.alpha},
                                     detail="distinct pair at d_alpha = 0 "
                                            "(the per-alpha separation hypothesis fails here)"))
        if asymmetric[i, j]:
            witnesses.append(Witness(points=(x, y),
                                     values={"lhs": float(D[i, j]), "rhs": float(D[j, i])},
                                     detail="d_alpha not symmetric"))
    slack = 4 * tol
    for i in range(k):
        # bad[j, l]: D[i, l] > D[i, j] + D[j, l] + slack, one row of O(k^2) memory
        bad = D[i][None, :] > (D[i][:, None] + D) + slack
        for j, l in np.argwhere(bad):
            witnesses.append(Witness(points=(pts[i], pts[j], pts[l]),
                                     values={"lhs": float(D[i, l]),
                                             "rhs": float(D[i, j] + D[j, l])},
                                     detail="triangle inequality fails"))
    if witnesses:
        verdict = FAIL
        note = "metric axiom violated"
    elif has_inf:
        verdict = INCONCLUSIVE
        note = "d_alpha takes the value inf; positivity holds but the map is not real-valued"
    else:
        verdict = PASS
        note = "all metric axioms hold at solver tolerance"
    return CheckReport(name=f"alpha_metric_axioms[alpha={am.alpha:.12g}]", verdict=verdict,
                       samples_tested=k + k * (k - 1) // 2 + k ** 3, note=note,
                       witnesses=tuple(witnesses))


def check_alpha_monotonicity(inst: GpmsInstance, a, b, alpha_list,
                             solver: BisectionSettings | None = None) -> CheckReport:
    """d_alpha(a,b) must be non-increasing as alpha increases (fixed pair)."""
    alphas = [float(v) for v in alpha_list]
    if any(y <= x for x, y in zip(alphas, alphas[1:])) or any(v <= 0 for v in alphas):
        raise DomainError("alpha_list must be strictly increasing positives")
    st = solver or BisectionSettings()
    values = [d_alpha(AlphaMetric(inst, al, st), a, b) for al in alphas]
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

    Both are partition topologies, each read off the classes of its least
    balls: equal classes give equal families, and only differing classes
    have the two families listed to name the sets that differ.  A strict
    shortfall of tau_P is reported inconclusive (grid artifact: coarse
    alpha/t grids admit fewer sets); anything else that differs is a genuine
    failure.  The verdict does not depend on construction order.
    """
    if inst.carrier.kind != "finite":
        raise DomainError("topology comparison needs a finite carrier")
    _require_max_points(inst, max_points)
    if inst.op.kind != "max":
        raise HypothesisError("the topology identity requires op = max")
    am = AlphaMetric(inst, alpha, solver)
    if not am.p4_ok:
        pairs = ", ".join(f"({a}, {b})" for a, b in am.p4_failures[:4])
        raise HypothesisError(
            f"per-alpha separation fails at alpha={alpha:.12g} (pairs {pairs}); "
            "d_alpha is not a metric here")
    # the least d_alpha ball: the smallest radius that realizes every ball
    # (tol, and v1/2 or v1 - tol below the smallest positive distance v1)
    car = inst.carrier
    D = _distance_matrix(am, car.labels)
    tol = am.solver.tolerance
    v1 = float(D[(D > 0) & (D < math.inf)].min(initial=math.inf))
    radius = min(tol, v1 / 2, v1 - tol if v1 - tol > 0 else math.inf)
    reach_p = _least(inst)[1]
    reach_d = _reach([sum(1 << int(j) for j in np.flatnonzero(row < radius)) for row in D])
    tau_p = tau_d = ()
    if reach_d != reach_p:
        tau_p = generate_topology(inst, max_points)
        tau_d = topology_from_classes(reach_d)
    missing_in_p = [m for m in tau_d if m not in tau_p]
    missing_in_d = [m for m in tau_p if m not in tau_d]
    data = {
        "alpha": alpha,
        "tau_P_size": 1 << len(set(reach_p)),  # 2^k unions of the k classes
        "tau_d_alpha_size": 1 << len(set(reach_d)),
        "missing_from_tau_P": [list(m.labels(car)) for m in missing_in_p],
        "missing_from_tau_d_alpha": [list(m.labels(car)) for m in missing_in_d],
    }
    verdict, note = PASS, "families identical"
    if missing_in_d:
        verdict, note = FAIL, "families differ beyond grid artifacts"
    elif missing_in_p:
        verdict = INCONCLUSIVE
        note = "tau_P lacks open sets at this grid resolution (grid artifact)"
    witnesses = tuple(Witness(points=tuple(m.labels(car)), values={"alpha": alpha},
                              detail="set open for P but not for d_alpha")
                      for m in missing_in_d[:1])
    return CheckReport(name=f"topology_identity[alpha={alpha:.12g}]", verdict=verdict,
                       samples_tested=data["tau_P_size"], witnesses=witnesses, data=data,
                       note=note)


def alpha_metric_table(am: AlphaMetric):
    """Square list-of-lists of d_alpha values in carrier label order."""
    if am.instance.carrier.kind != "finite":
        raise DomainError("tables need a finite carrier")
    return _distance_matrix(am, am.instance.carrier.labels).tolist()

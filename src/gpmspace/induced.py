"""Induced alpha-metrics: d_alpha(a,b) = inf { t > 0 : P(a,b,t) < alpha }.

Requires op = max.  Because P(a,b,.) is non-increasing in t, the set
{ t : P(a,b,t) < alpha } is an upward-closed ray; d_alpha is its left
endpoint, found by bracket doubling plus bisection.  Tabulated step
families skip the solver and return the exact step location.  An empty ray
yields +inf, which the metric-axiom checks treat as "cannot certify".
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .balls import SubsetMask, TopologyFamily, admitted_family, generate_topology
from .core import GpmsInstance, eval_P, p4_violations, step_ray_start, _pair_key
from .errors import ConvergenceError, DomainError, HypothesisError, SizeError
from .reports import FAIL, INCONCLUSIVE, PASS, CheckReport, Witness


@dataclass(frozen=True)
class BisectionSettings:
    growth: float = 2.0
    tolerance: float = 1e-6
    max_iter: int = 200
    t_start: float = 1.0
    t_cap: float = 2.0 ** 64
    t_floor: float = 2.0 ** -64


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
        self.p4_failures = tuple(p4_violations(inst, self.alpha))
        self._cache: dict = {}

    @property
    def p4_ok(self) -> bool:
        return not self.p4_failures

    def distance(self, a, b) -> float:
        key = _pair_key(a, b) if self.instance.carrier.kind == "finite" else \
            (min(a, b), max(a, b))
        if key not in self._cache:
            self._cache[key] = _solve_d_alpha(self.instance, key[0], key[1],
                                              self.alpha, self.solver)
        return self._cache[key]


def d_alpha(am: AlphaMetric, a, b) -> float:
    """Left endpoint of { t : P(a,b,t) < alpha }, or +inf if the ray is empty."""
    car = am.instance.carrier
    if not car.contains(a) or not car.contains(b):
        raise DomainError(f"point not in carrier: {a!r} or {b!r}")
    return am.distance(a, b)


def _solve_d_alpha(inst, a, b, alpha, st: BisectionSettings) -> float:
    if a == b:
        return 0.0
    if inst.family == "tabulated":
        return step_ray_start(inst, a, b, alpha)

    def in_ray(t):
        return eval_P(inst, a, b, t) < alpha

    t = st.t_start
    if in_ray(t):
        tt = t
        prev = t
        while tt > st.t_floor:
            prev, tt = tt, tt / st.growth
            if not in_ray(tt):
                lo, hi = tt, prev
                break
        else:
            return 0.0  # the ray reaches arbitrarily small t at this resolution
    else:
        tt = t
        prev = t
        while tt < st.t_cap:
            prev, tt = tt, tt * st.growth
            if in_ray(tt):
                lo, hi = prev, tt
                break
        else:
            return math.inf
    for _ in range(st.max_iter):
        if hi - lo <= st.tolerance:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if in_ray(mid):
            hi = mid
        else:
            lo = mid
    raise ConvergenceError("d_alpha bisection exceeded its iteration budget")


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
    witnesses = []
    samples = 0
    has_inf = False
    dval = {}
    for i, x in enumerate(pts):
        for y in pts[i:]:
            dval[(x, y)] = dval[(y, x)] = d_alpha(am, x, y)

    for x in pts:
        samples += 1
        if dval[(x, x)] != 0.0:
            witnesses.append(Witness(points=(x,), values={"value": dval[(x, x)]},
                                     detail="d_alpha(a,a) != 0"))
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            samples += 1
            v = dval[(x, y)]
            if math.isinf(v):
                has_inf = True
            elif not v > 0:
                witnesses.append(Witness(points=(x, y), values={"value": v, "alpha": am.alpha},
                                         detail="distinct pair at d_alpha = 0 "
                                                "(the per-alpha separation hypothesis fails here)"))
            if abs(dval[(x, y)] - dval[(y, x)]) > tol:
                witnesses.append(Witness(points=(x, y),
                                         values={"lhs": dval[(x, y)], "rhs": dval[(y, x)]},
                                         detail="d_alpha not symmetric"))
    slack = 4 * tol
    for x in pts:
        for y in pts:
            for z in pts:
                samples += 1
                if dval[(x, z)] > dval[(x, y)] + dval[(y, z)] + slack:
                    witnesses.append(Witness(points=(x, y, z),
                                             values={"lhs": dval[(x, z)],
                                                     "rhs": dval[(x, y)] + dval[(y, z)]},
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
                       samples_tested=samples, note=note, witnesses=tuple(witnesses))


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


def metric_ball_masks(am: AlphaMetric):
    """Per point, metric balls of d_alpha over an epsilon grid fine enough to
    realize every ball a finite carrier admits.

    Metric balls only change at realized distances, so radii one tolerance
    on either side of each realized value, plus midpoints of consecutive
    values, realize them all.
    """
    inst = am.instance
    labels = inst.carrier.labels
    n = len(labels)
    tol = am.solver.tolerance
    realized = sorted({0.0} | {d_alpha(am, a, b) for a in labels for b in labels
                              if not math.isinf(d_alpha(am, a, b))})
    eps = set()
    for v in realized:
        eps.add(v + tol)
        if v - tol > 0:
            eps.add(v - tol)
    for v1, v2 in zip(realized, realized[1:]):
        eps.add(0.5 * (v1 + v2))
    if realized:
        eps.add(realized[-1] + 1.0)
    radii = sorted(e for e in eps if e > 0)
    out = []
    for a in labels:
        seen = {}
        for r in radii:
            bits = 0
            for i, b in enumerate(labels):
                if d_alpha(am, a, b) < r:
                    bits |= 1 << i
            seen[bits] = SubsetMask(n, bits)
        out.append([seen[b] for b in sorted(seen)])
    return out


def compare_topologies(inst: GpmsInstance, alpha: float, max_points: int = 15,
                       solver: BisectionSettings | None = None) -> CheckReport:
    """Compare tau_P against the metric topology of d_alpha for set equality.

    A strict shortfall of tau_P is reported inconclusive (grid artifact:
    coarse alpha/t grids admit fewer sets); anything else that differs is a
    genuine failure.  The verdict does not depend on construction order.
    """
    if inst.carrier.kind != "finite":
        raise DomainError("topology comparison needs a finite carrier")
    n = inst.carrier.size
    if n > max_points:
        raise SizeError(f"carrier size {n} exceeds max_points={max_points}")
    if inst.op.kind != "max":
        raise HypothesisError("the topology identity requires op = max")
    am = AlphaMetric(inst, alpha, solver)
    if not am.p4_ok:
        pairs = ", ".join(f"({a}, {b})" for a, b in am.p4_failures[:4])
        raise HypothesisError(
            f"per-alpha separation fails at alpha={alpha:.12g} (pairs {pairs}); "
            "d_alpha is not a metric here")
    tau_p = generate_topology(inst, max_points)
    tau_d = TopologyFamily(n, admitted_family(n, metric_ball_masks(am)))
    tau_d.verify()
    car = inst.carrier
    missing_in_p = [m for m in tau_d if m not in tau_p]
    missing_in_d = [m for m in tau_p if m not in tau_d]
    data = {
        "alpha": alpha,
        "tau_P_size": len(tau_p),
        "tau_d_alpha_size": len(tau_d),
        "missing_from_tau_P": [list(m.labels(car)) for m in missing_in_p],
        "missing_from_tau_d_alpha": [list(m.labels(car)) for m in missing_in_d],
    }
    if not missing_in_p and not missing_in_d:
        return CheckReport(name=f"topology_identity[alpha={alpha:.12g}]", verdict=PASS,
                           samples_tested=len(tau_p), data=data,
                           note="families identical")
    if missing_in_p and not missing_in_d:
        return CheckReport(name=f"topology_identity[alpha={alpha:.12g}]", verdict=INCONCLUSIVE,
                           samples_tested=len(tau_p), data=data,
                           note="tau_P lacks open sets at this grid resolution (grid artifact)")
    witness = Witness(points=tuple(missing_in_d[0].labels(car)) if missing_in_d else (),
                      values={"alpha": alpha},
                      detail="set open for P but not for d_alpha")
    return CheckReport(name=f"topology_identity[alpha={alpha:.12g}]", verdict=FAIL,
                       samples_tested=len(tau_p), witnesses=(witness,), data=data,
                       note="families differ beyond grid artifacts")


def alpha_metric_table(am: AlphaMetric):
    """Square list-of-lists of d_alpha values in carrier label order."""
    if am.instance.carrier.kind != "finite":
        raise DomainError("tables need a finite carrier")
    labels = am.instance.carrier.labels
    return [[d_alpha(am, a, b) for b in labels] for a in labels]

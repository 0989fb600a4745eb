"""Carriers and parametric distance maps P(a, b, t).

A carrier is either a finite labeled point set with a base distance table,
or a 1-D interval sampled on a grid.  A map P is drawn from a small gallery
of families built on the base distance d:

    scaled     P = d(a,b) / t
    constant   P = d(a,b)
    damped     P = d(a,b) * (1 + exp(-t))
    discrete   P = 0 if a == b else c / t           (parameter c > 0)
    tabulated  per-pair non-increasing step function of t

The axioms checked against an instance:

    P1        P(a,b,t) = 0 for all t  iff  a = b
    P2        P(a,b,t) = P(b,a,t)
    P3        P(a,b,s+t) <= P(a,x,s) o P(b,x,t)
    P4        per fixed alpha: no distinct pair stays below alpha for all t
    P5        P(a,b,.) is continuous in t
    monotone  P(a,b,.) is non-increasing in t

Quantifiers over "all t > 0" run over the declared t grid; quantifiers over
an interval carrier run over its sample points.  Verdicts are
falsification-only and comparisons are exact (no epsilon fuzzing).  Exact
comparison is not rounding-proof: the two sides of an inequality come from
different sequences of float operations, so a true axiom can fail by one
ulp.  For example scaled/max is a GPMS, yet on the collinear points 0, 6, 14
with the t grid (1.7999999999999998, 2.4) the exhaustive P3 scan reports
lhs 3.333333333333334 against rhs 3.3333333333333335, although the
inequality holds in exact arithmetic on the same float inputs.  A fail
witness is a float counterexample, not one confirmed in exact arithmetic.
"""
from __future__ import annotations

import math
import random

import numpy as np

from .binop import BinaryOperation, eval_op
from .errors import ConstructionError, DomainError
from .reports import FAIL, PASS, CheckReport, Witness

FAMILIES = ("scaled", "constant", "damped", "discrete", "tabulated")

P_AXIOMS = ("P1", "P2", "P3", "P4", "P5", "monotone")

_QUANTIFIER_CAP = 128  # max interval sample points used by exhaustive scans


class FiniteCarrier:
    """A finite labeled point set with a symmetric base distance table."""

    kind = "finite"

    def __init__(self, labels, d, *, tri_slack=None):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ConstructionError("carrier needs at least one point")
        if len(set(labels)) != len(labels):
            raise ConstructionError("carrier labels must be unique")
        d = np.array(d, dtype=float)  # private copy, made read-only below
        n = len(labels)
        if d.shape != (n, n):
            raise ConstructionError(f"distance table must be {n}x{n}, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ConstructionError("distance table must be finite")
        if np.any(np.diag(d) != 0.0):
            raise ConstructionError("distance table diagonal must be zero", axiom="P1")
        if not np.array_equal(d, d.T):
            raise ConstructionError("distance table must be symmetric", axiom="P2")
        off = d[~np.eye(n, dtype=bool)]
        if off.size and np.any(off <= 0.0):
            raise ConstructionError("off-diagonal distances must be positive", axiom="P1")
        slack = tri_slack if tri_slack is not None else 1e-12 * max(1.0, float(d.max(initial=0.0)))
        for i in range(n):
            # bad[j, k]: d[i, j] > d[i, k] + d[k, j] + slack, one row of O(n^2) memory
            bad = d[i][:, None] > (d[i][None, :] + d.T) + slack
            if bad.any():
                j, k = np.argwhere(bad)[0]
                raise ConstructionError(
                    f"triangle inequality fails on ({labels[i]}, {labels[j]}, {labels[k]})",
                    axiom="triangle")
        d.flags.writeable = False
        self.labels = labels
        self.d = d
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def contains(self, p) -> bool:
        return p in self._index

    def index(self, p) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise DomainError(f"point {p!r} is not in the carrier") from None

    def base_distance(self, a, b) -> float:
        return float(self.d[self.index(a), self.index(b)])

    def points(self):
        return self.labels

    def describe(self):
        return {"points": list(self.labels),
                "d": [[float(x) for x in row] for row in self.d]}


class IntervalCarrier:
    """A real interval [lo, hi] with base distance |x - y|, sampled on a grid.

    ``resolution`` is the sampling step used whenever a check quantifies over
    the whole carrier.  Membership itself is continuous: any real in
    [lo, hi] is a valid point, so sequences like 1/n can be evaluated off
    the grid.
    """

    kind = "interval"

    def __init__(self, lo, hi, resolution):
        lo, hi, resolution = float(lo), float(hi), float(resolution)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConstructionError(f"need finite lo < hi, got [{lo}, {hi}]")
        if not (math.isfinite(resolution) and resolution > 0):
            raise ConstructionError("resolution must be a positive step")
        self.lo = lo
        self.hi = hi
        self.resolution = resolution
        n = int(math.floor((hi - lo) / resolution + 1e-9))
        pts = [lo + k * resolution for k in range(n + 1)]
        if pts[-1] < hi - 1e-12 * max(1.0, abs(hi)):
            pts.append(hi)
        if len(pts) > 65536:
            raise ConstructionError("resolution produces too many sample points")
        self._points = tuple(min(p, hi) for p in pts)

    @property
    def size(self) -> int:
        return len(self._points)

    def contains(self, p) -> bool:
        return isinstance(p, (int, float)) and math.isfinite(p) and self.lo <= p <= self.hi

    def base_distance(self, a, b) -> float:
        return abs(float(a) - float(b))

    def points(self):
        return self._points

    def describe(self):
        return {"interval": [self.lo, self.hi], "resolution": self.resolution}


def _validate_grid(grid, name):
    vals = tuple(float(v) for v in grid)
    if not vals:
        raise ConstructionError(f"{name} must be non-empty")
    if any(not math.isfinite(v) or v <= 0 for v in vals):
        raise ConstructionError(f"{name} values must be finite and positive")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConstructionError(f"{name} must be strictly increasing")
    return vals


class GpmsInstance:
    """A carrier plus a parametric distance map P and its evaluation grids."""

    def __init__(self, carrier, family, params, op: BinaryOperation, t_grid, alpha_grid):
        if family not in FAMILIES:
            raise ConstructionError(f"unknown family {family!r}; expected one of {FAMILIES}")
        self.carrier = carrier
        self.family = family
        self.params = dict(params or {})
        self.op = op
        self.t_grid = _validate_grid(t_grid, "t_grid")
        self.alpha_grid = _validate_grid(alpha_grid, "alpha_grid")
        self._tables = None
        if family == "discrete":
            c = self.params.get("c")
            if c is None or not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
                raise ConstructionError("discrete family needs a parameter c > 0")
            self.params["c"] = float(c)
        elif family == "tabulated":
            self._tables = _normalize_tables(carrier, self.params)

    # -- evaluation ------------------------------------------------------

    def eval(self, a, b, t: float) -> float:
        return eval_P(self, a, b, t)

    def quantifier_points(self, cap: int = _QUANTIFIER_CAP):
        """Points standing in for "all of X" in exhaustive scans."""
        pts = self.carrier.points()
        if len(pts) <= cap:
            return pts
        stride = max(1, len(pts) // cap)
        sub = list(pts[::stride])
        if sub[-1] != pts[-1]:
            sub.append(pts[-1])
        return tuple(sub)

    def describe(self):
        return {
            "carrier": self.carrier.describe(),
            "family": self.family,
            "params": _params_jsonable(self.family, self.params),
            "op": self.op.to_jsonable(),
            "t_grid": list(self.t_grid),
            "alpha_grid": list(self.alpha_grid),
        }

    def __repr__(self):
        return (f"GpmsInstance({self.family}/{self.op.name}, "
                f"{self.carrier.kind} carrier of size {self.carrier.size})")


def _pair_key(a, b):
    return (a, b) if str(a) <= str(b) else (b, a)


def _normalize_tables(carrier, params):
    if carrier.kind != "finite":
        raise ConstructionError("tabulated family requires a finite carrier")
    raw = params.get("tables")
    if not raw:
        raise ConstructionError("tabulated family needs per-pair tables")
    tables = {}
    for entry in raw:
        pair = tuple(str(p) for p in entry["pair"])
        if len(pair) != 2 or not all(carrier.contains(p) for p in pair) or pair[0] == pair[1]:
            raise ConstructionError(f"table pair {pair!r} must name two distinct carrier points")
        nodes = np.asarray(entry["t"], dtype=float)
        vals = np.asarray(entry["v"], dtype=float)
        if nodes.ndim != 1 or nodes.size == 0 or not np.all(np.diff(nodes) > 0) or nodes[0] <= 0:
            raise ConstructionError(f"table t nodes for {pair!r} must be strictly increasing positives")
        if vals.shape != nodes.shape or not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ConstructionError(f"table values for {pair!r} must be finite non-negative")
        if np.any(np.diff(vals) > 0):
            raise ConstructionError(
                f"table values for {pair!r} increase in t; P must be non-increasing in t",
                axiom="monotone")
        tables[_pair_key(*pair)] = (nodes, vals)
    labels = carrier.labels
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if _pair_key(a, b) not in tables:
                raise ConstructionError(f"tabulated family is missing a table for pair ({a}, {b})")
    return tables


def _params_jsonable(family, params):
    if family == "tabulated":
        out = []
        for (a, b), (nodes, vals) in sorted(params_tables_view(params)):
            out.append({"pair": [a, b], "t": [float(x) for x in nodes],
                        "v": [float(x) for x in vals]})
        return {"tables": out}
    return {k: params[k] for k in sorted(params)}


def params_tables_view(params):
    # tables may be raw (list entries) or normalized; present a uniform view
    raw = params.get("tables")
    if isinstance(raw, dict):
        return list(raw.items())
    view = []
    for entry in raw or []:
        pair = _pair_key(*(str(p) for p in entry["pair"]))
        view.append((pair, (np.asarray(entry["t"], float), np.asarray(entry["v"], float))))
    return view


def _check_t(t):
    if not isinstance(t, (int, float)) or not math.isfinite(t) or t <= 0:
        raise DomainError(f"t must be a finite positive real, got {t!r}")


def eval_P(inst: GpmsInstance, a, b, t: float) -> float:
    """Evaluate P(a, b, t).

    Tabulated families use step interpolation: the value at the largest
    table node <= t, extended left of the first node by its value (which
    keeps P non-increasing).
    """
    _check_t(t)
    car = inst.carrier
    if not car.contains(a) or not car.contains(b):
        raise DomainError(f"point not in carrier: {a!r} or {b!r}")
    same = a == b
    if inst.family == "tabulated":
        if same:
            return 0.0
        nodes, vals = inst._tables[_pair_key(a, b)]
        idx = int(np.searchsorted(nodes, t, side="right")) - 1
        return float(vals[max(idx, 0)])
    dist = 0.0 if same else car.base_distance(a, b)
    return _family_scalar(inst.family, inst.params, dist, same, float(t))


def _family_scalar(family, params, dist, same, t):
    if family == "scaled":
        return dist / t
    if family == "constant":
        return dist
    if family == "damped":
        return dist * (1.0 + math.exp(-t))
    if family == "discrete":
        return 0.0 if same else params["c"] / t
    raise DomainError(f"no scalar formula for family {family!r}")


def eval_P_pairwise(inst: GpmsInstance, xs, ys, t: float) -> np.ndarray:
    """Vectorized P over elementwise pairs of two equal-length point lists."""
    _check_t(t)
    xs = list(xs)
    ys = list(ys)
    if inst.family == "tabulated":
        return np.array([eval_P(inst, x, y, t) for x, y in zip(xs, ys)])
    if inst.carrier.kind == "finite":
        xi = np.fromiter((inst.carrier.index(x) for x in xs), dtype=int)
        yi = np.fromiter((inst.carrier.index(y) for y in ys), dtype=int)
        dist = inst.carrier.d[xi, yi]
        same = xi == yi
    else:
        xa = np.asarray(xs, dtype=float)
        ya = np.asarray(ys, dtype=float)
        dist = np.abs(xa - ya)
        same = xa == ya
    return _family_vector(inst.family, inst.params, dist, same, t)


def _family_vector(family, params, dist, same, t):
    if family == "scaled":
        return dist / t
    if family == "constant":
        return np.array(dist, dtype=float, copy=True)
    if family == "damped":
        return dist * (1.0 + math.exp(-t))
    if family == "discrete":
        return np.where(same, 0.0, params["c"] / t)
    raise DomainError(f"no vector formula for family {family!r}")


def gallery_construct(family, params, carrier, op: BinaryOperation,
                      t_grid, alpha_grid) -> GpmsInstance:
    """Build an instance and run fast sanity checks (P1, P2, monotone).

    Rejects with a ConstructionError naming the failed axiom, so broken
    tables or asymmetric inputs never produce a usable instance.
    """
    inst = GpmsInstance(carrier, family, params, op, t_grid, alpha_grid)
    pts = inst.quantifier_points(cap=33)
    tg = inst.t_grid
    for x in pts:
        for t in tg:
            if eval_P(inst, x, x, t) != 0.0:
                raise ConstructionError(f"P({x},{x},{t}) != 0", axiom="P1")
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            vals = [eval_P(inst, x, y, t) for t in tg]
            if all(v == 0.0 for v in vals):
                raise ConstructionError(
                    f"distinct points ({x}, {y}) are indistinguishable on the t grid",
                    axiom="P1")
            for t, v in zip(tg, vals):
                if v != eval_P(inst, y, x, t):
                    raise ConstructionError(f"P not symmetric at ({x}, {y}, {t})", axiom="P2")
            for (t1, v1), (t2, v2) in zip(zip(tg, vals), zip(tg[1:], vals[1:])):
                if v1 < v2:
                    raise ConstructionError(
                        f"P({x},{y},.) increases from t={t1} to t={t2}; must be non-increasing",
                        axiom="monotone")
    return inst


def tabulate_step_family(carrier, t_nodes, fn):
    """Params for a tabulated family sampled from ``fn(dist, t)`` at the nodes."""
    if carrier.kind != "finite":
        raise ConstructionError("tabulated family requires a finite carrier")
    nodes = [float(t) for t in t_nodes]
    tables = []
    labels = carrier.labels
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            d = carrier.base_distance(a, b)
            tables.append({"pair": [a, b], "t": nodes, "v": [float(fn(d, t)) for t in nodes]})
    return {"tables": tables}


# -- axiom checking ------------------------------------------------------


def check_P_axiom(inst: GpmsInstance, axiom: str, seed: int = 0,
                  n_samples: int = 1000, exhaustive: bool = False) -> CheckReport:
    """Check one P axiom; P1/P2/monotone scan exhaustively, P3 samples.

    ``exhaustive=True`` forces the all-triples-all-pairs scan for P3 (used
    to validate the sampler on small carriers).
    """
    if axiom not in P_AXIOMS:
        raise DomainError(f"unknown axiom {axiom!r}; expected one of {P_AXIOMS}")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    pts = inst.quantifier_points()
    tg = inst.t_grid
    sampled_note = "" if inst.carrier.kind == "finite" else \
        f"; interval carrier quantified over {len(pts)} sample points"

    if axiom == "P1":
        witnesses = []
        samples = 0
        for x in pts:
            for t in tg:
                samples += 1
                v = eval_P(inst, x, x, t)
                if v != 0.0:
                    witnesses.append(Witness(points=(x,), values={"t": t, "value": v},
                                             detail="P(a,a,t) != 0"))
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                samples += 1
                if all(eval_P(inst, x, y, t) == 0.0 for t in tg):
                    witnesses.append(Witness(points=(x, y), values={},
                                             detail="distinct pair with P = 0 on the whole t grid"))
        return _grid_report("P1", witnesses, samples, sampled_note)

    if axiom == "P2":
        witnesses = []
        samples = 0
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                for t in tg:
                    samples += 1
                    lhs = eval_P(inst, x, y, t)
                    rhs = eval_P(inst, y, x, t)
                    if lhs != rhs:
                        witnesses.append(Witness(points=(x, y), values={"t": t, "lhs": lhs, "rhs": rhs},
                                                 detail="P(a,b,t) != P(b,a,t)"))
        return _grid_report("P2", witnesses, samples, sampled_note)

    if axiom == "P3":
        witnesses, samples = p3_violations(inst, seed=seed, n_samples=n_samples,
                                           exhaustive=exhaustive, points=pts)
        mode = "exhaustive scan" if exhaustive else f"{samples} seeded samples"
        return _grid_report("P3", witnesses, samples, f"; {mode}" + sampled_note)

    if axiom == "P4":
        witnesses = []
        samples = 0
        t_min = tg[0]
        for alpha in inst.alpha_grid:
            for i, x in enumerate(pts):
                for y in pts[i + 1:]:
                    samples += 1
                    v = eval_P(inst, x, y, t_min)
                    if v < alpha:
                        witnesses.append(Witness(
                            points=(x, y), values={"alpha": alpha, "t": t_min, "value": v},
                            detail="distinct pair below alpha for every grid t"))
        note = ("per-alpha reading; certified at the smallest grid t "
                "(P is non-increasing in t)") + sampled_note
        verdict = FAIL if witnesses else PASS
        return CheckReport(name="P4", verdict=verdict, samples_tested=samples,
                           note=note, witnesses=tuple(witnesses))

    if axiom == "P5":
        return _check_P5(inst, pts, sampled_note)

    # monotone
    witnesses = []
    samples = 0
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            for t1, t2 in zip(tg, tg[1:]):
                samples += 1
                v1 = eval_P(inst, x, y, t1)
                v2 = eval_P(inst, x, y, t2)
                if v1 < v2:
                    witnesses.append(Witness(points=(x, y),
                                             values={"t1": t1, "t2": t2, "v1": v1, "v2": v2},
                                             detail="P increases between adjacent grid t"))
    return _grid_report("monotone", witnesses, samples, sampled_note)


def _grid_report(name, witnesses, samples, extra_note=""):
    verdict = FAIL if witnesses else PASS
    note = ("no counterexample at this resolution" if verdict == PASS else
            "counterexample found") + extra_note
    return CheckReport(name=name, verdict=verdict, samples_tested=samples,
                       note=note, witnesses=tuple(witnesses))


def _check_P5(inst, pts, sampled_note):
    if inst.family == "tabulated":
        # a step function is discontinuous wherever its table value drops;
        # all-constant tables are the one continuous degenerate case
        best = None
        for (a, b), (nodes, vals) in sorted(inst._tables.items()):
            for k in range(1, len(nodes)):
                jump = float(vals[k - 1] - vals[k])
                if jump > 0 and (best is None or jump > best.values["jump"]):
                    best = Witness(points=(a, b), values={"t": float(nodes[k]), "jump": jump},
                                   detail="step drop in the pair table")
        if best is None:
            return CheckReport(name="P5", verdict=PASS,
                               note="step family with constant tables: continuous in t")
        return CheckReport(name="P5", verdict=FAIL, witnesses=(best,),
                           note="step-interpolated in t: discontinuous by construction")
    # difference-quotient budget: jumps must stay within 10x the largest
    # on-grid Lipschitz estimate; cannot prove continuity, only refute wild ones
    tg = inst.t_grid
    quotients = []
    samples = 0
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            for t1, t2 in zip(tg, tg[1:]):
                samples += 1
                q = abs(eval_P(inst, x, y, t1) - eval_P(inst, x, y, t2)) / (t2 - t1)
                quotients.append(q)
    l_est = max(quotients, default=0.0)
    budget = 10.0 * max(l_est, 1e-12)
    witnesses = []
    k = 0
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            for t1, t2 in zip(tg, tg[1:]):
                if quotients[k] > budget:
                    witnesses.append(Witness(points=(x, y),
                                             values={"t1": t1, "t2": t2, "quotient": quotients[k]},
                                             detail="difference quotient exceeds the continuity budget"))
                k += 1
    verdict = FAIL if witnesses else PASS
    return CheckReport(name="P5", verdict=verdict, samples_tested=samples,
                       witnesses=tuple(witnesses),
                       note="difference-quotient budget check; falsification-only" + sampled_note,
                       data={"max_difference_quotient": l_est, "budget_factor": 10.0})


def p3_violations(inst: GpmsInstance, seed: int = 0, n_samples: int = 1000,
                  exhaustive: bool = False, points=None):
    """Witnesses for P3 violations, sampled or exhaustive.

    Each sampled trial draws a triple (a, b, x) and a grid pair (s, t) from a
    seeded RNG, so identical seeds give identical reports.
    """
    pts = points if points is not None else inst.quantifier_points()
    tg = inst.t_grid
    op = inst.op
    witnesses = []
    samples = 0

    def trial(a, b, x, s, t):
        lhs = eval_P(inst, a, b, s + t)
        rhs = eval_op(op, eval_P(inst, a, x, s), eval_P(inst, b, x, t))
        if lhs > rhs:
            witnesses.append(Witness(points=(a, b, x),
                                     values={"s": s, "t": t, "lhs": lhs, "rhs": rhs},
                                     detail="P(a,b,s+t) > P(a,x,s) o P(b,x,t)"))

    if exhaustive:
        for a in pts:
            for b in pts:
                for x in pts:
                    for s in tg:
                        for t in tg:
                            samples += 1
                            trial(a, b, x, s, t)
    else:
        rng = random.Random(seed)
        for _ in range(n_samples):
            samples += 1
            a = rng.choice(pts)
            b = rng.choice(pts)
            x = rng.choice(pts)
            s = rng.choice(tg)
            t = rng.choice(tg)
            trial(a, b, x, s, t)
    return witnesses, samples


def p4_violations(inst: GpmsInstance, alpha: float):
    """Distinct pairs staying below ``alpha`` on the whole t grid (per-alpha P4)."""
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    pts = inst.quantifier_points()
    t_min = inst.t_grid[0]
    out = []
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if eval_P(inst, x, y, t_min) < alpha:
                out.append((x, y))
    return out

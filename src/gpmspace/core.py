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

P is computed by one kernel: one family formula applied to a distance (a
float or an array) and a float t, where the distance comes from the
carrier's table d, from |x - y| on an interval, or, for tabulated families,
from padded per-pair step tables built at construction.  ``eval_P`` is the
scalar front end and ``P`` the array front end; both perform the same float
operations.  The grid scans (P1, P2, P4, P5, monotone, ``p4_violations``,
the construction sanity pass) read one points x points x t_grid tensor and
list witnesses in the order of nested loops over (a, b, t).
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

# approximate number of quantifier points for exhaustive scans: carriers with
# more points are sampled at a stride of len // cap, which keeps fewer than
# 2 * cap points (135 of 401 at cap 128; all 48 of 48 at cap 33)
_QUANTIFIER_CAP = 128


class FiniteCarrier:
    """A finite labeled point set with a symmetric base distance table."""

    kind = "finite"

    def __init__(self, labels, d, *, tri_slack=None):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ConstructionError("carrier needs at least one point")
        if len(set(labels)) != len(labels):
            raise ConstructionError("carrier labels must be unique")
        try:
            d = np.array(d, dtype=float)  # private copy, made read-only below
        except (TypeError, ValueError):
            raise ConstructionError("distance table d must be a square matrix of numbers") from None
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
        try:
            lo, hi, resolution = float(lo), float(hi), float(resolution)
        except (TypeError, ValueError):
            raise ConstructionError("interval bounds and resolution must be numbers") from None
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
        if family == "discrete":
            c = self.params.get("c")
            if c is None or not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
                raise ConstructionError("discrete family needs a parameter c > 0")
            self.params["c"] = float(c)
        self._steps = _step_tables(carrier, self.params) if family == "tabulated" else None

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


def _step_tables(carrier, params):
    """Padded step tables: P(i, j, t) = values[i, j, k], node k the first above t.

    Both are n x n x (w + 1), w the most nodes of any pair.  nodes is padded
    with +inf, at least once per row.  Column k of values is P on
    [node k-1, node k): column 0 extends the first value to the left,
    padding repeats the last value, and the diagonal is 0.
    """
    if carrier.kind != "finite":
        raise ConstructionError("tabulated family requires a finite carrier")
    raw = params.get("tables")
    if not raw:
        raise ConstructionError("tabulated family needs per-pair tables")
    if not isinstance(raw, (list, tuple)):
        raise ConstructionError("params.tables must be a list of {pair, t, v} entries")
    tables = {}
    for k, entry in enumerate(raw):
        where = f"params.tables[{k}]"
        if not (isinstance(entry, dict) and {"pair", "t", "v"} <= entry.keys()
                and isinstance(entry["pair"], (list, tuple))):
            raise ConstructionError(f"{where} must be an object with a 'pair' list, 't' and 'v'")
        pair = tuple(str(p) for p in entry["pair"])
        if len(pair) != 2 or not all(carrier.contains(p) for p in pair) or pair[0] == pair[1]:
            raise ConstructionError(f"table pair {pair!r} must name two distinct carrier points")
        try:
            nodes = np.asarray(entry["t"], dtype=float)
            vals = np.asarray(entry["v"], dtype=float)
        except (TypeError, ValueError):
            raise ConstructionError(f"{where}: 't' and 'v' must be lists of numbers") from None
        if nodes.ndim != 1 or nodes.size == 0 or not np.all(np.diff(nodes) > 0) or nodes[0] <= 0:
            raise ConstructionError(f"table t nodes for {pair!r} must be strictly increasing positives")
        if vals.shape != nodes.shape or not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ConstructionError(f"table values for {pair!r} must be finite non-negative")
        if np.any(np.diff(vals) > 0):
            raise ConstructionError(
                f"table values for {pair!r} increase in t; P must be non-increasing in t",
                axiom="monotone")
        i, j = sorted((carrier.index(pair[0]), carrier.index(pair[1])))
        if (i, j) in tables:
            raise ConstructionError(f"{where} repeats the table for pair {pair!r}")
        tables[i, j] = (nodes, vals)
    n = carrier.size
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in tables:
                raise ConstructionError(
                    f"tabulated family is missing a table for pair "
                    f"({carrier.labels[i]}, {carrier.labels[j]})")
    width = max(nodes.size for nodes, _ in tables.values()) + 1
    step_nodes = np.full((n, n, width), np.inf)
    step_vals = np.zeros((n, n, width))
    for (i, j), (nodes, vals) in tables.items():
        step_nodes[[i, j], [j, i], :nodes.size] = nodes
        step_vals[[i, j], [j, i]] = np.pad(vals, (1, width - 1 - vals.size), mode="edge")
    step_nodes.flags.writeable = False
    step_vals.flags.writeable = False
    return step_nodes, step_vals


def _params_jsonable(family, params):
    if family == "tabulated":
        out = [{"pair": list(_pair_key(*(str(p) for p in e["pair"]))),
                "t": np.asarray(e["t"], dtype=float).tolist(),
                "v": np.asarray(e["v"], dtype=float).tolist()} for e in params["tables"]]
        return {"tables": sorted(out, key=lambda e: e["pair"])}
    return {k: params[k] for k in sorted(params)}


def _check_t(t):
    if not isinstance(t, (int, float)) or not math.isfinite(t) or t <= 0:
        raise DomainError(f"t must be a finite positive real, got {t!r}")


# -- the evaluation kernel -------------------------------------------------


def _formula(family, params, dist, t: float):
    """The family formula at base distance ``dist`` (a float or an array)."""
    if family == "scaled":
        return dist / t
    if family == "constant":
        return dist
    if family == "damped":
        return dist * (1.0 + math.exp(-t))
    if family == "discrete":  # the base distance is 0 exactly on the diagonal
        if isinstance(dist, float):
            return 0.0 if dist == 0.0 else params["c"] / t
        return np.where(dist == 0.0, 0.0, params["c"] / t)
    raise DomainError(f"no formula for family {family!r}")


def _kernel(inst: GpmsInstance, u, v, t: float):
    """P at carrier coordinates ``u`` and ``v``, broadcast together: point
    indices on a finite carrier, the points themselves on an interval."""
    if inst._steps is not None:
        nodes, vals = inst._steps
        return vals[u, v, (nodes[u, v] > t).argmax(axis=-1)]
    dist = inst.carrier.d[u, v] if inst.carrier.kind == "finite" else np.abs(u - v)
    return _formula(inst.family, inst.params, dist, t)


def _coords(inst: GpmsInstance, pts) -> np.ndarray:
    """Kernel coordinates of an array of carrier points, shape preserved."""
    car = inst.carrier
    if car.kind == "finite":
        if isinstance(pts, str):  # one label
            return car.index(pts)
        arr = np.asarray(pts, dtype=object)
        return np.fromiter(map(car.index, arr.flat), np.intp, arr.size).reshape(arr.shape)
    arr = np.asarray(pts, dtype=float)
    if not np.all((arr >= car.lo) & (arr <= car.hi)):
        raise DomainError("point not in carrier: an array entry leaves the interval")
    return arr


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
    if inst._steps is not None:
        return float(_kernel(inst, car.index(a), car.index(b), float(t)))
    return _formula(inst.family, inst.params, car.base_distance(a, b), float(t))


def P(inst: GpmsInstance, xs, ys, t: float) -> np.ndarray:
    """P(x, y, t) over two arrays of carrier points, broadcast together;
    each value equals ``eval_P`` bit for bit.  ``P(inst, pts, x, t)`` is a row
    and ``P(inst, np.asarray(pts, dtype=object)[:, None], pts, t)`` a matrix."""
    _check_t(t)
    return np.asarray(_kernel(inst, _coords(inst, xs), _coords(inst, ys), float(t)))


def _pair_grid(inst: GpmsInstance, pts, ts):
    """grid[i, j, k] = P(pts[i], pts[j], ts[k]), and the mask of pairs i < j."""
    c = _coords(inst, pts)
    grid = np.empty((len(pts), len(pts), len(ts)))
    for k, t in enumerate(ts):
        grid[:, :, k] = _kernel(inst, c[:, None], c[None, :], t)
    return grid, np.triu(np.ones((len(pts), len(pts)), dtype=bool), 1)


def step_ray_start(inst: GpmsInstance, a, b, alpha: float) -> float:
    """inf { t > 0 : P(a, b, t) < alpha }, read off a tabulated family's steps."""
    nodes, vals = inst._steps
    i, j = inst.carrier.index(a), inst.carrier.index(b)
    below = np.flatnonzero(vals[i, j] < alpha)
    if not below.size:
        return math.inf
    return 0.0 if below[0] == 0 else float(nodes[i, j, below[0] - 1])


def gallery_construct(family, params, carrier, op: BinaryOperation,
                      t_grid, alpha_grid) -> GpmsInstance:
    """Build an instance and run fast sanity checks (P1, P2, monotone).

    Rejects with a ConstructionError naming the failed axiom, so broken
    tables or asymmetric inputs never produce a usable instance.
    """
    inst = GpmsInstance(carrier, family, params, op, t_grid, alpha_grid)
    pts = inst.quantifier_points(cap=33)
    tg = inst.t_grid
    grid, upper = _pair_grid(inst, pts, tg)
    bad = np.argwhere(grid.diagonal().T != 0.0)
    if bad.size:
        i, k = bad[0]
        raise ConstructionError(f"P({pts[i]},{pts[i]},{tg[k]}) != 0", axiom="P1")
    # the first bad pair in loop order, then its first failing test in order
    blank = np.all(grid == 0.0, axis=-1)
    asym = grid != grid.transpose(1, 0, 2)
    rising = grid[:, :, :-1] < grid[:, :, 1:]
    bad = np.argwhere(upper & (blank | asym.any(-1) | rising.any(-1)))
    if bad.size:
        i, j = bad[0]
        x, y = pts[i], pts[j]
        if blank[i, j]:
            raise ConstructionError(
                f"distinct points ({x}, {y}) are indistinguishable on the t grid", axiom="P1")
        if asym[i, j].any():
            raise ConstructionError(f"P not symmetric at ({x}, {y}, {tg[np.argmax(asym[i, j])]})",
                                    axiom="P2")
        k = np.argmax(rising[i, j])
        raise ConstructionError(
            f"P({x},{y},.) increases from t={tg[k]} to t={tg[k + 1]}; must be non-increasing",
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

    if axiom == "P3":
        witnesses, samples = p3_violations(inst, seed=seed, n_samples=n_samples,
                                           exhaustive=exhaustive, points=pts)
        mode = "exhaustive scan" if exhaustive else f"{samples} seeded samples"
        return _grid_report("P3", witnesses, samples, f"; {mode}" + sampled_note)

    if axiom == "P5" and inst._steps is not None:
        return _check_P5_steps(inst)

    # the other axioms read one tensor (P4 only its smallest t); argwhere
    # lists witnesses in C order, the order of nested loops over a, b, t
    grid, upper = _pair_grid(inst, pts, tg[:1] if axiom == "P4" else tg)
    pairs = int(upper.sum())

    if axiom == "P1":
        witnesses = [Witness(points=(pts[i],), values={"t": tg[k], "value": float(grid[i, i, k])},
                             detail="P(a,a,t) != 0")
                     for i, k in np.argwhere(grid.diagonal().T != 0.0)]
        witnesses += [Witness(points=(pts[i], pts[j]), values={},
                              detail="distinct pair with P = 0 on the whole t grid")
                      for i, j in np.argwhere(upper & np.all(grid == 0.0, axis=-1))]
        return _grid_report("P1", witnesses, len(pts) * len(tg) + pairs, sampled_note)

    if axiom == "P2":
        asym = upper[:, :, None] & (grid != grid.transpose(1, 0, 2))
        witnesses = [Witness(points=(pts[i], pts[j]),
                             values={"t": tg[k], "lhs": float(grid[i, j, k]),
                                     "rhs": float(grid[j, i, k])},
                             detail="P(a,b,t) != P(b,a,t)")
                     for i, j, k in np.argwhere(asym)]
        return _grid_report("P2", witnesses, pairs * len(tg), sampled_note)

    if axiom == "P4":
        witnesses = [Witness(points=(pts[i], pts[j]),
                             values={"alpha": alpha, "t": tg[0], "value": float(grid[i, j, 0])},
                             detail="distinct pair below alpha for every grid t")
                     for alpha in inst.alpha_grid
                     for i, j in np.argwhere(upper & (grid[:, :, 0] < alpha))]
        note = ("per-alpha reading; certified at the smallest grid t "
                "(P is non-increasing in t)") + sampled_note
        verdict = FAIL if witnesses else PASS
        return CheckReport(name="P4", verdict=verdict, samples_tested=len(inst.alpha_grid) * pairs,
                           note=note, witnesses=tuple(witnesses))

    if axiom == "P5":
        # difference-quotient budget: jumps must stay within 10x the largest
        # on-grid Lipschitz estimate; cannot prove continuity, only refute wild ones
        quotients = grid[:, :, :-1] - grid[:, :, 1:]
        np.abs(quotients, out=quotients)
        quotients /= np.diff(tg)
        # the largest over the pairs a < b as Python's max gives it in loop
        # order: a NaN counts only when it comes first, at (0, 1) and step 0
        lead = float(quotients[0, 1, 0]) if pairs and len(tg) > 1 else 0.0
        l_est = lead if math.isnan(lead) else \
            float(np.nanmax(quotients, where=upper[:, :, None], initial=0.0))
        budget = 10.0 * max(l_est, 1e-12)
        witnesses = [Witness(points=(pts[i], pts[j]),
                             values={"t1": tg[k], "t2": tg[k + 1],
                                     "quotient": float(quotients[i, j, k])},
                             detail="difference quotient exceeds the continuity budget")
                     for i, j, k in np.argwhere(upper[:, :, None] & (quotients > budget))]
        return CheckReport(name="P5", verdict=FAIL if witnesses else PASS,
                           samples_tested=pairs * (len(tg) - 1), witnesses=tuple(witnesses),
                           note="difference-quotient budget check; falsification-only" + sampled_note,
                           data={"max_difference_quotient": l_est, "budget_factor": 10.0})

    # monotone
    rising = upper[:, :, None] & (grid[:, :, :-1] < grid[:, :, 1:])
    witnesses = [Witness(points=(pts[i], pts[j]),
                         values={"t1": tg[k], "t2": tg[k + 1], "v1": float(grid[i, j, k]),
                                 "v2": float(grid[i, j, k + 1])},
                         detail="P increases between adjacent grid t")
                 for i, j, k in np.argwhere(rising)]
    return _grid_report("monotone", witnesses, pairs * (len(tg) - 1), sampled_note)


def _grid_report(name, witnesses, samples, extra_note=""):
    verdict = FAIL if witnesses else PASS
    note = ("no counterexample at this resolution" if verdict == PASS else
            "counterexample found") + extra_note
    return CheckReport(name=name, verdict=verdict, samples_tested=samples,
                       note=note, witnesses=tuple(witnesses))


def _check_P5_steps(inst):
    # a step function is discontinuous wherever its table value drops (at node
    # k, from value column k to k + 1); all-constant tables are continuous.
    # The largest drop is reported, the first in (label pair, node) order.
    nodes, vals = inst._steps
    labels = inst.carrier.labels
    drops = vals[:, :, :-1] - vals[:, :, 1:]
    if not drops.max() > 0:
        return CheckReport(name="P5", verdict=PASS,
                           note="step family with constant tables: continuous in t")
    i, j, k = min(np.argwhere(drops == drops.max()).tolist(),
                  key=lambda c: (labels[c[0]], labels[c[1]], c[2]))
    best = Witness(points=(labels[i], labels[j]),
                   values={"t": float(nodes[i, j, k]), "jump": float(drops[i, j, k])},
                   detail="step drop in the pair table")
    return CheckReport(name="P5", verdict=FAIL, witnesses=(best,),
                       note="step-interpolated in t: discontinuous by construction")


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
    grid, upper = _pair_grid(inst, pts, inst.t_grid[:1])
    return [(pts[i], pts[j]) for i, j in np.argwhere(upper & (grid[:, :, 0] < alpha))]

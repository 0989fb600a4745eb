"""Constructive separation witnesses (T0, T1, T2, regular, normal) and
countable bases on finite carriers.

Witness construction picks t0 as the smallest grid t, which maximizes
P(a,b,t0) by monotonicity and therefore gives the most robust alpha0 to
separate below; the minimum of P over a set is one kernel slice.  Every
witness is verified once before it is returned: its ball masks U and V are
built once, and the verification report travels with the witness.

Countable bases read the least open sets of tau_P (``balls._least``):
every open set around a point y holds reach[y], so a base question about
all open sets around y is decided by reach[y] alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .balls import SubsetMask, _least, generate_topology, is_open, open_ball
from .binop import eval_op, sub_idempotent
from .core import GpmsInstance, P, eval_P
from .errors import DomainError, PreconditionError, WitnessNotFoundError
from .reports import FAIL, INCONCLUSIVE, PASS, CheckReport, Witness

KINDS = ("T0", "T1", "T2", "regular", "normal")


@dataclass(frozen=True)
class BallSpec:
    center: str
    radius: float
    scale: float

    def to_jsonable(self):
        return {"center": self.center, "radius": self.radius, "scale": self.scale}


@dataclass
class SeparationWitness:
    kind: str
    t0: float
    alpha0: float
    alpha1: float | None
    balls_u: tuple
    balls_v: tuple
    a: str | None = None
    b: str | None = None
    set_a: SubsetMask | None = None
    set_b: SubsetMask | None = None
    u_mask: SubsetMask | None = None
    v_mask: SubsetMask | None = None
    note: str = ""
    # the verification separation_witness ran on u_mask and v_mask
    report: CheckReport | None = field(default=None, init=False, repr=False, compare=False)

    def to_jsonable(self, carrier=None):
        out = {
            "kind": self.kind,
            "t0": self.t0,
            "alpha0": self.alpha0,
            "alpha1": self.alpha1,
            "U": [s.to_jsonable() for s in self.balls_u],
            "V": [s.to_jsonable() for s in self.balls_v],
            "a": self.a,
            "b": self.b,
        }
        if carrier is not None:
            out["set_a"] = list(self.set_a.labels(carrier)) if self.set_a else None
            out["set_b"] = list(self.set_b.labels(carrier)) if self.set_b else None
        return out


def _mask_of(inst, specs) -> SubsetMask:
    n = inst.carrier.size
    m = SubsetMask.empty(n)
    for s in specs:
        m = m.union(open_ball(inst, s.center, s.radius, s.scale))
    return m


def _min_P(inst, xs, ys, t) -> float:
    """min of P(x, y, t) over x in xs and y in ys, one kernel slice."""
    return float(P(inst, np.asarray(xs, dtype=object)[:, None], ys, t).min())


def _pick_t0(inst, value_fn):
    """Smallest grid t where the separating value is positive."""
    for t in inst.t_grid:
        v = value_fn(t)
        if v > 0:
            return t, v
    raise WitnessNotFoundError("no grid t gives a positive separating value")


def _require_closed(inst, subset: SubsetMask, name: str):
    if subset is None or subset.is_empty:
        raise PreconditionError(f"{name} must be a non-empty subset")
    if not is_open(inst, subset.complement()):
        raise PreconditionError(f"{name} is not closed at these grids")


def separation_witness(inst: GpmsInstance, kind: str, a=None, b=None,
                       subset: SubsetMask | None = None,
                       subset_b: SubsetMask | None = None) -> SeparationWitness:
    """Build a verified witness following the standard ball constructions.

    T0/T1/T2 take two distinct points ``a`` and ``b``; regular takes a
    closed ``subset`` and a point ``a`` outside it; normal takes two
    disjoint closed sets ``subset`` and ``subset_b``.
    """
    if inst.carrier.kind != "finite":
        raise DomainError("separation witnesses need a finite carrier")
    if kind not in KINDS:
        raise DomainError(f"unknown separation kind {kind!r}; expected one of {KINDS}")
    car = inst.carrier

    if kind in ("T0", "T1", "T2"):
        if a is None or b is None or a == b:
            raise PreconditionError("need two distinct points")
        car.index(a), car.index(b)
        t0, alpha0 = _pick_t0(inst, lambda t: eval_P(inst, a, b, t))
        if kind == "T0":
            w = SeparationWitness(kind, t0, alpha0, None,
                                  (BallSpec(a, alpha0, t0),), (), a=a, b=b)
        elif kind == "T1":
            w = SeparationWitness(kind, t0, alpha0, None,
                                  (BallSpec(a, alpha0, t0),), (BallSpec(b, alpha0, t0),),
                                  a=a, b=b)
        else:
            alpha1 = sub_idempotent(inst.op, alpha0)
            w = SeparationWitness(kind, t0, alpha0, alpha1,
                                  (BallSpec(a, alpha1, t0 / 2),),
                                  (BallSpec(b, alpha1, t0 / 2),), a=a, b=b)
    elif kind == "regular":
        if a is None:
            raise PreconditionError("regular needs the outside point as a")
        _require_closed(inst, subset, "subset")
        if subset.contains(car.index(a)):
            raise PreconditionError(f"point {a!r} must lie outside the closed set")
        members = subset.labels(car)
        t0, alpha0 = _pick_t0(inst, lambda t: _min_P(inst, (a,), members, t))
        alpha1 = sub_idempotent(inst.op, alpha0)
        w = SeparationWitness(kind, t0, alpha0, alpha1,
                              (BallSpec(a, alpha1, t0 / 2),),
                              tuple(BallSpec(m, alpha1, t0 / 2) for m in members),
                              a=a, set_a=subset)
    else:  # normal
        _require_closed(inst, subset, "subset")
        _require_closed(inst, subset_b, "subset_b")
        if not subset.intersection(subset_b).is_empty:
            raise PreconditionError("the two closed sets must be disjoint")
        mem_a = subset.labels(car)
        mem_b = subset_b.labels(car)
        t0, alpha0 = _pick_t0(inst, lambda t: _min_P(inst, mem_a, mem_b, t))
        alpha1 = sub_idempotent(inst.op, alpha0)
        w = SeparationWitness(kind, t0, alpha0, alpha1,
                              tuple(BallSpec(m, alpha1, t0 / 2) for m in mem_a),
                              tuple(BallSpec(m, alpha1, t0 / 2) for m in mem_b),
                              set_a=subset, set_b=subset_b)

    w.u_mask = _mask_of(inst, w.balls_u)
    w.v_mask = _mask_of(inst, w.balls_v)
    w.report = _check_claims(inst, w, w.u_mask, w.v_mask)
    if not w.report.ok:
        raise WitnessNotFoundError(
            f"constructed {kind} witness failed verification: {w.report.witness.detail}")
    return w


def verify_witness(inst: GpmsInstance, w: SeparationWitness) -> CheckReport:
    """Re-evaluate every claim a witness makes: ball memberships,
    disjointness or exclusion, and the inequality chain alpha1 o alpha1 < alpha0."""
    if inst.carrier.kind != "finite":
        raise DomainError("separation witnesses need a finite carrier")
    car = inst.carrier
    for spec in list(w.balls_u) + list(w.balls_v):
        car.index(spec.center)  # raises DomainError for foreign points
    if w.a is not None:
        car.index(w.a)
    if w.b is not None:
        car.index(w.b)
    return _check_claims(inst, w, _mask_of(inst, w.balls_u), _mask_of(inst, w.balls_v))


def _check_claims(inst, w: SeparationWitness, u: SubsetMask, v: SubsetMask) -> CheckReport:
    """The claims of ``verify_witness``, given the masks U and V of w's balls."""
    car = inst.carrier
    witnesses = []
    samples = 0

    def claim(ok, detail, **values):
        nonlocal samples
        samples += 1
        if not ok:
            witnesses.append(Witness(points=tuple(p for p in (w.a, w.b) if p),
                                     values=values, detail=detail))

    if w.kind == "T0":
        claim(u.contains(car.index(w.a)), "a not inside U")
        claim(not u.contains(car.index(w.b)), "b not excluded from U")
        claim(w.alpha0 == eval_P(inst, w.a, w.b, w.t0),
              "alpha0 does not match P(a,b,t0)", alpha0=w.alpha0)
    elif w.kind == "T1":
        claim(u.contains(car.index(w.a)), "a not inside U")
        claim(not u.contains(car.index(w.b)), "b not excluded from U")
        claim(v.contains(car.index(w.b)), "b not inside V")
        claim(not v.contains(car.index(w.a)), "a not excluded from V")
    elif w.kind == "T2":
        claim(u.contains(car.index(w.a)), "a not inside U")
        claim(v.contains(car.index(w.b)), "b not inside V")
        claim(u.intersection(v).is_empty, "U and V overlap")
        chain_ok = (w.alpha1 is not None
                    and eval_op(inst.op, w.alpha1, w.alpha1) < w.alpha0
                    and w.alpha0 == eval_P(inst, w.a, w.b, w.t0))
        claim(chain_ok, "inequality chain alpha1 o alpha1 < alpha0 = P(a,b,t0) fails",
              alpha0=w.alpha0, alpha1=w.alpha1 if w.alpha1 is not None else math.nan)
    elif w.kind == "regular":
        claim(u.contains(car.index(w.a)), "x not inside U")
        claim(w.set_a is not None and w.set_a.issubset(v), "closed set not covered by V")
        claim(u.intersection(v).is_empty, "U and V overlap")
        if w.set_a is not None and w.alpha1 is not None:
            sep = _min_P(inst, (w.a,), w.set_a.labels(car), w.t0)
            claim(eval_op(inst.op, w.alpha1, w.alpha1) < w.alpha0 and w.alpha0 <= sep,
                  "inequality chain fails against the set separation value",
                  alpha0=w.alpha0, alpha1=w.alpha1, separation=sep)
        else:
            claim(False, "regular witness lacks set_a or alpha1")
    elif w.kind == "normal":
        claim(w.set_a is not None and w.set_a.issubset(u), "first closed set not covered by U")
        claim(w.set_b is not None and w.set_b.issubset(v), "second closed set not covered by V")
        claim(u.intersection(v).is_empty, "U and V overlap")
        if w.set_a is not None and w.set_b is not None and w.alpha1 is not None:
            sep = _min_P(inst, w.set_a.labels(car), w.set_b.labels(car), w.t0)
            claim(eval_op(inst.op, w.alpha1, w.alpha1) < w.alpha0 and w.alpha0 <= sep,
                  "inequality chain fails against the set separation value",
                  alpha0=w.alpha0, alpha1=w.alpha1, separation=sep)
        else:
            claim(False, "normal witness lacks sets or alpha1")
    else:
        raise DomainError(f"unknown separation kind {w.kind!r}")

    verdict = FAIL if witnesses else PASS
    return CheckReport(name=f"witness[{w.kind}]", verdict=verdict, samples_tested=samples,
                       witnesses=tuple(witnesses),
                       data={"U": [s.to_jsonable() for s in w.balls_u],
                             "V": [s.to_jsonable() for s in w.balls_v]})


def countable_base(inst: GpmsInstance, mode: str, x=None, n_max: int | None = None,
                   max_points: int = 15):
    """Balls B(., 1/n, 1/n) as a local base at x or a global base.

    Every open set around a point y holds reach[y], the least open set
    around y.  Local mode verifies that every generated open set containing
    x admits a base ball inside it, which holds iff some base ball at x
    lies inside reach[x]; otherwise reach[x] is the first open set that
    fails.  Global mode uses the whole finite carrier as the dense set and
    verifies every open set is a union of base members, which holds iff
    every point y lies in some base ball inside reach[y]; otherwise the
    first set that fails is the smallest such reach[y] by bitmask.  The
    listed family is read only for the counts in the report.
    Returns ``(ball_specs, CheckReport)``; verification failures are
    inconclusive (the base may isolate only at larger n).
    """
    if mode not in ("local", "global"):
        raise DomainError(f"mode must be 'local' or 'global', got {mode!r}")
    if inst.carrier.kind != "finite":
        raise DomainError("countable bases are verified on finite carriers only")
    car = inst.carrier
    n = car.size
    topo = generate_topology(inst, max_points)
    _, reach = _least(inst)

    def isolating_n(p, cap=64):
        for k in range(1, cap + 1):
            if open_ball(inst, p, 1.0 / k, 1.0 / k).count == 1:
                return k
        return cap

    if mode == "local":
        if x is None:
            raise DomainError("local mode needs a point x")
        points, centers = [car.index(x)], [x]
    else:
        points, centers = range(n), car.labels
    n_top = n_max if n_max is not None else max(isolating_n(p) for p in centers)
    specs = [BallSpec(p, 1.0 / k, 1.0 / k) for p in centers for k in range(1, n_top + 1)]
    covered = 0  # the points y that lie in some base ball inside reach[y]
    for s in specs:
        m = open_ball(inst, s.center, s.radius, s.scale)
        covered |= sum(1 << y for y in m.indices() if m.bits & ~reach[y] == 0)
    failing = min((reach[y] for y in points if not covered >> y & 1), default=None)
    named = list(SubsetMask(n, failing).labels(car)) if failing is not None else None

    if mode == "local":
        name = f"countable_base[local@{x}]"
        samples = sum(g.contains(points[0]) for g in topo)
        passed = f"local base verified against {len(topo)} open sets"
        detail = "open set admits no base ball at this depth"
        note = f"no base ball fits inside the open set {named}; try a larger n_max"
    else:
        name = "countable_base[global]"
        samples = len(topo)
        passed = f"base generates all {len(topo)} open sets"
        detail = "open set is not a union of base members"
        note = f"open set {named} not generated; the dense-set base needs larger n_max"
    if failing is None:
        return specs, CheckReport(name=name, verdict=PASS, samples_tested=samples, note=passed)
    return specs, CheckReport(
        name=name, verdict=INCONCLUSIVE, samples_tested=samples,
        witnesses=(Witness(points=tuple(named), values={"n_max": float(n_top)}, detail=detail),),
        note=note)

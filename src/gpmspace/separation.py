"""Constructive separation witnesses (T0, T1, T2, regular, normal) and
countable bases on finite carriers.

Every kind is one construction.  Its preconditions give two center sets X
and Y: the two points for T0/T1/T2, the outside point and the closed set for
regular, the two closed sets for normal.  t0 is the smallest grid t where
alpha0 = min P(x, y, t0) over X x Y is positive.  U holds the balls at X and
V the balls at Y (T0 builds no V): radius alpha0 at scale t0 for T0/T1, and
radius alpha1 = sub_idempotent(alpha0) at scale t0/2 for T2, regular and
normal.

``witness_batch`` builds and verifies every witness of one kind in one
array pass, one row per pair of center sets held as boolean masks over
point indices.  Every row reads one table of P over (t, x, y) at the t grid
and at half of each grid t, derived once per instance: t0 and alpha0 are a
masked minimum over it, alpha1 is solved once per distinct alpha0, the ball
masks U and V are row comparisons of it, and each claim ``verify_witness``
makes is one boolean column, in claim order.  A row that fails a claim or a
step of the construction keeps the error the construction raises.
``separation_witness`` is a batch of one; ``verify_witness`` re-checks a
witness ball by ball and stays the independent oracle.  A batch row's
report (``WitnessBatch.report``) takes the row's check name and writes its
balls as plain dicts, with no ``BallSpec`` per ball.

Countable bases read the classes of tau_P, a partition topology
(``balls``): every open set around a point y holds its class C(y), so a
base question about all open sets around y is decided by C(y) alone,
and the 2^k open sets, 2^(k-1) of them around each point, are counted, not
listed.  The base balls B(x, 1/k, 1/k) for k = 1..64 are one kernel tensor
per instance, which also gives each point's isolating depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .balls import (
    SubsetMask,
    _class_bits,
    _classes,
    _mask_of_flags,
    _min_P,
    _unions_of_classes,
    is_open,
    open_ball,
)
from .binop import eval_op, sub_idempotent
from .core import GpmsInstance, P_at, derive, eval_P
from .errors import DomainError, GpmsError, PreconditionError, WitnessNotFoundError
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


# the claims verify_witness makes for each kind, in order, by the detail a
# failed claim reports (``_check_claims`` spells its own out, as the oracle)
_CLAIMS = {
    "T0": ("a not inside U", "b not excluded from U", "alpha0 does not match P(a,b,t0)"),
    "T1": ("a not inside U", "b not excluded from U", "b not inside V", "a not excluded from V"),
    "T2": ("a not inside U", "b not inside V", "U and V overlap",
           "inequality chain alpha1 o alpha1 < alpha0 = P(a,b,t0) fails"),
    "regular": ("x not inside U", "closed set not covered by V", "U and V overlap",
                "inequality chain fails against the set separation value"),
    "normal": ("first closed set not covered by U", "second closed set not covered by V",
               "U and V overlap", "inequality chain fails against the set separation value"),
}

_BASE_DEPTH = 64  # the deepest base ball B(x, 1/k, 1/k) that isolating depths try


def _mask_of(inst, specs) -> SubsetMask:
    n = inst.carrier.size
    m = SubsetMask.empty(n)
    for s in specs:
        m = m.union(open_ball(inst, s.center, s.radius, s.scale))
    return m


def _not_closed(name):
    return PreconditionError(f"{name} is not closed at these grids")


def _require_closed(inst, subset: SubsetMask, name: str):
    if subset is None or subset.is_empty:
        raise PreconditionError(f"{name} must be a non-empty subset")
    if not is_open(inst, subset.complement()):
        raise _not_closed(name)


def _tables(inst):
    """(full, half): P over (t, x, y) at every grid t and at half of it, one
    kernel tensor per instance.  A half t that is not positive (half of the
    smallest subnormal) has no entries: they are NaN."""
    def build():
        c = np.arange(inst.carrier.size)
        t = np.asarray(inst.t_grid)
        ts = np.concatenate([t, t / 2])
        table = np.full((ts.size,) + (c.size,) * 2, np.nan)
        with np.errstate(over="ignore"):  # an overflow is +inf, inside no ball
            table[ts > 0] = P_at(inst, c[:, None], c, ts[ts > 0][:, None, None])
        return table[:t.size], table[t.size:]

    return derive(inst, "separation_tables", build)


def _members(masks):
    """Per row of a (rows, n) bool matrix, the list of its true column indices."""
    out = [[] for _ in range(len(masks))]
    rows, cols = np.nonzero(masks)
    for r, i in zip(rows.tolist(), cols.tolist()):
        out[r].append(i)
    return out


@dataclass
class WitnessBatch:
    """The witnesses of one kind, one row per pair of center sets X and Y
    (see ``witness_batch``).  A row's values are read only when its
    ``errors`` entry is None."""

    kind: str
    labels: tuple
    x_members: list     # per row, the point indices in X ...
    y_members: list     # ... and in Y
    t0: list
    alpha0: list
    alpha1: list        # None for T0 and T1
    radius: list
    scale: list
    u: np.ndarray       # (rows, n) bool: the ball masks U ...
    v: np.ndarray       # ... and V (empty for T0)
    errors: list        # per row, the error its construction raises, or None

    def balls(self, r):
        """(balls_u, balls_v) of row ``r``, as BallSpec tuples."""
        def specs(centers):
            return tuple(BallSpec(self.labels[i], self.radius[r], self.scale[r])
                         for i in centers[r])
        return specs(self.x_members), () if self.kind == "T0" else specs(self.y_members)

    def report(self, r, name: str | None = None) -> CheckReport:
        """Row ``r``'s verification report, named ``name`` (by default
        ``witness[<kind>]``); raises the row's error instead.  Its balls are
        written as the plain dicts ``BallSpec.to_jsonable`` gives."""
        error = self.errors[r]
        if error is not None:  # a fresh one: a raised error's frames would hold the batch
            raise type(error)(*error.args)
        radius, scale = self.radius[r], self.scale[r]

        def balls(centers):
            return [{"center": self.labels[i], "radius": radius, "scale": scale}
                    for i in centers[r]]

        return CheckReport(name=name or f"witness[{self.kind}]", verdict=PASS,
                           samples_tested=len(_CLAIMS[self.kind]),
                           data={"U": balls(self.x_members),
                                 "V": [] if self.kind == "T0" else balls(self.y_members)})


def witness_batch(inst: GpmsInstance, kind: str, xs, ys) -> WitnessBatch:
    """Build and verify the witnesses of ``kind`` for rows of center sets.

    ``xs`` and ``ys`` are (rows, n) bool masks over point indices; each row
    must meet ``separation_witness``'s argument preconditions (distinct
    points, non-empty sets, the point outside the set, disjoint sets).  The
    grid-dependent ones are checked here: a row whose set is not closed, that
    has no grid t with a positive separation value, whose alpha0 has no
    alpha1, whose balls cannot be built or whose witness fails a claim keeps,
    as its error, the exception ``separation_witness`` raises for it.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown separation kind {kind!r}; expected one of {KINDS}")
    xs, ys = np.asarray(xs, dtype=bool), np.asarray(ys, dtype=bool)
    x_members, y_members = _members(xs), _members(ys)
    rows = np.arange(len(xs))
    errors = [None] * rows.size

    def fail(which, error):
        for r in np.flatnonzero(which).tolist():
            if errors[r] is None:
                errors[r] = error

    closed_sets = {"regular": (("subset", ys),), "normal": (("subset", xs), ("subset_b", ys))}
    for name, sets in closed_sets.get(kind, ()):
        fail(~_unions_of_classes(inst, sets), _not_closed(name))

    full, half = _tables(inst)
    cross = np.array([(r, x, y) for r, (xm, ym) in enumerate(zip(x_members, y_members))
                      for x in xm for y in ym], dtype=np.intp).reshape(-1, 3).T
    mins = np.full((rows.size, len(full)), np.inf)  # [r, k]: min P over X x Y at t k
    np.minimum.at(mins, cross[0], full[:, cross[1], cross[2]].T)
    positive = mins > 0
    fail(~positive.any(-1), WitnessNotFoundError("no grid t gives a positive separating value"))
    k0 = positive.argmax(-1)
    alpha0 = mins[rows, k0]
    t0 = np.asarray(inst.t_grid)[k0]

    if kind in ("T0", "T1"):
        alpha1, radius, scale, table = [None] * rows.size, alpha0, t0, full
    else:
        solved = {}  # alpha0 -> (alpha1, alpha1 o alpha1 < alpha0)
        for a0 in dict.fromkeys(alpha0[[e is None for e in errors]].tolist()):
            try:
                a1 = sub_idempotent(inst.op, a0)
                solved[a0] = (a1, eval_op(inst.op, a1, a1) < a0)
            except GpmsError as exc:  # kept without its frames, which hold ``errors``
                fail(alpha0 == a0, exc.with_traceback(None))
        per_row = [(None, False) if e is not None else solved[a0]
                   for e, a0 in zip(errors, alpha0.tolist())]
        alpha1 = [a1 for a1, _ in per_row]
        chain_ok = np.array([ok for _, ok in per_row], dtype=bool)
        radius = np.array([np.nan if a1 is None else a1 for a1 in alpha1])
        scale, table = t0 / 2, half
    labels = inst.carrier.labels
    for r in np.flatnonzero(~((radius > 0) & (scale > 0))).tolist():
        if errors[r] is None:  # open_ball refuses the ball: raise its error
            try:
                _mask_of(inst, [BallSpec(labels[x_members[r][0]], float(radius[r]),
                                         float(scale[r]))])
            except GpmsError as exc:
                errors[r] = exc.with_traceback(None)

    def balls_around(members):  # [r, y]: y lies in a ball at a point of the row
        r = np.repeat(rows, [len(m) for m in members])
        centers = np.fromiter(chain.from_iterable(members), np.intp)
        out = np.zeros(xs.shape, dtype=bool)
        np.logical_or.at(out, r, table[k0[r], centers] < radius[r, None])
        return out

    u = balls_around(x_members)
    v = balls_around(y_members) if kind != "T0" else np.zeros_like(u)

    def within(a, b):
        return ~(a & ~b).any(-1)

    def apart(a, b):
        return ~(a & b).any(-1)

    # alpha0 is the separation value at t0 (P(a, b, t0) for two points, the
    # minimum over X x Y for sets), so T0's last claim holds by construction
    # and the chain reduces to alpha1 o alpha1 < alpha0
    if kind == "T0":
        claims = (within(xs, u), apart(ys, u), np.ones(rows.size, dtype=bool))
    elif kind == "T1":
        claims = (within(xs, u), apart(ys, u), within(ys, v), apart(xs, v))
    else:
        claims = (within(xs, u), within(ys, v), apart(u, v), chain_ok)
    held = np.stack(claims, axis=-1)
    for r in np.flatnonzero(~held.all(-1)).tolist():
        if errors[r] is None:
            errors[r] = WitnessNotFoundError(
                f"constructed {kind} witness failed verification: "
                f"{_CLAIMS[kind][int(np.argmin(held[r]))]}")
    return WitnessBatch(kind, labels, x_members, y_members, t0.tolist(), alpha0.tolist(),
                        alpha1, radius.tolist(), scale.tolist(), u, v, errors)


def separation_witness(inst: GpmsInstance, kind: str, a=None, b=None,
                       subset: SubsetMask | None = None,
                       subset_b: SubsetMask | None = None) -> SeparationWitness:
    """Build a verified witness following the standard ball constructions.

    T0/T1/T2 take two distinct points ``a`` and ``b``; regular takes a
    closed ``subset`` and a point ``a`` outside it; normal takes two
    disjoint closed sets ``subset`` and ``subset_b``.  The witness is a
    ``witness_batch`` of one row.
    """
    if inst.carrier.kind != "finite":
        raise DomainError("separation witnesses need a finite carrier")
    if kind not in KINDS:
        raise DomainError(f"unknown separation kind {kind!r}; expected one of {KINDS}")
    car = inst.carrier
    points = kind in ("T0", "T1", "T2")

    if points:
        if a is None or b is None or a == b:
            raise PreconditionError("need two distinct points")
        xs, ys = [car.index(a)], [car.index(b)]
    elif kind == "regular":
        if a is None:
            raise PreconditionError("regular needs the outside point as a")
        _require_closed(inst, subset, "subset")
        xs, ys = [car.index(a)], subset.indices()
        if subset.contains(xs[0]):
            raise PreconditionError(f"point {a!r} must lie outside the closed set")
    else:  # normal
        _require_closed(inst, subset, "subset")
        _require_closed(inst, subset_b, "subset_b")
        if not subset.intersection(subset_b).is_empty:
            raise PreconditionError("the two closed sets must be disjoint")
        xs, ys = subset.indices(), subset_b.indices()

    centers = np.zeros((2, 1, car.size), dtype=bool)
    centers[0, 0, xs] = centers[1, 0, ys] = True
    batch = witness_batch(inst, kind, *centers)
    report = batch.report(0)
    w = SeparationWitness(kind, batch.t0[0], batch.alpha0[0], batch.alpha1[0], *batch.balls(0),
                          a=a if kind != "normal" else None, b=b if points else None,
                          set_a=None if points else subset,
                          set_b=subset_b if kind == "normal" else None)
    w.u_mask, w.v_mask = _mask_of_flags(batch.u[0]), _mask_of_flags(batch.v[0])
    w.report = report
    return w


def verify_witness(inst: GpmsInstance, w: SeparationWitness) -> CheckReport:
    """Re-evaluate every claim a witness makes: ball memberships,
    disjointness or exclusion, and the inequality chain alpha1 o alpha1 < alpha0.

    Each ball is built on its own (``open_ball``), so this is an independent
    re-check of ``witness_batch``."""
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
            sep = _min_P(inst, [car.index(w.a)], w.set_a.indices(), w.t0)
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
            sep = _min_P(inst, w.set_a.indices(), w.set_b.indices(), w.t0)
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


def _base_balls(inst, depth):
    """inside[k - 1, x, y]: y lies in the base ball B(x, 1/k, 1/k), for k = 1
    up to at least ``depth``: one kernel tensor, kept per instance for the
    64 depths that isolating depths try and built afresh for a deeper one."""
    def build(depth):
        c = np.arange(inst.carrier.size)
        r = (1.0 / np.arange(1, depth + 1))[:, None, None]
        with np.errstate(over="ignore"):  # an overflow is +inf, inside no ball
            return P_at(inst, c[:, None], c, r) < r

    if depth > _BASE_DEPTH:
        return build(depth)
    return derive(inst, "base_balls", lambda: build(_BASE_DEPTH))


def _isolating_depths(inst):
    """Per point, the first k <= 64 whose base ball holds only the point, else 64."""
    def build():
        alone = _base_balls(inst, _BASE_DEPTH).sum(-1) == 1
        return np.where(alone.any(0), alone.argmax(0) + 1, _BASE_DEPTH)

    return derive(inst, "isolating_depths", build)


def countable_base(inst: GpmsInstance, mode: str, x=None, n_max: int | None = None,
                   max_points: int = 15):
    """Balls B(., 1/n, 1/n) as a local base at x or a global base.

    Every open set around a point y holds C(y), the class of y.  Local
    mode verifies that every generated open set containing x admits a base
    ball inside it, which holds iff some base ball at x lies inside C(x);
    otherwise C(x) is the first open set that fails.  Global mode uses the
    whole finite carrier as the dense set and verifies every open set is a
    union of base members, which holds iff every point y lies in some base
    ball inside C(y); otherwise the first set that fails is the smallest
    such C(y) by bitmask.  Without ``n_max`` the depth is the largest
    isolating depth of the centers: the first n (at most 64) whose base
    ball holds only its center.  The report counts the 2^k open sets, never
    lists them, so no carrier is too large; ``max_points`` is kept for
    callers and no longer read.
    Returns ``(ball_specs, CheckReport)``; verification failures are
    inconclusive (the base may isolate only at larger n).
    """
    if mode not in ("local", "global"):
        raise DomainError(f"mode must be 'local' or 'global', got {mode!r}")
    if inst.carrier.kind != "finite":
        raise DomainError("countable bases are verified on finite carriers only")
    car = inst.carrier
    n = car.size
    classes = _classes(inst)
    class_bits = _class_bits(classes)

    if mode == "local":
        if x is None:
            raise DomainError("local mode needs a point x")
        points, centers = [car.index(x)], [x]
    else:
        points, centers = list(range(n)), car.labels
    n_top = n_max if n_max is not None else int(_isolating_depths(inst)[points].max())
    specs = [BallSpec(p, 1.0 / k, 1.0 / k) for p in centers for k in range(1, n_top + 1)]
    balls = _base_balls(inst, n_top)[:max(n_top, 0), points]  # [k, p, y]: y in B(p, 1/k, 1/k)
    # y is covered when it lies in some base ball inside its class: one that
    # meets no other class
    one_class = np.where(balls, classes, n).min(-1) == np.where(balls, classes, -1).max(-1)
    covered = (balls & one_class[..., None]).any((0, 1))
    failing = min((class_bits[classes[y]] for y in points if not covered[y]), default=None)
    named = list(SubsetMask(n, failing).labels(car)) if failing is not None else None
    count = 1 << len(class_bits)  # 2^k unions of the k classes

    if mode == "local":
        name = f"countable_base[local@{x}]"
        samples = count // 2  # x lies in half of the unions of classes
        passed = f"local base verified against {count} open sets"
        detail = "open set admits no base ball at this depth"
        note = f"no base ball fits inside the open set {named}; try a larger n_max"
    else:
        name = "countable_base[global]"
        samples = count
        passed = f"base generates all {count} open sets"
        detail = "open set is not a union of base members"
        note = f"open set {named} not generated; the dense-set base needs larger n_max"
    if failing is None:
        return specs, CheckReport(name=name, verdict=PASS, samples_tested=samples, note=passed)
    return specs, CheckReport(
        name=name, verdict=INCONCLUSIVE, samples_tested=samples,
        witnesses=(Witness(points=tuple(named), values={"n_max": float(n_top)}, detail=detail),),
        note=note)

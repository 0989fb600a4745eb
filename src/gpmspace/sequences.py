"""Sequence-level machinery: convergence, Cauchyness, boundedness, joint
continuity, diameters and the Cantor intersection check.

"For all t > 0" is always read over the instance's t grid, and limits are
certified on a tail window (the last 20% of the evaluated terms), so every
verdict here is a windowed numerical certification, not a proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balls import SubsetMask, closure_and_limit_points, is_open
from .core import GpmsInstance, P, eval_P
from .errors import DomainError, HypothesisError, PreconditionError
from .reports import FAIL, INCONCLUSIVE, PASS, CheckReport, Witness

SEQUENCE_KINDS = ("explicit", "geometric", "reciprocal", "alternating")


@dataclass(frozen=True)
class SequenceSpec:
    """A carrier sequence: an explicit point list or a 1-D closed form.

    geometric    x_n = c + a * r**n
    reciprocal   x_n = c + a / n
    alternating  x_n = c + a * (-1)**n
    """

    kind: str
    points: tuple = ()
    c: float = 0.0
    a: float = 0.0
    r: float = 0.5
    n_terms: int = 1000

    def __post_init__(self):
        if self.kind not in SEQUENCE_KINDS:
            raise DomainError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.points:
                raise DomainError("explicit sequence needs at least one point")
            object.__setattr__(self, "n_terms", len(self.points))
        elif self.n_terms < 5:
            raise DomainError("formula sequences need at least 5 terms")

    def terms(self, carrier):
        """Evaluate terms n = 1..n_terms and validate carrier membership."""
        if self.kind == "explicit":
            out = list(self.points)
        else:
            ns = np.arange(1, self.n_terms + 1, dtype=float)
            if self.kind == "geometric":
                vals = self.c + self.a * self.r ** ns
            elif self.kind == "reciprocal":
                vals = self.c + self.a / ns
            else:
                vals = self.c + self.a * (-1.0) ** ns
            out = [float(v) for v in vals]
        for v in out:
            if not carrier.contains(v):
                raise DomainError(f"sequence term {v!r} leaves the carrier")
        return out


@dataclass(frozen=True)
class ClosedInterval:
    """A closed subinterval [lo, hi] of an interval carrier."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo <= self.hi):
            raise DomainError(f"need finite lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other) -> "ClosedInterval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return ClosedInterval(lo, hi) if lo <= hi else None


def _window(terms):
    start = max(0, int(math.floor(0.8 * len(terms))))
    if start >= len(terms):
        start = len(terms) - 1
    return terms[start:], start


def check_convergence(inst: GpmsInstance, seq: SequenceSpec, x, tol: float = 1e-6) -> CheckReport:
    """Tail-window test of lim P(x_n, x, t) = 0 for every grid t."""
    if not inst.carrier.contains(x):
        raise DomainError(f"limit candidate {x!r} is not in the carrier")
    terms = seq.terms(inst.carrier)
    win, start = _window(terms)
    witnesses = []
    samples = 0
    tails = {}
    for t in inst.t_grid:
        vals = P(inst, win, x, t)
        samples += len(win)
        worst = int(np.argmax(vals))
        tails[f"{t:.12g}"] = float(vals[worst])
        if vals[worst] >= tol:
            witnesses.append(Witness(points=(terms[start + worst], x),
                                     values={"n": float(start + worst + 1), "t": t,
                                             "value": float(vals[worst]), "tol": tol},
                                     detail="tail term does not drop below tolerance"))
    verdict = FAIL if witnesses else PASS
    return CheckReport(name="convergence", verdict=verdict, samples_tested=samples,
                       witnesses=tuple(witnesses),
                       note=f"tail window = last {len(win)} of {len(terms)} terms",
                       data={"max_tail_P": tails})


def check_cauchy(inst: GpmsInstance, seq: SequenceSpec, tol: float = 1e-6) -> CheckReport:
    """Tail-window test of lim P(x_n, x_m, t) = 0 over all window pairs."""
    terms = seq.terms(inst.carrier)
    win, start = _window(terms)
    witnesses = []
    samples = 0
    tails = {}
    col = np.asarray(win, dtype=object)[:, None]
    for t in inst.t_grid:
        mat = P(inst, col, win, t)
        samples += mat.size
        worst_flat = int(np.argmax(mat))
        i, j = divmod(worst_flat, mat.shape[1])
        tails[f"{t:.12g}"] = float(mat[i, j])
        if mat[i, j] >= tol:
            witnesses.append(Witness(points=(win[i], win[j]),
                                     values={"n": float(start + i + 1), "m": float(start + j + 1),
                                             "t": t, "value": float(mat[i, j]), "tol": tol},
                                     detail="tail pair does not drop below tolerance"))
    verdict = FAIL if witnesses else PASS
    return CheckReport(name="cauchy", verdict=verdict, samples_tested=samples,
                       witnesses=tuple(witnesses),
                       note=f"tail window = last {len(win)} of {len(terms)} terms",
                       data={"max_tail_P": tails})


def _points_of(inst, s):
    if isinstance(s, SubsetMask):
        if inst.carrier.kind != "finite":
            raise DomainError("subset masks need a finite carrier")
        return list(s.labels(inst.carrier))
    if isinstance(s, SequenceSpec):
        return s.terms(inst.carrier)
    return list(s)


def check_bounded(inst: GpmsInstance, s, tol: float = 1e-6, limit=None) -> CheckReport:
    """K_t table: the max of P over all pairs of s, per grid t.

    When ``s`` is a sequence and ``limit`` is given, the convergence check
    runs first and the report records the convergent-implies-bounded
    coupling.
    """
    data = {}
    note_parts = []
    if isinstance(s, ClosedInterval):
        if inst.carrier.kind != "interval":
            raise DomainError("interval subsets need an interval carrier")
        if not (inst.carrier.contains(s.lo) and inst.carrier.contains(s.hi)):
            raise DomainError("interval subset leaves the carrier")
        k_t = {f"{t:.12g}": eval_P(inst, s.lo, s.hi, t) for t in inst.t_grid}
        samples = len(inst.t_grid)
    else:
        pts = _points_of(inst, s)
        if not pts:
            raise DomainError("bounded check needs a non-empty set")
        k_t = {}
        samples = 0
        col = np.asarray(pts, dtype=object)[:, None]
        for t in inst.t_grid:
            mat = P(inst, col, pts, t)
            samples += mat.size
            k_t[f"{t:.12g}"] = float(mat.max())
    data["K_t"] = k_t
    finite = all(math.isfinite(v) for v in k_t.values())
    if isinstance(s, SequenceSpec) and limit is not None:
        conv = check_convergence(inst, s, limit, tol)
        data["convergence_verdict"] = conv.verdict
        if conv.ok:
            note_parts.append("convergent sequence: bounded, as every convergent sequence must be")
        else:
            note_parts.append("sequence did not certify convergent at this tolerance")
    verdict = PASS if finite else FAIL
    witnesses = ()
    if not finite:
        bad_t = next(k for k, v in k_t.items() if not math.isfinite(v))
        witnesses = (Witness(values={"t": float(bad_t)}, detail="K_t is not finite"),)
    return CheckReport(name="bounded", verdict=verdict, samples_tested=samples,
                       witnesses=witnesses, note="; ".join(note_parts), data=data)


def joint_continuity_check(inst: GpmsInstance, seqx: SequenceSpec, seqy: SequenceSpec,
                           x, y, tol: float = 1e-6, conv_tol: float | None = None) -> CheckReport:
    """P(x_n, y_n, t) must approach P(x, y, t) on the tail, for every grid t.

    ``conv_tol`` is the tolerance for the prerequisite convergence checks of
    the two input sequences (they may certify at a coarser tolerance than the
    joint limit match itself).  Also checks the two squeeze inequalities at
    one grid step: P(x,y,t') stays below the tail limit at t plus slack, and
    the tail limit at t' stays below P(x,y,t) plus slack, for adjacent t < t'.
    """
    conv_tol = tol if conv_tol is None else conv_tol
    for seq, lim, name in ((seqx, x, "x"), (seqy, y, "y")):
        rep = check_convergence(inst, seq, lim, conv_tol)
        if not rep.ok:
            raise PreconditionError(f"sequence {name} is not verified convergent at tol={conv_tol}")
    tx = seqx.terms(inst.carrier)
    ty = seqy.terms(inst.carrier)
    n = min(len(tx), len(ty))
    tx, ty = tx[:n], ty[:n]
    winx, start = _window(tx)
    winy, _ = _window(ty)
    witnesses = []
    samples = 0
    limits = {}
    for t in inst.t_grid:
        target = eval_P(inst, x, y, t)
        vals = P(inst, winx, winy, t)
        samples += len(vals)
        dev = np.abs(vals - target)
        worst = int(np.argmax(dev))
        limits[f"{t:.12g}"] = float(vals[-1])
        if dev[worst] >= tol:
            witnesses.append(Witness(points=(winx[worst], winy[worst]),
                                     values={"n": float(start + worst + 1), "t": t,
                                             "deviation": float(dev[worst]), "target": target},
                                     detail="tail value strays from P(x,y,t)"))
    slack = 3 * tol
    for t1, t2 in zip(inst.t_grid, inst.t_grid[1:]):
        samples += 2
        lim1 = eval_P(inst, tx[-1], ty[-1], t1)
        lim2 = eval_P(inst, tx[-1], ty[-1], t2)
        if eval_P(inst, x, y, t2) > lim1 + slack:
            witnesses.append(Witness(values={"t": t1, "t_next": t2},
                                     detail="upper squeeze inequality fails at one grid step"))
        if lim2 > eval_P(inst, x, y, t1) + slack:
            witnesses.append(Witness(values={"t": t1, "t_next": t2},
                                     detail="lower squeeze inequality fails at one grid step"))
    verdict = FAIL if witnesses else PASS
    return CheckReport(name="joint_continuity", verdict=verdict, samples_tested=samples,
                       witnesses=tuple(witnesses), data={"tail_limit_estimate": limits})


def diameter(inst: GpmsInstance, s, divergence_factor: float = 1.5,
             cap: float = 1e3) -> float:
    """sup over pairs and over t of P, estimated at the smallest grid t.

    P is non-increasing in t, so the inner sup is the t -> 0+ limit.  If the
    value still grows by more than ``divergence_factor`` between the two
    smallest grid nodes and exceeds ``cap``, the sup is flagged +inf.
    """
    if isinstance(s, ClosedInterval):
        if inst.carrier.kind != "interval":
            raise DomainError("interval subsets need an interval carrier")
        if s.width == 0.0:
            return 0.0
        vals = [eval_P(inst, s.lo, s.hi, t) for t in inst.t_grid[:2]]
    else:
        pts = _points_of(inst, s)
        if not pts:
            raise DomainError("diameter of the empty set is undefined")
        if len(set(pts)) == 1:
            return 0.0
        col = np.asarray(pts, dtype=object)[:, None]
        vals = [float(P(inst, col, pts, t).max()) for t in inst.t_grid[:2]]
    v0 = vals[0]
    if len(vals) > 1 and vals[1] > 0 and v0 / vals[1] > divergence_factor and v0 > cap:
        return math.inf
    return v0


def check_closure_diameter(inst: GpmsInstance, s: SubsetMask, tol: float = 1e-9,
                           **diam_kw) -> CheckReport:
    """diameter(s) must equal diameter(closure(s)), or both be infinite."""
    if inst.carrier.kind != "finite":
        raise DomainError("closure diameters need a finite carrier")
    if s.is_empty:
        raise DomainError("diameter of the empty set is undefined")
    closure, _ = closure_and_limit_points(inst, s)
    d_s = diameter(inst, s, **diam_kw)
    d_c = diameter(inst, closure, **diam_kw)
    data = {"diameter": d_s, "closure_diameter": d_c,
            "closure": list(closure.labels(inst.carrier))}
    if (math.isinf(d_s) and math.isinf(d_c)) or abs(d_s - d_c) <= tol:
        return CheckReport(name="closure_diameter", verdict=PASS, samples_tested=2, data=data)
    note = ""
    if closure != s:
        note = ("closure strictly grew at these grids; the mismatch is a "
                "grid-resolution artifact of the punctured-ball closure")
    return CheckReport(name="closure_diameter", verdict=FAIL, samples_tested=2,
                       witnesses=(Witness(values={"lhs": d_s, "rhs": d_c},
                                          detail="diameter changed under closure"),),
                       note=note, data=data)


def cantor_intersection(inst: GpmsInstance, fam, point_tol: float = 1e-6,
                        shrink_ratio: float = 0.5, **diam_kw):
    """Nested non-empty closed sets with shrinking diameters meet in one point.

    Returns ``(point_estimate, diameters, CheckReport)``.  Hypothesis
    violations (broken nesting, non-closed members, infinite or non-shrinking
    diameters) raise HypothesisError.  On interval carriers the members are
    exact intervals intersected analytically; a final width above
    ``point_tol`` yields an inconclusive verdict with the center estimate.
    """
    members = list(fam)
    if not members:
        raise HypothesisError("the nested family must be non-empty")
    interval_mode = isinstance(members[0], ClosedInterval)
    for m in members:
        if interval_mode != isinstance(m, ClosedInterval):
            raise HypothesisError("mixed member kinds in the nested family")

    if interval_mode:
        if inst.carrier.kind != "interval":
            raise DomainError("interval members need an interval carrier")
        for m in members:
            if not (inst.carrier.contains(m.lo) and inst.carrier.contains(m.hi)):
                raise HypothesisError(f"member [{m.lo}, {m.hi}] leaves the carrier")
        for big, small in zip(members, members[1:]):
            if not big.contains_interval(small):
                raise HypothesisError("family is not nested")
    else:
        if inst.carrier.kind != "finite":
            raise DomainError("mask members need a finite carrier")
        for m in members:
            if m.is_empty:
                raise HypothesisError("members must be non-empty")
            if not is_open(inst, m.complement()):
                raise HypothesisError("a member is not closed at these grids")
        for big, small in zip(members, members[1:]):
            if not small.issubset(big):
                raise HypothesisError("family is not nested")

    diams = [diameter(inst, m, **diam_kw) for m in members]
    if any(math.isinf(d) for d in diams):
        raise HypothesisError("a member has infinite diameter; the intersection "
                              "theorem needs finite shrinking diameters")
    for d1, d2 in zip(diams, diams[1:]):
        if d2 > d1 + 1e-12:
            raise HypothesisError("diameters are not non-increasing")
    if diams[0] > 0 and diams[-1] > shrink_ratio * diams[0]:
        raise HypothesisError("diameters do not shrink toward zero within the family")

    if interval_mode:
        inter = members[0]
        for m in members[1:]:
            inter = inter.intersect(m)
            if inter is None:
                raise HypothesisError("nested intervals failed to intersect")
        estimate = inter.center
        for m in members:
            if not m.contains(estimate):
                raise HypothesisError("intersection estimate escapes a member")
        if inter.width <= point_tol:
            report = CheckReport(name="cantor_intersection", verdict=PASS,
                                 samples_tested=len(members),
                                 data={"width": inter.width, "estimate": estimate,
                                       "diameters": diams})
        else:
            report = CheckReport(
                name="cantor_intersection", verdict=INCONCLUSIVE, samples_tested=len(members),
                note=f"intersection width {inter.width:.6g} exceeds the point tolerance; "
                     "single-point limit estimated at the center",
                data={"width": inter.width, "estimate": estimate, "diameters": diams})
        return estimate, diams, report

    inter = members[0]
    for m in members[1:]:
        inter = inter.intersection(m)
    labels = inter.labels(inst.carrier)
    if not labels:
        raise HypothesisError("nested non-empty closed sets failed to intersect")
    estimate = labels[0]
    data = {"intersection": list(labels), "estimate": estimate, "diameters": diams}
    if len(labels) == 1:
        report = CheckReport(name="cantor_intersection", verdict=PASS,
                             samples_tested=len(members), data=data)
    else:
        report = CheckReport(name="cantor_intersection", verdict=FAIL,
                             samples_tested=len(members),
                             witnesses=(Witness(points=tuple(labels),
                                                detail="intersection holds more than one point"),),
                             data=data)
    return estimate, diams, report


def subsequence_completeness_check(inst: GpmsInstance, seq: SequenceSpec,
                                   subseq_indices, x, tol: float = 1e-6) -> CheckReport:
    """A Cauchy sequence with a subsequence converging to x converges to x."""
    cauchy = check_cauchy(inst, seq, tol)
    if not cauchy.ok:
        raise PreconditionError("the sequence is not verified Cauchy at this tolerance")
    idx = [int(i) for i in subseq_indices]
    if not idx or any(j <= i for i, j in zip(idx, idx[1:])):
        raise DomainError("subsequence indices must be strictly increasing")
    terms = seq.terms(inst.carrier)
    if idx[0] < 1 or idx[-1] > len(terms):
        raise DomainError("subsequence indices out of range")
    sub = SequenceSpec("explicit", points=tuple(terms[i - 1] for i in idx))
    sub_conv = check_convergence(inst, sub, x, tol)
    if not sub_conv.ok:
        raise PreconditionError("the subsequence is not verified convergent to x")
    full = check_convergence(inst, seq, x, tol)
    note = ("full sequence inherits the subsequence limit"
            if full.ok else "full sequence failed to certify the inherited limit")
    return CheckReport(name="subsequence_completeness", verdict=full.verdict,
                       samples_tested=full.samples_tested, witnesses=full.witnesses,
                       note=note, data=full.data)


def check_compact_closed_bounded(inst: GpmsInstance, s: SubsetMask,
                                 tol: float = 1e-6) -> CheckReport:
    """Finite subsets are sequentially compact (pigeonhole); assert closed + bounded."""
    if inst.carrier.kind != "finite":
        raise DomainError("compactness certification needs a finite carrier")
    if s.is_empty:
        raise DomainError("the subset must be non-empty")
    witnesses = []
    closed = is_open(inst, s.complement())
    if not closed:
        witnesses.append(Witness(points=tuple(s.labels(inst.carrier)),
                                 detail="complement is not open at these grids "
                                        "(may be a grid artifact)"))
    bounded = check_bounded(inst, s, tol)
    if not bounded.ok:
        witnesses.extend(bounded.witnesses)
    verdict = FAIL if witnesses else PASS
    return CheckReport(name="compact_closed_bounded", verdict=verdict,
                       samples_tested=bounded.samples_tested + 1,
                       witnesses=tuple(witnesses),
                       note="compact by pigeonhole: some point repeats infinitely often "
                            "in any sequence through a finite set",
                       data=bounded.data)

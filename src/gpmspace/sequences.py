"""Sequence-level machinery: convergence, Cauchyness, boundedness, joint
continuity, diameters and the Cantor intersection check.

"For all t > 0" is read over the instance's t grid, and limits are
certified on a tail window (the last 20% of the evaluated terms), so those
verdicts are windowed numerical certifications, not proofs.  Diameters are
exact: a diameter is a sup over pairs and over t > 0, and P is
non-increasing in t, so the inner sup is the t -> 0+ limit that
``core.sup_P`` gives in closed form, reading no P.

Rows are batched, and each check reads P over the whole t grid at once.
``convergence_rows`` checks many sequences against their limits in one
kernel call over (t, row, window term), and ``check_convergence`` is a batch
of one.  ``check_cauchy`` reads (t, window term, window term), one call per
block of grid t holding at most ``_P3_BLOCK`` bytes of P, and
``joint_continuity_check`` one call over (t, window term), with (x, y) as
one more column.
``check_bounded`` reads its K_t table over the grid t at the farthest pair
for a family formula, which is non-decreasing in the distance (on an
interval the least and the greatest point), and gathers (t, point, point)
from ``core.grid_P`` for step tables.  A ``SequenceSpec`` evaluates its
terms once per carrier.
``cantor_intersection`` on masks tests every member's closedness with one
union-of-classes test and reads every member's diameter from one ``sup_P``
matrix over the first member (``_nested_diameters``); on intervals it reads
them from one ``sup_P`` call at the members' ends (``_interval_diameters``).

``sequence_battery`` and ``cantor_battery`` are the batteries of the
``sequences`` and ``cantor`` commands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balls import (
    SubsetMask,
    _flag_rows,
    _unions_of_classes,
    closure_and_limit_points,
    is_open,
)
from .core import _P3_BLOCK, GpmsInstance, P_at, _distance, coords, eval_P, grid_P, sup_P
from .errors import DomainError, HypothesisError, PreconditionError
from .reports import FAIL, INCONCLUSIVE, PASS, CheckReport, Witness, guarded

SEQUENCE_KINDS = ("explicit", "geometric", "reciprocal", "alternating")
_SHRINK_RATIO = 0.5  # cantor_intersection: the last diameter at most this share of the first


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
        """Evaluate terms n = 1..n_terms and validate carrier membership: a
        closed form on an interval with one bounds test, else term by term.
        A closed form is evaluated once per carrier, and each call returns a
        new list of its terms."""
        if self.kind == "explicit":
            return self._evaluate(carrier)
        memo = self.__dict__.get("_terms")
        if memo is None or memo[0] is not carrier:
            memo = (carrier, tuple(self._evaluate(carrier)))
            object.__setattr__(self, "_terms", memo)
        return list(memo[1])

    def _evaluate(self, carrier):
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
            if carrier.kind == "interval":
                inside = (vals >= carrier.lo) & (vals <= carrier.hi)  # False at NaN
                if not inside.all():
                    raise DomainError(f"sequence term {vals[inside.argmin()].item()!r} "
                                      f"leaves the carrier")
                return vals.tolist()
            out = vals.tolist()
        if carrier.kind == "finite" and set(out).issubset(carrier.labels):  # one set test
            return out
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


def _window(terms):
    """The last 20% of a non-empty list of terms, and its start: at least one term."""
    start = int(math.floor(0.8 * len(terms)))
    return terms[start:], start


def check_convergence(inst: GpmsInstance, seq: SequenceSpec, x, tol: float = 1e-6) -> CheckReport:
    """Tail-window test of lim P(x_n, x, t) = 0 for every grid t: a
    ``convergence_rows`` batch of one."""
    return convergence_rows(inst, [seq], [x], tol)[0]


def convergence_rows(inst: GpmsInstance, seqs, limits, tol: float = 1e-6) -> list:
    """``check_convergence`` of each sequence against its limit, in one kernel
    call over (t, row, window term).

    Rows are validated in order, each limit before its terms.  A window
    shorter than the longest is padded with its limit, where P(x, x, t) = 0
    is no more than any term; the padding comes after the terms, so the
    first-max ``argmax`` picks each row's first worst term, as one row would.
    """
    seqs, limits = list(seqs), list(limits)
    if len(seqs) != len(limits):
        raise DomainError(f"{len(seqs)} sequences but {len(limits)} limits")
    if not seqs:
        return []
    terms, windows = [], []
    for seq, x in zip(seqs, limits):
        if not inst.carrier.contains(x):
            raise DomainError(f"limit candidate {x!r} is not in the carrier")
        terms.append(seq.terms(inst.carrier))
        windows.append(_window(terms[-1]))
    width = max(len(win) for win, _ in windows)
    # row r: its window, padded with its limit up to the widest, then its limit
    c = coords(inst, [win + [x] * (width + 1 - len(win)) for (win, _), x in zip(windows, limits)])
    ts = np.asarray(inst.t_grid)
    vals = P_at(inst, c[:, :-1], c[:, -1:], ts[:, None, None])  # [t, row, term]
    worst = vals.argmax(-1)
    top = vals[np.arange(ts.size)[:, None], np.arange(len(seqs)), worst]
    keys = [f"{t:.12g}" for t in inst.t_grid]
    reports = []
    for row_terms, (win, start), x, row_worst, row_top in zip(
            terms, windows, limits, worst.T.tolist(), top.T.tolist()):
        witnesses = tuple(
            Witness(points=(row_terms[start + k], x),
                    values={"n": float(start + k + 1), "t": t, "value": value, "tol": tol},
                    detail="tail term does not drop below tolerance")
            for t, k, value in zip(inst.t_grid, row_worst, row_top) if value >= tol)
        reports.append(CheckReport(
            name="convergence", verdict=FAIL if witnesses else PASS,
            samples_tested=len(win) * len(ts), witnesses=witnesses,
            note=f"tail window = last {len(win)} of {len(row_terms)} terms",
            data={"max_tail_P": dict(zip(keys, row_top))}))
    return reports


def check_cauchy(inst: GpmsInstance, seq: SequenceSpec, tol: float = 1e-6) -> CheckReport:
    """Tail-window test of lim P(x_n, x_m, t) = 0 over all window pairs; each
    grid t reports its first worst pair.

    P is read over (t, n, m) in one kernel call per block of grid t, a block
    holding at most ``_P3_BLOCK`` bytes or a single t: one call for the
    battery's 40-term window on a grid of up to 10 t.
    """
    terms = seq.terms(inst.carrier)
    win, start = _window(terms)
    c = coords(inst, win)
    ts = np.asarray(inst.t_grid)
    per = max(1, _P3_BLOCK // (8 * c.size ** 2))  # float64 entries
    worst, top = [], []
    for lo in range(0, ts.size, per):
        vals = P_at(inst, c[:, None], c, ts[lo:lo + per, None, None]).reshape(-1, c.size ** 2)
        k = vals.argmax(-1)  # [t], into n * m
        worst += k.tolist()
        top += vals[np.arange(k.size), k].tolist()
    witnesses = tuple(
        Witness(points=(win[i], win[j]),
                values={"n": float(start + i + 1), "m": float(start + j + 1),
                        "t": t, "value": value, "tol": tol},
                detail="tail pair does not drop below tolerance")
        for t, (i, j), value in zip(inst.t_grid, (divmod(k, c.size) for k in worst), top)
        if value >= tol)
    return CheckReport(name="cauchy", verdict=FAIL if witnesses else PASS,
                       samples_tested=ts.size * c.size ** 2, witnesses=witnesses,
                       note=f"tail window = last {len(win)} of {len(terms)} terms",
                       data={"max_tail_P": {f"{t:.12g}": v for t, v in zip(inst.t_grid, top)}})


def _coords_of(inst, s) -> np.ndarray:
    """Kernel coordinates of a subset mask, a sequence's terms or a point list."""
    if isinstance(s, SubsetMask):
        if inst.carrier.kind != "finite":
            raise DomainError("subset masks need a finite carrier")
        if s.n != inst.carrier.size:
            raise DomainError("mask size mismatch")
        return np.array(s.indices(), dtype=np.intp)
    if isinstance(s, SequenceSpec):
        return coords(inst, s.terms(inst.carrier))
    return coords(inst, list(s))


def check_bounded(inst: GpmsInstance, s, tol: float = 1e-6, limit=None) -> CheckReport:
    """K_t table: the max of P over all pairs of s, per grid t.

    When ``s`` is a sequence and ``limit`` is given, the convergence check
    runs after the table and the report records the convergent-implies-bounded
    coupling.
    """
    report = _bounded(inst, s)
    if isinstance(s, SequenceSpec) and limit is not None:
        _couple(report, check_convergence(inst, s, limit, tol))
    return report


def _couple(bounded: CheckReport, convergence: CheckReport) -> CheckReport:
    """``bounded`` with its coupling to ``convergence``, both of one sequence."""
    bounded.data["convergence_verdict"] = convergence.verdict
    bounded.note = ("convergent sequence: bounded, as every convergent sequence must be"
                    if convergence.ok else "sequence did not certify convergent at this tolerance")
    return bounded


def _bounded(inst: GpmsInstance, s) -> CheckReport:
    """``check_bounded`` of ``s`` without a limit: its K_t table alone."""
    if isinstance(s, ClosedInterval):
        if inst.carrier.kind != "interval":
            raise DomainError("interval subsets need an interval carrier")
        if not (inst.carrier.contains(s.lo) and inst.carrier.contains(s.hi)):
            raise DomainError("interval subset leaves the carrier")
        k_t = {f"{t:.12g}": eval_P(inst, s.lo, s.hi, t) for t in inst.t_grid}
        samples = len(inst.t_grid)
    else:
        c = _coords_of(inst, s)
        if not c.size:
            raise DomainError("bounded check needs a non-empty set")
        ts = np.asarray(inst.t_grid)
        if inst._steps is None:
            # a family formula and its rounding are non-decreasing in the
            # distance, so P is largest at the farthest pair, at every t; on
            # an interval that is the least and the greatest point, as no
            # pair's rounded distance exceeds theirs (rounding is monotone)
            if inst.carrier.kind == "interval":
                i, j = c.argmin(), c.argmax()
            else:
                i, j = np.unravel_index(np.argmax(_distance(inst, c[:, None], c)),
                                        (c.size, c.size))
            top = P_at(inst, c[i], c[j], ts)
        else:
            top = grid_P(inst)[:, c[:, None], c].max(axis=(1, 2))  # step tables: a finite carrier
        k_t = {f"{t:.12g}": v for t, v in zip(inst.t_grid, top.tolist())}
        samples = ts.size * c.size ** 2
    finite = all(math.isfinite(v) for v in k_t.values())
    verdict = PASS if finite else FAIL
    witnesses = ()
    if not finite:
        bad_t = next(k for k, v in k_t.items() if not math.isfinite(v))
        witnesses = (Witness(values={"t": float(bad_t)}, detail="K_t is not finite"),)
    return CheckReport(name="bounded", verdict=verdict, samples_tested=samples,
                       witnesses=witnesses, data={"K_t": k_t})


def joint_continuity_check(inst: GpmsInstance, seqx: SequenceSpec, seqy: SequenceSpec,
                           x, y, tol: float = 1e-6, conv_tol: float | None = None
                           ) -> CheckReport:
    """P(x_n, y_n, t) must approach P(x, y, t) on the tail, for every grid t.

    ``conv_tol`` is the tolerance for the prerequisite convergence checks of
    the two input sequences (they may certify at a coarser tolerance than the
    joint limit match itself).  Also checks the two squeeze inequalities at
    one grid step: P(x,y,t') stays below the tail limit at t plus slack, and
    the tail limit at t' stays below P(x,y,t) plus slack, for adjacent
    t < t'.  P is read in one kernel call over (t, window term), with (x, y)
    as one more column.
    """
    conv_tol = tol if conv_tol is None else conv_tol
    # a generator: y_n is checked only once x_n has certified
    return _joint_continuity(inst, seqx, seqy, x, y, tol, conv_tol, (
        check_convergence(inst, seq, lim, conv_tol) for seq, lim in ((seqx, x), (seqy, y))))


def _joint_continuity(inst: GpmsInstance, seqx: SequenceSpec, seqy: SequenceSpec,
                      x, y, tol, conv_tol, convergence) -> CheckReport:
    """``joint_continuity_check``; ``convergence`` yields the reports of x_n
    to x, then of y_n to y, at ``conv_tol``."""
    for name, rep in zip("xy", convergence):
        if not rep.ok:
            raise PreconditionError(f"sequence {name} is not verified convergent at tol={conv_tol}")
    tx = seqx.terms(inst.carrier)
    ty = seqy.terms(inst.carrier)
    n = min(len(tx), len(ty))
    winx, start = _window(tx[:n])
    winy, _ = _window(ty[:n])
    T = np.asarray(inst.t_grid)
    vals = P_at(inst, coords(inst, winx + [x]), coords(inst, winy + [y]), T[:, None])
    target, vals = vals[:, -1], vals[:, :-1]  # [t], [t, window term]
    dev = np.abs(vals - target[:, None])
    worst = dev.argmax(-1)
    top = dev[np.arange(T.size), worst].tolist()
    # the window ends at the last terms, so its last column is the tail limit
    target_row, last_row = target.tolist(), vals[:, -1].tolist()
    witnesses = [Witness(points=(winx[k], winy[k]),
                         values={"n": float(start + k + 1), "t": t, "deviation": d,
                                 "target": p_xy},
                         detail="tail value strays from P(x,y,t)")
                 for t, k, d, p_xy in zip(inst.t_grid, worst.tolist(), top, target_row)
                 if d >= tol]
    slack = 3 * tol
    for k, (t1, t2) in enumerate(zip(inst.t_grid, inst.t_grid[1:])):
        if target_row[k + 1] > last_row[k] + slack:
            witnesses.append(Witness(values={"t": t1, "t_next": t2},
                                     detail="upper squeeze inequality fails at one grid step"))
        if last_row[k + 1] > target_row[k] + slack:
            witnesses.append(Witness(values={"t": t1, "t_next": t2},
                                     detail="lower squeeze inequality fails at one grid step"))
    verdict = FAIL if witnesses else PASS
    return CheckReport(name="joint_continuity", verdict=verdict,
                       samples_tested=vals.size + 2 * (T.size - 1), witnesses=tuple(witnesses),
                       data={"tail_limit_estimate": {f"{t:.12g}": v
                                                     for t, v in zip(inst.t_grid, last_row)}})


def diameter(inst: GpmsInstance, s) -> float:
    """sup over the pairs of ``s`` and over t > 0 of P: the max of
    ``core.sup_P`` over the pairs, the ends (lo, hi) of an interval."""
    if isinstance(s, ClosedInterval):
        if inst.carrier.kind != "interval":
            raise DomainError("interval subsets need an interval carrier")
        return float(sup_P(inst, *coords(inst, [s.lo, s.hi])))
    c = _coords_of(inst, s)
    if not c.size:
        raise DomainError("diameter of the empty set is undefined")
    return float(sup_P(inst, c[:, None], c).max())


def _nested_diameters(inst: GpmsInstance, flags) -> list:
    """``diameter`` of each member of a nested family, the rows of a
    (members, n) bool matrix, each non-empty and inside the row before.

    One ``sup_P`` matrix over the first member.  A point lies in a prefix
    of the members, so a pair lies in members 0..k, k the last member
    holding both points; a member's max is the running max, from the last
    member back, of the pairs' max at each such k.
    """
    c = np.flatnonzero(flags[0])
    last = flags[:, c].sum(0) - 1  # c[i] lies in members 0..last[i]
    top = np.full(len(flags), -np.inf)
    np.maximum.at(top, np.minimum.outer(last, last), sup_P(inst, c[:, None], c))
    return np.maximum.accumulate(top[::-1])[::-1].tolist()


def _interval_diameters(inst: GpmsInstance, members) -> list:
    """``diameter`` of each interval member, from one ``sup_P`` call at its ends."""
    u, v = coords(inst, [m.lo for m in members]), coords(inst, [m.hi for m in members])
    return sup_P(inst, u, v).tolist()


def check_closure_diameter(inst: GpmsInstance, s: SubsetMask, tol: float = 1e-9) -> CheckReport:
    """diameter(s) must equal diameter(closure(s)), or both be infinite."""
    if inst.carrier.kind != "finite":
        raise DomainError("closure diameters need a finite carrier")
    if s.is_empty:
        raise DomainError("diameter of the empty set is undefined")
    closure, _ = closure_and_limit_points(inst, s)
    d_s = diameter(inst, s)
    d_c = diameter(inst, closure)
    data = {"diameter": d_s, "closure_diameter": d_c,
            "closure": list(closure.labels(inst.carrier))}
    if (math.isinf(d_s) and math.isinf(d_c)) or abs(d_s - d_c) <= tol:
        return CheckReport(name="closure_diameter", verdict=PASS, samples_tested=2, data=data)
    note = ""
    if closure != s:
        note = ("closure strictly grew: s is not a union of tau_P classes, which the "
                "least grid balls join at these grids (a grid-resolution artifact)")
    return CheckReport(name="closure_diameter", verdict=FAIL, samples_tested=2,
                       witnesses=(Witness(values={"lhs": d_s, "rhs": d_c},
                                          detail="diameter changed under closure"),),
                       note=note, data=data)


def cantor_intersection(inst: GpmsInstance, fam, point_tol: float = 1e-6):
    """Nested non-empty closed sets with shrinking diameters meet in one point.

    Returns ``(point_estimate, diameters, CheckReport)``.  Hypothesis
    violations (broken nesting, non-closed members, infinite or non-shrinking
    diameters) raise HypothesisError.  The intersection is the last member;
    on an interval carrier a final width above ``point_tol`` yields an
    inconclusive verdict with the center estimate.
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
        diams = _interval_diameters(inst, members)
    else:
        if inst.carrier.kind != "finite":
            raise DomainError("mask members need a finite carrier")
        n = inst.carrier.size
        # a member of another size gets an empty row: its walk step raises first
        flags = _flag_rows([m.bits if m.n == n else 0 for m in members], n)
        closed = _unions_of_classes(inst, ~flags)  # closed: the complement is open
        for m, ok in zip(members, closed.tolist()):
            if m.is_empty:
                raise HypothesisError("members must be non-empty")
            if m.n != n:
                raise DomainError("mask size mismatch")
            if not ok:
                raise HypothesisError("a member is not closed at these grids")
        for big, small in zip(members, members[1:]):
            if not small.issubset(big):
                raise HypothesisError("family is not nested")
        diams = _nested_diameters(inst, flags)

    if any(math.isinf(d) for d in diams):
        raise HypothesisError("a member has infinite diameter; the intersection "
                              "theorem needs finite shrinking diameters")
    for d1, d2 in zip(diams, diams[1:]):
        if d2 > d1 + 1e-12:
            raise HypothesisError("diameters are not non-increasing")
    if diams[0] > 0 and diams[-1] > _SHRINK_RATIO * diams[0]:
        raise HypothesisError("diameters do not shrink toward zero within the family")

    # the family is nested and its members non-empty: the last is the intersection
    inter = members[-1]
    witnesses, note = (), ""
    if interval_mode:
        estimate = inter.center
        if not inter.contains(estimate):  # lo + hi overflows near the float range
            raise HypothesisError("intersection estimate escapes a member")
        data = {"width": inter.width, "estimate": estimate, "diameters": diams}
        if inter.width > point_tol:
            note = (f"intersection width {inter.width:.6g} exceeds the point tolerance; "
                    "single-point limit estimated at the center")
        verdict = INCONCLUSIVE if note else PASS
    else:
        labels = inter.labels(inst.carrier)
        estimate = labels[0]
        data = {"intersection": list(labels), "estimate": estimate, "diameters": diams}
        if len(labels) > 1:
            witnesses = (Witness(points=labels, detail="intersection holds more than one point"),)
        verdict = FAIL if witnesses else PASS
    return estimate, diams, CheckReport(name="cantor_intersection", verdict=verdict,
                                        samples_tested=len(members), note=note,
                                        witnesses=witnesses, data=data)


def subsequence_completeness_check(inst: GpmsInstance, seq: SequenceSpec,
                                   subseq_indices, x, tol: float = 1e-6) -> CheckReport:
    """A Cauchy sequence with a subsequence converging to x converges to x."""
    return _subsequence_report(inst, seq, subseq_indices, x, tol, check_cauchy(inst, seq, tol),
                               check_convergence(inst, seq, x, tol))


def _subsequence_report(inst: GpmsInstance, seq: SequenceSpec, subseq_indices, x, tol,
                        cauchy: CheckReport, full: CheckReport) -> CheckReport:
    """``subsequence_completeness_check``, whose ``check_cauchy`` report of
    ``seq`` is ``cauchy`` and whose ``check_convergence`` report of ``seq``
    to ``x`` is ``full``."""
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
    return _compact_report(inst, s, check_bounded(inst, s, tol))


def _compact_report(inst: GpmsInstance, s: SubsetMask, bounded: CheckReport) -> CheckReport:
    """``check_compact_closed_bounded`` of the valid subset ``s``, whose
    ``check_bounded`` report is ``bounded``."""
    witnesses = []
    closed = is_open(inst, s.complement())
    if not closed:
        witnesses.append(Witness(points=tuple(s.labels(inst.carrier)),
                                 detail="complement is not open at these grids "
                                        "(may be a grid artifact)"))
    if not bounded.ok:
        witnesses.extend(bounded.witnesses)
    verdict = FAIL if witnesses else PASS
    return CheckReport(name="compact_closed_bounded", verdict=verdict,
                       samples_tested=bounded.samples_tested + 1,
                       witnesses=tuple(witnesses),
                       note="compact by pigeonhole: some point repeats infinitely often "
                            "in any sequence through a finite set",
                       data=dict(bounded.data))


def _interval_frame(carrier):
    """The middle of an interval carrier and a quarter of its width."""
    return 0.5 * (carrier.lo + carrier.hi), 0.25 * (carrier.hi - carrier.lo)


def sequence_battery(inst: GpmsInstance, tol: float):
    """The ``sequences`` battery; returns ``(checks, rows)``.  On an interval,
    with x_n, y_n = mid +- w/2^n (mid the middle, w a quarter of the width):
    convergence, Cauchy, bounded, joint continuity and subsequence
    completeness, all from one ``convergence_rows`` call of x_n and y_n, and
    ``rows`` builds the CSV trace P(x_n, mid, t).  On a finite carrier: the
    constant sequences' convergence, then bounded and compact from one K_t
    table; ``rows`` is None."""
    if inst.carrier.kind == "finite":
        labels = inst.carrier.labels
        consts = [SequenceSpec("explicit", points=(p,) * 40) for p in labels]
        checks = convergence_rows(inst, consts, labels, tol)
        for p, rep in zip(labels, checks):
            rep.name = f"convergence[const@{p}]"
        full = SubsetMask.full(inst.carrier.size)
        bounded = _bounded(inst, full)
        return checks + [bounded, _compact_report(inst, full, bounded)], None
    mid, w = _interval_frame(inst.carrier)
    seqx = SequenceSpec("geometric", c=mid, a=w, r=0.5, n_terms=200)
    seqy = SequenceSpec("geometric", c=mid, a=-w, r=0.5, n_terms=200)
    convergence, convergence_y = convergence_rows(inst, [seqx, seqy], [mid, mid], tol)
    cauchy = check_cauchy(inst, seqx, tol)
    checks = [convergence, cauchy, _couple(_bounded(inst, seqx), convergence),
              guarded("joint_continuity", lambda: _joint_continuity(
                  inst, seqx, seqy, mid, mid, tol, tol, (convergence, convergence_y))),
              guarded("subsequence_completeness", lambda: _subsequence_report(
                  inst, seqx, [2 ** k for k in range(1, 8)], mid, tol, cauchy, convergence))]

    def rows():  # P(x_n, mid, t) over (t, n), one kernel call
        u, v = coords(inst, seqx.terms(inst.carrier)), coords(inst, mid)
        vals = P_at(inst, u, v, np.asarray(inst.t_grid)[:, None]).tolist()
        return [["n", "t", "value"]] + [
            [n + 1, t, value] for t, row in zip(inst.t_grid, vals) for n, value in enumerate(row)]
    return checks, rows


def cantor_battery(inst: GpmsInstance, tol: float) -> CheckReport:
    """The ``cantor`` battery: ``cantor_intersection`` on the intervals
    mid +- w/2^i, i = 1..24, or on the n prefixes of a finite carrier's
    points.  Raises ``HypothesisError`` or ``DomainError`` as it does."""
    if inst.carrier.kind == "interval":
        mid, w = _interval_frame(inst.carrier)
        # depth 24 halvings leave a width of about 1.2e-7, below default tol
        fam = [ClosedInterval(mid - w * 0.5 ** i, mid + w * 0.5 ** i) for i in range(1, 25)]
    else:
        n = inst.carrier.size
        fam = [SubsetMask(n, (1 << (n - k)) - 1) for k in range(n)]  # points 0 .. n-k-1
    return cantor_intersection(inst, fam, point_tol=tol)[2]

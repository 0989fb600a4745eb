"""Binary operations on [0, inf) that combine the split triangle inequality.

An operation ``o`` generalizes ``+`` and ``max``.  The axioms checked here:

    (a) x o 0 = x                       (identity)
    (b) x <= y  implies  x o z <= y o z (monotone)
    (c) x o y = y o x                   (commutative)
    (d) x o (y o z) = (x o y) o z       (associative)
    (e) o is continuous
    (f) x < y and z < w  implies  x o z < y o w   (strictly monotone)
    (g) x o x > x

Axioms (a)-(d), (f), (g) are scanned exhaustively over a sample grid;
continuity (e) is probed with convergent sequences decaying geometrically
onto grid points.  All verdicts are falsification-only.

Axiom (g) as stated conflicts with (a) at x = 0 (0 o 0 = 0), so the scan
excludes x = 0 from the verdict and records it as a boundary case.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    NoSolutionError,
    PreconditionError,
    WitnessNotFoundError,
)
from .reports import FAIL, PASS, CheckReport, Witness

OP_AXIOMS = ("a", "b", "c", "d", "e", "f", "g")

#: axioms plus and max actually satisfy (g fails for both)
_STANDARD_AXIOMS = frozenset("abcdef")


@dataclass(frozen=True, eq=False)
class BinaryOperation:
    """An evaluable map [0,inf)^2 -> [0,inf) with a declared-axiom set."""

    kind: str
    name: str
    fn: Callable[[float, float], float]
    declared: frozenset = _STANDARD_AXIOMS
    descriptor: dict = field(default_factory=dict)

    def __repr__(self):
        return f"BinaryOperation({self.name})"

    def to_jsonable(self):
        return self.descriptor or self.name

    @staticmethod
    def plus() -> "BinaryOperation":
        return BinaryOperation("plus", "plus", lambda a, b: a + b,
                               _STANDARD_AXIOMS, {"op": "plus"})

    @staticmethod
    def max_() -> "BinaryOperation":
        return BinaryOperation("max", "max", lambda a, b: a if a >= b else b,
                               _STANDARD_AXIOMS, {"op": "max"})

    @staticmethod
    def closed_form(name: str, fn: Callable[[float, float], float],
                    declared=frozenset()) -> "BinaryOperation":
        return BinaryOperation("closed_form", name, fn, frozenset(declared),
                               {"op": {"closed_form": name}})

    @staticmethod
    def tabulated(grid, values, declared=frozenset("e")) -> "BinaryOperation":
        """Piecewise-bilinear interpolation between table nodes.

        Evaluation clamps arguments into the table hull, so the map is total
        and continuous.  Axiom scans are meaningful on the nodes themselves.
        """
        try:
            g = np.asarray(grid, dtype=float)
            v = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            raise DomainError("op table grid and values must be lists of numbers") from None
        if g.ndim != 1 or g.size == 0 or not np.all(np.diff(g) > 0) or g[0] < 0:
            raise DomainError("op table grid must be non-empty, strictly increasing, >= 0")
        if v.shape != (g.size, g.size):
            raise DomainError("op table values must be square over the grid")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise DomainError("op table values must be finite and non-negative")

        def fn(a: float, b: float) -> float:
            if g.size == 1:
                return float(v[0, 0])
            a = min(max(a, g[0]), g[-1])
            b = min(max(b, g[0]), g[-1])
            i = min(max(int(np.searchsorted(g, a, side="right")) - 1, 0), g.size - 2)
            j = min(max(int(np.searchsorted(g, b, side="right")) - 1, 0), g.size - 2)
            fa = (a - g[i]) / (g[i + 1] - g[i])
            fb = (b - g[j]) / (g[j + 1] - g[j])
            return float(v[i, j] * (1 - fa) * (1 - fb)
                         + v[i + 1, j] * fa * (1 - fb)
                         + v[i, j + 1] * (1 - fa) * fb
                         + v[i + 1, j + 1] * fa * fb)

        desc = {"op": {"table": {"grid": [float(x) for x in g],
                                 "values": [[float(x) for x in row] for row in v]}}}
        return BinaryOperation("tabulated", "tabulated", fn, frozenset(declared), desc)


PLUS = BinaryOperation.plus()
MAX = BinaryOperation.max_()


def eval_op(op: BinaryOperation, a: float, b: float) -> float:
    """Apply ``op`` to a pair of non-negative reals."""
    for x in (a, b):
        if not isinstance(x, (int, float)) or not math.isfinite(x) or x < 0:
            raise DomainError(f"operation argument must be a finite non-negative real, got {x!r}")
    out = float(op.fn(float(a), float(b)))
    if not math.isfinite(out) or out < 0:
        raise DomainError(f"operation evaluator returned {out!r} for ({a}, {b})")
    return out


def eval_op_array(op: BinaryOperation, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``eval_op`` on each pair ``(a[k], b[k])`` of two float arrays.

    Plus and max are array arithmetic; max keeps ``max_``'s ``a if a >= b
    else b``, so ``(0.0, -0.0)`` gives 0.0 where ``np.maximum`` gives -0.0.
    A bad pair raises ``eval_op``'s error for the first one.  Other ops are
    evaluated pair by pair.
    """
    if op.kind not in ("plus", "max"):
        return np.array([eval_op(op, u, w) for u, w in zip(a.tolist(), b.tolist())])
    with np.errstate(over="ignore", invalid="ignore"):  # a bad pair raises below
        out = a + b if op.kind == "plus" else np.where(a >= b, a, b)
    bad = ~(np.isfinite(a) & (a >= 0) & np.isfinite(b) & (b >= 0) & np.isfinite(out))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        eval_op(op, a[k].item(), b[k].item())
    return out


@dataclass(frozen=True)
class SampleGrid:
    """Sample values for axiom scans, plus the seed and comparison tolerance."""

    values: tuple
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise DomainError("sample grid must be non-empty")
        if vals[0] < 0 or any(not math.isfinite(v) for v in vals):
            raise DomainError("sample grid values must be finite and >= 0")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise DomainError("sample grid values must be strictly increasing")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise DomainError("tolerance must be finite and non-negative")
        object.__setattr__(self, "values", vals)


def check_op_axiom(op: BinaryOperation, axiom: str, grid: SampleGrid) -> CheckReport:
    """Scan one axiom over the grid; pass = no counterexample at this resolution."""
    if axiom not in OP_AXIOMS:
        raise DomainError(f"unknown operation axiom {axiom!r}; expected one of {OP_AXIOMS}")
    g = grid.values
    tol = grid.tolerance
    witnesses: list[Witness] = []
    samples = 0
    data: dict = {}
    note = ""

    if axiom == "a":
        for x in g:
            samples += 1
            got = eval_op(op, x, 0.0)
            if abs(got - x) > tol:
                witnesses.append(Witness(values={"alpha": x, "lhs": got, "rhs": x},
                                         detail="alpha o 0 != alpha"))
    elif axiom == "b":
        for i, x in enumerate(g):
            for y in g[i:]:
                for z in g:
                    samples += 1
                    lo = eval_op(op, x, z)
                    hi = eval_op(op, y, z)
                    if lo > hi + tol:
                        witnesses.append(Witness(
                            values={"alpha": x, "beta": y, "gamma": z, "lhs": lo, "rhs": hi},
                            detail="alpha <= beta but alpha o gamma > beta o gamma"))
    elif axiom == "c":
        for i, x in enumerate(g):
            for y in g[i:]:
                samples += 1
                ab = eval_op(op, x, y)
                ba = eval_op(op, y, x)
                if abs(ab - ba) > tol:
                    witnesses.append(Witness(values={"alpha": x, "gamma": y, "lhs": ab, "rhs": ba},
                                             detail="alpha o gamma != gamma o alpha"))
    elif axiom == "d":
        for x in g:
            for y in g:
                for z in g:
                    samples += 1
                    lhs = eval_op(op, x, eval_op(op, y, z))
                    rhs = eval_op(op, eval_op(op, x, y), z)
                    if abs(lhs - rhs) > tol:
                        witnesses.append(Witness(
                            values={"alpha": x, "beta": y, "gamma": z, "lhs": lhs, "rhs": rhs},
                            detail="associativity violated"))
    elif axiom == "e":
        witnesses, samples = _continuity_witnesses(op, grid)
        note = "continuity probed with geometric sequences onto grid points; falsification-only"
    elif axiom == "f":
        for i, x in enumerate(g):
            for y in g[i + 1:]:
                for j, z in enumerate(g):
                    for w in g[j + 1:]:
                        samples += 1
                        lo = eval_op(op, x, z)
                        hi = eval_op(op, y, w)
                        if not lo < hi:
                            witnesses.append(Witness(
                                values={"alpha": x, "beta": y, "gamma": z, "delta": w,
                                        "lhs": lo, "rhs": hi},
                                detail="alpha<beta, gamma<delta but alpha o gamma >= beta o delta"))
    elif axiom == "g":
        excluded = []
        for x in g:
            v = eval_op(op, x, x)
            if x == 0.0:
                # 0 o 0 = 0 under axiom (a): no operation can satisfy (g) there
                excluded.append({"alpha": 0.0, "satisfied": bool(v > 0.0)})
                continue
            samples += 1
            if not v > x:
                witnesses.append(Witness(values={"alpha": x, "lhs": v},
                                         detail="alpha o alpha not > alpha"))
        if excluded:
            data["excluded_boundary"] = excluded
            note = "alpha=0 excluded from the verdict (conflicts with the identity axiom)"

    verdict = FAIL if witnesses else PASS
    if verdict == PASS and not note:
        note = "no counterexample at this grid resolution"
    return CheckReport(name=f"op:{axiom}", verdict=verdict, samples_tested=samples,
                       note=note, witnesses=tuple(witnesses), data=data)


def _continuity_witnesses(op: BinaryOperation, grid: SampleGrid):
    """Probe eval along sequences a_n -> a, b_n -> b with geometric decay.

    The deviation budget assumes a roughly Lipschitz-1 operation near the
    grid (true for plus, max and mild tables); a genuine jump dwarfs it.
    """
    rng = random.Random(grid.seed)
    g = grid.values
    tol = max(grid.tolerance, 1e-12)
    depth = 40
    tail = (depth - 2, depth - 1, depth)
    witnesses = []
    samples = 0
    for a in g:
        for b in g:
            target = eval_op(op, a, b)
            scale = 0.5 + rng.random()
            for da in (1.0, -1.0):
                for db in (1.0, -1.0):
                    for n in tail:
                        an = max(a + da * scale * 0.5 ** n, 0.0)
                        bn = max(b + db * scale * 0.5 ** n, 0.0)
                        samples += 1
                        dev = abs(eval_op(op, an, bn) - target)
                        if dev > tol:
                            witnesses.append(Witness(
                                values={"alpha": a, "beta": b, "alpha_n": an,
                                        "beta_n": bn, "deviation": dev},
                                detail="image of a convergent sequence strays from the limit image"))
    return witnesses, samples


def solve_third(op: BinaryOperation, alpha1: float, alpha2: float,
                tolerance: float = 1e-6) -> float:
    """Find a3 > 0 with alpha2 o a3 <= alpha1, given alpha1 > alpha2 > 0.

    Bisects over a3 by monotonicity (axiom b), to the tolerance or to float
    spacing; returns the largest bracketed value minus one tolerance unit.
    """
    if not (alpha1 > alpha2 > 0):
        raise PreconditionError(f"need alpha1 > alpha2 > 0, got ({alpha1}, {alpha2})")
    if "b" not in op.declared:
        raise PreconditionError("solve_third requires an op with monotonicity (axiom b) declared")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise DomainError("tolerance must be positive and finite")

    def fits(x: float) -> bool:
        return eval_op(op, alpha2, x) <= alpha1

    eps = tolerance
    if not fits(eps):
        raise NoSolutionError(
            f"{op.name}: even the smallest probe {eps} gives {op.name}({alpha2}, {eps}) > {alpha1}")
    if fits(alpha1):
        return float(alpha1)
    lo, hi = eps, alpha1  # fits(lo) True, fits(hi) False
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # float spacing reached before the tolerance
            break
        if fits(mid):
            lo = mid
        else:
            hi = mid
    out = lo - tolerance
    if out <= 0:
        out = lo / 2
    if not fits(out):  # cannot happen for monotone ops; guards bad declarations
        raise NoSolutionError("post-verification failed: candidate does not satisfy the bound")
    return float(out)


def split_below(op: BinaryOperation, beta1: float) -> tuple:
    """Find b2, b3 > 0 with b2 o b3 <= beta1, by symmetric halving probes."""
    if not beta1 > 0:
        raise PreconditionError(f"need beta1 > 0, got {beta1}")
    x = float(beta1)
    for _ in range(200):
        if eval_op(op, x, x) <= beta1:
            return (x, x)
        x /= 2
        if x < 1e-12:
            break
    raise NoSolutionError(f"{op.name}: no symmetric pair below {beta1} at probe resolution")


def sub_idempotent(op: BinaryOperation, alpha0: float) -> float:
    """Find a1 > 0 with a1 o a1 strictly below alpha0 (never fails for plus/max)."""
    if not alpha0 > 0:
        raise PreconditionError(f"need alpha0 > 0, got {alpha0}")
    if op.kind == "max":
        cand = alpha0 / 2
        if eval_op(op, cand, cand) < alpha0:
            return cand
    if op.kind == "plus":
        margin = min(1e-9, alpha0 / 4)
        cand = alpha0 / 2 - margin
        if cand > 0 and eval_op(op, cand, cand) < alpha0:
            return cand
    x = alpha0 / 2
    for _ in range(100):
        if x <= 0:
            break
        if eval_op(op, x, x) < alpha0:
            return x
        x /= 2
    raise WitnessNotFoundError(
        f"{op.name}: found no value whose self-combination stays below {alpha0}")

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

``check_P_axioms``, the battery of the ``axioms`` command, reports each.

Only P3 involves the operation o, so P1, P2, P4, P5 and monotone are
decided for all t > 0, exactly, on every family and under every op.  A
formula family meets P1 (d is zero only on the diagonal), P2 (d is
symmetric), P5 and monotone (each formula is continuous and non-increasing
in t) and reads no P for them.  A step table is filled for both orders of its
pair and construction refuses a rising one, so P2 and monotone hold there
too; P1 fails only at a pair whose first table value (column 0) is 0, and
P5 where a table drops.  P4 at alpha fails at the distinct pairs with
d_alpha = 0 (``ray_start``): P < alpha for every t > 0, since P falls from
its t -> 0+ limit, which is +inf for scaled and discrete, d for constant,
2d for damped and the first table value of a step table.

P3 of a formula family under plus or max is decided the same way
(``_check_P3_exact``): it reduces to a condition on d(a,b), d(a,x), d(b,x):
the triangle inequality (scaled/max, constant/plus, damped/plus),
d(a,b) <= (sqrt d(a,x) + sqrt d(b,x))^2 (scaled/plus) or the ultrametric
inequality (constant/max, damped/max); discrete always holds.  On an
interval |x - y| is a metric and no ultrametric, so family and op fix P3,
and the family fixes P4, since an interval holds distinct points closer
than alpha/2 for every alpha.  Each comparison is exact on the float
inputs: max compares floats, the triangle inequality reads the rounded sum
and its rounding error (TwoSum), and the square-root bound takes a float
pass, then ``fractions.Fraction`` on its near-ties (integer arithmetic on
an integer table).  A fail witness is a float counterexample built from
the reduction (s = d(a,x), t = d(b,x) for scaled/max, their square roots
for scaled/plus, s = t = 40, where 1 + exp(-t) rounds to 1, for constant
and damped; P at the smallest grid t for P4), checked again through the
kernel; an exact violation without one is reported inconclusive.  Grid
scans could not be trusted there: on the collinear points 0, 6, 14
(scaled/max, t grid (1.7999999999999998, 2.4)) exhaustive P3 read lhs
3.333333333333334 against rhs 3.3333333333333335, although the inequality
holds in exact arithmetic on the same inputs.  P3 of a tabulated family or
under a table operation samples seeded trials over the declared t grid and
the carrier's points (an interval's sample points); that verdict is
falsification-only, with exact float comparisons (no epsilon fuzzing) that
a rounding artifact can still fail by one ulp.

P is computed in one place, ``_kernel``: one family formula applied to a
distance and a t, broadcast together, where the distance comes from the
carrier's table d, from |x - y| on an interval, or, for tabulated families,
from padded per-pair step tables built at construction.  It reads kernel
coordinates: a point's index on a finite carrier, the point on an interval.
``coords`` maps points to them, so labels are mapped once, where they enter,
and ``P_at`` is the kernel at coordinates, over arrays of them and of t
broadcast together; ``eval_P`` is the kernel at one pair and one t.
``ray_start`` inverts the same formulas and step tables in t: it is the
induced d_alpha = inf { t > 0 : P < alpha } at coordinates, in closed form,
and ``sup_P`` is the sup of P over t > 0, its t -> 0+ limit, read by the
diameters.  P over a finite carrier's pairs at every grid t is one tensor,
``grid_P``, derived once per instance when first read; the construction and
``p4_violations`` read P at the smallest grid t, which stands for the whole
grid because P is non-increasing in t.  ``_triangle_rows`` is the one
triangle scan.  It and the exact P3 rows scan n x n x n in blocks of rows,
and read a table as int16 where every entry is an integer in [0, 2^14), so
that no sum of two entries wraps (``_scan_table``).  That is decided once per
table, where it is built (the carrier's d, a finite d_alpha matrix), and only
where the float scan spans more than one block.  On integers a slack in
[0, 1) changes no comparison, so it is dropped; every other table, and the
square-root rule of P3, is read in float64, and witness values always come
from the float table.  Sampled P3 draws its seeded trials from one block of
Mersenne Twister words, five per trial, by multiply-shift.  ``p3_violations``
and ``p4_violations`` also stand as the test oracles of the exact decisions.
The P3 trials and the exact decisions keep their witnesses as index rows plus
the values gathered there (``ScanWitnesses``), so a witness is built when read.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain

import numpy as np

from .binop import BinaryOperation, eval_op_array
from .errors import ConstructionError, DomainError
from .reports import FAIL, INCONCLUSIVE, PASS, CheckReport, ScanWitnesses, Witness

FAMILIES = ("scaled", "constant", "damped", "discrete", "tabulated")

P_AXIOMS = ("P1", "P2", "P3", "P4", "P5", "monotone")

# about how many quantifier points sampled P3 and p4_violations read: a larger
# carrier keeps every (len // cap)-th point and the last, fewer than 2 * cap
_QUANTIFIER_CAP = 128

_MAX_INTERVAL_POINTS = 65536  # sample points of an interval carrier

_REALS = (int, float, np.integer, np.floating)  # what a grid may hold, bool excepted

# bytes of one block of rows of an n x n x n scan: ``_triangle_rows`` and the
# exact P3 decision.  A temporary of a block in the dtype the scan reads stays
# within 128 KiB, glibc's default mmap threshold, so blocks reuse heap memory
# instead of mapping fresh pages each time, which is slower and raises peak
# RSS: 2^14 float64 entries or 2^16 int16 ones
_P3_BLOCK = 1 << 17


class FiniteCarrier:
    """A finite labeled point set with a symmetric base distance table."""

    kind = "finite"

    def __init__(self, labels, d):
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
        scan = _scan_table(d)
        # the witness is the least failing (a, b, k) with k the middle point
        rows = _triangle_rows(scan, 1e-12 * max(1.0, float(d.max(initial=0.0))), first=True)
        if len(rows):
            i, k, j = min(rows.tolist(), key=lambda r: (r[0], r[2], r[1]))
            raise ConstructionError(f"triangle inequality fails on ({labels[i]}, {labels[j]}, "
                                    f"{labels[k]})", axiom="triangle")
        d.flags.writeable = False
        self.labels = labels
        self.d = d
        self._scan = scan  # the table the n^3 scans read: d, or d as int16
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def contains(self, p) -> bool:
        try:
            return p in self._index
        except TypeError:  # unhashable: no label
            return False

    def index(self, p) -> int:
        try:
            return self._index[p]
        except (KeyError, TypeError):
            raise DomainError(f"point {p!r} is not in the carrier") from None

    def base_distance(self, a, b) -> float:
        return float(self.d[self.index(a), self.index(b)])

    def points(self):
        return self.labels

    def describe(self):
        """The carrier's labels and its read-only float64 table ``d`` itself,
        not a list.  The report writer gives an array the text of its
        ``tolist()``; from 1,024 entries (32 points) on it writes that text
        from the array, one text per distinct bit pattern, below that the
        list is faster on tables of distinct floats (``reports._table_text``)."""
        return {"points": list(self.labels), "d": self.d}


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
        steps = (hi - lo) / resolution + 1e-9
        if steps >= _MAX_INTERVAL_POINTS:  # floor(steps) + 1 points, refused before the list
            raise ConstructionError("resolution produces too many sample points")
        pts = [lo + k * resolution for k in range(math.floor(steps) + 1)]
        if pts[-1] < hi - 1e-12 * max(1.0, abs(hi)):
            pts.append(hi)
        if len(pts) > _MAX_INTERVAL_POINTS:
            raise ConstructionError("resolution produces too many sample points")
        self._points = tuple(min(p, hi) for p in pts)

    @property
    def size(self) -> int:
        return len(self._points)

    def contains(self, p) -> bool:
        # a real as a grid reads it (numpy number scalars too); a bool is no
        # point, though float() reads it as 0 or 1.  lo and hi are finite, so
        # the comparisons refuse NaN, the infinities and ints beyond floats
        return bool(isinstance(p, _REALS) and type(p) is not bool and self.lo <= p <= self.hi)

    def base_distance(self, a, b) -> float:
        return abs(float(a) - float(b))

    def points(self):
        return self._points

    def describe(self):
        return {"interval": [self.lo, self.hi], "resolution": self.resolution}


def _scan_table(D):
    """The table the n x n x n scans read for the float table D: a read-only
    int16 copy when every entry is an integer in [0, 2^14), where the sum of
    two entries cannot wrap, which numpy would do silently; else D itself, and
    so for a table whose float scan fits one block, where the test and the
    copy would cost about as much as the scan."""
    if len(D) ** 3 * D.itemsize <= _P3_BLOCK:
        return D
    if not (D.max(initial=0.0) < 2.0 ** 14 and D.min(initial=0.0) >= 0.0
            and np.all(D == np.floor(D))):
        return D
    ints = D.astype(np.int16)
    ints.flags.writeable = False
    return ints


def _triangle_rows(D, slack, first=False) -> np.ndarray:
    """The (i, j, l) with D[i, l] > D[i, j] + D[j, l] + slack, as index rows in
    lexicographic order, for a D equal to its transpose (a carrier's table d,
    a d_alpha matrix, or its ``_scan_table``); a float sum that overflows to
    inf bounds every entry.  An integer D drops a slack in [0, 1): on
    integers, x > y + slack iff x > y.  Rows i are scanned in blocks of about
    ``_P3_BLOCK`` bytes, each at the columns l from the block's start on: a
    violation with l before the start is the mirror (l, j, i) of one found
    there, since addition is commutative.  With ``first`` the scan stops at
    the first block that finds a row, which holds every row of the least i."""
    k = len(D)
    if D.dtype.kind == "i" and slack < 1:
        slack = 0
    step = max(1, _P3_BLOCK // (k * k * D.itemsize))
    found = []
    with np.errstate(over="ignore"):
        for lo in range(0, k, step):
            hi = min(lo + step, k)
            rows = D[lo:hi]
            # bad[a, j, b]: D[lo + a, lo + b] > D[lo + a, j] + D[j, lo + b] + slack
            if slack:
                bad = rows[:, None, lo:] > (rows[:, :, None] + D[:, lo:]) + slack
            else:
                bad = rows[:, None, lo:] > rows[:, :, None] + D[:, lo:]
            if bad.any():
                a, j, b = np.nonzero(bad)
                i, l = a + lo, b + lo
                past = l >= hi
                found += [(i, j, l), (l[past], j[past], i[past])]
                if first:
                    break
    if not found:
        return np.empty((0, 3), dtype=np.intp)
    i, j, l = (np.concatenate(axis) for axis in zip(*found))
    order = np.argsort((i * k + j) * k + l)
    return np.stack((i[order], j[order], l[order]), axis=1)


def _validate_grid(grid, name):
    """The grid rule, for t and alpha: finite positive reals, strictly increasing."""
    vals = tuple(grid)
    if any(isinstance(v, bool) or not isinstance(v, _REALS) for v in vals):
        raise ConstructionError(f"{name} values must be real numbers")
    vals = tuple(map(float, vals))
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
        # normalized once, for describe, into a private copy: the caller's
        # tables may change later
        if family == "tabulated":
            self._steps, tables = _step_tables(carrier, self.params)
            self.params = {"tables": tables}
        else:
            self._steps = None
            self.params = {k: self.params[k] for k in sorted(self.params)}
        self._memo = {}  # see derive

    def quantifier_points(self):
        """Points standing in for "all of X" in sampled P3 and ``p4_violations``."""
        pts = self.carrier.points()
        if len(pts) <= _QUANTIFIER_CAP:
            return pts
        sub = pts[::len(pts) // _QUANTIFIER_CAP]
        return sub if sub[-1] == pts[-1] else sub + pts[-1:]

    def describe(self):
        """The instance as a value tree, the body of its digest
        (``cli.load_instance``): fresh lists and dicts, except a finite
        carrier's ``d``, the carrier's read-only float64 array
        (``FiniteCarrier.describe``), whose text is that of its list.  Two
        descriptions compare with ``np.array_equal`` on ``d``: ``==`` on two
        arrays is elementwise."""
        params = dict(self.params)
        if self.family == "tabulated":  # fresh lists: the caller may change what it is given
            params["tables"] = [{k: list(v) for k, v in e.items()} for e in params["tables"]]
        return {
            "carrier": self.carrier.describe(),
            "family": self.family,
            "params": params,
            "op": self.op.to_jsonable(),
            "t_grid": list(self.t_grid),
            "alpha_grid": list(self.alpha_grid),
        }

    def __repr__(self):
        return (f"GpmsInstance({self.family}/{self.op.name}, "
                f"{self.carrier.kind} carrier of size {self.carrier.size})")


def derive(inst: GpmsInstance, key, build):
    """``build()`` on the first request for ``key``, the same object after: the
    one cache of values derived from an instance, which is immutable."""
    if key not in inst._memo:
        inst._memo[key] = build()
    return inst._memo[key]


def _pair_key(a, b):
    return (a, b) if str(a) <= str(b) else (b, a)


# the value rules of a step table, in the order an entry is checked: (text, axiom)
_STEP_RULES = (("table t nodes for {!r} must be strictly increasing positives", None),
               ("table values for {!r} must be finite non-negative", None),
               ("table values for {!r} increase in t; P must be non-increasing in t",
                "monotone"))


def _step_tables(carrier, params):
    """Padded step tables, ``((nodes, values), tables)``: P(i, j, t) =
    values[i, j, k], node k the first above t.

    Both arrays are n x n x (w + 1), w the most nodes of any pair, filled
    for both orders of each pair and read-only.  nodes is padded with +inf,
    at least once per row.  Column k of values is P on [node k-1, node k):
    column 0 extends the first value to the left, padding repeats the last
    value, and the diagonal is 0.  ``tables`` is the normalized
    ``{pair, t, v}`` list for ``describe``, each pair in label order and the
    entries sorted by pair.

    One loop over the entries checks what needs an entry itself: its shape,
    its pair and the lengths of ``t`` and ``v``.  The numbers then sit in one
    flat array each, entry after entry, and each value rule is one mask over
    it: nodes positive and strictly increasing (a NaN node fails), values
    finite and non-negative, and no value above the one before it (monotone).
    The error raised is the one an entry-by-entry check meets first: the
    lowest entry wins, and within an entry the order is shape, nodes, values,
    monotone, a repeated pair.  A missing pair comes last.  Padding scatters
    the flat arrays into the padded ones.
    """
    if carrier.kind != "finite":
        raise ConstructionError("tabulated family requires a finite carrier")
    raw = params.get("tables")
    if not raw:
        raise ConstructionError("tabulated family needs per-pair tables")
    if not isinstance(raw, (list, tuple)):
        raise ConstructionError("params.tables must be a list of {pair, t, v} entries")
    pairs, node_parts, val_parts = [], [], []
    cells = {}  # (i, j), i < j -> its entry, in entry order
    late = None  # the loop's error: it loses to a value rule broken in an entry checked so far
    for k, entry in enumerate(raw):
        where = f"params.tables[{k}]"
        if not (isinstance(entry, dict) and {"pair", "t", "v"} <= entry.keys()
                and isinstance(entry["pair"], (list, tuple))):
            late = ConstructionError(f"{where} must be an object with a 'pair' list, 't' and 'v'")
            break
        pair = tuple(str(p) for p in entry["pair"])
        if len(pair) != 2 or not all(carrier.contains(p) for p in pair) or pair[0] == pair[1]:
            late = ConstructionError(f"table pair {pair!r} must name two distinct carrier points")
            break
        try:
            nodes = np.asarray(entry["t"], dtype=float)
            vals = np.asarray(entry["v"], dtype=float)
        except (TypeError, ValueError):
            late = ConstructionError(f"{where}: 't' and 'v' must be lists of numbers")
            break
        pairs.append(pair)
        if nodes.ndim != 1 or nodes.size == 0:
            late = ConstructionError(_STEP_RULES[0][0].format(pair))
            break
        node_parts.append(nodes)
        if vals.shape != nodes.shape:
            late = ConstructionError(_STEP_RULES[1][0].format(pair))
            break
        val_parts.append(vals)
        cell = tuple(sorted((carrier.index(pair[0]), carrier.index(pair[1]))))
        if cell in cells:
            late = ConstructionError(f"{where} repeats the table for pair {pair!r}")
            break
        cells[cell] = k
    if not node_parts:
        raise late
    sizes = np.array([nodes.size for nodes in node_parts])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    nodes = np.concatenate(node_parts)
    vals = np.concatenate(val_parts) if val_parts else nodes[:0]
    # True where an entry breaks a rule; the value segments are a prefix of the node segments
    bad_nodes = np.empty(nodes.size, dtype=bool)
    bad_nodes[1:] = ~(nodes[1:] > nodes[:-1])
    bad_nodes[starts] = ~(nodes[starts] > 0.0)
    bad_vals = ~(np.isfinite(vals) & (vals >= 0.0))
    rising = np.zeros(vals.size, dtype=bool)
    rising[1:] = vals[1:] > vals[:-1]
    rising[starts[:len(val_parts)]] = False
    broken = [(int(np.searchsorted(ends, mask.argmax(), side="right")), rule)
              for rule, mask in enumerate((bad_nodes, bad_vals, rising)) if mask.any()]
    if broken:
        k, rule = min(broken)
        text, axiom = _STEP_RULES[rule]
        raise ConstructionError(text.format(pairs[k]), axiom=axiom)
    if late is not None:
        raise late
    n = carrier.size
    if len(cells) < n * (n - 1) // 2:
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in cells)
        raise ConstructionError(f"tabulated family is missing a table for pair "
                                f"({carrier.labels[i]}, {carrier.labels[j]})")
    # scatter with indices the size of the flat arrays: element e of entry k is
    # node column e - start k of its pair and value column e - start k + 1;
    # value column 0 repeats the first value and the tail the last
    rows, cols = np.array(list(cells)).T
    owner = np.repeat(np.arange(len(cells)), sizes)  # the entry of each element
    col = np.arange(nodes.size) - starts[owner]
    i, j = rows[owner], cols[owner]
    shape = (n, n, sizes.max() + 1)
    step_nodes = np.full(shape, np.inf)
    step_nodes[i, j, col] = step_nodes[j, i, col] = nodes
    step_vals = np.zeros(shape)
    step_vals[rows, cols] = step_vals[cols, rows] = vals[ends - 1, None]
    step_vals[rows, cols, 0] = step_vals[cols, rows, 0] = vals[starts]
    step_vals[i, j, col + 1] = step_vals[j, i, col + 1] = vals
    step_nodes.flags.writeable = False
    step_vals.flags.writeable = False
    t_all, v_all = nodes.tolist(), vals.tolist()
    tables = sorted(({"pair": list(_pair_key(*pair)), "t": t_all[s:e], "v": v_all[s:e]}
                     for pair, s, e in zip(pairs, starts.tolist(), ends.tolist())),
                    key=lambda e: e["pair"])
    return (step_nodes, step_vals), tables


def _check_t(t):
    """``t`` as a float, or as a float array; every entry a finite positive real."""
    if isinstance(t, (int, float)) and math.isfinite(t) and t > 0:
        return float(t)
    if isinstance(t, np.ndarray) and t.dtype.kind in "fi" and np.all(np.isfinite(t) & (t > 0)):
        return t.astype(float)
    raise DomainError(f"t must be a finite positive real, got {t!r}")


# -- the evaluation kernel -------------------------------------------------


# math.exp and math.log per entry: np.exp and np.log may differ by one ulp
_EXP = np.frompyfunc(math.exp, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)

_TINY = math.ulp(0.0)  # the least positive float


def _formula(family, params, dist, t):
    """The family formula at base distance ``dist`` and ``t``, broadcast together."""
    if family == "scaled":
        return dist / t
    if family == "constant":
        return dist - 0.0 * t  # broadcast with t: x - 0.0 is x for every float x
    if family == "damped":
        return dist * (1.0 + np.asarray(_EXP(-t), dtype=float))
    if family == "discrete":  # the base distance is 0 exactly on the diagonal
        return np.where(dist == 0.0, 0.0, params["c"] / t)
    raise DomainError(f"no formula for family {family!r}")


def _ray_formula(family, params, dist, alpha):
    """inf { t > 0 : formula(dist, t) < alpha }, the formula inverted in t,
    at ``dist`` and ``alpha`` broadcast together."""
    if family in ("scaled", "discrete"):  # P = q / t: d_alpha = q / alpha, which is 0 iff
        # q is, so a quotient that underflows to 0 reads the least positive float
        q = dist if family == "scaled" else np.where(dist == 0.0, 0.0, params["c"])
        with np.errstate(over="ignore"):  # a quotient past the largest float is +inf, exact
            r = q / alpha
        return np.where((r == 0.0) & (q != 0.0), _TINY, r)
    if family in ("constant", "damped"):  # P = d, or d (1 + e^-t) falling from 2d to d
        dist, alpha = np.broadcast_arrays(dist, alpha)
        out = np.where(dist < alpha, 0.0, math.inf)
        if family == "damped":  # alpha - d is exact in between (Sterbenz)
            with np.errstate(over="ignore"):  # 2d = inf lies above every alpha
                mid = (dist < alpha) & (alpha < 2.0 * dist)
            out[mid] = -np.asarray(_LOG((alpha[mid] - dist[mid]) / dist[mid]), dtype=float)
        return out
    raise DomainError(f"no formula for family {family!r}")


def _distance(inst: GpmsInstance, u, v):
    """The base distance at kernel coordinates: a finite carrier's table d, or |u - v|."""
    return inst.carrier.d[u, v] if inst.carrier.kind == "finite" else np.abs(u - v)


def _kernel(inst: GpmsInstance, u, v, t):
    """P at carrier coordinates ``u`` and ``v`` and at ``t`` (a float or an
    array), broadcast together: point indices on a finite carrier, the points
    themselves on an interval."""
    if inst._steps is not None:
        nodes, vals = inst._steps
        return vals[u, v, (nodes[u, v] > np.asarray(t)[..., None]).argmax(axis=-1)]
    return _formula(inst.family, inst.params, _distance(inst, u, v), t)


def ray_start(inst: GpmsInstance, u, v, alpha) -> np.ndarray:
    """inf { t > 0 : P(u, v, t) < alpha } at kernel coordinates ``u`` and
    ``v`` (see ``coords``) and at ``alpha`` (one alpha or an array),
    broadcast together like ``P_at``: 0 where every t > 0 is below alpha,
    +inf where none is.  Each family's formula is inverted exactly; a step
    table's values fall with the column, so the columns at or above alpha
    are a prefix of k: k = 0 gives 0, and otherwise the ray starts at node
    k - 1, +inf when every column is above."""
    if inst._steps is not None:
        nodes, vals = inst._steps
        k = np.count_nonzero(vals[u, v] >= np.asarray(alpha)[..., None], axis=-1)
        return np.where(k == 0, 0.0, nodes[u, v, k - 1])  # the last node column is +inf
    return np.asarray(_ray_formula(inst.family, inst.params, _distance(inst, u, v), alpha))


def sup_P(inst: GpmsInstance, u, v) -> np.ndarray:
    """sup over t > 0 of P(u, v, t) at kernel coordinates ``u`` and ``v``,
    broadcast together: its t -> 0+ limit, since P is non-increasing in t.
    0 at distance 0 and +inf elsewhere for scaled and discrete, d for
    constant, 2d for damped (+inf past the largest float) and column 0 of a
    step table.  It reads no kernel."""
    if inst._steps is not None:
        return inst._steps[1][u, v, 0]
    dist = np.asarray(_distance(inst, u, v), dtype=float)
    if inst.family in ("scaled", "discrete"):
        return np.where(dist == 0.0, 0.0, math.inf)
    if inst.family == "damped":
        with np.errstate(over="ignore"):
            return 2.0 * dist
    return dist


_BOOLS = frozenset((bool, np.bool_))


def _entries(pts, arr):
    """The entries of ``pts`` as they are held: an array's own if it holds
    objects or bools (no others can be a bool), else those of the nested
    sequences that ``np.asarray`` read as ``arr``."""
    if isinstance(pts, np.ndarray):
        return pts.flat if pts.dtype.kind in "Ob" else ()
    if arr.ndim == 0:
        return (pts,)
    for _ in range(arr.ndim - 1):
        pts = chain.from_iterable(pts)
    return pts


def coords(inst: GpmsInstance, pts) -> np.ndarray:
    """Kernel coordinates of carrier points (one point or an array), shape
    preserved: indices on a finite carrier, floats on an interval; refuses
    a point not in the carrier, on an interval any entry not in [lo, hi],
    any bool and points nested raggedly."""
    car = inst.carrier
    if car.kind == "finite":
        if isinstance(pts, str):  # one label
            return car.index(pts)
        arr = np.asarray(pts, dtype=object)
        try:
            at = np.fromiter(map(car._index.__getitem__, arr.flat), np.intp, arr.size)
        except (KeyError, TypeError):  # name the first point that is not in the carrier
            for p in arr.flat:
                car.index(p)
            raise
        return at.reshape(arr.shape)
    try:  # numpy refuses points nested raggedly
        raw = pts if isinstance(pts, np.ndarray) else np.asarray(pts)
        # held as Python objects: take their own dtype
        arr = np.asarray(raw.tolist()) if raw.dtype.kind == "O" else raw
    except ValueError:
        raise DomainError("point not in carrier: the points are nested raggedly") from None
    # numpy reads a bool among numbers as 0 or 1, so the entries' own types decide
    if not _BOOLS.isdisjoint(map(type, _entries(pts, raw))):
        bad = next(p for p in _entries(pts, raw) if type(p) in _BOOLS)
        raise DomainError(f"point not in carrier: {bool(bad)} is a bool, not a number")
    if arr.dtype.kind not in "fi" or not np.all((arr >= car.lo) & (arr <= car.hi)):
        raise DomainError("point not in carrier: an array entry leaves the interval")
    return arr.astype(float, copy=False)


def eval_P(inst: GpmsInstance, a, b, t: float) -> float:
    """Evaluate P(a, b, t): the kernel at one pair of points and one t.

    Tabulated families use step interpolation: the value at the largest
    table node <= t, extended left of the first node by its value (which
    keeps P non-increasing).
    """
    if isinstance(t, np.ndarray):
        raise DomainError(f"eval_P takes one t, got {t!r}; P takes arrays")
    t = _check_t(t)
    car = inst.carrier
    if not car.contains(a) or not car.contains(b):
        raise DomainError(f"point not in carrier: {a!r} or {b!r}")
    if car.kind == "finite":
        return float(_kernel(inst, car.index(a), car.index(b), t))
    return float(_kernel(inst, float(a), float(b), t))


def P_at(inst: GpmsInstance, u, v, t) -> np.ndarray:
    """P at kernel coordinates ``u`` and ``v`` (see ``coords``) and at ``t``
    (one t or an array), broadcast together; ``u`` and ``v`` are trusted."""
    return np.asarray(_kernel(inst, u, v, _check_t(t)))


def grid_P(inst: GpmsInstance) -> np.ndarray:
    """P[k, x, y] = P(x, y, t_k) on a finite carrier: one kernel tensor per
    instance, shared, so callers only read it.  No entry overflows, as
    construction refuses a P not finite at the largest d and the least t."""
    def build():
        c = np.arange(inst.carrier.size)
        return P_at(inst, c[:, None], c, np.asarray(inst.t_grid)[:, None, None])

    return derive(inst, "grid_P", build)


def gallery_construct(family, params, carrier, op: BinaryOperation,
                      t_grid, alpha_grid) -> GpmsInstance:
    """Build an instance; refuse a pair the t grid cannot tell apart, or a P that is not finite.

    A distinct pair that reads 0 at the smallest grid t reads 0 on the whole
    grid (P is non-negative and non-increasing in t) and is refused (P1).  A
    finite carrier reads every pair; on an interval, every formula is
    non-decreasing in the computed distance and fl(p_j - p_i) >=
    fl(p_{i+1} - p_i) for j > i, so adjacent sample points decide.  P on the
    diagonal, P2 and monotone need no scan: the carrier and ``_step_tables``
    refuse what would break them.  Every family is largest at the largest
    distance and the smallest t (tabulated values are finite by
    construction), so a P that overflows to inf is refused there.
    """
    inst = GpmsInstance(carrier, family, params, op, t_grid, alpha_grid)
    car, t0 = inst.carrier, inst.t_grid[0]
    pts = car.points()
    with np.errstate(over="ignore"):  # a P that overflows to inf is refused below
        if car.kind == "finite":
            u, v = np.unravel_index(np.argmax(car.d), car.d.shape)
            far_x, far_y = pts[u], pts[v]
            k = np.arange(car.size)
            blank = np.argwhere(np.triu(P_at(inst, k[:, None], k, t0) == 0.0, 1))
        else:
            u, v = far_x, far_y = car.lo, car.hi
            x = np.asarray(pts)
            k = np.flatnonzero(P_at(inst, x[:-1], x[1:], t0) == 0.0)
            blank = np.stack((k, k + 1), axis=1)
        far = P_at(inst, u, v, t0)
    if blank.size:
        i, j = blank[0]
        raise ConstructionError(
            f"distinct points ({pts[i]}, {pts[j]}) are indistinguishable on the t grid", axiom="P1")
    if not np.isfinite(far):
        raise ConstructionError(f"P({far_x},{far_y},{t0}) is not finite", axiom="finite")
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
    """Check one P axiom: ``check_P_axioms`` on that axiom alone."""
    return check_P_axioms(inst, (axiom,), seed=seed, n_samples=n_samples,
                          exhaustive=exhaustive)[0]


def check_P_axioms(inst: GpmsInstance, axioms=P_AXIOMS, seed: int = 0,
                   n_samples: int = 1000, exhaustive: bool = False) -> list:
    """Check each of ``axioms`` in order, one ``CheckReport`` each.

    P1, P2, P4, P5 and monotone are decided for all t > 0, on every family
    and under every op, from the formulas or the validated step tables; of
    the axioms only P3 reads the operation.  P3 is decided the same way for
    a formula family under plus or max (``_check_P3_exact``); otherwise it
    samples seeded trials over the quantifier points and the t grid
    (``p3_violations``), and ``seed``, ``n_samples`` and ``exhaustive`` apply
    there only.  ``exhaustive=True`` takes every trial (used to validate the
    sampler on small carriers).
    """
    for axiom in axioms:
        if axiom not in P_AXIOMS:
            raise DomainError(f"unknown axiom {axiom!r}; expected one of {P_AXIOMS}")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    return [_check_axiom(inst, axiom, seed, n_samples, exhaustive) for axiom in axioms]


_CLAIMS = {"P1": "P(a,b,t) = 0 iff a = b", "P2": "P(a,b,t) = P(b,a,t)",
           "monotone": "non-increasing in t"}

# why a claim holds of step tables that construction accepted
_STEP_REASONS = {"P2": "each pair's table is filled in both orders",
                 "monotone": "construction refuses a rising table"}


def _check_axiom(inst, axiom, seed, n_samples, exhaustive):
    """One axiom's report; P2, monotone and P1 of a formula family pass and read no P."""
    if axiom == "P3":
        if inst._steps is None and inst.op.kind in ("plus", "max"):
            return _check_P3_exact(inst)
        return _check_P3_sampled(inst, seed, n_samples, exhaustive)
    if axiom == "P4":
        return _check_P4(inst)
    if axiom == "P5":
        return _check_P5(inst)
    if axiom == "P1" and inst._steps is not None:
        return _check_P1_steps(inst)
    source = f"{inst.family} family" if inst._steps is None else \
        f"step tables ({_STEP_REASONS[axiom]})"
    return CheckReport(name=axiom, verdict=PASS,
                       note=f"{source}: {_CLAIMS[axiom]} for all t > 0, exact; no grid scan")


def _check_P3_sampled(inst, seed, n_samples, exhaustive):
    witnesses, samples = p3_violations(inst, seed=seed, n_samples=n_samples, exhaustive=exhaustive)
    note = ("counterexample found" if witnesses else "no counterexample at this resolution") + \
        ("; exhaustive scan" if exhaustive else f"; {samples} seeded samples")
    if inst.carrier.kind != "finite":
        note += (f"; interval carrier quantified over {len(inst.quantifier_points())} "
                 "sample points")
    return CheckReport(name="P3", verdict=FAIL if witnesses else PASS, samples_tested=samples,
                       note=note, witnesses=witnesses)


def _check_P1_steps(inst):
    """P1 of a step table: P(a,b,.) falls from the table's first value (value
    column 0), so a distinct pair is 0 for all t > 0 iff that value is 0.
    The diagonal is 0 by construction.  Witnesses list the pairs a < b."""
    vals = inst._steps[1]
    n = inst.carrier.size
    rows = np.argwhere(np.triu(vals[:, :, 0] == 0.0, 1))
    witnesses = ScanWitnesses(inst.carrier.labels, rows, {},
                              "distinct pair with P = 0 for every t > 0")
    return CheckReport(name="P1", verdict=FAIL if witnesses else PASS,
                       samples_tested=n * (n - 1) // 2, witnesses=witnesses,
                       note="step tables: a distinct pair is 0 for all t > 0 iff its first "
                            "table value is 0; all t > 0, exact")


def _check_P5(inst):
    # every formula is continuous in t > 0; a step function is discontinuous
    # wherever its table value drops (at node k, from value column k to k + 1),
    # and the largest drop is reported, the first in (label pair, node) order
    if inst._steps is None:
        return CheckReport(name="P5", verdict=PASS,
                           note=f"{inst.family} family: continuous in t > 0, exact; no grid scan")
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


# sup over t > 0 of P at a distinct pair: its t -> 0+ limit
_P4_SUPS = {"scaled": "+inf", "discrete": "+inf", "constant": "d", "damped": "2d",
            "tabulated": "the first table value"}


def _check_P4(inst):
    """P4 per grid alpha, for all t > 0: a distinct pair fails at alpha iff
    d_alpha = 0 (``ray_start``), i.e. P < alpha for every t > 0.  That is
    never for scaled and discrete, d < alpha for constant, 2d <= alpha for
    damped (the sup 2d is never reached) and a first table value below
    alpha for a step table.  On a finite carrier every pair a < b is read.
    An interval holds distinct points closer than alpha/2 for every alpha,
    so lo and the point alpha/4 above it (or hi) stand for it.  A failing
    pair is shown by P at the smallest grid t: below alpha there, it is
    below alpha on the whole grid (P is non-increasing).  Witnesses list
    alpha outermost, then the pair."""
    alphas = np.asarray(inst.alpha_grid)
    car = inst.carrier
    note = (f"per-alpha reading; a distinct pair fails where d_alpha = 0: the sup of P over "
            f"t > 0, its limit as t -> 0+, is {_P4_SUPS[inst.family]}; all t > 0, exact")
    if car.kind == "interval":
        note += "; an interval holds distinct points closer than alpha/2 for every alpha"
        near = np.minimum(car.lo + alphas / 4, car.hi)
        near = np.where(near > car.lo, near, np.nextafter(car.lo, car.hi))
        pts, samples = (car.lo, *near.tolist()), 0
        u, v = np.zeros((len(alphas), 1), dtype=np.intp), np.arange(1, len(pts))[:, None]
    else:
        pts = car.points()
        u, v = np.triu_indices(car.size, 1)
        samples = len(alphas) * len(u)
    c = coords(inst, pts)
    hit = ray_start(inst, c[u], c[v], alphas[:, None]) == 0.0  # (alpha, pair)
    a, k = np.nonzero(hit)
    if not a.size:
        return CheckReport(name="P4", verdict=PASS, samples_tested=samples, note=note)
    i, j = (np.broadcast_to(w, hit.shape)[a, k] for w in (u, v))
    rows = np.stack((a, i, j), axis=1)
    t0 = inst.t_grid[0]
    value = P_at(inst, c[i], c[j], t0)
    shown = value < alphas[a]
    witnesses = ScanWitnesses(pts, rows[shown, 1:],
                              {"alpha": alphas[a[shown]], "t": np.full(shown.sum(), t0),
                               "value": value[shown]},
                              "distinct pair below alpha for every t > 0")
    lost = [(pts[x], pts[y], f"alpha={alphas[b]:.12g}") for b, x, y in rows[~shown][:1].tolist()]
    return _exact_report("P4", witnesses, int((~shown).sum()), lost, samples, note)


# -- exact P3: the formula families under plus or max ----------------------

# P3 over all s, t > 0 reduces to one condition on d(a,b), d(a,x), d(b,x) per
# family and op; discrete P3 holds on every triple.  Necessity: constant and
# damped fail as s, t grow unless the condition holds, scaled/max fails at
# (s, t) = (d(a,x), d(b,x)) and scaled/plus at (sqrt d(a,x), sqrt d(b,x)),
# which are the witnesses' times below
_P3_RULES = {("scaled", "max"): "triangle", ("constant", "plus"): "triangle",
             ("damped", "plus"): "triangle", ("scaled", "plus"): "sqrt",
             ("constant", "max"): "ultrametric", ("damped", "max"): "ultrametric"}
_P3_CONDITIONS = {"triangle": "d(a,b) <= d(a,x) + d(b,x)",
                  "sqrt": "d(a,b) <= (sqrt d(a,x) + sqrt d(b,x))^2",
                  "ultrametric": "d(a,b) <= max(d(a,x), d(b,x))"}

_FLAT_T = 40.0  # 1 + exp(-t) rounds to 1 here: damped P reads d, as constant P does


def _check_P3_exact(inst):
    """P3 from its reduction: on a finite carrier one witness per failing pair
    (a, b), a before b, with the first failing x (``_p3_exact_rows``); on an
    interval |x - y| is a metric and no ultrametric, which fixes the verdict."""
    op = inst.op.kind
    rule = _P3_RULES.get((inst.family, op))
    if rule is None:
        return CheckReport(name="P3", verdict=PASS,
                           note=f"discrete/{op}: c/(s+t) <= c/s o c/t and P(a,a,.) = 0, so P3 "
                                f"holds on every triple; all t > 0, exact; no grid scan")
    note = (f"{inst.family}/{op}: P3 holds for all s, t > 0 iff {_P3_CONDITIONS[rule]} on "
            f"every triple; all t > 0, exact")
    car = inst.carrier
    if car.kind == "interval":
        if rule != "ultrametric":
            return CheckReport(name="P3", verdict=PASS,
                               note=note + "; |x - y| on an interval meets it; no grid scan")
        note += "; |x - y| on an interval is no ultrametric, so its ends and middle fail"
        pts, rows, samples = (car.lo, car.hi, 0.5 * (car.lo + car.hi)), np.array([[0, 1, 2]]), 0
    else:
        # the square-root bound squares its terms, so it reads the float table
        table = car.d if rule == "sqrt" else car._scan
        pts, rows, samples = car.points(), _p3_exact_rows(table, rule), car.size ** 3
        if not len(rows):
            return CheckReport(name="P3", verdict=PASS, samples_tested=samples, note=note)
    c = coords(inst, pts)
    a, b, x = c[rows[:, 0]], c[rows[:, 1]], c[rows[:, 2]]
    dax, dbx = _distance(inst, a, x), _distance(inst, b, x)
    if inst.family != "scaled":
        s = t = np.full(len(rows), _FLAT_T)
    else:
        s, t = (dax, dbx) if op == "max" else (np.sqrt(dax), np.sqrt(dbx))
    lhs = P_at(inst, a, b, s + t)
    rhs = eval_op_array(inst.op, P_at(inst, a, x, s), P_at(inst, b, x, t))
    shown = lhs > rhs
    witnesses = ScanWitnesses(pts, rows[shown], {"s": s[shown], "t": t[shown], "lhs": lhs[shown],
                                                 "rhs": rhs[shown]},
                              "P(a,b,s+t) > P(a,x,s) o P(b,x,t)")
    lost = [tuple(pts[k] for k in row) for row in rows[~shown][:1].tolist()]
    return _exact_report("P3", witnesses, int((~shown).sum()), lost, samples, note)


def _exact_report(name, witnesses, n_lost, lost, samples, note):
    """``fail`` with the witnesses that reproduce in floats, ``inconclusive``
    when no exact violation has one (``lost`` holds the first one's
    points), else ``pass``."""
    if n_lost:
        note += (f"; {n_lost} exact violations have no float witness, the first at "
                 f"({', '.join(map(str, lost[0]))})")
    verdict = FAIL if witnesses else INCONCLUSIVE if n_lost else PASS
    return CheckReport(name=name, verdict=verdict, samples_tested=samples, note=note,
                       witnesses=witnesses)


def _p3_exact_rows(d, rule):
    """(a, b, x) index rows into a finite carrier's table ``d``, or its
    ``_scan_table``, one per pair a < b that breaks ``rule`` at some x, with
    the first such x, in (a, b) order.  The rows of a are scanned in blocks of
    about ``_P3_BLOCK`` bytes, each at the b from the block's first row on."""
    n = len(d)
    # integers up to 2^24: sums, squares and products are exact in floats
    integral = d.dtype.kind == "i" or (bool(np.all(d == np.floor(d))) and d.max() <= 2.0 ** 24)
    step = max(1, _P3_BLOCK // (n * n * d.itemsize))
    found = [np.empty((0, 3), dtype=np.intp)]
    for lo in range(0, n, step):
        a = np.arange(lo, min(n, lo + step))
        rows = d[lo:lo + step]
        later = (a[:, None] < np.arange(lo, n))[:, :, None]  # b after a
        bad = later & ~_p3_holds(rule, rows[:, lo:, None], rows[:, None, :], d[None, lo:],
                                 integral, later)
        ia, b = np.nonzero(bad.any(axis=-1))
        found.append(np.stack((a[ia], b + lo, bad[ia, b].argmax(axis=-1)), axis=1))
    return np.concatenate(found)


def _p3_holds(rule, dab, dax, dbx, integral, wanted):
    """``rule`` at the broadcast distances, decided exactly on these floats.

    Max is exact.  The triangle bound is the rounded sum s = dax + dbx plus
    its rounding error e, itself a float (TwoSum): s decides every dab but a
    tie dab == s, which holds iff e >= 0.  On an ``integral`` table sums,
    squares and products are exact, so s and the square-root bound need
    nothing more; otherwise a float pass decides the square-root bound, and
    ``Fraction`` its near-ties.  Ties and near-ties are settled among the
    ``wanted`` entries only; the others keep the float answer."""
    if rule == "ultrametric":
        return dab <= np.maximum(dax, dbx)
    if rule == "triangle":
        with np.errstate(over="ignore"):  # a sum that overflows to inf holds
            s = dax + dbx
        holds = dab <= s
        if not integral:
            tie = (dab == s) & wanted
            u, v, s = (np.broadcast_to(m, tie.shape)[tie] for m in (dax, dbx, s))
            z = s - u
            holds[tie] = (u - (s - z)) + (v - z) >= 0
        return holds
    if integral:
        q = dab - dax - dbx
        return (q <= 0) | (q * q <= 4.0 * dax * dbx)
    with np.errstate(over="ignore"):  # a bound that overflows to inf holds
        rhs = (np.sqrt(dax) + np.sqrt(dbx)) ** 2
    zero = (dax == 0) | (dbx == 0)  # then the condition is dab <= the other, exact
    holds = np.where(zero, dab <= dax + dbx, dab <= rhs)
    # rounding moves the bound by a few ulps: only a dab this close can be misjudged
    near = wanted & ~zero & ((np.abs(dab - rhs) <= 2.0 ** -40 * rhs) | (rhs < 2.0 ** -900))
    if near.any():
        dab, dax, dbx = np.broadcast_arrays(dab, dax, dbx)
        for k in zip(*np.nonzero(near)):
            holds[k] = _sqrt_bound_holds(dab[k], dax[k], dbx[k])
    return holds


def _sqrt_bound_holds(dab, dax, dbx) -> bool:
    """d(a,b) <= (sqrt d(a,x) + sqrt d(b,x))^2 at one triple of float
    distances, in rational arithmetic."""
    dab, dax, dbx = Fraction(float(dab)), Fraction(float(dax)), Fraction(float(dbx))
    q = dab - dax - dbx
    return q <= 0 or q * q <= 4 * dax * dbx


def p3_violations(inst: GpmsInstance, seed: int = 0, n_samples: int = 1000,
                  exhaustive: bool = False):
    """Witnesses for P3 violations (a ``ScanWitnesses``), sampled or exhaustive.

    Sampled trial r reads the 32-bit words 5r .. 5r+4 of one
    ``random.Random(seed).randbytes`` block as (a, b, x, s, t); a word w
    picks index (w * m) >> 32 of a range of m (multiply-shift, no
    rejection), so identical seeds give identical reports.  The exhaustive
    scan takes every trial in nested-loop order.  The points are mapped to
    kernel coordinates once; the trials are evaluated together, with three
    kernel gathers at the drawn indices and one ``eval_op_array``.
    """
    pts = inst.quantifier_points()
    tg = inst.t_grid
    shape = (len(pts),) * 3 + (len(tg),) * 2
    if exhaustive:
        a, b, x, s, t = np.indices(shape).reshape(5, -1)
    else:
        words = np.frombuffer(random.Random(seed).randbytes(20 * n_samples), "<u4")
        a, b, x, s, t = ((words.reshape(-1, 5).astype(np.uint64) * np.array(shape, np.uint64))
                         >> np.uint64(32)).astype(np.intp).T
    c, T = coords(inst, pts), np.asarray(tg)
    lhs = P_at(inst, c[a], c[b], T[s] + T[t])
    left, right = P_at(inst, c[a], c[x], T[s]), P_at(inst, c[b], c[x], T[t])
    rhs = eval_op_array(inst.op, left, right)
    hit = np.flatnonzero(lhs > rhs)
    witnesses = ScanWitnesses(pts, np.stack((a[hit], b[hit], x[hit]), axis=1),
                              {"s": T[s[hit]], "t": T[t[hit]], "lhs": lhs[hit], "rhs": rhs[hit]},
                              "P(a,b,s+t) > P(a,x,s) o P(b,x,t)")
    return witnesses, lhs.size


def p4_violations(inst: GpmsInstance, alpha: float):
    """Distinct pairs below ``alpha`` at the smallest grid t, hence on the
    whole t grid (P is non-increasing): the grid reading of per-alpha P4."""
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    pts = inst.quantifier_points()
    c = coords(inst, pts)
    below = np.triu(P_at(inst, c[:, None], c, inst.t_grid[0]) < alpha, 1)
    return [(pts[i], pts[j]) for i, j in np.argwhere(below)]

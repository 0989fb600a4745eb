"""Constructive separation witnesses (T0, T1, T2, regular, normal) and
countable bases on finite carriers.

``separation_battery`` is the battery of the ``separation`` command: every
kind on single points, then every local base and the global one.

Every kind is one construction.  Its preconditions give two center sets X
and Y: the two points for T0/T1/T2, the outside point and the closed set for
regular, the two closed sets for normal.  t0 is the smallest grid t where
alpha0 = min P(x, y, t0) over X x Y is positive.  U holds the balls at X and
V the balls at Y (T0 builds no V): radius alpha0 at scale t0 for T0/T1, and
radius alpha1 = sub_idempotent(alpha0) at scale t0/2 for T2, regular and
normal.

``witness_batches`` builds and verifies the witnesses of several kinds,
each a list of rows picked from one table of center-set pairs held as
boolean masks over point indices.  t0 and alpha0 are found once over every
row of the table (``_alpha0_stage``): a masked minimum over the cross pairs
of each row of P over (t, x, y) at the t grid (``core.grid_P``).
The kinds of one radius rule then share one construction over every row
of the table, which each kind's rows index: T0 and T1 one at alpha0 and
t0, and T2, regular and normal one at alpha1 and t0/2 (in the battery, a
T2 row on the pair (a, b) is also the normal row ({a}, {b}) and the
regular row ({b}, a)).  A construction
reads P at the grid t or at half of each grid t, a table of its own
derived once per instance: alpha1 is solved once per distinct alpha0, the
ball masks U and V are row comparisons of the table, and each claim
``verify_witness`` makes is one boolean column, and so, in the alpha1
construction only, is each closedness precondition.  Only these are per
kind: the columns a kind reads and the order of a row's error, which is a
set that is not closed, then the construction step that fails, then the
first claim that fails, each as the exception ``separation_witness``
raises.  A ``WitnessBatch`` is a view of its construction: its kind, its
rows in the table, their errors and their shapes.
``separation_witness`` is a batch of one row; ``verify_witness``
re-checks a witness ball by ball and stays the independent oracle.  The
battery's rows are views of their batches (``WitnessRow``: batch, row and
check name), and no row builds a report: a witness that holds passes and a
row with an error is inconclusive.  ``WitnessRow`` is the one
``reports.Templated`` type: ``reports.canonical_json`` writes the rows a
column at a time, a group per batch and shape, whose columns of values the
batch gives (``WitnessBatch.columns``), and each shape has one template per
call.  ``WitnessBatch.report`` builds one row's ``CheckReport`` on demand
from the same columns, with the row's check name and its balls as plain
dicts, no ``BallSpec`` per ball.

Countable bases read the classes of tau_P, a partition topology
(``balls``): every open set around a point y holds its class C(y), so a
base question about all open sets around y is decided by C(y) alone,
and the 2^k open sets, 2^(k-1) of them around each point, are counted, not
listed.  The base balls B(x, 1/k, 1/k) for k = 1..64 are read once per
instance, in chunks of centers within ``_BASE_BUDGET`` entries, and one pass
over them and the classes (``_base_pass``) gives
each point's isolating depth and the first depth at which a base ball
inside its class holds it: its own ball, for a local base, and any point's,
for the global one.  Every local and global report reads that pass: the
battery's n + 1 base checks are the plain ``CheckReport``s of one
``base_batch`` call, and ``countable_base`` reports one of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

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
from .core import GpmsInstance, P_at, derive, eval_P, grid_P
from .errors import DomainError, GpmsError, PreconditionError, WitnessNotFoundError
from .reports import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckReport,
    Templated,
    Witness,
    not_certifiable,
)

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


# the claims verify_witness makes for each kind, in order: the column of
# ``_Construction.held`` that decides each and the detail it reports when it
# fails (``verify_witness`` spells its own out, as the oracle)
_CLAIMS = {
    "T0": (("X in U", "a not inside U"), ("Y outside U", "b not excluded from U"),
           ("alpha0", "alpha0 does not match P(a,b,t0)")),
    "T1": (("X in U", "a not inside U"), ("Y outside U", "b not excluded from U"),
           ("Y in V", "b not inside V"), ("X outside V", "a not excluded from V")),
    "T2": (("X in U", "a not inside U"), ("Y in V", "b not inside V"),
           ("U, V apart", "U and V overlap"),
           ("chain", "inequality chain alpha1 o alpha1 < alpha0 = P(a,b,t0) fails")),
    "regular": (("X in U", "x not inside U"), ("Y in V", "closed set not covered by V"),
                ("U, V apart", "U and V overlap"),
                ("chain", "inequality chain fails against the set separation value")),
    "normal": (("X in U", "first closed set not covered by U"),
               ("Y in V", "second closed set not covered by V"), ("U, V apart", "U and V overlap"),
               ("chain", "inequality chain fails against the set separation value")),
}
# the kinds whose balls have radius alpha1 at scale t0 / 2; T0 and T1 build
# theirs at radius alpha0 and scale t0
_HALVED = ("T2", "regular", "normal")
# the sets a kind needs closed, by their column of ``_Construction.held`` and
# the argument name their error gives
_CLOSED = {"regular": (("Y closed", "subset"),),
           "normal": (("X closed", "subset"), ("Y closed", "subset_b"))}

_BASE_DEPTH = 64  # the deepest base ball B(x, 1/k, 1/k) that isolating depths try
# the most entries a chunk of a base pass holds, and the most (depth, n, n)
# entries a pass deeper than _BASE_DEPTH may hold in all
_BASE_BUDGET = 1 << 22


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
    """(full, half): P over (t, x, y) at every grid t (``core.grid_P``) and at
    half of it, one kernel tensor per instance.  A half t that is not
    positive (half of the smallest subnormal) has no entries: they are NaN."""
    def build():
        c = np.arange(inst.carrier.size)
        ts = np.asarray(inst.t_grid) / 2
        half = np.full((ts.size,) + (c.size,) * 2, np.nan)
        with np.errstate(over="ignore"):  # an overflow is +inf, inside no ball
            half[ts > 0] = P_at(inst, c[:, None], c, ts[ts > 0][:, None, None])
        return half

    return grid_P(inst), derive(inst, "half_P", build)


def _members(masks):
    """Per row of a (rows, n) bool matrix, the list of its true column indices."""
    out = [[] for _ in range(len(masks))]
    rows, cols = np.nonzero(masks)
    for r, i in zip(rows.tolist(), cols.tolist()):
        out[r].append(i)
    return out


@dataclass
class _Alpha0:
    """The stage both radius rules share, over rows of center sets X and Y:
    each row's members, its t0 (at grid index ``k0``) and alpha0, and its
    error when no grid t gives a positive separation value (then t0 and
    alpha0 are not read)."""

    labels: tuple
    xs: np.ndarray   # (rows, n) bool: X ...
    ys: np.ndarray   # ... and Y
    x_members: list  # per row, the point indices in X ...
    y_members: list  # ... and in Y
    k0: np.ndarray
    t0: np.ndarray
    alpha0: np.ndarray
    errors: list


def _alpha0_stage(inst, xs, ys) -> _Alpha0:
    """t0, the least grid t at which alpha0 = min P over X x Y is positive,
    and alpha0, for each row of the (rows, n) bool masks ``xs`` and ``ys``:
    one masked minimum over the cross pairs of every row."""
    x_members, y_members = _members(xs), _members(ys)
    rows = np.arange(len(xs))
    errors = [None] * rows.size
    full = grid_P(inst)
    cross = np.array([(r, x, y) for r, (xm, ym) in enumerate(zip(x_members, y_members))
                      for x in xm for y in ym], dtype=np.intp).reshape(-1, 3).T
    mins = np.full((rows.size, len(full)), np.inf)  # [r, k]: min P over X x Y at t k
    np.minimum.at(mins, cross[0], full[:, cross[1], cross[2]].T)
    positive = mins > 0
    _fail(errors, ~positive.any(-1),
          WitnessNotFoundError("no grid t gives a positive separating value"))
    k0 = positive.argmax(-1)
    return _Alpha0(inst.carrier.labels, xs, ys, x_members, y_members, k0,
                   np.asarray(inst.t_grid)[k0], mins[rows, k0], errors)


@dataclass
class _Construction:
    """The balls of one radius rule over every row of its stage's center
    sets X and Y (see ``_construct``).  A row's values are read only when
    its ``errors`` entry is None."""

    stage: _Alpha0
    alpha1: list     # None under the alpha0 rule
    radius: list
    scale: list
    u: np.ndarray    # (rows, n) bool: the balls at X ...
    v: np.ndarray    # ... and at Y
    held: dict       # per name, a bool per row: a closedness precondition or a claim
    errors: list     # per row, the first construction step that fails, or None


_ROW, _NAME = attrgetter("row"), attrgetter("name")


@dataclass(eq=False)
class WitnessBatch:
    """The witnesses of one kind, a view of the construction they share: row
    r is row ``rows[r]`` of ``construction``, whose values are read only
    when ``errors[r]`` is None.  A row's shape is (|U|, |V|), or None when
    it has an error."""

    kind: str
    construction: _Construction
    rows: list          # per row, its row in the construction
    errors: list        # per row, the error its witness raises, or None
    shapes: list = field(init=False, repr=False)

    def __post_init__(self):
        stage = self.construction.stage
        sizes = ((len(stage.x_members[r]), len(stage.y_members[r])) for r in self.rows)
        if self.kind == "T0":  # T0 builds no V
            sizes = ((nx, 0) for nx, _ in sizes)
        self.shapes = list(sizes)
        if any(self.errors):
            self.shapes = [None if e is not None else s for e, s in zip(self.errors, self.shapes)]

    def report(self, r, name: str | None = None) -> CheckReport:
        """Row ``r``'s verification report, named ``name`` (by default
        ``witness[<kind>]``); raises the row's error instead.  Its balls are
        written as the plain dicts ``BallSpec.to_jsonable`` gives."""
        error = self.errors[r]
        if error is not None:  # a fresh one: a raised error's frames would hold the batch
            raise type(error)(*error.args)
        row = WitnessRow(self, r, name or f"witness[{self.kind}]")
        return _row_report(self.shapes[r], [c[0] for c in self.columns([row])])

    def columns(self, rows):
        """The columns of ``rows``, ``WitnessRow``s of this batch of one
        shape: a refused row's name and note, or a witness's name, samples,
        radius, scale and the centers of U, then of V."""
        shape = self.shapes[rows[0].row]
        names = list(map(_NAME, rows))
        if shape is None:
            errors = list(map(self.errors.__getitem__, map(_ROW, rows)))
            notes = {id(e): e for e in errors}
            notes = {key: not_certifiable(e) for key, e in notes.items()}
            return [names, list(map(notes.__getitem__, map(id, errors)))]
        con = self.construction
        stage = con.stage
        at = list(map(self.rows.__getitem__, map(_ROW, rows)))
        labels = stage.labels
        columns = [names, [len(_CLAIMS[self.kind])] * len(at),
                   list(map(con.radius.__getitem__, at)), list(map(con.scale.__getitem__, at))]
        for members, size in zip((stage.x_members, stage.y_members), shape):
            columns += [[labels[members[i][j]] for i in at] for j in range(size)]
        return columns


def _row_report(shape, values) -> CheckReport:
    """The report of a witness row of ``shape`` from its values (``WitnessBatch.columns``)."""
    name, samples, radius, scale, *centers = values
    balls = [{"center": c, "radius": radius, "scale": scale} for c in centers]
    return CheckReport(name=name, verdict=PASS, samples_tested=samples,
                       data={"U": balls[:shape[0]], "V": balls[shape[0]:]})


class WitnessRow(Templated):
    """Row ``row`` of a ``WitnessBatch`` as the check ``name``, a view that
    builds no report: a witness that holds passes, and a row with an error
    is inconclusive, its note naming the error.  ``reports.canonical_json``
    writes a list of rows a column at a time, one group per batch and shape
    (``WitnessBatch.columns``); ``data`` and ``to_jsonable`` build the row's
    report tree on demand, a witness's from the values
    ``WitnessBatch.report`` reads."""

    __slots__ = ("batch", "row", "name")
    witness, witnesses = None, ()
    failed = False

    def __init__(self, batch: WitnessBatch, row: int, name: str):
        self.batch, self.row, self.name = batch, row, name

    @staticmethod
    def json_columns(rows):
        groups = {}  # per (batch, shape), the positions of its rows
        for p, row in enumerate(rows):
            batch = row.batch
            groups.setdefault((batch, batch.shapes[row.row]), []).append(p)
        return [(shape, at, batch.columns(list(map(rows.__getitem__, at))))
                for (batch, shape), at in groups.items()]

    @property
    def data(self) -> dict:
        return self.to_jsonable()["data"]

    @property
    def ok(self) -> bool:
        return self.batch.errors[self.row] is None

    @property
    def verdict(self) -> str:
        return PASS if self.ok else INCONCLUSIVE

    @property
    def note(self) -> str:
        return "" if self.ok else not_certifiable(self.batch.errors[self.row])

    @property
    def samples_tested(self) -> int:
        return len(_CLAIMS[self.batch.kind]) if self.ok else 0

    @staticmethod
    def json_tree(shape, values):
        if shape is None:
            return CheckReport(name=values[0], verdict=INCONCLUSIVE, note=values[1]).to_jsonable()
        return _row_report(shape, values).to_jsonable()


def _fail(errors, which, error):
    """Give ``error`` to each row flagged in ``which`` that has no error yet."""
    for r in np.flatnonzero(which).tolist():
        if errors[r] is None:
            errors[r] = error


def _construct(inst, stage: _Alpha0, halved) -> _Construction:
    """Build the balls at the centers of every row of ``stage``: radius
    alpha0 at scale t0, or radius alpha1 at t0 / 2 when ``halved``, and test
    every claim of every kind of the rule on them, and under the halved rule
    the closedness preconditions.  A row keeps, as its error, the exception
    of the first construction step that fails: no grid t with a positive
    separation value, no alpha1 for its alpha0, or a ball that ``open_ball``
    refuses."""
    xs, ys, k0, t0, alpha0 = stage.xs, stage.ys, stage.k0, stage.t0, stage.alpha0
    errors = list(stage.errors)
    rows = np.arange(len(errors))
    full, half = _tables(inst)
    # alpha0 is the separation value at t0 (P(a, b, t0) for two points, the
    # minimum over X x Y for sets), so T0's last claim holds by construction
    # and the chain reduces to alpha1 o alpha1 < alpha0
    built = np.ones(rows.size, dtype=bool)

    if not halved:
        alpha1, radius, scale, table = [None] * rows.size, alpha0, t0, full
        chain_ok = built
    else:
        solved = {}  # alpha0 -> (alpha1, alpha1 o alpha1 < alpha0)
        for a0 in dict.fromkeys(alpha0[[e is None for e in errors]].tolist()):
            try:
                a1 = sub_idempotent(inst.op, a0)
                solved[a0] = (a1, eval_op(inst.op, a1, a1) < a0)
            except GpmsError as exc:  # kept without its frames, which hold ``errors``
                _fail(errors, alpha0 == a0, exc.with_traceback(None))
        per_row = [(None, False) if e is not None else solved[a0]
                   for e, a0 in zip(errors, alpha0.tolist())]
        alpha1 = [a1 for a1, _ in per_row]
        chain_ok = np.array([ok for _, ok in per_row], dtype=bool)
        radius = np.array([np.nan if a1 is None else a1 for a1 in alpha1])
        scale, table = t0 / 2, half
    for r in np.flatnonzero(~((radius > 0) & (scale > 0))).tolist():
        if errors[r] is None:  # open_ball refuses the ball: raise its error
            try:
                _mask_of(inst, [BallSpec(stage.labels[stage.x_members[r][0]], float(radius[r]),
                                         float(scale[r]))])
            except GpmsError as exc:
                errors[r] = exc.with_traceback(None)

    def balls_around(masks):  # [r, y]: y lies in a ball at a point of the row
        r, centers = np.nonzero(masks)
        out = np.zeros(masks.shape, dtype=bool)
        np.logical_or.at(out, r, table[k0[r], centers] < radius[r, None])
        return out

    def within(a, b):
        return ~(a & ~b).any(-1)

    def apart(a, b):
        return ~(a & b).any(-1)

    u, v = balls_around(xs), balls_around(ys)
    held = {"X in U": within(xs, u), "Y outside U": apart(ys, u), "Y in V": within(ys, v),
            "X outside V": apart(xs, v), "U, V apart": apart(u, v), "chain": chain_ok,
            "alpha0": built}
    if halved:  # only regular and normal need closed sets
        held["X closed"] = _unions_of_classes(inst, xs)
        held["Y closed"] = _unions_of_classes(inst, ys)
    return _Construction(stage, alpha1, radius.tolist(), scale.tolist(), u, v, held, errors)


def _kind_batch(kind, con, idx) -> WitnessBatch:
    """The witnesses of ``kind`` on rows ``idx`` of ``con``.  A row's error
    is, first, a set that is not closed, then its construction's error, then
    the first claim it fails."""
    at = idx.tolist()
    errors = [None] * len(at)
    for column, name in _CLOSED.get(kind, ()):
        _fail(errors, ~con.held[column][idx], _not_closed(name))
    errors = [e or con.errors[i] for e, i in zip(errors, at)]
    claims = _CLAIMS[kind]
    held = np.stack([con.held[column] for column, _ in claims], axis=-1)[idx]
    for r in np.flatnonzero(~held.all(-1)).tolist():
        if errors[r] is None:
            errors[r] = WitnessNotFoundError(f"constructed {kind} witness failed verification: "
                                             f"{claims[int(np.argmin(held[r]))][1]}")
    return WitnessBatch(kind, con, at, errors)


def witness_batches(inst: GpmsInstance, xs, ys, kinds: dict) -> dict:
    """Build and verify the witnesses of several kinds on one table of center
    sets: ``kinds`` maps each kind to the indices of its rows in ``xs`` and
    ``ys``, and the result maps it to its ``WitnessBatch``, one row per index.

    ``xs`` and ``ys`` are (rows, n) bool masks over point indices; each row
    must meet ``separation_witness``'s argument preconditions (distinct
    points, non-empty sets, the point outside the set, disjoint sets).  The
    grid-dependent ones are checked here: a row whose set is not closed, that
    has no grid t with a positive separation value, whose alpha0 has no
    alpha1, whose balls cannot be built or whose witness fails a claim keeps,
    as its error, the exception ``separation_witness`` raises for it.

    t0 and alpha0 are found once over every row of the table
    (``_alpha0_stage``).  The kinds of one radius rule share one construction
    over every row of the table, picked or not, which each kind's batch
    indexes by table row: T0 and T1 build balls of radius alpha0 at t0, and
    T2, regular and normal of radius alpha1 at t0 / 2.  Only these are per
    kind: the claims and closedness preconditions (regular, normal) a kind
    reads, and the order of a row's errors.
    """
    for kind in kinds:
        if kind not in KINDS:
            raise DomainError(f"unknown separation kind {kind!r}; expected one of {KINDS}")
    xs, ys = np.asarray(xs, dtype=bool), np.asarray(ys, dtype=bool)
    kinds = {kind: np.asarray(idx, dtype=np.intp) for kind, idx in kinds.items()}
    stage = _alpha0_stage(inst, xs, ys)
    constructions = {halved: _construct(inst, stage, halved)
                     for halved in {kind in _HALVED for kind in kinds}}
    return {kind: _kind_batch(kind, constructions[kind in _HALVED], idx)
            for kind, idx in kinds.items()}


def separation_witness(inst: GpmsInstance, kind: str, a=None, b=None,
                       subset: SubsetMask | None = None,
                       subset_b: SubsetMask | None = None) -> SeparationWitness:
    """Build a verified witness following the standard ball constructions.

    T0/T1/T2 take two distinct points ``a`` and ``b``; regular takes a
    closed ``subset`` and a point ``a`` outside it; normal takes two
    disjoint closed sets ``subset`` and ``subset_b``.  The witness is a
    ``witness_batches`` row of one kind.
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
    batch = witness_batches(inst, *centers, {kind: [0]})[kind]
    report = batch.report(0)
    con = batch.construction  # of this one row
    stage = con.stage
    w = SeparationWitness(kind, float(stage.t0[0]), float(stage.alpha0[0]), con.alpha1[0],
                          *(tuple(BallSpec(**ball) for ball in report.data[s]) for s in "UV"),
                          a=a if kind != "normal" else None, b=b if points else None,
                          set_a=None if points else subset,
                          set_b=subset_b if kind == "normal" else None)
    # T0 builds no V
    w.u_mask, w.v_mask = _mask_of_flags(con.u[0]), _mask_of_flags(con.v[0] & (kind != "T0"))
    w.report = report
    return w


def verify_witness(inst: GpmsInstance, w: SeparationWitness) -> CheckReport:
    """Re-evaluate every claim a witness makes: ball memberships,
    disjointness or exclusion, and the inequality chain alpha1 o alpha1 < alpha0.

    Each ball is built on its own (``open_ball``), so this is an independent
    re-check of ``witness_batches``."""
    if inst.carrier.kind != "finite":
        raise DomainError("separation witnesses need a finite carrier")
    car = inst.carrier
    for spec in list(w.balls_u) + list(w.balls_v):
        car.index(spec.center)  # raises DomainError for foreign points
    if w.a is not None:
        car.index(w.a)
    if w.b is not None:
        car.index(w.b)
    u, v = _mask_of(inst, w.balls_u), _mask_of(inst, w.balls_v)
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


def _base_pass(inst, depth=_BASE_DEPTH):
    """(isolating, own, some): per point y, the first k <= 64 whose base ball
    B(y, 1/k, 1/k) holds only y (else 64), and the least k - 1 < ``depth`` at
    which y's own base ball (``own``), or some point's base ball that holds y
    (``some``), lies inside one class, which is then C(y) (else ``depth``).

    The base balls for k = 1 up to ``depth`` are read in chunks of centers,
    so that no kernel tensor holds more than ``_BASE_BUDGET`` entries (one
    center at least), with one pass over each chunk and the classes: kept
    per instance for the 64 depths that isolating depths try, and made
    afresh for a deeper one.
    """
    def build(depth):
        n = inst.carrier.size
        c = np.arange(n)
        r = (1.0 / np.arange(1, depth + 1))[:, None, None]
        classes = _classes(inst)
        alone, own, some = [], [], np.zeros((depth, n), dtype=bool)
        step = max(1, _BASE_BUDGET // (depth * n))
        for lo in range(0, n, step):
            p = c[lo:lo + step]
            with np.errstate(over="ignore"):  # an overflow is +inf, inside no ball
                balls = P_at(inst, p[:, None], c, r) < r  # [k, p, y]: y in B(p, 1/k, 1/k)
            alone.append(balls[:_BASE_DEPTH].sum(-1) == 1)
            # a base ball meets no other class than its center's
            one_class = (np.where(balls, classes, n).min(-1) ==
                         np.where(balls, classes, -1).max(-1))
            fits = balls & one_class[..., None]
            own.append(fits[:, np.arange(p.size), p])  # [k, p]: p's own ball
            some |= fits.any(1)
        alone = np.concatenate(alone, 1)
        isolating = np.where(alone.any(0), alone.argmax(0) + 1, _BASE_DEPTH)

        def first(f):  # [k, y] -> per y, the least k - 1 where f holds, else depth
            return np.where(f.any(0), f.argmax(0), depth)

        return isolating, first(np.concatenate(own, 1)), first(some)

    if depth > _BASE_DEPTH:
        return build(depth)
    return derive(inst, "base_pass", lambda: build(_BASE_DEPTH))


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
    callers and no longer read.  Every report reads one pass per instance
    over the base balls and the classes (``_base_pass``).
    Returns ``(ball_specs, CheckReport)``; verification failures are
    inconclusive (the base may isolate only at larger n).
    """
    if mode not in ("local", "global"):
        raise DomainError(f"mode must be 'local' or 'global', got {mode!r}")
    _require_finite_base(inst)
    if mode == "local" and x is None:
        raise DomainError("local mode needs a point x")
    car = inst.carrier
    (report,), (depth,) = base_batch(inst, [car.index(x) if mode == "local" else None], n_max)
    centers = [x] if mode == "local" else car.labels
    return [BallSpec(p, 1.0 / k, 1.0 / k) for p in centers for k in range(1, depth + 1)], report


def _require_finite_base(inst):
    if inst.carrier.kind != "finite":
        raise DomainError("countable bases are verified on finite carriers only")


def base_batch(inst: GpmsInstance, points, n_max: int | None = None):
    """The countable-base checks at each of ``points``: a point index
    checks the local base there, None the global base (see
    ``countable_base``).  Returns ``(reports, depths)``: per point, its
    ``CheckReport`` and its deepest base ball n.  Every report reads the one
    ``_base_pass`` of the instance, or one at depth ``n_max`` beyond its 64
    depths.  ``n_max`` is None or an int >= 0, and a depth beyond 64 whose
    pass would hold more than ``_BASE_BUDGET`` (depth, n, n) entries is
    refused before any tensor is built."""
    _require_finite_base(inst)
    car = inst.carrier
    if n_max is not None:
        if type(n_max) is not int:  # type(True) is bool
            raise DomainError(f"n_max must be an int, got {n_max!r}")
        if n_max < 0:
            raise DomainError(f"n_max must be >= 0, got {n_max}")
        if n_max > _BASE_DEPTH and n_max * car.size ** 2 > _BASE_BUDGET:
            raise DomainError(f"n_max={n_max} needs a base pass of {n_max * car.size ** 2} "
                              f"entries, beyond the budget of {_BASE_BUDGET}")
    classes = _classes(inst)
    class_bits = _class_bits(classes)
    bits = [class_bits[c] for c in classes.tolist()]  # per point, its class
    opens = 1 << len(class_bits)  # 2^k unions of the k classes
    isolating, own, some = (a.tolist() for a in _base_pass(inst))
    reports, depths = [], []
    for x in points:
        centers = range(car.size) if x is None else (x,)
        depth = n_max if n_max is not None else max(isolating[y] for y in centers)
        if depth > _BASE_DEPTH:
            first = _base_pass(inst, depth)[1 if x is not None else 2].tolist()
        else:
            first = own if x is not None else some
        # y is covered when it lies in some base ball inside its class
        failing = min((bits[y] for y in centers if first[y] >= depth), default=None)
        named = None if failing is None else list(SubsetMask(car.size, failing).labels(car))
        if x is not None:
            # x lies in half of the unions of classes
            name, samples = f"countable_base[local@{car.labels[x]}]", opens // 2
            passed = f"local base verified against {opens} open sets"
            detail = "open set admits no base ball at this depth"
            note = f"no base ball fits inside the open set {named}; try a larger n_max"
        else:
            name, samples = "countable_base[global]", opens
            passed = f"base generates all {opens} open sets"
            detail = "open set is not a union of base members"
            note = f"open set {named} not generated; the dense-set base needs larger n_max"
        if named is None:
            reports.append(CheckReport(name=name, verdict=PASS, samples_tested=samples,
                                       note=passed))
        else:
            witness = Witness(points=tuple(named), values={"n_max": float(depth)}, detail=detail)
            reports.append(CheckReport(name=name, verdict=INCONCLUSIVE, samples_tested=samples,
                                       note=note, witnesses=(witness,)))
        depths.append(depth)
    return reports, depths


def separation_battery(inst: GpmsInstance) -> list:
    """The ``separation`` battery: T0, T1, T2 and normal at every pair of
    points, regular at every point and other point, then the local bases at
    every point and the global one.  Each witness is a ``WitnessRow`` of one
    ``witness_batches`` call over the n(n-1) ordered pairs, and a row that
    cannot be built (say, ``open_ball`` refuses a ball) is inconclusive."""
    labels = inst.carrier.labels
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    outside = [(x, i) for i in range(n) for x in range(n) if x != i]  # point x, closed {i}
    # one row per ordered pair (X, Y) of single points: a T2 row (i, j) is
    # also the normal row ({i}, {j}) and the regular row ({j}, i)
    ordered = {pair: r for r, pair in enumerate(outside)}
    single = np.eye(n, dtype=bool)
    on_pairs = [ordered[pair] for pair in pairs]
    batches = witness_batches(
        inst, single[[x for x, _ in outside]], single[[y for _, y in outside]],
        {**dict.fromkeys(("T0", "T1", "T2", "normal"), on_pairs),
         "regular": range(len(outside))})
    checks = [WitnessRow(batches[kind], r, f"{kind}({labels[i]},{labels[j]})")
              for r, (i, j) in enumerate(pairs) for kind in ("T0", "T1", "T2")]
    checks += [WitnessRow(batches["regular"], r, f"regular({{{labels[i]}}},{labels[x]})")
               for r, (x, i) in enumerate(outside)]
    checks += [WitnessRow(batches["normal"], r, f"normal({{{labels[i]}}},{{{labels[j]}}})")
               for r, (i, j) in enumerate(pairs)]
    return checks + base_batch(inst, [*range(n), None])[0]

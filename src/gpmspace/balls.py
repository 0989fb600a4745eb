"""Open/closed balls, generated topologies, closures on finite carriers.

The topology tau_P admits a subset exactly when every member point has some
grid ball B(a, alpha, t) inside it, with alpha and t drawn from the declared
grids.  At coarse grids the admitted family is a sub-collection of the true
topology, so every report carries the grids it used.

Every gallery family is non-increasing in t (tabulated tables that rise are
rejected at construction), so the least grid ball U_x = B(x, min alpha,
min t) lies inside every other grid ball at x, and S is open exactly when
U_x is inside S for every x in S.  Every gallery P is symmetric, so tau_P is
the partition topology (Alexandroff 1937; Steen and Seebach, "partition
topology") of the k classes of the relation y in U_x: its open sets are the
unions of classes, each also closed, and |tau_P| = 2^k.  ``class_labels``
labels the classes of such a relation in one array routine, and every tau_P
question (open sets, interiors, closures, the ball theorems, separation and
the countable bases) reads those labels, and reports state tau_P by its
classes and 2^k; only ``generate_topology`` lists open sets, for library
callers.  TopologyFamily.verify stays as an O(|F|^2) oracle for tests.
``topology_battery`` is the battery of the ``topology`` command: tau_P by
its classes and 2^k, then the ``ball_open`` and ``closed_ball_closed``
theorems over every grid ball.

Ball membership uses exact float comparison: strict "<" for open balls,
"<=" for closed balls, no epsilon fuzzing.  A ball is one comparison on a
kernel row; all grid balls, open and closed, are one boolean tensor from
``core.grid_P``, P over (t, x, y), which every alpha reads.

The class labels (the slice of ``core.grid_P`` at min t), the grid-ball
tensor and, when asked for, tau_P and each point's deduplicated grid balls
are derived once per instance (``core.derive``) and live as long as the
instance.  Their values are shared, so callers only read them.
"""
from __future__ import annotations

import itertools

import numpy as np

from .binop import eval_op
from .core import GpmsInstance, P_at, derive, grid_P
from .errors import DomainError, PreconditionError, SizeError, VerificationError
from .reports import FAIL, PASS, CheckReport, Witness

# the most classes whose 2^k open sets are listed, whatever max_points allows:
# 2^16 masks of a few bytes each, where 2^48 would not fit in memory
LISTING_BOUND = 16


class SubsetMask:
    """An immutable subset of the finite carrier, stored as a bitmask."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0 or bits < 0 or bits >> n:
            raise DomainError(f"bitmask {bits:#x} does not fit a carrier of size {n}")
        self.n = n
        self.bits = bits

    @classmethod
    def empty(cls, n):
        return cls(n, 0)

    @classmethod
    def full(cls, n):
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_indices(cls, n, indices):
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise DomainError(f"index {i} out of range for carrier of size {n}")
            bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def from_labels(cls, carrier, labels):
        return cls.from_indices(carrier.size, [carrier.index(p) for p in labels])

    def _check(self, other):
        if not isinstance(other, SubsetMask) or other.n != self.n:
            raise DomainError("mask size mismatch")
        return other

    def union(self, other):
        return SubsetMask(self.n, self.bits | self._check(other).bits)

    def intersection(self, other):
        return SubsetMask(self.n, self.bits & self._check(other).bits)

    def difference(self, other):
        return SubsetMask(self.n, self.bits & ~self._check(other).bits)

    def complement(self):
        return SubsetMask(self.n, ~self.bits & ((1 << self.n) - 1))

    def issubset(self, other):
        return (self.bits & ~self._check(other).bits) == 0

    def contains(self, index: int) -> bool:
        return bool((self.bits >> index) & 1)

    def indices(self):
        return [i for i in range(self.n) if (self.bits >> i) & 1]

    def labels(self, carrier):
        return tuple(carrier.labels[i] for i in self.indices())

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def __eq__(self, other):
        return isinstance(other, SubsetMask) and other.n == self.n and other.bits == self.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def __iter__(self):
        return iter(self.indices())

    def __repr__(self):
        return f"SubsetMask(n={self.n}, members={self.indices()})"


class TopologyFamily:
    """A canonically ordered family of subsets claimed to be a topology."""

    def __init__(self, n: int, masks):
        uniq = sorted({m.bits for m in masks})
        self.n = n
        self.members = tuple(SubsetMask(n, b) for b in uniq)
        self._bitset = frozenset(uniq)

    def __contains__(self, mask: SubsetMask) -> bool:
        return mask.bits in self._bitset

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, TopologyFamily) and other.n == self.n
                and other._bitset == self._bitset)

    def __hash__(self):
        return hash((self.n, self._bitset))

    def verify(self):
        """Assert the topology axioms exactly; raise VerificationError otherwise.

        Closure under pairwise union implies closure under arbitrary unions
        for a finite family, so pairwise checks suffice.  The O(|F|^2) pass
        is a test oracle: families built by generate_topology are
        topologies by construction.
        """
        full = (1 << self.n) - 1
        if 0 not in self._bitset or full not in self._bitset:
            raise VerificationError("family misses the empty set or the full carrier")
        bits = sorted(self._bitset)
        for i, x in enumerate(bits):
            for y in bits[i + 1:]:
                if (x | y) not in self._bitset:
                    raise VerificationError(f"family not closed under union: {x:#x} | {y:#x}")
                if (x & y) not in self._bitset:
                    raise VerificationError(f"family not closed under intersection: {x:#x} & {y:#x}")

    def to_jsonable(self, carrier):
        labels = carrier.labels
        return [[lab for i, lab in enumerate(labels) if m.bits >> i & 1] for m in self.members]


def _require_finite(inst: GpmsInstance):
    if inst.carrier.kind != "finite":
        raise DomainError("this operation needs a finite carrier")


def _flag_rows(bits, n: int) -> np.ndarray:
    """A (rows, n) bool matrix, row r the members of the bitmask ``bits[r]``."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bits), np.uint8)
    return np.unpackbits(raw.reshape(-1, width), axis=-1, count=n, bitorder="little").view(bool)


def _mask_of_flags(flags) -> SubsetMask:
    """The subset whose members are the True entries of a 1-D bool array."""
    return SubsetMask(flags.size, int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                                                 "little"))


def open_ball(inst: GpmsInstance, a, alpha: float, t: float) -> SubsetMask:
    """B(a, alpha, t) = { b : P(a,b,t) < alpha }; always contains the center."""
    _require_finite(inst)
    if not alpha > 0:
        raise DomainError(f"open ball radius must be positive, got {alpha}")
    car = inst.carrier  # the center is one point
    return _mask_of_flags(P_at(inst, car.index(a), np.arange(car.size), t) < alpha)


def closed_ball(inst: GpmsInstance, a, alpha: float, t: float) -> SubsetMask:
    """B[a, alpha, t] = { b : P(a,b,t) <= alpha }; radius 0 picks the center set."""
    _require_finite(inst)
    if alpha < 0:
        raise DomainError(f"closed ball radius must be >= 0, got {alpha}")
    car = inst.carrier  # the center is one point
    return _mask_of_flags(P_at(inst, car.index(a), np.arange(car.size), t) <= alpha)


def _grid_balls(inst: GpmsInstance):
    """inside[closed, x, alpha, t, y]: y lies in the open (closed = 0) or
    closed (closed = 1) grid ball at x, alpha, t.  ``core.grid_P`` read as
    (x, t, y) by every alpha, once per instance."""
    def build():
        grid = grid_P(inst).transpose(1, 0, 2)[:, None]
        alphas = np.asarray(inst.alpha_grid)[:, None, None]
        return np.stack([grid < alphas, grid <= alphas])

    return derive(inst, "grid_balls", build)


def _min_P(inst: GpmsInstance, xs, ys, t: float) -> float:
    """min of P(x, y, t) over x in xs and y in ys, two arrays of point indices."""
    return float(P_at(inst, np.asarray(xs)[:, None], ys, t).min())


def grid_ball_masks(inst: GpmsInstance):
    """Per point, the deduplicated open balls over the alpha and t grids.

    Returns a tuple (one entry per carrier point) of tuples of SubsetMask,
    ordered by bitmask, packed from the grid-ball tensor on the first call.
    """
    _require_finite(inst)
    n = inst.carrier.size

    def build():
        packed = np.packbits(_grid_balls(inst)[0], axis=-1, bitorder="little")
        return tuple(tuple(SubsetMask(n, b) for b in sorted(
            {int.from_bytes(row.tobytes(), "little") for row in per.reshape(-1, packed.shape[-1])}))
            for per in packed)

    return derive(inst, "balls", build)


def class_labels(related) -> np.ndarray:
    """Each point's class under a symmetric (n, n) bool relation, labelled
    by the least point index of its class (connected component).  Each step
    takes the least label among a point and its related points, then the
    label of that label, until nothing moves."""
    labels = np.arange(len(related))
    while True:
        step = np.minimum(labels, np.where(related, labels, labels.size).min(-1))
        step = step[step]
        if (step == labels).all():
            return labels
        labels = step


def _classes(inst: GpmsInstance) -> np.ndarray:
    """tau_P's class labels, once per instance: the classes of y in U_x, a
    symmetric relation (every gallery P is symmetric) read off the slice of
    ``core.grid_P`` at min t."""
    _require_finite(inst)

    def build():
        return class_labels(grid_P(inst)[0] < inst.alpha_grid[0])

    return derive(inst, "classes", build)


def _class_bits(labels) -> dict:
    """{least point: bitmask of its class} for a class labelling, ordered by
    the least point."""
    bits = {}
    for i, c in enumerate(labels.tolist()):
        bits[c] = bits.get(c, 0) | 1 << i
    return bits


def tau_p_classes(inst: GpmsInstance) -> tuple:
    """The classes of tau_P as SubsetMasks, ordered by their least point."""
    return tuple(SubsetMask(inst.carrier.size, b) for b in _class_bits(_classes(inst)).values())


def _unions_of_classes(inst: GpmsInstance, flags):
    """Per row of a (rows, n) bool matrix, whether the row is a union of
    classes: an open set of tau_P, and so a closed one too."""
    return (flags == flags[:, _classes(inst)]).all(-1)


def generate_topology(inst: GpmsInstance, max_points: int = 15) -> TopologyFamily:
    """tau_P over the grids: every union of its classes, computed once per
    instance, the one listing of the open sets of a partition topology.
    ``max_points`` and ``LISTING_BOUND`` cap the number k of classes, since
    the family lists 2^k sets."""
    labels = _classes(inst)
    k = len(set(labels.tolist()))  # checked on a memo hit too: max_points may differ
    if k > min(max_points, LISTING_BOUND):
        bound = f"max_points={max_points}" if max_points <= LISTING_BOUND else \
            f"the listing bound of {LISTING_BOUND} classes"
        raise SizeError(f"the open sets of {k} classes exceed {bound}")

    def build():
        n, opens = len(labels), [0]
        for c in _class_bits(labels).values():
            opens += [s | c for s in opens]
        return TopologyFamily(n, [SubsetMask(n, b) for b in opens])

    return derive(inst, "topology", build)


def _classes_and_flags(inst: GpmsInstance, s: SubsetMask):
    """(tau_P's class labels, the members of s as a bool array)."""
    labels = _classes(inst)
    if s.n != labels.size:
        raise DomainError("mask size mismatch")
    return labels, _flag_rows([s.bits], s.n)[0]


def is_open(inst: GpmsInstance, s: SubsetMask) -> bool:
    """True iff every point of s has a grid ball inside s: s is a union of classes."""
    labels, flags = _classes_and_flags(inst, s)
    return bool((flags == flags[labels]).all())


def interior(inst: GpmsInstance, s: SubsetMask) -> SubsetMask:
    """Largest open subset of s: the union of the classes inside s."""
    labels, flags = _classes_and_flags(inst, s)
    return _mask_of_flags(np.bincount(labels, ~flags, minlength=s.n)[labels] == 0)


def closure_and_limit_points(inst: GpmsInstance, s: SubsetMask):
    """(closure, limit points) of s in tau_P.

    Every open set around x holds the class of x, and the class is open.
    So x is a limit point of s (every open set around x meets s minus x)
    iff another point of its class lies in s, and the closure of s is the
    union of the classes that meet s: the complement of the interior of the
    complement of s.
    """
    labels, flags = _classes_and_flags(inst, s)
    hits = np.bincount(labels, flags, minlength=s.n)[labels]  # members of s in the class
    return _mask_of_flags(hits > 0), _mask_of_flags(hits > flags)


THEOREMS = ("ball_open", "closed_ball_closed", "nested_closure", "closed_separation")


def verify_ball_theorem(inst: GpmsInstance, theorem: str, **params) -> CheckReport:
    """Check one ball/closedness statement over the grids.

    ball_open            every grid open ball is open
    closed_ball_closed   every grid closed ball is closed
    nested_closure       the tau_P closure of B(a, beta, t/2) inside B(a, alpha, t),
                         requires beta o beta <= alpha
                         (params: alpha, beta, center=None, scales=None)
    closed_separation    min over a in A of P(x, a, t) > 0 for each grid t
                         (params: subset, point, scales=None)
    """
    _require_finite(inst)
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    needs = {"nested_closure": ("alpha", "beta"), "closed_separation": ("subset", "point")}
    for name in needs.get(theorem, ()):
        if params.get(name) is None:
            raise DomainError(f"{theorem} needs the parameter {name!r}")
    car = inst.carrier

    if theorem in ("ball_open", "closed_ball_closed"):
        # a set of tau_P is closed exactly when it is open: a union of classes
        flags = _grid_balls(inst)[int(theorem == "closed_ball_closed")].reshape(-1, car.size)
        grid_balls = zip(itertools.product(car.labels, inst.alpha_grid, inst.t_grid),
                         _unions_of_classes(inst, flags).tolist())
        witnesses = tuple(Witness(points=(a,), values={"alpha": alpha, "t": t},
                                  detail=f"{theorem} fails for this grid ball")
                          for (a, alpha, t), union in grid_balls if not union)
        verdict = FAIL if witnesses else PASS
        note = "exhaustive over grid balls" if verdict == PASS else \
            "violations may be grid artifacts at coarse resolutions"
        return CheckReport(name=theorem, verdict=verdict,
                           samples_tested=car.size * len(inst.alpha_grid) * len(inst.t_grid),
                           note=note, witnesses=witnesses)

    if theorem == "nested_closure":
        alpha = params["alpha"]
        beta = params["beta"]
        if eval_op(inst.op, beta, beta) > alpha:
            raise PreconditionError(f"beta o beta = {eval_op(inst.op, beta, beta)} > alpha = {alpha}")
        centers = [params["center"]] if params.get("center") is not None else list(car.labels)
        scales = params.get("scales") or list(inst.t_grid)
        witnesses = []
        samples = 0
        for a in centers:
            for t in scales:
                samples += 1
                inner, _ = closure_and_limit_points(inst, open_ball(inst, a, beta, t / 2))
                outer = open_ball(inst, a, alpha, t)
                if not inner.issubset(outer):
                    stray = inner.difference(outer).labels(car)
                    witnesses.append(Witness(points=(a,) + stray,
                                             values={"alpha": alpha, "beta": beta, "t": t},
                                             detail="closure of the inner ball escapes the outer ball"))
        verdict = FAIL if witnesses else PASS
        return CheckReport(name=theorem, verdict=verdict, samples_tested=samples,
                           witnesses=tuple(witnesses),
                           note=f"alpha={alpha}, beta={beta}")

    # closed_separation
    subset: SubsetMask = params["subset"]
    point = params["point"]
    if subset.is_empty:
        raise PreconditionError("the separated set must be non-empty")
    if subset.contains(x := car.index(point)):
        raise PreconditionError(f"point {point!r} must lie outside the set")
    if not is_open(inst, subset.complement()):
        raise PreconditionError("the set is not closed at these grids")
    scales = params.get("scales") or list(inst.t_grid)
    members = subset.indices()
    witnesses = []
    infima = {}
    for t in scales:
        m = _min_P(inst, [x], members, t)
        infima[f"{t:.12g}"] = m
        if not m > 0:
            witnesses.append(Witness(points=(point,), values={"t": t, "inf": m},
                                     detail="infimum of P over the closed set is not positive"))
    verdict = FAIL if witnesses else PASS
    return CheckReport(name=theorem, verdict=verdict, samples_tested=len(scales),
                       witnesses=tuple(witnesses), data={"inf_per_t": infima})


def topology_battery(inst: GpmsInstance) -> list:
    """The ``topology`` battery: tau_P stated by its classes and the count
    2^k of its open sets, none listed, then the ``ball_open`` and
    ``closed_ball_closed`` theorems."""
    car, classes = inst.carrier, tau_p_classes(inst)
    return [CheckReport(name="topology_family", verdict=PASS, samples_tested=car.size,
                        note=f"tau_P is the partition topology of its {len(classes)} classes",
                        data={"classes": [list(c.labels(car)) for c in classes],
                              "count": 1 << len(classes)}),
            verify_ball_theorem(inst, "ball_open"),
            verify_ball_theorem(inst, "closed_ball_closed")]

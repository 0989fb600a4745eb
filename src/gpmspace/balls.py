"""Open/closed balls, generated topologies, closures on finite carriers.

The topology tau_P admits a subset exactly when every member point has some
grid ball B(a, alpha, t) inside it, with alpha and t drawn from the declared
grids.  At coarse grids the admitted family is a sub-collection of the true
topology, so every report carries the grids it used.

Every gallery family is non-increasing in t (tabulated tables that rise are
rejected at construction), so the least grid ball U_x = B(x, min alpha,
min t) lies inside every other grid ball at x.  A subset S is therefore open
exactly when U_x is inside S for every x in S: tau_P is the family of
down-sets of the least balls (Alexandroff 1937; Stong 1966).  is_open,
interior, limit points and the family itself are all read off U and its
transitive closure, and the family is a topology by construction;
TopologyFamily.verify stays as an O(|F|^2) oracle for tests.

Ball membership uses exact float comparison: strict "<" for open balls,
"<=" for closed balls, no epsilon fuzzing.  A ball is one comparison on a
kernel row; all grid balls, open and closed, come from one kernel tensor
over (x, t, y) that every alpha reads.

The open and closed grid-ball bitmasks, each point's deduplicated grid
balls, the least balls and tau_P are derived once per instance
(``core.derive``) and live as long as the instance, so is_open, interior,
closures, the ball theorems, separation and the countable bases share one
derivation.  These entries keep int bitmasks, not the float kernel tensor, and
the least balls also as bool matrices for array callers; their values
(bitmask lists and tuples, bool matrices, SubsetMask tuples, a
TopologyFamily) are shared, so callers only read them.
"""
from __future__ import annotations

import itertools
from functools import reduce
from operator import and_

import numpy as np

from .binop import eval_op
from .core import GpmsInstance, P_at, coords, derive
from .errors import DomainError, PreconditionError, SizeError, VerificationError
from .reports import FAIL, PASS, CheckReport, Witness


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
        is a test oracle: families built by topology_from_least are
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
        return [list(m.labels(carrier)) for m in self.members]


def _require_finite(inst: GpmsInstance):
    if inst.carrier.kind != "finite":
        raise DomainError("this operation needs a finite carrier")


def _mask_of_flags(flags) -> SubsetMask:
    """The subset whose members are the True entries of a 1-D bool array."""
    return SubsetMask(flags.size, int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                                                 "little"))


def _flags_of_bits(bits, n):
    """The (len(bits), n) bool matrix of a list of int bitmasks over n points."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bits), np.uint8)
    return np.unpackbits(raw.reshape(-1, width), axis=1, count=n, bitorder="little").view(bool)


def open_ball(inst: GpmsInstance, a, alpha: float, t: float) -> SubsetMask:
    """B(a, alpha, t) = { b : P(a,b,t) < alpha }; always contains the center."""
    _require_finite(inst)
    if not alpha > 0:
        raise DomainError(f"open ball radius must be positive, got {alpha}")
    return _mask_of_flags(P_at(inst, coords(inst, a), np.arange(inst.carrier.size), t) < alpha)


def closed_ball(inst: GpmsInstance, a, alpha: float, t: float) -> SubsetMask:
    """B[a, alpha, t] = { b : P(a,b,t) <= alpha }; radius 0 picks the center set."""
    _require_finite(inst)
    if alpha < 0:
        raise DomainError(f"closed ball radius must be >= 0, got {alpha}")
    return _mask_of_flags(P_at(inst, coords(inst, a), np.arange(inst.carrier.size), t) <= alpha)


def _grid_ball_bits(inst: GpmsInstance, closed: bool = False) -> list:
    """Every grid ball's bitmask, open B(x, alpha, t) or closed B[x, alpha, t],
    in (x, alpha, t) order: both lists come from one kernel tensor over
    (x, t, y), read by every alpha, once per instance."""
    def build():
        c = np.arange(inst.carrier.size)
        grid = P_at(inst, c[:, None, None], c, np.asarray(inst.t_grid)[:, None])[:, None]
        alphas = np.asarray(inst.alpha_grid)[:, None, None]
        packed = np.packbits([grid < alphas, grid <= alphas], axis=-1, bitorder="little")
        raw, width = packed.tobytes(), packed.shape[-1]
        bits = [int.from_bytes(raw[k:k + width], "little") for k in range(0, len(raw), width)]
        return bits[:len(bits) // 2], bits[len(bits) // 2:]

    return derive(inst, "grid_ball_bits", build)[closed]


def _min_P(inst: GpmsInstance, xs, ys, t: float) -> float:
    """min of P(x, y, t) over x in xs and y in ys, two arrays of point indices."""
    return float(P_at(inst, np.asarray(xs)[:, None], ys, t).min())


def grid_ball_masks(inst: GpmsInstance):
    """Per point, the deduplicated open balls over the alpha and t grids.

    Returns a tuple (one entry per carrier point) of tuples of SubsetMask,
    ordered by bitmask; computed once per instance.
    """
    _require_finite(inst)
    n, per = inst.carrier.size, len(inst.alpha_grid) * len(inst.t_grid)
    bits = _grid_ball_bits(inst)
    return derive(inst, "balls", lambda: tuple(
        tuple(SubsetMask(n, b) for b in sorted(set(bits[k:k + per])))
        for k in range(0, n * per, per)))


def _reach(least) -> tuple:
    """Transitive closure of x -> U_x (Warshall on bitmasks).

    reach[x] is the smallest set containing x that holds U_y for each of its
    members y: the least open set around x.
    """
    reach = list(least)
    for k in range(len(reach)):
        for i, r in enumerate(reach):
            if r >> k & 1:
                reach[i] = r | reach[k]
    return tuple(reach)


def _least(inst: GpmsInstance):
    """(U, reach) as int bitmasks per point; computed once per instance.

    U_x is the intersection of the grid balls at x.  P is non-increasing in
    t, so this is itself a grid ball, B(x, min alpha, min t), and a set
    holding some grid ball at x holds U_x.
    """
    def build():
        least = tuple(reduce(and_, (b.bits for b in row)) for row in grid_ball_masks(inst))
        return least, _reach(least)

    return derive(inst, "least", build)


def _least_flags(inst: GpmsInstance):
    """(U, reach) of ``_least`` as (n, n) bool matrices, once per instance."""
    n = inst.carrier.size
    return derive(inst, "least_flags", lambda: tuple(_flags_of_bits(m, n) for m in _least(inst)))


def topology_from_least(n: int, least) -> TopologyFamily:
    """The family {S : U_x inside S for every x in S}, given U as bitmasks.

    Its members are exactly the unions of the least open sets reach[x], so
    the family is a topology by construction.
    """
    opens = {0}
    for r in _reach(least):
        opens |= {s | r for s in opens}
    return TopologyFamily(n, [SubsetMask(n, b) for b in opens])


def generate_topology(inst: GpmsInstance, max_points: int = 15) -> TopologyFamily:
    """tau_P over the grids: the down-sets of the least grid balls.

    The family is computed once per instance; ``max_points`` caps the
    size of the explicit family, which can hold 2^n sets.
    """
    _require_finite(inst)
    n = inst.carrier.size
    if n > max_points:
        raise SizeError(f"carrier size {n} exceeds max_points={max_points}")
    return derive(inst, "topology", lambda: topology_from_least(n, _least(inst)[0]))


def _require_size(least, s: SubsetMask):
    if s.n != len(least):
        raise DomainError("mask size mismatch")


def is_open(inst: GpmsInstance, s: SubsetMask) -> bool:
    """True iff every point of s has a grid ball inside s, i.e. U_x inside s."""
    least, _ = _least(inst)
    _require_size(least, s)
    return all(least[i] & ~s.bits == 0 for i in s.indices())


def interior(inst: GpmsInstance, s: SubsetMask) -> SubsetMask:
    """Largest open subset of s: the points whose least open set lies in s."""
    _, reach = _least(inst)
    _require_size(reach, s)
    return SubsetMask(s.n, sum(1 << i for i in s.indices() if reach[i] & ~s.bits == 0))


def closure_and_limit_points(inst: GpmsInstance, s: SubsetMask):
    """(closure, limit points) of s.

    A point x is a limit point when for every grid alpha and every grid t
    the punctured ball (B(x, alpha, t) minus x) meets s.  A "for any t
    there exists alpha" quantifier would be degenerate on bounded carriers
    (huge alpha makes every point a limit point), so the standard for-all
    reading over both grids is used.  Every grid ball at x holds U_x, so
    this is the same as U_x minus x meeting s.

    When every U_x is itself open, the result provably equals the
    complement of the largest open set disjoint from s; that identity is
    cross-checked and a mismatch raises VerificationError.
    """
    least, reach = _least(inst)
    n = inst.carrier.size
    limits = SubsetMask(n, sum(1 << i for i in range(n) if least[i] & ~(1 << i) & s.bits))
    closure = s.union(limits)
    if least == reach:
        alt = interior(inst, s.complement()).complement()
        if alt != closure:
            raise VerificationError("closure cross-check failed with open least balls")
    return closure, limits


THEOREMS = ("ball_open", "closed_ball_closed", "nested_closure", "closed_separation")


def verify_ball_theorem(inst: GpmsInstance, theorem: str, **params) -> CheckReport:
    """Check one ball/closedness statement over the grids.

    ball_open            every grid open ball passes is_open
    closed_ball_closed   every grid closed ball has an open complement
    nested_closure       closure(B(a, beta, t/2)) inside B(a, alpha, t),
                         requires beta o beta <= alpha
                         (params: alpha, beta, center=None, scales=None)
    closed_separation    min over a in A of P(x, a, t) > 0 for each grid t
                         (params: subset, point, scales=None)
    """
    _require_finite(inst)
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    car = inst.carrier

    if theorem in ("ball_open", "closed_ball_closed"):
        closed = theorem == "closed_ball_closed"
        flip = (1 << car.size) - 1 if closed else 0  # a closed ball's complement must be open
        grid_balls = zip(itertools.product(car.labels, inst.alpha_grid, inst.t_grid),
                         _grid_ball_bits(inst, closed))
        witnesses = tuple(Witness(points=(a,), values={"alpha": alpha, "t": t},
                                  detail=f"{theorem} fails for this grid ball")
                          for (a, alpha, t), bits in grid_balls
                          if not is_open(inst, SubsetMask(car.size, bits ^ flip)))
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

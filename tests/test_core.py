import bisect
import itertools
import json
import math
import random
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import core, induced
from gpmspace.core import P_at, coords
from gpmspace.reports import canonical_json
from helpers import (ALPHA_GRID, T_GRID, full_triangle_scan, gallery_instances, interval_instance,
                     make_instance, planted_matrix, squared_distance_table_instance,
                     three_point_carrier, workload_docs)


def brute_force_p3(inst, points):
    """Independent oracle: scan every triple and every grid pair."""
    violations = []
    for a, b, x in itertools.product(points, repeat=3):
        for s in inst.t_grid:
            for t in inst.t_grid:
                lhs = g.eval_P(inst, a, b, s + t)
                rhs = inst.op.fn(g.eval_P(inst, a, x, s), g.eval_P(inst, b, x, t))
                if lhs > rhs:
                    violations.append((a, b, x, s, t))
    return violations


# -- evaluation ------------------------------------------------------------

def test_eval_P_scaled_formula():
    inst = make_instance("scaled")
    assert g.eval_P(inst, "a", "b", 2.0) == 0.5


@pytest.mark.parametrize("family,params", [("scaled", {}), ("constant", {}),
                                           ("damped", {}), ("discrete", {"c": 1.0})])
def test_eval_P_identity_on_diagonal(family, params):
    inst = make_instance(family, **params)
    for p in inst.carrier.labels:
        for t in inst.t_grid:
            assert g.eval_P(inst, p, p, t) == 0.0


def test_eval_P_damped_limit():
    inst = make_instance("damped")
    assert abs(g.eval_P(inst, "a", "b", 50.0) - 1.0) <= 1e-9


def test_eval_P_domain_errors():
    inst = make_instance("scaled")
    with pytest.raises(g.DomainError):
        g.eval_P(inst, "a", "b", 0.0)
    with pytest.raises(g.DomainError):
        g.eval_P(inst, "a", "b", -1.0)
    with pytest.raises(g.DomainError):
        g.eval_P(inst, "a", "zz", 1.0)


def test_coords_refuse_what_is_not_a_point():
    # one membership rule: a label not in a finite carrier, and on an
    # interval an entry that is not a number or leaves [lo, hi], is a
    # DomainError wherever points enter
    inst, am = interval_instance(), g.AlphaMetric(interval_instance(), 1.0)
    for bad in (["x"], "x", [None], [0.5, "1"], [True], [3.0], [math.nan]):
        with pytest.raises(g.DomainError):
            coords(inst, bad)
    assert coords(inst, np.asarray([0.5, -1], dtype=object)).tolist() == [0.5, -1.0]
    with pytest.raises(g.DomainError):
        g.check_bounded(inst, ["x"])
    with pytest.raises(g.DomainError):
        g.d_alpha(am, "x", 0.5)
    with pytest.raises(g.DomainError):
        g.check_alpha_monotonicity(inst, 0.5, 9.0, [1.0, 2.0])
    with pytest.raises(g.DomainError):
        g.d_alpha(g.AlphaMetric(make_instance("scaled", op=g.MAX), 1.0), "a", "zz")


BOOL_POINTS = pytest.mark.parametrize("point", [True, np.bool_(False)], ids=["bool", "numpy-bool"])


def unit_interval():
    return g.gallery_construct("scaled", {}, g.IntervalCarrier(0.0, 1.0, 0.25), g.MAX,
                               T_GRID, ALPHA_GRID)


# a bool is no point of an interval, though float() and numpy read it as 0
# or 1: each entry point refuses it, naming it, as the load and the grid rule do
@BOOL_POINTS
def test_interval_contains_no_bool(point):
    assert not unit_interval().carrier.contains(point)


@BOOL_POINTS
def test_eval_P_refuses_a_bool_point(point):
    with pytest.raises(g.DomainError, match=f"point not in carrier: .*{point}"):
        g.eval_P(unit_interval(), point, 0.5, 1.0)


@BOOL_POINTS
def test_d_alpha_refuses_a_bool_point(point):
    with pytest.raises(g.DomainError, match=f"^point not in carrier: {point} is a bool"):
        g.d_alpha(g.AlphaMetric(unit_interval(), 1.0), point, 0.5)


@BOOL_POINTS
def test_coords_refuse_a_bool_point(point):
    inst = unit_interval()
    for pts in (point, [point], [0.5, point], [[0.5], [point]], np.asarray([point]),
                np.asarray([0.5, point], dtype=object)):
        with pytest.raises(g.DomainError, match=f"^point not in carrier: {point} is a bool"):
            coords(inst, pts)


@pytest.mark.parametrize("point", [np.int64(1), np.int8(0), np.float32(0.75), np.float64(0.25),
                                   np.float16(1.0)], ids=lambda p: type(p).__name__)
def test_numpy_number_scalars_are_points_wherever_points_enter(point):
    # one rule, the grid rule's: a numpy integer or floating scalar is the
    # real it holds, for membership, eval_P, coords and d_alpha alike
    inst = unit_interval()
    x = float(point)
    assert inst.carrier.contains(point) is True
    assert g.eval_P(inst, point, 0.5, 1.0) == g.eval_P(inst, x, 0.5, 1.0)
    assert coords(inst, point) == coords(inst, x) == x
    am = g.AlphaMetric(inst, 1.0)
    assert g.d_alpha(am, point, 0.5) == g.d_alpha(am, x, 0.5)


def test_numpy_bool_is_refused_wherever_points_enter():
    inst, point = unit_interval(), np.bool_(True)
    assert inst.carrier.contains(point) is False
    with pytest.raises(g.DomainError, match="point not in carrier"):
        g.eval_P(inst, point, 0.5, 1.0)
    with pytest.raises(g.DomainError, match="is a bool"):
        coords(inst, point)
    with pytest.raises(g.DomainError, match="is a bool"):
        g.d_alpha(g.AlphaMetric(inst, 1.0), point, 0.5)


@pytest.mark.parametrize("point", [10 ** 400, -(10 ** 400), math.nan, math.inf, np.float64(2.0),
                                   np.int64(-1)],
                         ids=["10**400", "-10**400", "nan", "inf", "float64-2", "int64-minus-1"])
def test_a_real_outside_the_interval_is_refused_alike(point):
    # an int too large for a float is no point either: contains says so
    # instead of raising OverflowError, so eval_P refuses it as coords does
    inst = unit_interval()
    assert inst.carrier.contains(point) is False
    with pytest.raises(g.DomainError, match="point not in carrier"):
        g.eval_P(inst, point, 0.5, 1.0)
    with pytest.raises(g.DomainError, match="point not in carrier"):
        coords(inst, point)
    with pytest.raises(g.DomainError, match="point not in carrier"):
        g.d_alpha(g.AlphaMetric(inst, 1.0), point, 0.5)


def test_finite_coords_map_labels_through_the_index():
    inst = make_instance("scaled")
    labels = inst.carrier.labels
    grid = [[labels[(i + j) % len(labels)] for j in range(5)] for i in range(4)]
    got = coords(inst, grid)
    assert got.shape == (4, 5) and got.dtype == np.intp
    assert got.tolist() == [[inst.carrier.index(p) for p in row] for row in grid]
    assert coords(inst, np.asarray(grid)).tolist() == got.tolist()
    assert coords(inst, labels[1]) == 1
    with pytest.raises(g.DomainError, match="^point 'zz' is not in the carrier$"):
        coords(inst, [[labels[0], labels[1]], [labels[0], "zz"]])


UNHASHABLE_CALLS = {
    "eval_P": lambda inst: g.eval_P(inst, ["a"], "b", 1.0),
    "coords": lambda inst: coords(inst, [["a"], "b"]),
    "d_alpha": lambda inst: g.d_alpha(g.AlphaMetric(inst, 1.0), ["a"], "b"),
    "d_alpha-two-lists": lambda inst: g.d_alpha(g.AlphaMetric(inst, 1.0), ["a"], ["b"]),
    "countable_base": lambda inst: g.countable_base(inst, "local", x=["a"]),
    "separation_witness": lambda inst: g.separation_witness(inst, "T0", a=["a"], b="b"),
    "open_ball": lambda inst: g.open_ball(inst, ["a", "b"], 1.0, 1.0),
    "closed_ball": lambda inst: g.closed_ball(inst, ["a"], 1.0, 1.0),
}


@pytest.mark.parametrize("call", UNHASHABLE_CALLS.values(), ids=UNHASHABLE_CALLS)
def test_an_unhashable_point_is_refused_on_a_finite_carrier(call):
    # a list is no label, even a list of labels: each entry point refuses it
    # with a DomainError that names it, and a ball takes exactly one center
    inst = g.gallery_construct("scaled", {}, g.FiniteCarrier(["a", "b"], [[0, 1], [1, 0]]),
                               g.MAX, T_GRID, ALPHA_GRID)
    assert inst.carrier.contains(["a"]) is False
    with pytest.raises(g.DomainError, match=r"\['a'"):
        call(inst)


@pytest.mark.parametrize("call", [
    lambda inst, pts: core.coords(inst, pts),
    lambda inst, pts: g.check_bounded(inst, pts),
    lambda inst, pts: core.coords(inst, np.array(pts, dtype=object)),
])
@pytest.mark.parametrize("pts", [[[0.5], 0.7], [[0.5], [0.7, 0.8]]])
def test_ragged_interval_points_are_refused(call, pts):
    # numpy cannot make an array of them; eval_P already refuses [0.5] as a point
    inst = g.gallery_construct("scaled", {}, g.IntervalCarrier(0.0, 2.0, 0.5), g.MAX,
                               T_GRID, ALPHA_GRID)
    with pytest.raises(g.DomainError, match="^point not in carrier: .* nested raggedly$"):
        call(inst, pts)
    with pytest.raises(g.DomainError, match="^point not in carrier"):
        g.eval_P(inst, [0.5], 0.7, 1.0)


@BOOL_POINTS
def test_check_convergence_refuses_a_bool_point(point):
    inst, bools = unit_interval(), g.SequenceSpec("explicit", points=(point,) * 5)
    with pytest.raises(g.DomainError, match=f"^limit candidate .*{point}"):
        g.check_convergence(inst, bools, point)
    with pytest.raises(g.DomainError, match=f"^sequence term .*{point}"):
        g.check_convergence(inst, bools, 1.0)


@pytest.mark.parametrize("grid", [["1"], [True, 2.0], [[1.0]], [1.0, None]])
@pytest.mark.parametrize("name", ["t_grid", "alpha_grid"])
def test_grid_rule_refuses_entries_that_are_not_real_numbers(grid, name):
    grids = {"t_grid": T_GRID, "alpha_grid": ALPHA_GRID, name: grid}
    with pytest.raises(g.ConstructionError, match=f"^{name} values must be real numbers$"):
        g.gallery_construct("scaled", {}, three_point_carrier(), g.MAX, **grids)


# -- carrier and construction validation -----------------------------------

def test_carrier_rejects_asymmetric_table():
    with pytest.raises(g.ConstructionError) as err:
        g.FiniteCarrier(("a", "b"), [[0, 1], [2, 0]])
    assert err.value.axiom == "P2"


def test_carrier_rejects_zero_off_diagonal():
    with pytest.raises(g.ConstructionError) as err:
        g.FiniteCarrier(("a", "b"), [[0, 0], [0, 0]])
    assert err.value.axiom == "P1"


def test_carrier_rejects_triangle_violation():
    with pytest.raises(g.ConstructionError) as err:
        g.FiniteCarrier(("a", "b", "c"), [[0, 1, 5], [1, 0, 2], [5, 2, 0]])
    assert err.value.axiom == "triangle"


def _first_triangle_violation(d, slack):
    # oracle: the triple loop the vectorized check replaces
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i, j] > d[i, k] + d[k, j] + slack:
                    return i, j, k
    return None


@st.composite
def symmetric_tables(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    vals = st.floats(min_value=0.1, max_value=10.0) | st.integers(min_value=1, max_value=6)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = draw(vals)
    if draw(st.booleans()):  # close under shortest paths: a metric, or a near miss
        for k in range(n):
            d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


@settings(max_examples=200, deadline=None)
@given(symmetric_tables())
def test_triangle_check_matches_triple_loop(d):
    labels = [f"p{i}" for i in range(len(d))]
    first = _first_triangle_violation(d, 1e-12 * max(1.0, float(d.max(initial=0.0))))
    if first is None:
        g.FiniteCarrier(labels, d)
        return
    with pytest.raises(g.ConstructionError) as err:
        g.FiniteCarrier(labels, d)
    i, j, k = first
    assert str(err.value) == f"triangle inequality fails on ({labels[i]}, {labels[j]}, {labels[k]})"
    assert err.value.axiom == "triangle"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.integers(0, 2 ** 32 - 1), st.sampled_from((0.0, 0.5, 1.0, 4e-6)))
def test_triangle_rows_match_the_full_scan(k, seed, slack):
    # up to 70 points: a block holds 2^17 bytes, 16384 // k^2 float rows, at
    # least three, so past k = 25 the scan crosses blocks and takes the
    # mirrors; stopped at the first block that finds a row, the scan holds
    # every row of the least i
    D = planted_matrix(np.random.default_rng(seed), k)
    assert np.array_equal(D, D.T)
    rows = core._triangle_rows(D, slack)
    assert rows.shape[1] == 3
    full = full_triangle_scan(D, slack)
    np.testing.assert_array_equal(rows, full)
    first = core._triangle_rows(D, slack, first=True)
    if len(full):
        least = full[full[:, 0] == full[0, 0]]
        np.testing.assert_array_equal(first[first[:, 0] == full[0, 0]], least)
        assert first[:, 0].min() == full[0, 0]
    else:
        assert first.shape == (0, 3)


def test_carrier_distance_table_is_a_read_only_copy():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    car = g.FiniteCarrier(("a", "b"), d)
    d[0, 1] = d[1, 0] = 7.0
    assert car.base_distance("a", "b") == 1.0
    with pytest.raises(ValueError):
        car.d[0, 1] = 2.0


def test_gallery_rejects_bad_discrete_parameter():
    with pytest.raises(g.ConstructionError):
        make_instance("discrete", c=-1.0)


def test_gallery_rejects_increasing_table():
    carrier = three_point_carrier()
    params = {"tables": [
        {"pair": ["a", "b"], "t": [1.0, 2.0], "v": [1.0, 2.0]},  # increases
        {"pair": ["a", "c"], "t": [1.0, 2.0], "v": [3.0, 1.0]},
        {"pair": ["b", "c"], "t": [1.0, 2.0], "v": [2.0, 1.0]},
    ]}
    with pytest.raises(g.ConstructionError) as err:
        g.gallery_construct("tabulated", params, carrier, g.MAX, (1.0, 2.0), ALPHA_GRID)
    assert err.value.axiom == "monotone"


def test_gallery_rejects_indistinguishable_pair():
    carrier = three_point_carrier()
    params = {"tables": [
        {"pair": ["a", "b"], "t": [1.0, 2.0], "v": [0.0, 0.0]},  # all-zero pair
        {"pair": ["a", "c"], "t": [1.0, 2.0], "v": [3.0, 1.0]},
        {"pair": ["b", "c"], "t": [1.0, 2.0], "v": [2.0, 1.0]},
    ]}
    with pytest.raises(g.ConstructionError) as err:
        g.gallery_construct("tabulated", params, carrier, g.MAX, (1.0, 2.0), ALPHA_GRID)
    assert err.value.axiom == "P1"


@pytest.mark.parametrize("t_grid, refused", [((2.0, 4.0), False), ((4.0,), True)])
def test_interval_blank_pairs_match_the_every_pair_scan(t_grid, refused):
    # points 0, 1e-323, ..., 1e-322 two subnormal ulps apart: 1e-323 / 2 is
    # 5e-324, and 1e-323 / 4 rounds to 0, so only the t grid (4,) has blank pairs
    carrier = g.IntervalCarrier(0.0, 1e-322, 1e-323)
    raw = g.GpmsInstance(carrier, "scaled", {}, g.MAX, t_grid, ALPHA_GRID)
    expected = scalar_sanity_error(raw)
    assert expected == (("distinct points (0.0, 1e-323) are indistinguishable on the t grid",
                         "P1") if refused else None)
    try:
        g.gallery_construct("scaled", {}, carrier, g.MAX, t_grid, ALPHA_GRID)
    except g.ConstructionError as err:
        assert (str(err), err.axiom) == expected
    else:
        assert expected is None


def test_gallery_rejects_P_that_overflows_off_the_construction_grid():
    # scaled P = d / t: 1e308 / 0.6 is finite, 1.7e308 / 0.6 is inf.  On 70 points
    # only the pair (x1, x2), the largest distance, overflows
    n = 70
    d = [[0.0 if i == j else 1e308 for j in range(n)] for i in range(n)]
    d[1][2] = d[2][1] = 1.7e308
    carrier = g.FiniteCarrier([f"x{i}" for i in range(n)], d)
    with pytest.raises(g.ConstructionError) as err:
        g.gallery_construct("scaled", {}, carrier, g.MAX, (0.6, 1.0), ALPHA_GRID)
    assert (str(err.value), err.value.axiom) == ("P(x1,x2,0.6) is not finite", "finite")


def test_interval_carrier_sampling_and_membership():
    car = g.IntervalCarrier(-2.0, 2.0, 0.25)
    pts = car.points()
    assert pts[0] == -2.0 and pts[-1] == 2.0 and len(pts) == 17
    assert car.contains(1.0 / 3.0)
    assert not car.contains(2.5)


def test_interval_carrier_size_cap():
    assert g.IntervalCarrier(0.0, 65535.0, 1.0).size == 65536
    for hi in (65536.0, 65535.5, 1e300):  # 65537 steps; 65536 steps and hi; overflow
        with pytest.raises(g.ConstructionError, match="resolution"):
            g.IntervalCarrier(0.0, hi, 1.0)
    with pytest.raises(g.ConstructionError, match="resolution"):
        g.IntervalCarrier(-1e308, 1e308, 1e-9)  # hi - lo overflows to inf


# -- axiom checks -----------------------------------------------------------

GALLERY = [("scaled", g.PLUS, {}), ("scaled", g.MAX, {}),
           ("constant", g.PLUS, {}), ("constant", g.MAX, {}),
           ("damped", g.PLUS, {}), ("damped", g.MAX, {}),
           ("discrete", g.PLUS, {"c": 1.0}), ("discrete", g.MAX, {"c": 1.0})]


@pytest.mark.parametrize("family,op,params", GALLERY)
def test_p1_p2_monotone_exhaustive(family, op, params):
    inst = make_instance(family, op=op, **params)
    for axiom in ("P1", "P2", "monotone"):
        assert g.check_P_axiom(inst, axiom).ok


@pytest.mark.parametrize("family,op,params", GALLERY)
def test_p3_sampled_agrees_with_brute_force(family, op, params):
    inst = make_instance(family, op=op, **params)
    brute = brute_force_p3(inst, inst.carrier.labels)
    sampled = g.check_P_axiom(inst, "P3", seed=42, n_samples=1000)
    exhaustive = g.check_P_axiom(inst, "P3", exhaustive=True)
    assert (len(brute) > 0) == sampled.failed == exhaustive.failed


def test_p3_mediant_oracle_for_scaled_max():
    # (u+v)/(s+t) <= max(u/s, v/t): verify the mediant inequality directly,
    # then confirm the checker agrees on the same instance
    inst = make_instance("scaled", op=g.MAX)
    for u in (1.0, 2.0, 3.0):
        for v in (1.0, 2.0, 3.0):
            for s in T_GRID:
                for t in T_GRID:
                    assert (u + v) / (s + t) <= max(u / s, v / t) + 1e-12
    assert g.check_P_axiom(inst, "P3", exhaustive=True).ok


def test_p3_scaled_plus_passes_exhaustively():
    inst = make_instance("scaled", op=g.PLUS)
    assert g.check_P_axiom(inst, "P3", exhaustive=True).ok
    assert not brute_force_p3(inst, inst.carrier.labels)


def test_p3_witness_reproduces_failure():
    inst = make_instance("constant", op=g.MAX)
    rep = g.check_P_axiom(inst, "P3", seed=0, n_samples=1000)
    assert rep.failed
    w = rep.witness
    a, b, x = w.points
    s, t = w.values["s"], w.values["t"]
    lhs = g.eval_P(inst, a, b, s + t)
    rhs = g.eval_op(inst.op, g.eval_P(inst, a, x, s), g.eval_P(inst, b, x, t))
    assert lhs == w.values["lhs"] and rhs == w.values["rhs"] and lhs > rhs


def test_p3_counterexample_for_squared_distance_table():
    inst = squared_distance_table_instance()
    rep = g.check_P_axiom(inst, "P3", seed=0, n_samples=1000)
    assert rep.failed
    # the canonical witness from the construction: exact values
    assert g.eval_P(inst, "0", "2", 2.0) == 2.0
    rhs = max(g.eval_P(inst, "0", "1", 1.0), g.eval_P(inst, "2", "1", 1.0))
    assert rhs == 1.0


def test_p4_constant_fails_per_alpha():
    inst = make_instance("constant", op=g.MAX)
    rep = g.check_P_axiom(inst, "P4")
    assert rep.failed
    alphas = {w.values["alpha"] for w in rep.witnesses}
    # P = d stays below alpha for every t exactly when alpha > d(a,b)
    assert alphas == {2.0, 4.0}
    for w in rep.witnesses:
        a, b = w.points
        assert all(g.eval_P(inst, a, b, t) < w.values["alpha"] for t in inst.t_grid)
    # at alpha = 4 every distinct pair violates
    at4 = {tuple(w.points) for w in rep.witnesses if w.values["alpha"] == 4.0}
    assert at4 == {("a", "b"), ("a", "c"), ("b", "c")}


def test_p4_bounded_damped_family_fails_but_unbounded_families_pass():
    assert g.check_P_axiom(make_instance("damped"), "P4").failed
    assert g.check_P_axiom(make_instance("scaled"), "P4").ok
    assert g.check_P_axiom(make_instance("discrete", c=1.0), "P4").ok


def test_p5_smooth_families_pass_and_tabulated_fails():
    assert g.check_P_axiom(make_instance("scaled"), "P5").ok
    rep = g.check_P_axiom(squared_distance_table_instance(), "P5")
    assert rep.failed
    assert "by construction" in rep.note


def refuse_kernel(*args):
    raise AssertionError("P was evaluated")


@settings(max_examples=80, deadline=None)
@given(gallery_instances(), st.sampled_from(g.FAMILIES[:4]),
       st.floats(min_value=0.1, max_value=5.0))
def test_p5_of_a_formula_family_reads_no_p(inst, family, c):
    # P5 is decided from the formula: with the kernel refusing, every formula
    # family passes on gallery and interval carriers, and the drawn instance
    # (a step table among them) gets the report it gets with the kernel
    params = {"c": c} if family == "discrete" else {}
    cases = [g.GpmsInstance(inst.carrier, family, params, inst.op, inst.t_grid, inst.alpha_grid),
             interval_instance(family, resolution=0.01, **params)]
    steps = canonical_json(g.check_P_axiom(inst, "P5").to_jsonable())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_kernel", refuse_kernel)
        for case in cases:
            rep, = g.check_P_axioms(case, ("P5",))
            assert (rep.verdict, rep.samples_tested, rep.data, tuple(rep.witnesses)) == \
                ("pass", 0, {}, ()), family
            assert rep.note == f"{family} family: continuous in t > 0, exact; no grid scan"
        assert canonical_json(g.check_P_axiom(inst, "P5").to_jsonable()) == steps


def test_check_reports_deterministic_for_fixed_seed():
    inst = make_instance("constant", op=g.MAX)
    r1 = g.check_P_axiom(inst, "P3", seed=9, n_samples=500)
    r2 = g.check_P_axiom(inst, "P3", seed=9, n_samples=500)
    assert r1.to_jsonable() == r2.to_jsonable()


def test_interval_carrier_axioms_sampled():
    # only P3 reads the op: under a table op it samples the sample points,
    # and P1, P2, monotone and P4 get the reports they get under max, decided
    # on the whole interval for all t > 0
    table = interval_instance("scaled", op=TABLE_OP, resolution=0.5)
    inst = interval_instance("scaled", resolution=0.5)
    for axiom in ("P1", "P2", "monotone", "P4"):
        rep = g.check_P_axiom(inst, axiom)
        assert rep.ok and rep.samples_tested == 0
        assert "all t > 0, exact" in rep.note and "sample points" not in rep.note
        assert canonical_json(g.check_P_axiom(table, axiom).to_jsonable()) == \
            canonical_json(rep.to_jsonable())
    assert "sample points" in g.check_P_axiom(table, "P3", seed=3, n_samples=400).note
    assert g.check_P_axiom(inst, "P3", seed=3, n_samples=400).ok


def test_monotone_restated_for_every_gallery_instance():
    for family, op, params in GALLERY:
        inst = make_instance(family, op=op, **params)
        for a in inst.carrier.labels:
            for b in inst.carrier.labels:
                for t1, t2 in zip(inst.t_grid, inst.t_grid[1:]):
                    assert g.eval_P(inst, a, b, t1) >= g.eval_P(inst, a, b, t2)


def test_tabulated_step_lookup_between_nodes():
    inst = squared_distance_table_instance()
    # value at the largest node <= t; below the first node extends its value
    assert g.eval_P(inst, "0", "1", 3.0) == g.eval_P(inst, "0", "1", 2.0)
    assert g.eval_P(inst, "0", "1", 1e-6) == g.eval_P(inst, "0", "1", 1e-4)


def test_tabulated_instance_ignores_later_changes_to_the_callers_tables():
    carrier = three_point_carrier()
    tables = [{"pair": ["b", "a"], "t": [0.5], "v": [2.0]},
              {"pair": ["a", "c"], "t": [0.3, 1.5], "v": [5.0, 3.0]},
              {"pair": ["b", "c"], "t": [1.0], "v": [1.0]}]
    params = {"tables": tables}
    inst = g.gallery_construct("tabulated", params, carrier, g.MAX, (0.1, 1.0), ALPHA_GRID)
    described = inst.describe()
    tables[0]["v"][0] = 9.0
    tables[1]["t"].append(4.0)
    tables[1]["pair"][0] = "b"
    tables.append({"pair": ["a", "b"], "t": [1.0], "v": [7.0]})
    params["tables"] = []
    assert inst.describe() == described
    assert described["params"]["tables"][0] == {"pair": ["a", "b"], "t": [0.5], "v": [2.0]}
    assert g.eval_P(inst, "a", "b", 1.0) == 2.0
    inst.describe()["params"]["tables"][0]["v"][0] = 9.0
    assert inst.describe() == described


@st.composite
def euclidean_carriers(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    xs = draw(st.lists(st.floats(min_value=-10, max_value=10), min_size=n, max_size=n,
                       unique=True))
    labels = [f"p{i}" for i in range(n)]
    d = [[abs(xs[i] - xs[j]) for j in range(n)] for i in range(n)]
    try:
        return g.FiniteCarrier(labels, d)
    except g.ConstructionError:
        # degenerate coordinates too close together
        return g.FiniteCarrier(("a", "b"), [[0, 1], [1, 0]])


@settings(max_examples=30, deadline=None)
@given(euclidean_carriers())
def test_scaled_family_satisfies_p3_on_random_metrics(carrier):
    # scaled/plus needs d(a,b) <= (sqrt d(a,x) + sqrt d(b,x))^2, which every
    # metric meets; scaled/max needs the triangle inequality itself, which
    # float distances of points on a line can break by an ulp
    d = [[Fraction(v) for v in row] for row in carrier.d.tolist()]
    n = carrier.size
    metric = all(d[a][b] <= d[a][x] + d[b][x] for a in range(n) for b in range(n)
                 for x in range(n))
    plus, top = (g.check_P_axiom(g.gallery_construct("scaled", {}, carrier, op, (0.5, 1.0, 2.0),
                                                     (1.0,)), "P3", exhaustive=True)
                 for op in (g.PLUS, g.MAX))
    assert plus.ok
    assert top.ok == metric


# -- one kernel: the array front end and the single path against scalar oracles --

def exact(x):
    """A comparison key that tells apart every float bit pattern (0.0 from -0.0)."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, dict):
        return tuple((k, exact(v)) for k, v in x.items())
    if isinstance(x, Sequence) and not isinstance(x, str):  # lists, tuples, ScanWitnesses
        return tuple(exact(v) for v in x)
    if isinstance(x, g.Witness):
        return (exact(x.points), exact(x.values), x.detail)
    assert not hasattr(x, "dtype"), f"numpy value {x!r} leaked into a report"
    return x


LABELS = st.lists(st.text(alphabet="abxyz", min_size=1, max_size=2), min_size=2, max_size=6,
                  unique=True)


@st.composite
def step_params(draw, labels, t_grid):
    """Ragged per-pair step tables whose first nodes may lie above the smallest grid t."""
    tables = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            nodes = sorted(draw(st.sets(st.sampled_from(
                (0.2, 0.3, 0.45, 0.7, 1.0, 1.1, 1.7, 2.0, 2.2, 3.1, 4.5, 2 * t_grid[0])),
                min_size=1, max_size=4)))
            vals = sorted(draw(st.lists(st.sampled_from((0.0, 0.125, 0.6, 1.0, 2.5, 4.0)),
                                        min_size=len(nodes), max_size=len(nodes))),
                          reverse=True)
            pair = [a, b] if draw(st.booleans()) else [b, a]
            tables.append({"pair": pair, "t": nodes, "v": vals})
    return {"tables": tables}


@st.composite
def kernel_instances(draw, tamper=False):
    """A raw GpmsInstance (no construction sanity pass): every family, finite and
    interval carriers.  ``tamper`` swaps in an asymmetric table with zero and
    negative entries (and -0.0 on the diagonal, which a carrier accepts)
    behind the finite carrier's back, so P1, P2 and monotone fail, alone and
    together."""
    family = draw(st.sampled_from(("scaled", "constant", "damped")) if tamper else
                  st.sampled_from(g.FAMILIES + ("tabulated",)))
    t_grid = tuple(sorted(draw(st.sets(st.sampled_from((0.05, 0.25, 0.4, 0.5, 1.0, 1.5, 2.0, 4.0)),
                                       min_size=1, max_size=5))))
    params = {"c": draw(st.sampled_from((0.5, 1.0, 3.0)))} if family == "discrete" else {}
    if family != "tabulated" and not tamper and draw(st.booleans()):
        lo = draw(st.sampled_from((-2.0, -0.5, 0.0)))
        carrier = g.IntervalCarrier(lo, lo + draw(st.sampled_from((0.5, 1.0, 2.5))),
                                    draw(st.sampled_from((0.05, 0.1, 0.3))))
    else:
        labels = draw(LABELS)
        xs = draw(st.lists(st.integers(0, 30), min_size=len(labels), max_size=len(labels),
                           unique=True))
        carrier = g.FiniteCarrier(labels, [[abs(a - b) for b in xs] for a in xs])
        if tamper:
            n = len(labels)
            d = np.array([[draw(st.sampled_from((0.0, -0.0) if i == j else
                                                (-1.0, 0.0, 0.5, 1.0, 2.0)))
                           for j in range(n)] for i in range(n)])
            carrier = carrier_without_triangle_check(labels, d)
        if family == "tabulated":
            params = draw(step_params(carrier.labels, t_grid))
    alpha_grid = tuple(sorted(draw(st.sets(st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)),
                                           min_size=1, max_size=3))))
    return g.GpmsInstance(carrier, family, params, g.MAX, t_grid, alpha_grid)


def reference_P(inst, a, b, t):
    """P(a, b, t) by the scalar family formula on the base distance, and by a
    per-pair step lookup for tabulated families: the evaluation before one
    kernel served both front ends, kept as an oracle independent of it."""
    if inst.family == "tabulated":
        if a == b:
            return 0.0
        entry = next(e for e in inst.params["tables"] if sorted(e["pair"]) == sorted((a, b)))
        return float(entry["v"][max(bisect.bisect_right(entry["t"], t) - 1, 0)])
    dist = inst.carrier.base_distance(a, b)
    if inst.family == "scaled":
        return dist / t
    if inst.family == "constant":
        return dist
    if inst.family == "damped":
        return dist * (1.0 + math.exp(-t))
    return 0.0 if dist == 0.0 else inst.params["c"] / t  # discrete


@settings(max_examples=150, deadline=None)
@given(kernel_instances() | kernel_instances(tamper=True), st.data())
def test_array_front_end_equals_scalar_eval_P(inst, data):
    # eval_P and P_at, with one t and with arrays of t, against the scalar formula
    pts = list(inst.quantifier_points())
    A = np.asarray(pts, dtype=object)
    tg = inst.t_grid
    s, t = data.draw(st.sampled_from(tg)), data.draw(st.sampled_from(tg))
    lo, hi = sorted((data.draw(st.sampled_from(tg)), 3.0))
    probes = list(tg) + [s + t, tg[0] / 2, 1e-3, 0.5 * (lo + hi), 0.5 * (lo + 0.5 * (lo + hi))]
    for t in probes:
        oracle = [[reference_P(inst, a, b, t) for b in pts] for a in pts]
        assert exact([[g.eval_P(inst, a, b, t) for b in pts] for a in pts]) == exact(oracle)
        matrix = P_at(inst, coords(inst, A[:, None]), coords(inst, pts), t)
        assert exact(matrix.tolist()) == exact(oracle)
        row = P_at(inst, coords(inst, pts), coords(inst, pts[-1]), t)
        assert exact(row.tolist()) == exact([reference_P(inst, a, pts[-1], t) for a in pts])
    ts = np.array([[data.draw(st.sampled_from(probes)) for _ in pts] for _ in pts])
    assert exact(P_at(inst, coords(inst, A[:, None]), coords(inst, pts), ts).tolist()) == \
        exact([[reference_P(inst, a, b, ts[i, j]) for j, b in enumerate(pts)]
               for i, a in enumerate(pts)])
    # t on its own axis, broadcast against a matrix of points
    stack = P_at(inst, coords(inst, A[None, :, None]), coords(inst, A[None, None, :]),
                 np.array(probes)[:, None, None])
    assert stack.shape == (len(probes), len(pts), len(pts))
    assert exact(stack.tolist()) == exact([[[reference_P(inst, a, b, t) for b in pts]
                                            for a in pts] for t in probes])


def test_t_arrays_are_checked_like_one_t():
    inst = make_instance("damped")
    pts = inst.carrier.labels
    for bad in (np.array([1.0, 0.0, 2.0]), np.array([1.0, np.inf, 2.0]), np.array([-1.0]),
                np.array([np.nan]), np.array(["1.0"])):
        with pytest.raises(g.DomainError):
            P_at(inst, coords(inst, pts), coords(inst, "a"), bad)
    with pytest.raises(g.DomainError):
        g.eval_P(inst, "a", "b", np.array([1.0, 2.0]))
    assert P_at(inst, coords(inst, pts), coords(inst, "a"), np.array([1, 2, 3])).tolist() == \
        [g.eval_P(inst, p, "a", t) for p, t in zip(pts, (1.0, 2.0, 3.0))]


def loop_p3(inst, seed=0, n_samples=1000, exhaustive=False):
    """The per-trial P3 loop the three gathers replaced, kept as an oracle: a
    sampled trial takes five ``getrandbits(32)`` words in turn, each mapped
    onto its sequence by multiply-shift."""
    pts = inst.quantifier_points()
    tg = inst.t_grid
    witnesses = []
    samples = 0

    def trial(a, b, x, s, t):
        lhs = g.eval_P(inst, a, b, s + t)
        rhs = g.eval_op(inst.op, g.eval_P(inst, a, x, s), g.eval_P(inst, b, x, t))
        if lhs > rhs:
            witnesses.append(g.Witness(points=(a, b, x),
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

        def pick(seq):
            return seq[(rng.getrandbits(32) * len(seq)) >> 32]

        for _ in range(n_samples):
            samples += 1
            a = pick(pts)
            b = pick(pts)
            x = pick(pts)
            s = pick(tg)
            t = pick(tg)
            trial(a, b, x, s, t)
    return witnesses, samples


# a bilinear table op on [0, 4]: below plus, above max, so it fails P3 on many instances
TABLE_OP = g.BinaryOperation.tabulated([0.0, 1.0, 2.0, 4.0],
                                       [[0.0, 1.0, 2.0, 4.0], [1.0, 1.5, 2.5, 4.5],
                                        [2.0, 2.5, 3.0, 5.0], [4.0, 4.5, 5.0, 6.0]])


def assert_p3_matches_loop(inst, seed, n_samples, exhaustive):
    def outcome(fn):
        try:
            return exact(fn(inst, seed=seed, n_samples=n_samples, exhaustive=exhaustive))
        except g.DomainError as exc:  # a negative P on a tampered table reaches the op
            return str(exc)

    got = outcome(core.p3_violations)
    assert got == outcome(loop_p3)
    return got


@settings(max_examples=120, deadline=None)
@given(kernel_instances() | kernel_instances(tamper=True),
       st.sampled_from((g.PLUS, g.MAX, TABLE_OP)), st.integers(0, 99), st.integers(1, 300),
       st.integers(1, 4))
def test_p3_trials_match_the_scalar_loop(inst, op, seed, n_samples, n_points):
    inst = g.GpmsInstance(inst.carrier, inst.family, inst.params, op, inst.t_grid,
                          inst.alpha_grid)
    assert_p3_matches_loop(inst, seed, n_samples, exhaustive=False)
    # the exhaustive scan over the first n_points quantifier points only
    pts = inst.quantifier_points()[:n_points]
    inst.quantifier_points = lambda: pts
    assert_p3_matches_loop(inst, seed, n_samples, exhaustive=True)


@pytest.mark.parametrize("op", (g.PLUS, g.MAX, TABLE_OP))
def test_p3_trials_match_the_scalar_loop_on_failing_instances(op):
    # P(a, c) = 10 against P(a, b) = P(b, c) = 1 fails P3 for every op, so
    # both modes find witnesses and the comparison is not vacuous
    params = {"tables": [{"pair": ["a", "b"], "t": [1.0], "v": [1.0]},
                         {"pair": ["b", "c"], "t": [1.0], "v": [1.0]},
                         {"pair": ["a", "c"], "t": [1.0], "v": [10.0]}]}
    inst = g.gallery_construct("tabulated", params, three_point_carrier(), op, T_GRID, ALPHA_GRID)
    for exhaustive in (False, True):
        witnesses, samples = assert_p3_matches_loop(inst, 3, 500, exhaustive)
        assert witnesses and samples == (3 ** 3 * len(T_GRID) ** 2 if exhaustive else 500)


@pytest.mark.parametrize("op", (g.PLUS, g.MAX))
@pytest.mark.parametrize("family", ("scaled", "damped"))
def test_p3_op_arrays_match_the_scalar_loop_with_signed_zeros(family, op):
    # a table with -0.0 entries behind the carrier's back: the trial (a, b, x)
    # = (a, b, a) gives the op (P(a,a,s), P(b,a,t)) = (0.0, -0.0) and (c, a, c)
    # gives (-0.0, 0.0), both with P(a,b,s+t) > 0, so the rhs zeros reach the
    # witnesses; np.maximum would return the other zero for (0.0, -0.0)
    carrier = carrier_without_triangle_check(
        three_point_carrier().labels, [[0.0, 1.0, 0.0], [-0.0, 0.0, 1.0], [1.0, 1.0, -0.0]])
    inst = g.GpmsInstance(carrier, family, {}, op, T_GRID, ALPHA_GRID)
    for seed in range(5):
        assert_p3_matches_loop(inst, seed, 400, exhaustive=False)
    assert_p3_matches_loop(inst, 0, 0, exhaustive=True)
    witnesses, _ = core.p3_violations(inst, exhaustive=True)
    signs = {math.copysign(1, w.values["rhs"]) for w in witnesses if w.values["rhs"] == 0}
    assert signs == ({1.0, -1.0} if op is g.MAX else {1.0})


def test_p3_trials_match_the_scalar_loop_on_a_one_value_t_grid():
    # the t draws have modulus 1: every word maps to index 0
    params = {"tables": [{"pair": ["a", "b"], "t": [1.0], "v": [1.0]},
                         {"pair": ["b", "c"], "t": [1.0], "v": [1.0]},
                         {"pair": ["a", "c"], "t": [1.0], "v": [10.0]}]}
    for op in (g.PLUS, g.MAX, TABLE_OP):
        inst = g.gallery_construct("tabulated", params, three_point_carrier(), op, (2.0,),
                                   ALPHA_GRID)
        witnesses, samples = assert_p3_matches_loop(inst, 7, 300, exhaustive=False)
        assert witnesses and samples == 300


def test_p3_trials_match_the_scalar_loop_over_strided_interval_points():
    # 401 sample points on [-2, 2] thin to 135 quantifier points, which the
    # trials index; the table op fails P3 there, so witnesses are compared
    inst = interval_instance("scaled", op=TABLE_OP, resolution=0.01)
    assert len(inst.quantifier_points()) == 135 < inst.carrier.size
    for seed in (0, 5):
        witnesses, samples = assert_p3_matches_loop(inst, seed, 400, exhaustive=False)
        assert witnesses and samples == 400


def test_sampled_p3_makes_no_randrange_call(monkeypatch):
    inst = make_instance("constant", op=TABLE_OP)  # fails P3, so witnesses are compared
    expected = exact(loop_p3(inst, seed=4, n_samples=1000))

    def refuse(*args, **kwargs):
        raise AssertionError("randrange called")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    rep = g.check_P_axiom(inst, "P3", seed=4, n_samples=1000)
    assert rep.failed and exact((tuple(rep.witnesses), rep.samples_tested)) == expected


@settings(max_examples=80, deadline=None)
@given(gallery_instances(), st.integers(0, 99), st.sampled_from((1, 200)))
def test_check_P_axioms_matches_single_axiom_calls(inst, seed, n_samples):
    together = g.check_P_axioms(inst, seed=seed, n_samples=n_samples)
    alone = [g.check_P_axiom(inst, ax, seed=seed, n_samples=n_samples) for ax in g.P_AXIOMS]
    assert [r.name for r in together] == list(g.P_AXIOMS)
    for a, b in zip(together, alone):
        assert canonical_json(a.to_jsonable()) == canonical_json(b.to_jsonable()), a.name
        assert exact(tuple(a.witnesses)) == exact(tuple(b.witnesses)), a.name


def test_check_P_axioms_refuses_unknown_axioms_and_sample_counts():
    inst = make_instance("scaled")
    with pytest.raises(g.DomainError, match="unknown axiom 'P6'"):
        g.check_P_axioms(inst, ("P1", "P6"))
    with pytest.raises(g.DomainError, match="n_samples"):
        g.check_P_axioms(inst, n_samples=0)
    assert g.check_P_axioms(inst, ()) == []


# the scalar grid loops the single path replaced, kept as oracles

def scalar_scan(inst, axiom):
    """(witnesses, samples, data) of the pre-kernel P1/P2/P4/P5/monotone loops;
    P5 of a formula family is the report the formula decides."""
    pts = inst.quantifier_points()
    tg = inst.t_grid
    P_ = g.eval_P
    witnesses = []
    samples = 0
    if axiom == "P1":
        for x in pts:
            for t in tg:
                samples += 1
                v = P_(inst, x, x, t)
                if v != 0.0:
                    witnesses.append(g.Witness(points=(x,), values={"t": t, "value": v},
                                               detail="P(a,a,t) != 0"))
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                samples += 1
                if all(P_(inst, x, y, t) == 0.0 for t in tg):
                    witnesses.append(g.Witness(points=(x, y), values={},
                                               detail="distinct pair with P = 0 on the whole t grid"))
        return witnesses, samples, {}
    if axiom == "P2":
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                for t in tg:
                    samples += 1
                    lhs, rhs = P_(inst, x, y, t), P_(inst, y, x, t)
                    if lhs != rhs:
                        witnesses.append(g.Witness(points=(x, y),
                                                   values={"t": t, "lhs": lhs, "rhs": rhs},
                                                   detail="P(a,b,t) != P(b,a,t)"))
        return witnesses, samples, {}
    if axiom == "P4":
        for alpha in inst.alpha_grid:
            for i, x in enumerate(pts):
                for y in pts[i + 1:]:
                    samples += 1
                    v = P_(inst, x, y, tg[0])
                    if v < alpha:
                        witnesses.append(g.Witness(
                            points=(x, y), values={"alpha": alpha, "t": tg[0], "value": v},
                            detail="distinct pair below alpha for every grid t"))
        return witnesses, samples, {}
    if axiom == "P5" and inst.family == "tabulated":
        tables = {}
        for e in inst.params["tables"]:
            a, b = sorted(e["pair"])
            tables[a, b] = (np.asarray(e["t"], float), np.asarray(e["v"], float))
        best = None
        for (a, b), (nodes, vals) in sorted(tables.items()):
            for k in range(1, len(nodes)):
                jump = float(vals[k - 1] - vals[k])
                if jump > 0 and (best is None or jump > best.values["jump"]):
                    best = g.Witness(points=(a, b), values={"t": float(nodes[k]), "jump": jump},
                                     detail="step drop in the pair table")
        return ([best] if best else []), 0, {}
    if axiom == "P5":  # a formula family: continuous in t > 0, no scan
        return [], 0, {}
    for i, x in enumerate(pts):  # monotone
        for y in pts[i + 1:]:
            for t1, t2 in zip(tg, tg[1:]):
                samples += 1
                v1, v2 = P_(inst, x, y, t1), P_(inst, x, y, t2)
                if v1 < v2:
                    witnesses.append(g.Witness(points=(x, y),
                                               values={"t1": t1, "t2": t2, "v1": v1, "v2": v2},
                                               detail="P increases between adjacent grid t"))
    return witnesses, samples, {}


def scalar_sanity_error(inst):
    """(message, axiom) of the first failure of the pre-kernel construction
    sanity loop, or None."""
    pts = inst.carrier.points()
    tg = inst.t_grid
    for x in pts:
        for t in tg:
            if g.eval_P(inst, x, x, t) != 0.0:
                return f"P({x},{x},{t}) != 0", "P1"
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            vals = [g.eval_P(inst, x, y, t) for t in tg]
            if all(v == 0.0 for v in vals):
                return f"distinct points ({x}, {y}) are indistinguishable on the t grid", "P1"
            for t, v in zip(tg, vals):
                if v != g.eval_P(inst, y, x, t):
                    return f"P not symmetric at ({x}, {y}, {t})", "P2"
            for (t1, v1), (t2, v2) in zip(zip(tg, vals), zip(tg[1:], vals[1:])):
                if v1 < v2:
                    return (f"P({x},{y},.) increases from t={t1} to t={t2}; must be non-increasing",
                            "monotone")
    everywhere = inst.carrier.points()
    x, y = max(((x, y) for x in everywhere for y in everywhere),
               key=lambda pair: inst.carrier.base_distance(*pair))
    if not math.isfinite(g.eval_P(inst, x, y, tg[0])):
        return f"P({x},{y},{tg[0]}) is not finite", "finite"
    return None


def below_first_nodes(inst, op):
    """``inst`` under ``op`` with 1e-3 put first in its t grid, below every
    first node ``step_params`` draws: there the grid reads a step table's
    first value, the sup of P over t > 0."""
    return g.GpmsInstance(inst.carrier, inst.family, inst.params, op, (1e-3,) + inst.t_grid,
                          inst.alpha_grid)


def points_and_values(witnesses):
    return exact([(w.points, w.values) for w in witnesses])


def assert_single_path_matches_scalar_loops(inst):
    """P1, P2, P4, P5 and monotone against the scalar grid loops, witness for
    witness (on an interval, P4's pairs are lo and a point alpha/4 above it,
    which the sample points need not hold), then ``p4_violations`` and the
    construction's refusal against theirs."""
    axioms = ("P1", "P2", "P4", "P5", "monotone")
    for axiom, rep in zip(axioms, g.check_P_axioms(inst, axioms)):
        alone = g.check_P_axiom(inst, axiom)
        assert canonical_json(alone.to_jsonable()) == canonical_json(rep.to_jsonable()), axiom
        assert exact(tuple(alone.witnesses)) == exact(tuple(rep.witnesses)), axiom
        if axiom == "P4" and inst.carrier.kind == "interval":
            assert rep.verdict == ("fail" if inst.family in ("constant", "damped") else "pass")
            for w in rep.witnesses:
                assert all(g.eval_P(inst, *w.points, t) < w.values["alpha"] for t in inst.t_grid)
            continue
        witnesses, _, _ = scalar_scan(inst, axiom)
        assert points_and_values(rep.witnesses) == points_and_values(witnesses), axiom
        assert rep.verdict == ("fail" if witnesses else "pass"), axiom
        if axiom == "P5" and inst._steps is None:
            assert rep.note == f"{inst.family} family: continuous in t > 0, exact; no grid scan"
    for alpha in inst.alpha_grid + (0.1, 3.0):
        pts = inst.quantifier_points()
        oracle = [(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]
                  if g.eval_P(inst, x, y, inst.t_grid[0]) < alpha]
        assert exact(g.p4_violations(inst, alpha)) == exact(oracle)
    expected = scalar_sanity_error(inst)
    try:
        g.gallery_construct(inst.family, inst.params, inst.carrier, inst.op,
                            inst.t_grid, inst.alpha_grid)
    except g.ConstructionError as err:
        assert (str(err), err.axiom) == expected
    else:
        assert expected is None


@st.composite
def zero_table_instances(draw):
    """Raw step tables (no construction) in which some pairs read 0 for
    every t: P1 fails there, and P4 at every alpha."""
    labels = draw(LABELS)
    t_grid = tuple(sorted(draw(st.sets(st.sampled_from((0.05, 0.25, 0.5, 1.0, 2.0, 4.0)),
                                       min_size=1, max_size=4))))
    params = draw(step_params(labels, t_grid))
    for k in draw(st.sets(st.integers(0, len(params["tables"]) - 1), min_size=1)):
        params["tables"][k]["v"] = [0.0] * len(params["tables"][k]["t"])
    n = len(labels)
    carrier = g.FiniteCarrier(labels, [[abs(i - j) for j in range(n)] for i in range(n)])
    alpha_grid = tuple(sorted(draw(st.sets(st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)),
                                           min_size=1, max_size=3))))
    return g.GpmsInstance(carrier, "tabulated", params, g.MAX, t_grid, alpha_grid)


# one path decides P1, P2, P4, P5 and monotone under every op: the table op
# here reaches the same code as plus and max

@settings(max_examples=150, deadline=None)
@given(kernel_instances())
def test_tensor_scans_match_scalar_loops(inst):
    # the single path against the scalar grid loops, on a grid that reads each
    # step table's first value
    assert_single_path_matches_scalar_loops(below_first_nodes(inst, TABLE_OP))


@settings(max_examples=60, deadline=None)
@given(zero_table_instances())
def test_tensor_scans_match_scalar_loops_on_failing_tables(inst):
    # step tables that are 0 on whole pairs: P1 and P4 witnesses, and the
    # construction's refusal of the first blank pair, are compared too
    inst = below_first_nodes(inst, TABLE_OP)
    assert g.check_P_axiom(inst, "P1").failed and g.check_P_axiom(inst, "P4").failed
    assert_single_path_matches_scalar_loops(inst)


def test_interval_sweep_scans_make_no_scalar_calls(monkeypatch):
    # the scaled interval-sweep instance: [-2, 2] at 0.01, 135 quantifier points
    calls = [0]
    real = core.eval_P

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "eval_P", counting)
    inst = interval_instance("scaled", resolution=0.01)
    assert len(inst.quantifier_points()) == 135
    for axiom in ("P1", "P2", "P4", "P5", "monotone"):
        g.check_P_axiom(inst, axiom)
    g.p4_violations(inst, 1.0)
    g.check_P_axiom(inst, "P3", n_samples=10)  # the P3 trials are gathered too
    assert calls[0] == 0


def test_sampled_p3_looks_up_each_point_once(monkeypatch):
    inst = make_instance("scaled", op=g.MAX)
    calls = [0]
    real = g.FiniteCarrier.index

    def counting(self, p):
        calls[0] += 1
        return real(self, p)

    monkeypatch.setattr(g.FiniteCarrier, "index", counting)
    _, samples = core.p3_violations(inst, seed=11, n_samples=1000)
    # the drawn trials index the points' kernel coordinates, mapped once
    assert samples == 1000 and calls[0] <= len(inst.quantifier_points())


def zero_table_instance():
    """Step tables on four points: (a, b) and (a, x) read 0 for every t, and
    (b, c) starts below alpha = 1, so P1 and P4 fail."""
    carrier = g.FiniteCarrier(("a", "b", "c", "x"), [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1],
                                                     [3, 2, 1, 0]])
    tables = [{"pair": ["a", "b"], "t": [0.5], "v": [0.0]},
              {"pair": ["a", "c"], "t": [0.5, 1.0], "v": [2.0, 1.0]},
              {"pair": ["a", "x"], "t": [1.0, 2.0], "v": [0.0, 0.0]},
              {"pair": ["b", "c"], "t": [0.5], "v": [0.5]},
              {"pair": ["b", "x"], "t": [0.5, 2.0], "v": [3.0, 0.2]},
              {"pair": ["c", "x"], "t": [1.0], "v": [1.0]}]
    return g.GpmsInstance(carrier, "tabulated", {"tables": tables}, TABLE_OP, (0.25, 1.0, 2.0),
                          (0.25, 1.0))


def test_scan_witnesses_are_a_sequence_built_on_read():
    inst = zero_table_instance()
    for axiom in ("P1", "P4"):
        rep = g.check_P_axiom(inst, axiom)
        eager, _, _ = scalar_scan(inst, axiom)
        assert rep.verdict == "fail" and eager, axiom
        assert points_and_values(rep.witnesses) == points_and_values(eager), axiom
    seqs = [g.check_P_axiom(inst, axiom).witnesses for axiom in ("P1", "P4")]
    seqs.append(g.check_P_axiom(make_instance("constant"), "P3").witnesses)
    seqs.append(g.check_P_axiom(make_instance("constant", op=TABLE_OP), "P3",
                                exhaustive=True).witnesses)
    for seq in seqs:
        assert isinstance(seq, g.ScanWitnesses) and len(seq) > 0
        eager = list(seq)
        assert len(seq) == len(eager)
        assert exact(seq[0]) == exact(eager[0]) and exact(seq[-1]) == exact(eager[-1])
        assert exact(seq[-len(seq)]) == exact(eager[0])
        head = seq[:8]
        assert type(head) is tuple and exact(head) == exact(eager[:8])
        assert exact(seq[1::2]) == exact(eager[1::2])
        for k in (len(seq), -len(seq) - 1):
            with pytest.raises(IndexError):
                seq[k]
        assert exact(list(iter(seq))) == exact(eager)


def test_interval_sweep_report_builds_nine_p4_witnesses(tmp_path, monkeypatch):
    # a report builds the first witness of a check (CheckReport.witness) and
    # the eight it prints, however many the check finds.  The damped
    # interval-sweep instance under a table op fails P4 once per alpha (the
    # grid scan listed 32,044 sample pairs there); constant/max on a 48-point
    # line fails P3 at every pair two or more apart
    table = {"table": {"grid": [0.0, 1.0, 2.0], "values": [[0.0, 1.0, 2.0], [1.0, 1.5, 2.5],
                                                           [2.0, 2.5, 3.0]]}}
    base = {"version": 1, "params": {}, "t_grid": list(T_GRID), "alpha_grid": list(ALPHA_GRID),
            "seed": 11, "tol": 1e-6}
    n = 48
    docs = {"P4": dict(base, interval=[-2.0, 2.0], resolution=0.02, family="damped", op=table),
            "P3": dict(base, points=[f"p{i}" for i in range(n)], family="constant", op="max",
                       d=[[abs(i - j) for j in range(n)] for i in range(n)])}
    counts = {"P4": len(ALPHA_GRID), "P3": n * (n - 1) // 2 - (n - 1)}
    details = {"P4": "distinct pair below alpha for every t > 0",
               "P3": "P(a,b,s+t) > P(a,x,s) o P(b,x,t)"}
    built = []
    real = g.Witness.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.detail)

    monkeypatch.setattr(g.Witness, "__init__", counting)
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        inst_file = g.load_instance(str(path))
        built.clear()
        report = g.run_command("full-report" if name == "P4" else "axioms", inst_file)
        text = report.to_canonical_json()
        assert built.count(details[name]) <= 9, name
        (check,) = [c for c in json.loads(text)["checks"] if c["name"] == name]
        assert check["witness_count"] == counts[name]
        assert len(check["witnesses"]) == min(8, counts[name])
        rep = next(c for c in report.checks if c.name == name)
        assert len(list(rep.witnesses)) == counts[name]


def test_tabulated_steps_left_of_the_first_node_and_ragged_pairs():
    carrier = three_point_carrier()
    params = {"tables": [{"pair": ["b", "a"], "t": [0.5], "v": [2.0]},
                         {"pair": ["a", "c"], "t": [0.3, 1.5, 4.0], "v": [5.0, 3.0, 0.5]},
                         {"pair": ["b", "c"], "t": [1.0, 2.0], "v": [1.0, 1.0]}]}
    inst = g.gallery_construct("tabulated", params, carrier, g.MAX, (0.1, 1.0, 5.0), ALPHA_GRID)
    assert [g.eval_P(inst, "c", "a", t) for t in (0.1, 0.3, 1.0, 1.5, 3.0, 4.0, 9.0)] == \
        [5.0, 5.0, 5.0, 3.0, 3.0, 0.5, 0.5]
    assert g.eval_P(inst, "a", "b", 0.01) == 2.0
    rep = g.check_P_axiom(inst, "P5")
    assert rep.witness.points == ("a", "c") and rep.witness.values == {"t": 4.0, "jump": 2.5}
    am = g.AlphaMetric(inst, 1.0)
    assert [g.d_alpha(am, "a", "c"), g.d_alpha(am, "b", "c"), g.d_alpha(am, "a", "b")] == \
        [4.0, math.inf, math.inf]
    assert g.d_alpha(g.AlphaMetric(inst, 6.0), "a", "c") == 0.0


# -- the formula families under plus or max: exact verdicts against dense scans --

FORMULA_PARAMS = {"scaled": {}, "constant": {}, "damped": {}, "discrete": {"c": 1.5}}


def carrier_without_triangle_check(labels, d):
    """A carrier on a table that construction would refuse, one that breaks
    the triangle inequality, say: built on the discrete metric, then handed
    ``d`` and the table its scans read behind its back, read-only as
    construction leaves them."""
    carrier = g.FiniteCarrier(labels, 1.0 - np.eye(len(labels)))
    d = np.array(d, dtype=float)
    d.flags.writeable = False
    carrier.d = d
    carrier._scan = core._scan_table(d)
    return carrier


@st.composite
def reduction_carriers(draw):
    """Small finite carriers: integer metrics, integer tables that break the
    triangle inequality, ultrametrics, and float distances of points on a
    line, whose triangle ties rest on rounding."""
    kind = draw(st.sampled_from(("metric", "table", "ultrametric", "line")))
    n = draw(st.integers(3, 5))
    if kind == "line":
        xs = draw(st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=n, max_size=n,
                           unique=True))
        d = [[abs(a - b) for b in xs] for a in xs]
    elif kind == "ultrametric":  # 3 - the depth at which two paths of a tree part
        paths = [(draw(st.integers(0, 1)), draw(st.integers(0, 2)), i) for i in range(n)]
        scale = draw(st.sampled_from((1, 2, 5)))
        d = [[scale * (3 - next(k for k in range(3) if p[k] != q[k])) if p != q else 0
              for q in paths] for p in paths]
    else:
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = draw(st.integers(1, 9))
        if kind == "metric":
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return carrier_without_triangle_check([f"p{i}" for i in range(n)], d)


def dense_t_grid(carrier):
    """Powers of two, every distance and its square root (the scaled
    witnesses' times), and two t where 1 + exp(-t) rounds to 1."""
    dists = {v for row in carrier.d.tolist() for v in row if v > 0}
    return tuple(sorted({2.0 ** k for k in range(-4, 9)} | dists | {math.sqrt(v) for v in dists}
                        | {40.0, 400.0}))


def reduced_p3_fails(family, op, dab, dax, dbx):
    """The reduced P3 condition of a family and op broken at one triple of
    Fraction distances."""
    if family == "discrete":
        return False
    if op == "max" and family != "scaled":
        return dab > max(dax, dbx)
    q = dab - dax - dbx
    return q > 0 and (family != "scaled" or op == "max" or q * q > 4 * dax * dbx)


_EXP_SLACK = Fraction(1, 10 ** 9)


def exact_P_bounds(inst, dist, t):
    """(low, high) Fractions around P at a Fraction distance and t: exact for
    the rational formulas, exp(-t) within 1e-9 of math.exp for damped."""
    if dist == 0:
        return Fraction(0), Fraction(0)
    if inst.family == "damped":
        e = Fraction(math.exp(-float(t)))
        return dist * (1 + e * (1 - _EXP_SLACK)), dist * (1 + e * (1 + _EXP_SLACK))
    if inst.family == "scaled":
        v = dist / t
    elif inst.family == "constant":
        v = dist
    else:  # discrete
        v = Fraction(inst.params["c"]) / t
    return v, v


def dense_p3_pairs(inst):
    """The index pairs (a, b), a before b among the quantifier points, with a
    P3 violation on the t grid that Fraction arithmetic confirms: the float
    violations of each triple are confirmed in grid order until one holds."""
    pts = inst.quantifier_points()
    c = coords(inst, pts)
    T = np.asarray(inst.t_grid)
    S, U = (m.ravel() for m in np.meshgrid(T, T, indexing="ij"))
    d = [[Fraction(inst.carrier.base_distance(p, q)) for q in pts] for p in pts]
    combine = (lambda u, v: u + v) if inst.op.kind == "plus" else max
    found = set()
    for a, b, x in itertools.product(range(len(pts)), repeat=3):
        if a >= b or (a, b) in found:
            continue
        lhs = P_at(inst, c[a], c[b], S + U)
        rhs = g.eval_op_array(inst.op, P_at(inst, c[a], c[x], S), P_at(inst, c[b], c[x], U))
        for k in np.flatnonzero(lhs > rhs):
            s, t = Fraction(S[k]), Fraction(U[k])
            low = exact_P_bounds(inst, d[a][b], s + t)[0]
            high = combine(exact_P_bounds(inst, d[a][x], s)[1], exact_P_bounds(inst, d[b][x], t)[1])
            if low > high:
                found.add((a, b))
                break
    return found


def assert_witnesses_reproduce(inst, rep):
    for w in rep.witnesses:
        a, b, x = w.points
        v = w.values
        lhs = g.eval_P(inst, a, b, v["s"] + v["t"])
        rhs = g.eval_op(inst.op, g.eval_P(inst, a, x, v["s"]), g.eval_P(inst, b, x, v["t"]))
        assert (lhs, rhs) == (v["lhs"], v["rhs"]) and lhs > rhs


@settings(max_examples=40, deadline=None)
@given(reduction_carriers())
def test_p3_reductions_match_dense_scans(carrier):
    # every confirmed grid violation breaks the reduced condition; on an integer
    # table the grid holds every witness's times, so the two sets agree, and
    # each failing pair reports the first failing x with a float witness
    n = carrier.size
    d = [[Fraction(v) for v in row] for row in carrier.d.tolist()]
    integral = bool(np.all(carrier.d == np.floor(carrier.d)))
    for family, params in FORMULA_PARAMS.items():
        for op in (g.PLUS, g.MAX):
            inst = g.GpmsInstance(carrier, family, params, op, dense_t_grid(carrier), (1.0,))
            rule = {}
            for a, b, x in itertools.product(range(n), repeat=3):
                if a < b and (a, b) not in rule and \
                        reduced_p3_fails(family, op.kind, d[a][b], d[a][x], d[b][x]):
                    rule[a, b] = x
            scanned = dense_p3_pairs(inst)
            assert scanned <= set(rule), (family, op)
            rep = g.check_P_axiom(inst, "P3")
            index = carrier.index
            witnessed = {(index(w.points[0]), index(w.points[1])): index(w.points[2])
                         for w in rep.witnesses}
            assert witnessed.items() <= rule.items(), (family, op)
            assert_witnesses_reproduce(inst, rep)
            assert rep.verdict == ("pass" if not rule else "fail" if witnessed else
                                   "inconclusive"), (family, op)
            if integral:
                assert scanned == set(rule) and witnessed == rule, (family, op)


# a t grid that reaches below every first node ``step_params`` draws, and
# close enough to t = 0+ that the grid reads the sup of P over t > 0
DENSE_T = (1e-12, 1e-6, 1e-3, 0.5, 1.0, 4.0, 50.0)


@settings(max_examples=40, deadline=None)
@given(reduction_carriers(), st.data())
def test_p4_reductions_match_dense_scans(carrier, data):
    # near t = 0+ the dense grid reads the sup of P over t > 0, so p4_violations
    # there lists the pairs that fail d_alpha = 0: on an integer table and on
    # step tables exactly, under every op
    alphas = (0.5, 1.0, 2.0, 3.0, 4.0, 8.0)
    integral = bool(np.all(carrier.d == np.floor(carrier.d)))
    tables = {"tabulated": data.draw(step_params(carrier.labels, DENSE_T))}
    for family, params in {**FORMULA_PARAMS, **tables}.items():
        firsts = {tuple(sorted(e["pair"])): e["v"][0] for e in params.get("tables", ())}
        for op in (g.PLUS, g.MAX, TABLE_OP):
            inst = g.GpmsInstance(carrier, family, params, op, DENSE_T, alphas)
            rep = g.check_P_axiom(inst, "P4")
            got = [(w.values["alpha"], *w.points) for w in rep.witnesses]
            scanned = [(alpha, *pair) for alpha in alphas for pair in g.p4_violations(inst, alpha)]
            assert set(got) <= set(scanned)
            if integral or family == "tabulated":
                assert got == scanned
            # P at 1e-12 lies below alpha wherever d_alpha = 0: every fail is shown
            assert rep.verdict == ("fail" if got else "pass") and "no float witness" not in rep.note
            for alpha, x, y in got:  # the sup: d, 2d (never reached) or the first value
                dist, limit = Fraction(carrier.base_distance(x, y)), Fraction(alpha)
                if family == "constant":
                    assert dist < limit
                elif family == "damped":
                    assert 2 * dist <= limit
                else:
                    assert family == "tabulated" and firsts[tuple(sorted((x, y)))] < alpha
                assert all(g.eval_P(inst, x, y, t) < alpha for t in DENSE_T)


@settings(max_examples=40, deadline=None)
@given(reduction_carriers(), st.data())
def test_p1_reductions_match_dense_scans(carrier, data):
    # a step table is 0 for all t > 0 iff its first value is, which a dense
    # grid below every first node reads; formula P is never 0 off the diagonal
    tables = {"tabulated": data.draw(step_params(carrier.labels, DENSE_T))}
    for family, params in {**FORMULA_PARAMS, **tables}.items():
        for op in (g.PLUS, g.MAX, TABLE_OP):
            inst = g.GpmsInstance(carrier, family, params, op, DENSE_T, ALPHA_GRID)
            rep = g.check_P_axiom(inst, "P1")
            pts = carrier.labels
            scanned = [(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]
                       if all(g.eval_P(inst, x, y, t) == 0.0 for t in DENSE_T)]
            assert [w.points for w in rep.witnesses] == scanned
            assert rep.verdict == ("fail" if scanned else "pass")
            assert not scanned or family == "tabulated"


@pytest.mark.parametrize("carrier", ["finite", "interval"])
def test_axioms_but_p3_read_p_at_one_t_at_most(monkeypatch, carrier):
    # one path for P1, P2, P4, P5 and monotone on every family and op: no
    # call reads P over more than one t, so no points x points x t tensor
    real = core._kernel

    def one_t(inst, u, v, t):
        assert np.size(t) <= 1, "P read over a t array"
        return real(inst, u, v, t)

    if carrier == "finite":
        car = three_point_carrier()
        cases = {**FORMULA_PARAMS, "tabulated": g.tabulate_step_family(
            car, T_GRID, lambda dist, t: dist / (1 + t))}
    else:
        car = g.IntervalCarrier(-2.0, 2.0, 0.01)
        cases = FORMULA_PARAMS
    monkeypatch.setattr(core, "_kernel", one_t)
    axioms = ("P1", "P2", "P4", "P5", "monotone")
    failed = set()
    for family, params in cases.items():
        for op in (g.PLUS, g.MAX, TABLE_OP):
            inst = g.GpmsInstance(car, family, params, op, T_GRID, ALPHA_GRID)
            reports = g.check_P_axioms(inst, axioms)
            assert [r.name for r in reports] == list(axioms)
            failed |= {(family, r.name) for r in reports if r.failed}
    # P4 shows its witnesses, so P is read where pairs fail
    assert {("constant", "P4"), ("damped", "P4")} <= failed


def test_damped_kernel_never_rises_between_adjacent_floats():
    # P = d (1 + exp(-t)) is non-increasing in floats too: from each sampled t
    # to the next float above it, 1 + exp(-t) does not rise, so neither does
    # P at any distance.  The load reads P at the smallest grid t alone, and
    # P4 shows a witness there for the whole grid, on the strength of this
    rng = np.random.default_rng(24)
    t = np.ldexp(rng.uniform(1.0, 2.0, 200_000), rng.integers(-60, 11, 200_000))
    up = np.nextafter(t, np.inf)

    def factor(x):
        return 1.0 + np.asarray(core._EXP(-x), dtype=float)

    assert np.all(factor(up) <= factor(t))
    carrier = g.FiniteCarrier(("a", "b", "c"), [[0, 0.7, 3.0], [0.7, 0, 2.5], [3.0, 2.5, 0]])
    inst = g.GpmsInstance(carrier, "damped", {}, g.MAX, T_GRID, ALPHA_GRID)
    c = np.array([[0, 1], [0, 2], [1, 2]])
    rows = P_at(inst, c[:, :1], c[:, 1:], t[:20_000]), P_at(inst, c[:, :1], c[:, 1:], up[:20_000])
    assert np.all(rows[1] <= rows[0])


@settings(max_examples=60, deadline=None)
@given(kernel_instances())
def test_ray_start_over_an_alpha_array_matches_one_alpha_at_a_time(inst):
    # P4 reads every alpha of the grid in one ray_start call
    c = coords(inst, inst.quantifier_points())
    alphas = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 9.0)
    grid = core.ray_start(inst, c[:, None], c, np.array(alphas)[:, None, None])
    assert exact(grid.tolist()) == \
        exact([core.ray_start(inst, c[:, None], c, alpha).tolist() for alpha in alphas])


# 8 t per octave from 2^-60 to 2^6: below every first table node, and far
# enough toward t = 0+ that 1 + exp(-t) rounds to 2
DENSE_LOG_T = 2.0 ** np.linspace(-60.0, 6.0, 529)


@settings(max_examples=60, deadline=None)
@given(kernel_instances())
def test_sup_P_is_the_t_to_0_limit_of_a_dense_log_t_scan(inst):
    pts = inst.carrier.points()
    c = coords(inst, pts[::max(1, len(pts) // 16)])
    u, v = c[:, None], c[None, :]
    sup = core.sup_P(inst, u, v)
    scan = P_at(inst, u[..., None], v[..., None], DENSE_LOG_T)  # [i, j, t]
    top = scan.max(-1)
    if inst.family in ("scaled", "discrete"):
        unbounded = np.isinf(sup)
        assert np.all(sup[~unbounded] == 0.0) and np.all(top[~unbounded] == 0.0)
        assert np.all(unbounded == (core._distance(inst, u, v) != 0.0))
        # P = q / t doubles with every halving of t, so it passes every bound:
        # at 2^-60 it is 2^60 times P at t = 1
        assert np.all(scan[unbounded][:, 0] == 2.0 ** 60 * P_at(inst, u, v, 1.0)[unbounded])
    elif inst.family == "damped":
        assert np.all(top <= sup) and np.all(sup - top <= 1e-9 * sup)
    else:  # constant, and a step table's column 0, which extends to the left
        assert exact(top.tolist()) == exact(sup.tolist())


def test_sup_P_of_damped_overflows_to_inf_without_a_warning():
    carrier = g.FiniteCarrier(("a", "b"), [[0, 1e308], [1e308, 0]])
    inst = g.GpmsInstance(carrier, "damped", {}, g.MAX, T_GRID, ALPHA_GRID)
    with np.errstate(all="raise"):
        assert core.sup_P(inst, 0, 1) == math.inf and core.sup_P(inst, 1, 1) == 0.0


@pytest.mark.parametrize("family, params, dist", [("scaled", {}, 5e-324),
                                                  ("discrete", {"c": 5e-324}, 1.0)])
def test_d_alpha_that_underflows_stays_positive(family, params, dist):
    # q / alpha rounds to 0 for q = 5e-324 and alpha = 4, though d_alpha = q / 4
    # > 0: ray_start reads the least positive float, so P4 passes as it must
    carrier = g.FiniteCarrier(("a", "b"), [[0, dist], [dist, 0]])
    inst = g.gallery_construct(family, params, carrier, g.MAX, T_GRID, (0.25, 4.0))
    assert core.ray_start(inst, 0, 1, 4.0) == 5e-324
    assert core.ray_start(inst, 0, 0, 4.0) == 0.0
    assert g.check_P_axiom(inst, "P4").ok


@pytest.mark.parametrize("op", (g.PLUS, g.MAX))
@pytest.mark.parametrize("family", sorted(FORMULA_PARAMS))
def test_p3_on_an_interval_is_fixed_by_family_and_op(family, op):
    # |x - y| is a metric and no ultrametric: only constant/max and damped/max
    # fail, witnessed by the ends and the middle, and a dense scan over the
    # sample points agrees
    inst = g.GpmsInstance(g.IntervalCarrier(0.0, 1.0, 0.25), family, FORMULA_PARAMS[family], op,
                          (0.25, 0.5, 1.0, 40.0), ALPHA_GRID)
    rep = g.check_P_axiom(inst, "P3")
    ultrametric = op is g.MAX and family in ("constant", "damped")
    assert rep.verdict == ("fail" if ultrametric else "pass")
    assert [w.points for w in rep.witnesses] == ([(0.0, 1.0, 0.5)] if ultrametric else [])
    assert_witnesses_reproduce(inst, rep)
    assert bool(dense_p3_pairs(inst)) == ultrametric


@pytest.mark.parametrize("dab,dax,dbx,fails", [
    (6.0, 1.0, 2.0, True), (6.0, 2.0, 1.0, True), (5.0, 1.0, 2.0, False),
    (9.0, 1.0, 4.0, False), (10.0, 1.0, 4.0, True), (6.0, 1.0, 4.0, False),
    (9 + 2.0 ** -49, 1.0, 4.0, True), (9 + 2.0 ** -49, 4.0, 1.0, True),
    (9 - 2.0 ** -49, 1.0, 4.0, False)])
def test_scaled_plus_needs_the_square_root_bound(dab, dax, dbx, fails):
    # d(a,b) <= (sqrt d(a,x) + sqrt d(b,x))^2: 5.83 at (1, 2), where the
    # triangle inequality would pass 6; 9 at (1, 4), met at the tie and
    # decided by Fraction arithmetic one ulp of 9 to either side
    carrier = carrier_without_triangle_check(("a", "b", "x"),
                                             [[0, dab, dax], [dab, 0, dbx], [dax, dbx, 0]])
    inst = g.GpmsInstance(carrier, "scaled", {}, g.PLUS, dense_t_grid(carrier), ALPHA_GRID)
    rep = g.check_P_axiom(inst, "P3")
    assert rep.verdict == ("fail" if fails else "pass")
    assert_witnesses_reproduce(inst, rep)
    assert dense_p3_pairs(inst) == ({(0, 1)} if fails else set())


def test_exact_violation_without_a_float_witness_is_inconclusive():
    # d(a,b) = 1 + 2^-52 exceeds d(a,x) + d(b,x) = 1 + 0.75 * 2^-52, whose
    # float sum rounds up to d(a,b): no float witness shows the violation
    tiny = 0.75 * 2.0 ** -52
    carrier = g.FiniteCarrier(("a", "b", "x"), [[0, 1 + 2.0 ** -52, 1.0],
                                                [1 + 2.0 ** -52, 0, tiny], [1.0, tiny, 0]])
    for family, op in (("scaled", g.MAX), ("constant", g.PLUS), ("damped", g.PLUS)):
        rep = g.check_P_axiom(g.gallery_construct(family, {}, carrier, op, T_GRID, ALPHA_GRID),
                              "P3")
        assert (rep.verdict, len(rep.witnesses)) == ("inconclusive", 0), family
        assert rep.note.endswith("; 1 exact violations have no float witness, "
                                 "the first at (a, b, x)"), family
        assert g.check_P_axiom(g.gallery_construct(family, {}, carrier, op, T_GRID, ALPHA_GRID),
                               "P3", exhaustive=True).verdict == "inconclusive"


def test_false_fail_reproducer_passes_p3():
    # collinear 0, 6, 14: the grid scan read lhs 3.333333333333334 against rhs
    # 3.3333333333333335 at t (1.8, 2.4), a rounding artifact; d is a metric
    carrier = g.FiniteCarrier(("0", "6", "14"), [[0, 6, 14], [6, 0, 8], [14, 8, 0]])
    inst = g.gallery_construct("scaled", {}, carrier, g.MAX, (1.7999999999999998, 2.4), (1.0,))
    assert core.p3_violations(inst, exhaustive=True)[0]  # the float scan still shows it
    assert not dense_p3_pairs(inst)  # and Fraction arithmetic refutes it
    assert g.check_P_axiom(inst, "P3").verdict == "pass"


def test_triangle_ties_are_decided_by_the_rounding_error_of_the_sum(monkeypatch):
    # float points on a line: most triples with x between a and b tie d(a,b)
    # with the rounded d(a,x) + d(b,x); the rounding error of that sum decides
    # every tie as Fraction arithmetic does, and no Fraction is built
    n = 24
    xs = np.random.default_rng(5).uniform(-10, 10, n).tolist()
    carrier = carrier_without_triangle_check([f"p{i}" for i in range(n)],
                                             [[abs(a - b) for b in xs] for a in xs])
    D = carrier.d
    triples = [(a, b, x) for a, b, x in itertools.product(range(n), repeat=3)
               if a < b and x not in (a, b)]
    assert sum(D[a, b] == D[a, x] + D[b, x] for a, b, x in triples) > 1000
    d = [[Fraction(v) for v in row] for row in D.tolist()]
    first = {}
    for a, b, x in itertools.product(range(n), repeat=3):
        if a < b and (a, b) not in first and d[a][b] > d[a][x] + d[b][x]:
            first[a, b] = x
    monkeypatch.setattr(core, "Fraction", None)
    rows = core._p3_exact_rows(D, "triangle")
    assert {(a, b): x for a, b, x in rows.tolist()} == first
    # a tie that holds: d(a,b) = 1 = fl(1 + 2^-53), below the exact sum
    tie = g.FiniteCarrier(("a", "b", "x"), [[0, 1.0, 1.0], [1.0, 0, 2.0 ** -53],
                                            [1.0, 2.0 ** -53, 0]])
    for family, op in (("scaled", g.MAX), ("constant", g.PLUS), ("damped", g.PLUS)):
        inst = g.GpmsInstance(carrier, family, {}, op, T_GRID, ALPHA_GRID)
        rep = g.check_P_axiom(inst, "P3")
        assert rep.verdict == ("fail" if rep.witnesses else "inconclusive" if first else "pass")
        assert_witnesses_reproduce(inst, rep)
        assert g.check_P_axiom(g.GpmsInstance(tie, family, {}, op, T_GRID, ALPHA_GRID),
                               "P3").verdict == "pass"


@pytest.mark.parametrize("op", (g.PLUS, g.MAX))
@pytest.mark.parametrize("family", sorted(FORMULA_PARAMS))
def test_p4_on_an_interval_is_fixed_by_family(family, op):
    # an interval holds distinct points closer than alpha/2 for every alpha:
    # constant and damped fail at each alpha, witnessed by lo and lo + alpha/4
    # (or hi), even where no two sample points are that close; scaled and
    # discrete pass.  A dense grid on finer sample points agrees
    alphas = (0.25, 1.0, 8.0)
    T = (1e-9, 0.5, 1.0, 40.0)
    inst = g.GpmsInstance(g.IntervalCarrier(0.0, 1.0, 0.5), family, FORMULA_PARAMS[family], op,
                          T, alphas)
    rep = g.check_P_axiom(inst, "P4")
    bounded = family in ("constant", "damped")
    assert rep.verdict == ("fail" if bounded else "pass")
    assert [(w.values["alpha"], *w.points) for w in rep.witnesses] == \
        ([(0.25, 0.0, 0.0625), (1.0, 0.0, 0.25), (8.0, 0.0, 1.0)] if bounded else [])
    for w in rep.witnesses:
        x, y = w.points
        assert g.eval_P(inst, x, y, w.values["t"]) == w.values["value"]
        assert all(g.eval_P(inst, x, y, t) < w.values["alpha"] for t in T)
    assert not core.p4_violations(inst, 0.25)  # the sample points alone show no fail
    fine = g.GpmsInstance(g.IntervalCarrier(0.0, 1.0, 0.05), family, FORMULA_PARAMS[family], op,
                          T, alphas)
    assert all(bool(core.p4_violations(fine, alpha)) == bounded for alpha in alphas)


# -- exact small integers: the n^3 scans on an integral table ----------------

# an entry at the top of the int16 range, and one past it, read as float64
INT_EDGES = {2 ** 14 - 1: np.int16, 2 ** 14: np.float64}


@st.composite
def integral_tables(draw):
    """(top, D): a symmetric integer table of 26 to 40 points, zero on the
    diagonal, whose largest entry is ``top``, an edge of the int16 range.  Its entries come from a few values whose sums tie ``top`` or miss
    it by one, so that many triangles fail, some by 1 and some not at all."""
    top = draw(st.sampled_from(sorted(INT_EDGES)))
    n = draw(st.integers(26, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    half = top // 2
    D = rng.choice([top, half, top - half, top - half - 1, top // 3, 1], size=(n, n))
    D[rng.integers(n), rng.integers(1, n)] = top
    D = np.where(np.tri(n, dtype=bool), D.T, D).astype(float)
    np.fill_diagonal(D, 0.0)
    D[0, 1:] = D[1:, 0] = np.maximum(D[0, 1:], 1.0)
    return top, D


def _same_rows(got, want):
    assert got.dtype == want.dtype == np.intp
    np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(integral_tables(), st.sampled_from((1 << 17, 1 << 14, 1 << 11)))
def test_integer_scans_match_the_float_scans(table, block):
    # each edge of the ranges picks its dtype; the integer rows equal the
    # float ones and the full scan at slacks below 1, which they drop, and
    # at slacks of 1 and more, which they add in floats, in blocks of
    # several rows or one, and the exact P3 rows equal the float ones.
    # Stopped at the first block that finds a row, both hold every row of
    # the least i, though their blocks differ in rows
    top, D = table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_P3_BLOCK", block)
        ints = core._scan_table(D)
        if INT_EDGES[top] is np.float64:
            assert ints is D
            return
        assert ints.dtype == INT_EDGES[top] and not ints.flags.writeable
        np.testing.assert_array_equal(ints, D)
        for slack in (0.0, 4e-6, 1e-12 * top, 0.5, 1.0, 2.5):
            full = full_triangle_scan(D, slack)
            _same_rows(core._triangle_rows(ints, slack), full)
            _same_rows(core._triangle_rows(D, slack), full)
            first = core._triangle_rows(ints, slack, first=True)
            if len(full):
                _same_rows(first[first[:, 0] == full[0, 0]], full[full[:, 0] == full[0, 0]])
                assert first[:, 0].min() == full[0, 0]
            else:
                assert first.shape == (0, 3)
        for rule in ("triangle", "ultrametric"):
            _same_rows(core._p3_exact_rows(ints, rule), core._p3_exact_rows(D, rule))


def _refusal(labels, D):
    try:
        g.FiniteCarrier(labels, D)
    except g.ConstructionError as err:
        return str(err), err.axiom
    return None


@settings(max_examples=25, deadline=None)
@given(integral_tables())
def test_integer_path_keeps_refusals_and_p3_reports(table):
    # the carrier refuses a table with the same message on either path, and
    # P3 on a carrier that takes the table behind its back reports the same
    # bytes; the float path is the one a table without an integer copy takes
    top, D = table
    labels = [f"p{i}" for i in range(len(D))]
    carrier = carrier_without_triangle_check(labels, D)
    reports = []
    for scan in (carrier._scan, carrier.d):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_scan_table", lambda d: scan)
            refused = _refusal(labels, D)
            carrier._scan = scan
            for family, op in (("scaled", g.MAX), ("constant", g.MAX), ("constant", g.PLUS)):
                inst = g.GpmsInstance(carrier, family, {}, op, T_GRID, ALPHA_GRID)
                rep = g.check_P_axiom(inst, "P3")
                reports.append((refused, canonical_json(rep.to_jsonable())))
    half = len(reports) // 2
    assert reports[:half] == reports[half:]
    assert reports[0][0] is not None and reports[0][0][1] == "triangle"


def test_each_scan_reads_the_dtype_its_table_allows(tmp_path, monkeypatch):
    # the integral n = 48 tables of wide-finite are read as int16, except
    # wide-constant's d_alpha matrix, which holds +inf; the tables of
    # finite-topology (n <= 12) and the interval samples are read as float64
    read = []

    def spy(scan, fn):
        def wrapped(D, *args, **kwargs):
            read.append((scan, D.dtype.name))
            return fn(D, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(core, "_triangle_rows", spy("d", core._triangle_rows))
    monkeypatch.setattr(core, "_p3_exact_rows", spy("P3", core._p3_exact_rows))
    monkeypatch.setattr(induced, "_triangle_rows", spy("D", induced._triangle_rows))
    seen = {}
    for workload in ("wide-finite", "finite-topology", "interval-sweep"):
        for name, doc in workload_docs(workload, 11).items():
            path = tmp_path / f"{workload}-{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            read.clear()
            inst_file = g.load_instance(str(path))
            g.run_command("axioms", inst_file)
            if doc["op"] == "max":
                g.run_command("dalpha", inst_file)
            seen[name] = sorted(read)
    assert seen == {
        "wide-scaled": [("D", "int16"), ("P3", "int16"), ("d", "int16")],
        "wide-constant": [("D", "float64"), ("P3", "int16"), ("d", "int16")],
        "line": [("D", "float64"), ("P3", "float64"), ("d", "float64")],
        "random-damped": [("P3", "float64"), ("d", "float64")],
        "random-tabulated": [("D", "float64"), ("d", "float64")],
        "clustered": [("D", "float64"), ("P3", "float64"), ("d", "float64")],
        "scaled": [("D", "float64")],
        "damped": [],
        "discrete": [("D", "float64")],
    }

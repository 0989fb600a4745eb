import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from helpers import (ALPHA_GRID, T_GRID, interval_instance, make_instance,
                     squared_distance_table_instance, three_point_carrier)


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
    slack = draw(st.sampled_from([None, 0.0, 0.5]))
    return d, slack


@settings(max_examples=200, deadline=None)
@given(symmetric_tables())
def test_triangle_check_matches_triple_loop(table):
    d, slack = table
    labels = [f"p{i}" for i in range(len(d))]
    eff = slack if slack is not None else 1e-12 * max(1.0, float(d.max(initial=0.0)))
    first = _first_triangle_violation(d, eff)
    if first is None:
        g.FiniteCarrier(labels, d, tri_slack=slack)
        return
    with pytest.raises(g.ConstructionError) as err:
        g.FiniteCarrier(labels, d, tri_slack=slack)
    i, j, k = first
    assert str(err.value) == f"triangle inequality fails on ({labels[i]}, {labels[j]}, {labels[k]})"
    assert err.value.axiom == "triangle"


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


def test_interval_carrier_sampling_and_membership():
    car = g.IntervalCarrier(-2.0, 2.0, 0.25)
    pts = car.points()
    assert pts[0] == -2.0 and pts[-1] == 2.0 and len(pts) == 17
    assert car.contains(1.0 / 3.0)
    assert not car.contains(2.5)


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


def test_check_reports_deterministic_for_fixed_seed():
    inst = make_instance("constant", op=g.MAX)
    r1 = g.check_P_axiom(inst, "P3", seed=9, n_samples=500)
    r2 = g.check_P_axiom(inst, "P3", seed=9, n_samples=500)
    assert r1.to_jsonable() == r2.to_jsonable()


def test_interval_carrier_axioms_sampled():
    inst = interval_instance("scaled", resolution=0.5)
    for axiom in ("P1", "P2", "monotone"):
        rep = g.check_P_axiom(inst, axiom)
        assert rep.ok
        assert "sample points" in rep.note
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
    for op in (g.PLUS, g.MAX):
        inst = g.gallery_construct("scaled", {}, carrier, op, (0.5, 1.0, 2.0), (1.0,))
        assert g.check_P_axiom(inst, "P3", exhaustive=True).ok

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import core
from gpmspace.core import P
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


# -- one kernel: the array front end and the tensor scans against scalar oracles --

def exact(x):
    """A comparison key that tells apart every float bit pattern (0.0 from -0.0)."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, dict):
        return tuple((k, exact(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
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
            d.flags.writeable = False
            carrier.d = d
        if family == "tabulated":
            params = draw(step_params(carrier.labels, t_grid))
    alpha_grid = tuple(sorted(draw(st.sets(st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)),
                                           min_size=1, max_size=3))))
    return g.GpmsInstance(carrier, family, params, g.MAX, t_grid, alpha_grid)


@settings(max_examples=150, deadline=None)
@given(kernel_instances() | kernel_instances(tamper=True), st.data())
def test_array_front_end_equals_scalar_eval_P(inst, data):
    pts = list(inst.quantifier_points())
    tg = inst.t_grid
    s, t = data.draw(st.sampled_from(tg)), data.draw(st.sampled_from(tg))
    lo, hi = sorted((data.draw(st.sampled_from(tg)), 3.0))
    probes = list(tg) + [s + t, tg[0] / 2, 1e-3, 0.5 * (lo + hi), 0.5 * (lo + 0.5 * (lo + hi))]
    for t in probes:
        mat = P(inst, np.asarray(pts, dtype=object)[:, None], pts, t)
        oracle = [[g.eval_P(inst, a, b, t) for b in pts] for a in pts]
        assert exact(mat.tolist()) == exact(oracle)
        row = P(inst, pts, pts[-1], t)
        assert exact(row.tolist()) == exact([g.eval_P(inst, a, pts[-1], t) for a in pts])


# the scalar loops the tensor scans replaced, kept as oracles

def scalar_scan(inst, axiom):
    """(witnesses, samples, data) of the pre-kernel P1/P2/P4/P5/monotone loops."""
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
    if axiom == "P5":
        quotients = []
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                for t1, t2 in zip(tg, tg[1:]):
                    samples += 1
                    quotients.append(abs(P_(inst, x, y, t1) - P_(inst, x, y, t2)) / (t2 - t1))
        l_est = max(quotients, default=0.0)
        budget = 10.0 * max(l_est, 1e-12)
        k = 0
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                for t1, t2 in zip(tg, tg[1:]):
                    if quotients[k] > budget:
                        witnesses.append(g.Witness(
                            points=(x, y), values={"t1": t1, "t2": t2, "quotient": quotients[k]},
                            detail="difference quotient exceeds the continuity budget"))
                    k += 1
        return witnesses, samples, {"max_difference_quotient": l_est, "budget_factor": 10.0}
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
    pts = inst.quantifier_points(cap=33)
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
    return None


def assert_scans_match_oracle(inst):
    for axiom in ("P1", "P2", "P4", "P5", "monotone"):
        rep = g.check_P_axiom(inst, axiom)
        witnesses, samples, data = scalar_scan(inst, axiom)
        assert exact(rep.witnesses) == exact(witnesses), axiom
        assert rep.samples_tested == samples, axiom
        assert exact(rep.data) == exact(data), axiom
        assert rep.verdict == ("fail" if witnesses else "pass"), axiom
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


@settings(max_examples=150, deadline=None)
@given(kernel_instances())
def test_tensor_scans_match_scalar_loops(inst):
    assert_scans_match_oracle(inst)


@settings(max_examples=60, deadline=None)
@given(kernel_instances(tamper=True))
def test_tensor_scans_match_scalar_loops_on_failing_tables(inst):
    # tampered tables: P1, P2 and monotone witnesses, and the order of the
    # construction errors, are compared too
    assert_scans_match_oracle(inst)


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
    assert calls[0] == 0
    g.check_P_axiom(inst, "P3", n_samples=10)  # P3 trials stay scalar
    assert calls[0] == 30


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("d01,d02,d12", [(1e308, 1e308, 1e308), (1.0, 1e308, 1e308),
                                         (1e308, 1.0, 1e308)])
def test_p5_estimate_keeps_the_loop_max_on_overflow(d01, d02, d12):
    # P = d / t overflows to inf at tiny t, so quotients hit inf - inf = NaN:
    # the estimate must be the loop's max, which keeps only a leading NaN
    carrier = g.FiniteCarrier(["a", "b", "c"], [[0, d01, d02], [d01, 0, d12], [d02, d12, 0]],
                              tri_slack=math.inf)
    inst = g.GpmsInstance(carrier, "scaled", {}, g.MAX, (1e-300, 2e-300, 1.0), (1.0,))
    assert_scans_match_oracle(inst)

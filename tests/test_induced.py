import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import core, induced
from gpmspace.reports import canonical_json
from helpers import (ALPHA_GRID, T_GRID, gallery_instances, interval_instance, line_carrier,
                     make_instance, planted_matrix, squared_distance_table_instance,
                     two_point_carrier)

FINE = make_instance("scaled", op=g.MAX)
TOL = g.BisectionSettings().tolerance


def test_d_alpha_matches_closed_form_for_scaled():
    # oracle: d/t < alpha iff t > d/alpha, so d_alpha(a,b) = d(a,b)/alpha
    for alpha in ALPHA_GRID:
        am = g.AlphaMetric(FINE, alpha)
        for a in FINE.carrier.labels:
            for b in FINE.carrier.labels:
                expected = FINE.carrier.base_distance(a, b) / alpha
                assert g.d_alpha(am, a, b) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, "1e-6", None])
def test_solver_tolerance_is_validated(bad):
    # the tolerance is the comparison slack of the checks: a nan slack passes
    # every comparison, and -1 gives a false fail
    with pytest.raises(g.DomainError):
        g.BisectionSettings(tolerance=bad)
    for tol in (0.0, 1e-6):
        am = g.AlphaMetric(FINE, 0.5, g.BisectionSettings(tolerance=tol))
        assert abs(g.d_alpha(am, "a", "b") - 2.0) <= 1e-6
        assert g.check_alpha_metric_axioms(am).ok


def test_d_alpha_specific_values():
    assert abs(g.d_alpha(g.AlphaMetric(FINE, 0.5), "a", "b") - 2.0) <= 1e-6
    assert abs(g.d_alpha(g.AlphaMetric(FINE, 2.0), "a", "b") - 0.5) <= 1e-6
    for family, params in (("scaled", {}), ("damped", {}), ("discrete", {"c": 1.0})):
        inst = make_instance(family, op=g.MAX, **params)
        assert g.d_alpha(g.AlphaMetric(inst, 1.0), "a", "a") == 0.0


def test_requires_max_operation():
    inst = make_instance("scaled", op=g.PLUS)
    with pytest.raises(g.HypothesisError):
        g.AlphaMetric(inst, 1.0)


def test_ray_property_around_the_boundary():
    for alpha in (0.5, 1.0, 2.0):
        am = g.AlphaMetric(FINE, alpha)
        for a in FINE.carrier.labels:
            for b in FINE.carrier.labels:
                if a == b:
                    continue
                d = g.d_alpha(am, a, b)
                assert 0 < d < math.inf
                assert g.eval_P(FINE, a, b, d + TOL) < alpha
                assert g.eval_P(FINE, a, b, max(d - TOL, 1e-12)) >= alpha


def test_metric_axioms_scaled_alpha_one_equals_base_table():
    am = g.AlphaMetric(FINE, 1.0)
    assert g.check_alpha_metric_axioms(am).ok
    for a in FINE.carrier.labels:
        for b in FINE.carrier.labels:
            assert abs(g.d_alpha(am, a, b) - FINE.carrier.base_distance(a, b)) <= 2 * TOL


def test_metric_axioms_scaled_alpha_half_doubles_the_table():
    am = g.AlphaMetric(FINE, 0.5)
    assert g.check_alpha_metric_axioms(am).ok
    for a in FINE.carrier.labels:
        for b in FINE.carrier.labels:
            assert abs(g.d_alpha(am, a, b) - 2 * FINE.carrier.base_distance(a, b)) <= 2 * TOL


def test_constant_family_on_ultrametric_fails_positivity_above_max_d():
    carrier = g.FiniteCarrier(("a", "b", "c"),
                              [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    inst = g.gallery_construct("constant", {}, carrier, g.MAX, T_GRID, ALPHA_GRID)
    am = g.AlphaMetric(inst, 2.0)  # alpha above max d: the ray is all of (0, inf)
    assert g.d_alpha(am, "a", "b") == 0.0
    rep = g.check_alpha_metric_axioms(am)
    assert rep.failed
    assert any("separation hypothesis" in w.detail for w in rep.witnesses)
    with pytest.raises(g.HypothesisError, match=r"alpha=2 \(pairs \(a, b\), \(a, c\), \(b, c\)\)"):
        g.compare_topologies(inst, 2.0)


def test_alpha_monotonicity_scaled():
    rep = g.check_alpha_monotonicity(FINE, "a", "b", (0.5, 1.0, 2.0))
    assert rep.ok
    vals = rep.data["values"]
    assert vals == pytest.approx([2.0, 1.0, 0.5], abs=2 * TOL)


def test_alpha_monotonicity_trivial_on_diagonal():
    rep = g.check_alpha_monotonicity(FINE, "a", "a", (0.5, 1.0, 2.0))
    assert rep.ok
    assert rep.data["values"] == [0.0, 0.0, 0.0]


def test_alpha_monotonicity_damped_with_empty_ray_tail():
    inst = make_instance("damped", op=g.MAX)
    rep = g.check_alpha_monotonicity(inst, "a", "b", (1.5, 1.9, 2.5))
    assert rep.ok
    vals = rep.data["values"]
    # oracle: 1 + exp(-t) < alpha iff t > ln(1/(alpha-1)); above sup P the ray is everything
    assert vals[0] == pytest.approx(math.log(2.0), abs=2 * TOL)
    assert vals[1] == pytest.approx(math.log(1 / 0.9), abs=2 * TOL)
    assert vals[2] == 0.0


def test_scaling_consistency_for_fixed_pair():
    for alpha in (0.25, 0.5, 1.0, 2.0):
        a1 = g.AlphaMetric(FINE, alpha)
        a2 = g.AlphaMetric(FINE, 2 * alpha)
        for x in FINE.carrier.labels:
            for y in FINE.carrier.labels:
                assert g.d_alpha(a2, x, y) <= g.d_alpha(a1, x, y) + 2 * TOL


def test_tabulated_family_returns_exact_step_locations():
    inst = squared_distance_table_instance()
    # P(0,2,t) = 4/t sampled on T_GRID; first node with value < 0.25 is t = 50
    am = g.AlphaMetric(inst, 0.25)
    assert g.d_alpha(am, "0", "2") == 50.0
    am5 = g.AlphaMetric(inst, 5.0)
    assert g.d_alpha(am5, "0", "2") == 1.0  # 4/1 = 4 < 5, earlier nodes stay >= 5
    # no table value below alpha: empty ray, d_alpha = inf; with a finite
    # two-hop path the triangle inequality then genuinely fails
    am_tiny = g.AlphaMetric(inst, 0.05)
    assert g.d_alpha(am_tiny, "0", "2") == math.inf
    rep = g.check_alpha_metric_axioms(am_tiny)
    assert rep.failed
    assert any("triangle" in w.detail for w in rep.witnesses)


def test_metric_axioms_inconclusive_when_only_infinity_appears():
    carrier = g.FiniteCarrier(("a", "b"), [[0, 1], [1, 0]])
    params = {"tables": [{"pair": ["a", "b"], "t": [1.0, 2.0], "v": [4.0, 3.0]}]}
    inst = g.gallery_construct("tabulated", params, carrier, g.MAX, (1.0, 2.0), (1.0,))
    am = g.AlphaMetric(inst, 1.0)  # the table never drops below alpha
    assert g.d_alpha(am, "a", "b") == math.inf
    rep = g.check_alpha_metric_axioms(am)
    assert rep.verdict == g.INCONCLUSIVE
    assert "inf" in rep.note


def test_compare_topologies_fine_grids():
    for alpha in (0.5, 1.0, 2.0):
        rep = g.compare_topologies(FINE, alpha)
        assert rep.ok, rep.data
        assert rep.data["tau_P_size"] == rep.data["tau_d_alpha_size"] == 8


def test_compare_topologies_two_points():
    inst = g.gallery_construct("scaled", {}, two_point_carrier(), g.MAX,
                               T_GRID, ALPHA_GRID)
    for alpha in (0.5, 1.0, 2.0):
        rep = g.compare_topologies(inst, alpha)
        assert rep.ok
        assert rep.data["tau_P_size"] == 4


def test_compare_topologies_coarse_grid_is_inconclusive():
    inst = g.gallery_construct("scaled", {}, two_point_carrier(), g.MAX,
                               (1.0,), (2.0,))
    rep = g.compare_topologies(inst, 1.0)
    assert rep.verdict == g.INCONCLUSIVE
    assert rep.note == "tau_P lacks open sets at this grid resolution (grid artifact)"
    # tau_P is {{}, {a, b}}; d_alpha keeps a and b apart, so tau_d_alpha is discrete
    assert rep.data == {"alpha": 1.0, "tau_P_size": 2, "tau_d_alpha_size": 4,
                        "merged_classes": [["a", "b"]]}


def test_compare_topologies_verdict_is_order_independent():
    r1 = g.compare_topologies(FINE, 1.0)
    r2 = g.compare_topologies(FINE, 1.0)
    assert r1.verdict == r2.verdict
    assert r1.to_jsonable() == r2.to_jsonable()


def test_compare_topologies_rejects_failed_separation_hypothesis():
    inst = make_instance("constant", op=g.MAX,
                         carrier=g.FiniteCarrier(("a", "b"), [[0, 1], [1, 0]]))
    with pytest.raises(g.HypothesisError):
        g.compare_topologies(inst, 4.0)


@settings(max_examples=100, deadline=None)
@given(gallery_instances(ops=(g.MAX,)), st.sampled_from((0.05, 0.25, 1.0, 4.0, 12.0)))
def test_the_topology_identity_gate_is_the_exact_p4_rule(inst, alpha):
    # one P4 rule: on a one-alpha grid, compare_topologies refuses the
    # instance iff the exact P4 check does not pass, and names its pairs
    one = g.gallery_construct(inst.family, inst.params, inst.carrier, g.MAX, inst.t_grid,
                              (alpha,))
    p4 = g.check_P_axiom(one, "P4")
    try:
        rep = g.compare_topologies(one, alpha)
    except g.HypothesisError as exc:
        assert p4.verdict == g.FAIL
        pairs = ", ".join(f"({a}, {b})" for a, b in (w.points for w in p4.witnesses[:4]))
        assert f"(pairs {pairs}); d_alpha is not a metric here" in str(exc)
    else:
        assert p4.verdict == g.PASS
        assert rep.verdict in (g.PASS, g.INCONCLUSIVE)


def test_alpha_metric_table_exports():
    table = g.alpha_metric_table(g.AlphaMetric(FINE, 1.0))
    assert len(table) == 3 and len(table[0]) == 3
    assert table[0][0] == 0.0
    assert table[0][1] == pytest.approx(1.0, abs=2 * TOL)


class BudgetExceeded(Exception):
    """The budgeted oracle ran out of iterations before its tolerance."""


def scalar_solve_d_alpha(inst, a, b, alpha, tolerance, max_iter=None):
    """The one-pair bracket-and-bisect search that the closed forms replaced,
    kept as an oracle.  It doubles or halves t from 1 to bracket the start of
    the ray: one reaching below 2^-64 gives 0, one not started by 2^64 gives
    inf.  It then bisects down to the tolerance or to float spacing.  A step
    table is scanned at its nodes instead.  With ``max_iter`` it is the older
    budgeted search: no stop at float spacing, and ``BudgetExceeded`` after
    ``max_iter`` halvings short of the tolerance."""
    if a == b:
        return 0.0

    def in_ray(t):
        return g.eval_P(inst, a, b, t) < alpha

    if inst.family == "tabulated":
        pair = sorted((a, b))
        nodes = next(e["t"] for e in inst.params["tables"] if e["pair"] == pair)
        if in_ray(nodes[0] / 2):  # the first value holds left of the first node
            return 0.0
        return next((t for t in nodes if in_ray(t)), math.inf)
    if in_ray(1.0):
        hi = 1.0
        while hi > 2.0 ** -64:
            lo = hi / 2.0
            if not in_ray(lo):
                break
            hi = lo
        else:
            return 0.0
    else:
        lo = 1.0
        while lo < 2.0 ** 64:
            hi = lo * 2.0
            if in_ray(hi):
                break
            lo = hi
        else:
            return math.inf
    steps = 0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if max_iter is None and (mid == lo or mid == hi):
            break
        if steps == max_iter:
            raise BudgetExceeded("d_alpha bisection exceeded its iteration budget")
        steps += 1
        if in_ray(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def old_metric_axioms(am, seed=0, n_samples=64, D=None):
    """The pairwise-dictionary, triple-loop metric-axiom check, kept as an
    oracle; it reads d_alpha from ``D`` over the carrier labels when given."""
    inst = am.instance
    tol = am.solver.tolerance
    if inst.carrier.kind == "finite":
        pts = list(inst.carrier.labels)
    else:
        rng = random.Random(seed)
        lo, hi = inst.carrier.lo, inst.carrier.hi
        pts = sorted(lo + (hi - lo) * rng.random() for _ in range(max(3, n_samples)))
    witnesses = []
    samples = 0
    has_inf = False
    dval = {}
    for i, x in enumerate(pts):
        for j, y in enumerate(pts[i:], i):
            if D is None:
                dval[(x, y)] = dval[(y, x)] = g.d_alpha(am, x, y)
            else:
                dval[(x, y)], dval[(y, x)] = float(D[i, j]), float(D[j, i])
    for x in pts:
        samples += 1
        if dval[(x, x)] != 0.0:
            witnesses.append(g.Witness(points=(x,), values={"value": dval[(x, x)]},
                                       detail="d_alpha(a,a) != 0"))
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            samples += 1
            v = dval[(x, y)]
            if math.isinf(v):
                has_inf = True
            elif not v > 0:
                witnesses.append(g.Witness(points=(x, y), values={"value": v, "alpha": am.alpha},
                                           detail="distinct pair at d_alpha = 0 "
                                                  "(the per-alpha separation hypothesis fails here)"))
            if abs(dval[(x, y)] - dval[(y, x)]) > tol:
                witnesses.append(g.Witness(points=(x, y),
                                           values={"lhs": dval[(x, y)], "rhs": dval[(y, x)]},
                                           detail="d_alpha not symmetric"))
    slack = 4 * tol
    for x in pts:
        for y in pts:
            for z in pts:
                samples += 1
                if dval[(x, z)] > dval[(x, y)] + dval[(y, z)] + slack:
                    witnesses.append(g.Witness(points=(x, y, z),
                                               values={"lhs": dval[(x, z)],
                                                       "rhs": dval[(x, y)] + dval[(y, z)]},
                                               detail="triangle inequality fails"))
    if witnesses:
        return g.FAIL, "metric axiom violated", samples, witnesses
    if has_inf:
        return (g.INCONCLUSIVE, "d_alpha takes the value inf; positivity holds but the map "
                "is not real-valued", samples, witnesses)
    return (g.PASS, "all metric axioms hold within tol for symmetry and 4*tol for the triangle",
            samples, witnesses)


def assert_axioms_match_oracle(am, seed=0, n_samples=64):
    rep = g.check_alpha_metric_axioms(am, seed=seed, n_samples=n_samples)
    oracle = old_metric_axioms(induced.AlphaMetric(am.instance, am.alpha, am.solver),
                               seed=seed, n_samples=n_samples)
    assert (rep.verdict, rep.note, rep.samples_tested, list(rep.witnesses)) == oracle
    return rep


@st.composite
def interval_instances(draw):
    family = draw(st.sampled_from(("scaled", "constant", "damped", "discrete")))
    params = {"c": draw(st.floats(min_value=0.1, max_value=5.0))} if family == "discrete" else {}
    lo = draw(st.sampled_from((-2.0, 0.0)))
    return interval_instance(family, lo=lo, hi=lo + draw(st.sampled_from((0.5, 1.0, 4.0))),
                             **params)


@settings(max_examples=80, deadline=None)
@given(gallery_instances(ops=(g.MAX,)), st.sampled_from([0.05, 0.25, 1.0, 4.0, 8.0]),
       st.sampled_from([1e-6, 1e-3, 0.5]))
def test_metric_axioms_match_the_triple_loop_on_finite_carriers(inst, alpha, tol):
    assert_axioms_match_oracle(g.AlphaMetric(inst, alpha, g.BisectionSettings(tol)))


@settings(max_examples=30, deadline=None)
@given(interval_instances(), st.sampled_from([0.25, 1.0, 1.5, 4.0]), st.integers(0, 99),
       st.integers(3, 12))
def test_metric_axioms_match_the_triple_loop_on_interval_carriers(inst, alpha, seed, n_samples):
    assert_axioms_match_oracle(g.AlphaMetric(inst, alpha), seed=seed, n_samples=n_samples)


def test_metric_axioms_oracle_sees_positivity_and_triangle_failures():
    constant = g.gallery_construct("constant", {}, line_carrier(4), g.MAX, T_GRID, ALPHA_GRID)
    rep = assert_axioms_match_oracle(g.AlphaMetric(constant, 2.0))  # d(0,1) = 1 < 2: zero
    assert any("separation hypothesis" in w.detail for w in rep.witnesses)
    rep = assert_axioms_match_oracle(g.AlphaMetric(squared_distance_table_instance(), 0.05))
    assert any("triangle" in w.detail for w in rep.witnesses)


@settings(max_examples=100, deadline=None)
@given(gallery_instances(ops=(g.MAX,)) | interval_instances(), st.data())
def test_distance_matrices_are_exactly_symmetric(inst, data):
    # _triangle_rows scans the columns from each block on and mirrors the
    # rest, which needs D == D.T exactly: ray_start reads the validated
    # table d, |u - v| on an interval or step tables filled for both orders
    alpha = data.draw(st.sampled_from(inst.alpha_grid) | st.floats(0.01, 10.0), label="alpha")
    if inst.carrier.kind == "finite":
        pts = inst.carrier.labels
    else:
        lo, hi = inst.carrier.lo, inst.carrier.hi
        pts = data.draw(st.lists(st.floats(lo, hi) | st.sampled_from(inst.carrier.points()),
                                 min_size=1, max_size=12), label="points")
    D = induced._distance_matrix(g.AlphaMetric(inst, alpha), pts)
    assert D.shape == (len(pts),) * 2 and np.array_equal(D, D.T)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.sampled_from((0.0, 0.125, 0.25)),
       st.sampled_from((8, 2400, 5600, 1 << 17)))
def test_metric_axioms_on_planted_matrices_match_the_triple_loop(k, seed, tol, block):
    # a planted d_alpha matrix in place of the closed form, as the instance's
    # derived entry, scanned in blocks of one row up to the whole matrix: the
    # same witnesses in the same order with the same values, witness_count
    # and samples_tested
    D = planted_matrix(np.random.default_rng(seed), k)
    inst = make_instance("scaled", carrier=line_carrier(k))
    am = g.AlphaMetric(inst, 1.0, g.BisectionSettings(tol))
    inst._memo[("d_alpha", 1.0)] = D
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_P3_BLOCK", block)
        rep = g.check_alpha_metric_axioms(am)
    verdict, note, samples, witnesses = old_metric_axioms(am, D=D)
    assert (rep.verdict, rep.note, rep.samples_tested) == (verdict, note, samples)
    assert rep.to_jsonable()["witness_count"] == len(rep.witnesses) == len(witnesses)
    assert [(w.points, w.detail, {name: float(v).hex() for name, v in w.values.items()})
            for w in rep.witnesses] == \
        [(w.points, w.detail, {name: float(v).hex() for name, v in w.values.items()})
         for w in witnesses]
    assert canonical_json(rep.to_jsonable()) == canonical_json(g.CheckReport(
        name=rep.name, verdict=verdict, samples_tested=samples, note=note,
        witnesses=tuple(witnesses)).to_jsonable())


def test_metric_axioms_build_the_triangle_witnesses_only_when_read():
    # damped/max on [-2, 2] with a t grid up to 1e300: d_alpha at alpha 1 is
    # 0, inf or -ln(1/d - 1) on 64 sampled points, and the triangle
    # inequality fails over ten thousand times; the check and its report
    # build the witnesses found before the scan and at most the eight
    # witnesses the report writes
    inst = interval_instance("damped", t_grid=(1e-4, 1e300), alpha_grid=(0.5, 1.0))
    built = []
    real = g.Witness.__init__

    def counting(self, *args, **kw):
        built.append(1)
        real(self, *args, **kw)

    g.Witness.__init__ = counting
    try:
        rep = g.check_alpha_metric_axioms(g.AlphaMetric(inst, 1.0))
        data = rep.to_jsonable()
    finally:
        g.Witness.__init__ = real
    details = [w.detail for w in rep.witnesses]
    triangles = details.count("triangle inequality fails")
    assert rep.failed and triangles > 10_000
    assert data["witness_count"] == len(details) and len(data["witnesses"]) == 8
    assert len(built) <= len(details) - triangles + 8


def assert_matches_scalar_solver(inst, alpha, x, y, got, want, slack):
    """A closed-form d_alpha ``got`` against the bisection oracle's ``want``."""
    if inst.family == "damped" and alpha == 2 * inst.carrier.base_distance(x, y):
        # exact 0, where floats round 1 + e^-t to 2 below t ~ 1.1e-16
        assert got == 0.0 and 0.0 < want < 2.0 ** -52
    elif want == 0.0:  # the oracle's ray reaches below 2^-64
        assert 0.0 <= got < 2.0 ** -64
    elif want == math.inf:  # the oracle's ray does not start by 2^64
        assert got > 2.0 ** 64
    else:  # the oracle stops at its tolerance or at float spacing
        assert 0.0 < got < math.inf
        if abs(got - want) > max(slack, 2 * math.ulp(want)):
            # a near-tie: between the exact start of the ray and the oracle's,
            # the float kernel (non-increasing in t) reads alpha within one ulp
            # at both ends, so rounding hides where the ray starts
            assert all(abs(g.eval_P(inst, x, y, t) - alpha) <= math.ulp(alpha)
                       for t in (got, want))


def assert_matrix_matches_scalar_solver(inst, alpha, tol, pts):
    """The batched d_alpha matrix equals d_alpha pair by pair bit for bit and
    matches the bisection oracle run at ``tol``."""
    D = induced._distance_matrix(g.AlphaMetric(inst, alpha, g.BisectionSettings(tol)), pts)
    am = g.AlphaMetric(inst, alpha)
    assert [[v.hex() for v in row] for row in D.tolist()] == \
        [[g.d_alpha(am, x, y).hex() for y in pts] for x in pts]
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            want = scalar_solve_d_alpha(inst, x, y, alpha, tol)
            assert_matches_scalar_solver(inst, alpha, x, y, float(D[i, j]), want, max(tol, TOL))
    return D


@settings(max_examples=60, deadline=None)
@given(st.one_of(gallery_instances(ops=(g.MAX,)), interval_instances()),
       st.sampled_from([0.05, 0.25, 1.0, 1.5, 4.0]),
       st.sampled_from([0.5, 1e-3, 1e-6, 1e-12, 1e-17, 0.0]), st.data())
def test_solver_matches_the_budgeted_solver_and_always_stops(inst, alpha, tol, data):
    # the tolerance no longer enters d_alpha: every tolerance gives one value
    pts = inst.carrier.points()
    a, b = data.draw(st.sampled_from(pts)), data.draw(st.sampled_from(pts))
    got = g.d_alpha(g.AlphaMetric(inst, alpha, g.BisectionSettings(tol)), a, b)
    assert got.hex() == g.d_alpha(g.AlphaMetric(inst, alpha), a, b).hex()
    try:
        want = scalar_solve_d_alpha(inst, min(a, b), max(a, b), alpha, tol, max_iter=200)
    except BudgetExceeded:  # float spacing reached before the tolerance
        if inst.family == "damped" and alpha == 2 * inst.carrier.base_distance(a, b):
            assert got == 0.0
        else:
            assert 0 < got < math.inf
            assert g.eval_P(inst, a, b, math.nextafter(got, math.inf) * 2) < alpha
    else:
        assert_matches_scalar_solver(inst, alpha, a, b, got, want, max(tol, TOL))


@settings(max_examples=80, deadline=None)
@given(st.one_of(gallery_instances(ops=(g.MAX,)), interval_instances()),
       st.sampled_from([0.05, 0.25, 1.0, 1.5, 4.0]), st.sampled_from([0.5, 1e-6, 1e-17, 0.0]),
       st.data())
def test_batched_matrix_matches_the_scalar_solver(inst, alpha, tol, data):
    pts = list(inst.carrier.points())
    if inst.carrier.kind == "interval":  # grid points and points off the grid
        pts = sorted(data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=6))
                     + data.draw(st.lists(st.floats(inst.carrier.lo, inst.carrier.hi),
                                          max_size=4)))
    assert_matrix_matches_scalar_solver(inst, alpha, tol, pts)


def test_damped_near_tie_matches_the_oracle_where_floats_read_alpha():
    # d = 1 - 2^-52 under damped/max at alpha = 1: the closed form
    # -ln(alpha/d - 1) = 36.0437 is the exact start of the ray, while floats
    # round d (1 + e^-t) to alpha until t ~ 36.74, where the oracle stops
    inst = interval_instance("damped")
    x, y = -1.9999999999999998, -1.0
    assert inst.carrier.base_distance(x, y) == 1 - 2.0 ** -52
    got = g.d_alpha(g.AlphaMetric(inst, 1.0), x, y)
    assert got == pytest.approx(36.04365338911715, abs=1e-12)
    for tol in (0.5, 1e-6, 1e-17, 0.0):
        want = scalar_solve_d_alpha(inst, x, y, 1.0, tol)
        assert want - got > 0.5
        assert_matrix_matches_scalar_solver(inst, 1.0, tol, [x, y])
    with pytest.raises(AssertionError):  # a start where P is well above alpha
        assert_matches_scalar_solver(inst, 1.0, x, y, 30.0, want, TOL)


@pytest.mark.parametrize("tol", [0.5, 1e-6, 1e-17, 0.0])
def test_batched_matrix_mixes_every_kind_of_search(tol):
    # one batch holds rays starting below and above t = 1, at 0 and at inf, and
    # on both sides of the oracle's 2^-64 floor and 2^64 cap, which the closed
    # forms do not clip
    tiny = g.FiniteCarrier(("a", "b", "c"), [[0, 3e-20, 1.5e-19], [3e-20, 0, 1.2e-19],
                                             [1.5e-19, 1.2e-19, 0]])
    huge = g.FiniteCarrier(("a", "b", "c"), [[0, 1e19, 3e19], [1e19, 0, 2e19], [3e19, 2e19, 0]])
    values = []
    for family, carrier in (("scaled", line_carrier(4)), ("constant", line_carrier(4)),
                            ("scaled", tiny), ("scaled", huge)):
        inst = g.gallery_construct(family, {}, carrier, g.MAX, T_GRID, ALPHA_GRID)
        for alpha in (0.5, 1.5, 2.5):
            D = assert_matrix_matches_scalar_solver(inst, alpha, tol, carrier.labels)
            values += D[~np.eye(carrier.size, dtype=bool)].tolist()
    assert 0.0 in values and math.inf in values
    assert any(0 < v < 1 for v in values) and any(1 < v < math.inf for v in values)
    assert any(0 < v < 2.0 ** -64 for v in values)
    assert any(2.0 ** -64 < v < 2.0 ** -62 for v in values)
    assert any(2.0 ** 63 < v < 2.0 ** 64 for v in values)
    assert any(2.0 ** 64 < v < math.inf for v in values)


def test_ray_start_edges():
    damped = make_instance("damped", op=g.MAX, carrier=two_point_carrier())  # d(a, b) = 1
    # d (1 + e^-t) < 2d at every t > 0, though floats round it to 2d below t ~ 1.1e-16
    assert g.d_alpha(g.AlphaMetric(damped, 2.0), "a", "b") == 0.0
    assert g.d_alpha(g.AlphaMetric(damped, 1.0), "a", "b") == math.inf
    assert g.d_alpha(g.AlphaMetric(damped, 1.5), "a", "b") == -math.log(0.5)
    # no bracket bounds the values: above 2^64 and below 2^-64 they stay finite and positive
    assert g.d_alpha(g.AlphaMetric(FINE, 1e-20), "a", "b") == 1 / 1e-20 > 2.0 ** 64
    assert g.d_alpha(g.AlphaMetric(FINE, 1e20), "a", "b") == 1 / 1e20 < 2.0 ** -64
    # a step table: the first column below alpha, none giving inf
    table = squared_distance_table_instance()  # P(0, 1, t) = 1 / t at the T_GRID nodes
    assert [g.d_alpha(g.AlphaMetric(table, alpha), "0", "1")
            for alpha in (1e5, 1.5, 1e-3)] == [0.0, 1.0, math.inf]


def test_damped_at_twice_d_fails_positivity():
    # d (1 + e^-t) < 2d for every t > 0, so d_alpha(a, b) = 0 at alpha = 2 d(a, b)
    damped = make_instance("damped", op=g.MAX, carrier=line_carrier(3))
    rep = g.check_alpha_metric_axioms(g.AlphaMetric(damped, 2.0))
    assert rep.failed
    assert [w.points for w in rep.witnesses if "separation hypothesis" in w.detail] == \
        [("0", "1"), ("1", "2")]


def test_rescaling_d_rescales_the_scaled_table_bit_for_bit():
    # d_alpha = d / alpha: doubling d doubles the table, and doubling alpha
    # with it leaves the table unchanged
    d = [[0.0, 0.7, 1.3, 2.9], [0.7, 0.0, 0.6, 2.2], [1.3, 0.6, 0.0, 1.6],
         [2.9, 2.2, 1.6, 0.0]]

    def table(scale, alpha):
        carrier = g.FiniteCarrier("abce", [[scale * x for x in row] for row in d])
        return g.alpha_metric_table(g.AlphaMetric(make_instance("scaled", carrier=carrier), alpha))

    for alpha in (0.3, 1.0, 2.5, 7.0):
        assert table(2.0, alpha) == [[2 * x for x in row] for row in table(1.0, alpha)]
        assert table(2.0, 2 * alpha) == table(1.0, alpha)


def test_compare_topologies_reads_the_zero_set_at_any_tolerance():
    # the least d_alpha ball is the zero set of its row at every tolerance; a
    # radius tied to the tolerance is 0 at tolerance 0, and every ball is empty
    inst = make_instance("scaled", op=g.MAX, carrier=line_carrier(3))
    for tol in (0.0, 1e-6, 0.5):
        rep = g.compare_topologies(inst, 1.0, 15, g.BisectionSettings(tol))
        assert rep.verdict == g.PASS
        assert rep.data["tau_P_size"] == rep.data["tau_d_alpha_size"] == 8


def test_one_dalpha_operation_reads_p4_off_its_matrix_and_solves_each_pair_once(
        tmp_path, monkeypatch):
    n = 9
    doc = {"version": 1, "points": [f"x{i}" for i in range(n)],
           "d": [[abs(i - j) for j in range(n)] for i in range(n)], "family": "scaled",
           "params": {}, "op": "max", "t_grid": list(T_GRID), "alpha_grid": list(ALPHA_GRID),
           "seed": 11, "tol": 1e-6}
    path = tmp_path / "line9.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    inst_file = g.load_instance(str(path))
    scans, sizes, matrices, values = [], [], [], []
    real_scan, real_ray_start, real_kernel = core.p4_violations, induced.ray_start, core._kernel
    real_matrix = induced._distance_matrix

    def ray_start(*args):
        out = real_ray_start(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(core, "p4_violations", lambda *a: scans.append(a) or real_scan(*a))
    monkeypatch.setattr(core, "_kernel", lambda *a: values.append(a) or real_kernel(*a))
    monkeypatch.setattr(induced, "ray_start", ray_start)
    monkeypatch.setattr(induced, "_distance_matrix",
                        lambda *a: matrices.append(a) or real_matrix(*a))
    g.run_command("dalpha", inst_file)
    # the P4 gate of the topology identity reads the zeros of the d_alpha
    # matrix: no grid scan, and P is read once, for the classes of tau_P
    assert scans == [] and len(values) == 1
    # the command's matrix only, derived once for the instance and alpha:
    # monotonicity builds none
    assert len(matrices) == 1
    assert [key for key in inst_file.instance._memo if key[0] == "d_alpha"] == \
        [("d_alpha", ALPHA_GRID[len(ALPHA_GRID) // 2])]
    # one matrix, read by the table, the metric axioms and the topology
    # identity, and (x0, x8) at every monotonicity alpha in one call
    assert sorted(sizes) == [len(ALPHA_GRID), n * n]
    scans.clear()
    sizes.clear()
    g.check_alpha_monotonicity(inst_file.instance, "x0", "x8", ALPHA_GRID)
    assert scans == [] and sizes == [len(ALPHA_GRID)]


def test_dalpha_looks_up_each_solver_pair_once(tmp_path, monkeypatch):
    # n = 48, constant/max on a random shortest-path metric: a d_alpha matrix
    # maps each label to its index once, and a single pair maps two labels
    n, rng = 48, random.Random(48)
    d = [[0 if i == j else rng.randint(1, 10) for j in range(n)] for i in range(n)]
    d = [[min(d[i][j], d[j][i]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    doc = {"version": 1, "points": [f"w{i}" for i in range(n)], "d": d, "family": "constant",
           "params": {}, "op": "max", "t_grid": list(T_GRID), "alpha_grid": list(ALPHA_GRID),
           "seed": 11, "tol": 1e-6}
    path = tmp_path / "wide48.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    inst_file = g.load_instance(str(path))
    lookups, sizes = [0], []
    real_index, real_ray_start = core.FiniteCarrier.index, induced.ray_start

    def counting(self, p):
        lookups[0] += 1
        return real_index(self, p)

    def ray_start(*args):
        out = real_ray_start(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(core.FiniteCarrier, "index", counting)
    monkeypatch.setattr(induced, "ray_start", ray_start)
    g.run_command("dalpha", inst_file)
    # one matrix for the table, the axioms and the topology identity, which
    # also scans P4, and one pair at every monotonicity alpha
    assert sorted(sizes) == [len(ALPHA_GRID), n * n]
    assert lookups[0] <= n * 2 + 2

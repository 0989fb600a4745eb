import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace.binop import SampleGrid

GRID = SampleGrid((0.0, 0.5, 1.0, 2.0, 3.0))


def test_eval_op_definitions():
    assert g.eval_op(g.PLUS, 2, 3) == 5
    assert g.eval_op(g.MAX, 2, 3) == 3
    assert g.eval_op(g.PLUS, 7, 0) == 7  # identity axiom, exact


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_eval_op_domain_errors(bad):
    with pytest.raises(g.DomainError):
        g.eval_op(g.PLUS, bad, 1.0)
    with pytest.raises(g.DomainError):
        g.eval_op(g.MAX, 1.0, bad)


@pytest.mark.parametrize("op", [g.PLUS, g.MAX])
@pytest.mark.parametrize("axiom", ["a", "b", "c", "d", "e", "f"])
def test_plus_and_max_satisfy_standard_axioms(op, axiom):
    rep = g.check_op_axiom(op, axiom, GRID)
    assert rep.ok, (op.name, axiom, rep.witness)


def test_axiom_f_oracle_matches_checker_on_integer_grid():
    # independent oracle: exhaustive strict-monotonicity scan
    vals = (0.0, 1.0, 2.0, 3.0)
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            for j, z in enumerate(vals):
                for w in vals[j + 1:]:
                    assert x + z < y + w
    rep = g.check_op_axiom(g.PLUS, "f", SampleGrid(vals))
    assert rep.ok


def test_axiom_g_witness_sets_exact():
    # max fails at every positive grid alpha; alpha=0 is an excluded boundary
    rep = g.check_op_axiom(g.MAX, "g", GRID)
    assert rep.failed
    assert {w.values["alpha"] for w in rep.witnesses} == {0.5, 1.0, 2.0, 3.0}
    assert rep.data["excluded_boundary"] == [{"alpha": 0.0, "satisfied": False}]

    # plus fails only at the excluded alpha=0 boundary
    rep = g.check_op_axiom(g.PLUS, "g", GRID)
    assert rep.ok
    assert rep.witnesses == ()
    assert rep.data["excluded_boundary"] == [{"alpha": 0.0, "satisfied": False}]


def test_axiom_g_witness_at_one():
    rep = g.check_op_axiom(g.MAX, "g", SampleGrid((1.0,)))
    assert rep.failed
    assert rep.witness.values["alpha"] == 1.0
    assert rep.witness.values["lhs"] == 1.0  # max(1,1) = 1, not > 1


def test_shifted_plus_fails_identity():
    op = g.BinaryOperation.closed_form("shifted_plus", lambda a, b: a + b + 1.0,
                                       declared="bcd")
    rep = g.check_op_axiom(op, "a", SampleGrid((1.0,)))
    assert rep.failed
    assert rep.witness.values["alpha"] == 1.0
    assert rep.witness.values["lhs"] == 2.0  # 1 o 0 = 2 != 1


def test_commutativity_is_exact_for_plus_and_max():
    for op in (g.PLUS, g.MAX):
        for x in GRID.values:
            for y in GRID.values:
                assert g.eval_op(op, x, y) == g.eval_op(op, y, x)


def test_continuity_catches_a_jump():
    def step(a, b):
        return a + b + (1.0 if a >= 1.0 else 0.0)

    op = g.BinaryOperation.closed_form("step", step, declared="bcd")
    rep = g.check_op_axiom(op, "e", SampleGrid((0.0, 1.0, 2.0)))
    assert rep.failed
    assert rep.witness.values["deviation"] > 0.5


def test_continuity_deterministic_for_fixed_seed():
    r1 = g.check_op_axiom(g.PLUS, "e", SampleGrid((0.0, 1.0), seed=5))
    r2 = g.check_op_axiom(g.PLUS, "e", SampleGrid((0.0, 1.0), seed=5))
    assert r1.to_jsonable() == r2.to_jsonable()


def test_tabulated_op_bilinear_interpolation():
    # a table of plus on {0,1,2}^2 reproduces plus inside the hull
    grid = [0.0, 1.0, 2.0]
    values = [[a + b for b in grid] for a in grid]
    op = g.BinaryOperation.tabulated(grid, values, declared="abce")
    assert g.eval_op(op, 0.5, 1.5) == pytest.approx(2.0, abs=1e-12)
    assert g.eval_op(op, 7.0, 7.0) == 4.0  # clamped to the hull corner
    assert g.check_op_axiom(op, "c", SampleGrid((0.0, 1.0, 2.0))).ok
    assert g.check_op_axiom(op, "e", SampleGrid((0.0, 1.0, 2.0))).ok


def test_solve_third_examples():
    # closed form for plus: alpha1 - alpha2
    out = g.solve_third(g.PLUS, 5.0, 3.0)
    assert abs(out - 2.0) <= 2e-6
    assert g.eval_op(g.PLUS, 3.0, out) <= 5.0
    # max: alpha1 itself works
    assert g.solve_third(g.MAX, 5.0, 3.0) == 5.0
    # near-degenerate bracket
    out = g.solve_third(g.PLUS, 1.0, 0.999)
    assert abs(out - 0.001) <= 2e-6


def test_solve_third_no_solution():
    op = g.BinaryOperation.closed_form("offset", lambda a, b: a + b + 10.0, declared="b")
    with pytest.raises(g.NoSolutionError):
        g.solve_third(op, 5.0, 3.0)


def op_outcome(fn):
    """Each float's bits, or the DomainError text."""
    try:
        return [float(v).hex() for v in fn()]
    except g.DomainError as exc:
        return str(exc)


OPERANDS = st.sampled_from([0.0, -0.0, 0.5, 2.0, 5e-324, 1e300, 1.7976931348623157e308]) | \
    st.floats(0, 1e308)
BAD_OPERANDS = OPERANDS | st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -5e-324])
TABLE = g.BinaryOperation.tabulated([0.0, 1.0, 2.0], [[0.0, 1.0, 2.0], [1.0, 1.5, 2.5],
                                                      [2.0, 2.5, 3.0]])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((g.PLUS, g.MAX, TABLE)),
       st.lists(st.tuples(OPERANDS, OPERANDS), min_size=1, max_size=12) |
       st.lists(st.tuples(BAD_OPERANDS, BAD_OPERANDS), min_size=1, max_size=12))
@example(g.MAX, [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
@example(g.PLUS, [(0.0, -0.0), (-0.0, -0.0), (1e308, 1e308), (math.nan, 1.0)])
@example(g.MAX, [(1.0, 2.0), (-1.0, math.nan), (math.inf, 0.0)])
def test_eval_op_array_matches_eval_op(op, pairs):
    a = np.array([u for u, _ in pairs])
    b = np.array([w for _, w in pairs])
    assert op_outcome(lambda: g.eval_op_array(op, a, b)) == \
        op_outcome(lambda: [g.eval_op(op, u, w) for u, w in pairs])


def test_eval_op_array_max_keeps_the_scalar_sign_of_zero():
    out = g.eval_op_array(g.MAX, np.array([0.0, -0.0]), np.array([-0.0, 0.0]))
    assert [math.copysign(1, v) for v in out] == [1.0, -1.0]  # np.maximum gives -0.0 first


A_PLUS_2B = g.BinaryOperation.closed_form("a+2b", lambda a, b: a + 2 * b, declared="abcdef")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
def test_sample_grid_tolerance_is_validated(bad):
    # tolerance nan used to turn this real fail into a pass
    rep = g.check_op_axiom(A_PLUS_2B, "c", SampleGrid((0, 0.5, 1, 2), tolerance=1e-9))
    assert rep.failed and len(rep.witnesses) == 6
    assert g.check_op_axiom(A_PLUS_2B, "c", SampleGrid((0, 0.5, 1, 2), tolerance=0.0)).failed
    with pytest.raises(g.DomainError):
        SampleGrid((0, 0.5, 1, 2), tolerance=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-6])
def test_solve_third_tolerance_is_validated(bad):
    with pytest.raises(g.DomainError, match="tolerance"):
        g.solve_third(g.PLUS, 5.0, 3.0, tolerance=bad)


def test_solve_third_preconditions():
    with pytest.raises(g.PreconditionError):
        g.solve_third(g.PLUS, 3.0, 5.0)
    undeclared = g.BinaryOperation.closed_form("anon", lambda a, b: a + b)
    with pytest.raises(g.PreconditionError):
        g.solve_third(undeclared, 5.0, 3.0)


def test_split_below_examples():
    assert g.split_below(g.PLUS, 1.0) == (0.5, 0.5)
    assert g.split_below(g.MAX, 1.0) == (1.0, 1.0)
    assert g.split_below(g.PLUS, 0.2) == (0.1, 0.1)


def test_sub_idempotent_strict():
    for op, alpha0 in ((g.MAX, 1.0), (g.PLUS, 1.0), (g.MAX, 1e4), (g.PLUS, 1e-6)):
        a1 = g.sub_idempotent(op, alpha0)
        assert a1 > 0
        assert g.eval_op(op, a1, a1) < alpha0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-4, max_value=0.999))
def test_solve_third_postcondition_property(alpha1, frac):
    alpha2 = alpha1 * frac
    for op in (g.PLUS, g.MAX):
        out = g.solve_third(op, alpha1, alpha2)
        assert out > 0
        assert g.eval_op(op, alpha2, out) <= alpha1
    assert abs(g.solve_third(g.PLUS, alpha1, alpha2) - (alpha1 - alpha2)) <= 2e-6


class BudgetExceeded(Exception):
    """The budgeted oracle ran out of iterations before its tolerance."""


def budgeted_solve_third(op, alpha1, alpha2, tolerance=1e-6, max_iter=200):
    """solve_third with a fixed iteration budget, as it was before float
    spacing stopped it, kept as an oracle (preconditions as in solve_third)."""
    def fits(x):
        return g.eval_op(op, alpha2, x) <= alpha1

    if fits(alpha1):
        return float(alpha1)
    lo, hi = tolerance, alpha1
    for _ in range(max_iter):
        if hi - lo <= tolerance:
            break
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
    else:
        raise BudgetExceeded("solve_third bisection exceeded its iteration budget")
    out = lo - tolerance
    return float(out if out > 0 else lo / 2)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e15), st.floats(min_value=1e-4, max_value=0.99),
       st.floats(min_value=1e-17, max_value=1e-6))
@example(1e10, 1e-10, 1e-6)  # alpha2 = 1: float spacing at 1e10 exceeds the tolerance
@example(3.0, 1 / 3, 1e-17)  # alpha2 = 1: a tolerance below float spacing
def test_solve_third_stops_at_float_spacing(alpha1, frac, tolerance):
    alpha2 = alpha1 * frac
    for op in (g.PLUS, g.MAX):
        out = g.solve_third(op, alpha1, alpha2, tolerance)
        assert 0 < out <= alpha1
        assert g.eval_op(op, alpha2, out) <= alpha1
        try:
            want = budgeted_solve_third(op, alpha1, alpha2, tolerance)
        except BudgetExceeded:
            continue
        assert out == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6,
                unique=True))
def test_plus_max_axioms_on_random_grids(values):
    grid = SampleGrid(tuple(sorted(values)))
    for op in (g.PLUS, g.MAX):
        for axiom in ("a", "b", "c", "d"):
            assert g.check_op_axiom(op, axiom, grid).ok

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import core, sequences
from gpmspace.reports import canonical_json
from helpers import (
    ALPHA_GRID,
    T_GRID,
    gallery_instances,
    interval_instance,
    line_carrier,
    make_instance,
    squared_distance_table_instance,
    two_point_carrier,
)

# grids without a tiny t node: windowed limits of 1/n-type sequences are
# certifiable only when 1/(0.8 N t) can actually drop below the tolerance
SEQ_T = (0.5, 1.0, 2.0, 4.0, 50.0)
SEQ_TOL = 1e-2


def scaled_interval(lo=-2.0, hi=2.0, t_grid=SEQ_T):
    return g.gallery_construct("scaled", {}, g.IntervalCarrier(lo, hi, 0.25),
                               g.MAX, t_grid, (0.25, 0.5, 1.0, 2.0, 4.0))


RECIP = g.SequenceSpec("reciprocal", c=0.0, a=1.0, n_terms=1000)


def test_convergence_of_reciprocal_sequence():
    inst = scaled_interval()
    # oracle: P(1/n, 0, t) = 1/(n t); the worst tail term is at n = 801, t = 0.5
    assert 1.0 / (801 * 0.5) < SEQ_TOL
    rep = g.check_convergence(inst, RECIP, 0.0, tol=SEQ_TOL)
    assert rep.ok
    assert rep.samples_tested == 200 * len(SEQ_T)


def test_alternating_sequence_fails_with_witness():
    inst = scaled_interval()
    seq = g.SequenceSpec("alternating", c=0.0, a=1.0, n_terms=200)
    rep = g.check_convergence(inst, seq, 1.0, tol=SEQ_TOL)
    assert rep.failed
    w = rep.witness
    assert abs(w.points[0] - (-1.0)) == 0.0  # an odd term, P(-1, 1, t) = 2/t
    assert w.values["value"] == pytest.approx(2.0 / w.values["t"])


def test_constant_sequence_converges_at_any_tolerance():
    inst = make_instance("scaled")
    seq = g.SequenceSpec("explicit", points=("b",) * 25)
    assert g.check_convergence(inst, seq, "b", tol=1e-12).ok


def test_cauchy_reciprocal_passes():
    inst = scaled_interval()
    assert g.check_cauchy(inst, RECIP, tol=SEQ_TOL).ok


def test_cauchy_harmonic_partial_sums_fail():
    # partial sums H_n stay inside [0, 10] up to n = 1000 but are not Cauchy:
    # the window gap H_1000 - H_800 = ln(1000/800) + o(1) stays above 2e-4 / t
    inst = scaled_interval(lo=0.0, hi=10.0)
    sums = []
    acc = 0.0
    for k in range(1, 1001):
        acc += 1.0 / k
        sums.append(acc)
    seq = g.SequenceSpec("explicit", points=tuple(sums))
    rep = g.check_cauchy(inst, seq, tol=1e-3)
    assert rep.failed
    assert rep.witness.values["value"] >= 1e-3


def test_cauchy_constant_list_passes():
    inst = make_instance("scaled")
    seq = g.SequenceSpec("explicit", points=("a",) * 30)
    assert g.check_cauchy(inst, seq, tol=1e-12).ok


def test_bounded_full_carrier_k_table():
    inst = make_instance("scaled")
    rep = g.check_bounded(inst, g.SubsetMask.full(3))
    assert rep.ok
    assert rep.data["K_t"]["1"] == 3.0  # max pairwise d / t at t = 1
    assert rep.data["K_t"]["2"] == 1.5
    # P = d^2 / t from step tables: the farthest pair (d = 2) at every t
    rep = g.check_bounded(squared_distance_table_instance(), g.SubsetMask.full(3))
    assert list(rep.data["K_t"].values()) == [4.0 / t for t in T_GRID]


def test_bounded_single_point_is_zero():
    inst = make_instance("scaled")
    rep = g.check_bounded(inst, ["a"])
    assert rep.ok
    assert all(v == 0.0 for v in rep.data["K_t"].values())


def test_bounded_closed_interval_reads_its_endpoints():
    # on an interval carrier the diameter of [lo, hi] under P(., ., t) is
    # P(lo, hi, t): the endpoints are the farthest pair
    inst = scaled_interval()
    rep = g.check_bounded(inst, g.ClosedInterval(-0.5, 1.5))
    assert rep.ok
    assert rep.samples_tested == len(inst.t_grid)
    assert rep.data["K_t"] == {f"{t:.12g}": g.eval_P(inst, -0.5, 1.5, t) for t in inst.t_grid}
    assert rep.data["K_t"]["0.5"] == 4.0
    with pytest.raises(g.DomainError, match="interval carrier"):
        g.check_bounded(make_instance("scaled"), g.ClosedInterval(0.0, 1.0))
    with pytest.raises(g.DomainError, match="leaves the carrier"):
        g.check_bounded(inst, g.ClosedInterval(-0.5, 2.5))


def test_bounded_convergent_sequence_coupling():
    inst = scaled_interval()
    rep = g.check_bounded(inst, RECIP, tol=SEQ_TOL, limit=0.0)
    assert rep.ok
    assert rep.data["convergence_verdict"] == "pass"
    # K_t = sup |1/n - 1/m| / t <= 1/t
    for t in SEQ_T:
        assert rep.data["K_t"][f"{t:.12g}"] <= 1.0 / t + 1e-12


def test_convergent_implies_bounded_and_cauchy():
    inst = scaled_interval()
    seq = g.SequenceSpec("geometric", c=0.5, a=1.0, r=0.5, n_terms=400)
    assert g.check_convergence(inst, seq, 0.5, tol=1e-9).ok
    assert g.check_cauchy(inst, seq, tol=1e-9).ok
    assert g.check_bounded(inst, seq, tol=1e-9, limit=0.5).ok


def test_joint_continuity_matches_closed_form():
    inst = scaled_interval(lo=-2.0, hi=4.0)
    seqx = g.SequenceSpec("reciprocal", c=0.0, a=1.0, n_terms=1000)
    seqy = g.SequenceSpec("reciprocal", c=2.0, a=1.0, n_terms=1000)
    rep = g.joint_continuity_check(inst, seqx, seqy, 0.0, 2.0,
                                   tol=1e-6, conv_tol=SEQ_TOL)
    assert rep.ok
    for t in SEQ_T:
        assert rep.data["tail_limit_estimate"][f"{t:.12g}"] == pytest.approx(2.0 / t, abs=1e-6)


def test_joint_continuity_damped_family():
    car = g.IntervalCarrier(-2.0, 4.0, 0.25)
    inst = g.gallery_construct("damped", {}, car, g.MAX, SEQ_T, (0.5, 1.0, 2.0))
    seqx = g.SequenceSpec("reciprocal", c=0.0, a=1.0, n_terms=1000)
    seqy = g.SequenceSpec("reciprocal", c=2.0, a=1.0, n_terms=1000)
    rep = g.joint_continuity_check(inst, seqx, seqy, 0.0, 2.0,
                                   tol=1e-6, conv_tol=SEQ_TOL)
    assert rep.ok
    for t in (0.5, 1.0, 2.0):
        expected = 2.0 * (1.0 + math.exp(-t))
        assert rep.data["tail_limit_estimate"][f"{t:.12g}"] == pytest.approx(expected, abs=1e-6)


def test_joint_continuity_constant_sequences_trivial():
    inst = make_instance("scaled")
    sx = g.SequenceSpec("explicit", points=("a",) * 20)
    sy = g.SequenceSpec("explicit", points=("c",) * 20)
    assert g.joint_continuity_check(inst, sx, sy, "a", "c", tol=1e-12).ok


def test_joint_continuity_requires_convergent_inputs():
    inst = scaled_interval()
    bad = g.SequenceSpec("alternating", c=0.0, a=1.0, n_terms=200)
    with pytest.raises(g.PreconditionError):
        g.joint_continuity_check(inst, bad, RECIP, 1.0, 0.0, tol=SEQ_TOL)


def joint_continuity_oracle(inst, seqx, seqy, x, y, tol, conv_tol):
    """joint_continuity_check as it read P at (x, y) and at the last terms:
    one eval_P call per grid t, and four per squeeze step."""
    tx, ty = seqx.terms(inst.carrier), seqy.terms(inst.carrier)
    n = min(len(tx), len(ty))
    tx, ty = tx[:n], ty[:n]
    start = min(int(math.floor(0.8 * n)), n - 1)
    winx, winy = tx[start:], ty[start:]
    witnesses, samples, limits = [], 0, {}
    for t in inst.t_grid:
        target = g.eval_P(inst, x, y, t)
        vals = np.array([g.eval_P(inst, a, b, t) for a, b in zip(winx, winy)])
        samples += len(vals)
        dev = np.abs(vals - target)
        worst = int(np.argmax(dev))
        limits[f"{t:.12g}"] = float(vals[-1])
        if dev[worst] >= tol:
            witnesses.append(g.Witness(points=(winx[worst], winy[worst]),
                                       values={"n": float(start + worst + 1), "t": t,
                                               "deviation": float(dev[worst]), "target": target},
                                       detail="tail value strays from P(x,y,t)"))
    slack = 3 * tol
    for t1, t2 in zip(inst.t_grid, inst.t_grid[1:]):
        samples += 2
        lim1 = g.eval_P(inst, tx[-1], ty[-1], t1)
        lim2 = g.eval_P(inst, tx[-1], ty[-1], t2)
        if g.eval_P(inst, x, y, t2) > lim1 + slack:
            witnesses.append(g.Witness(values={"t": t1, "t_next": t2},
                                       detail="upper squeeze inequality fails at one grid step"))
        if lim2 > g.eval_P(inst, x, y, t1) + slack:
            witnesses.append(g.Witness(values={"t": t1, "t_next": t2},
                                       detail="lower squeeze inequality fails at one grid step"))
    return g.CheckReport(name="joint_continuity", verdict=g.FAIL if witnesses else g.PASS,
                         samples_tested=samples, witnesses=tuple(witnesses),
                         data={"tail_limit_estimate": limits})


@pytest.mark.parametrize("family", ["scaled", "damped"])
def test_joint_continuity_reads_two_P_rows(monkeypatch, family):
    # P at (x, y) and at the last terms comes from the one P_at call over
    # (t, window term), bit for bit what the per-t eval_P calls read; y_n = 2 + 3/n
    # drifts from x_n = 1/n, so the tail strays at tol = 1e-9 and the lower
    # squeeze fails at the close step from t = 1 to 1.01
    car = g.IntervalCarrier(-2.0, 6.0, 0.25)
    inst = g.gallery_construct(family, {}, car, g.MAX, (0.5, 1.0, 1.01, 2.0), (0.5, 1.0))
    seqx = g.SequenceSpec("reciprocal", c=0.0, a=1.0, n_terms=20)
    seqy = g.SequenceSpec("reciprocal", c=2.0, a=3.0, n_terms=20)
    args = (inst, seqx, seqy, 0.0, 2.0, 1e-9, 1.0)
    expected = joint_continuity_oracle(*args)
    assert {w.detail for w in expected.witnesses} == {
        "tail value strays from P(x,y,t)", "lower squeeze inequality fails at one grid step"}

    def refuse(*_):
        raise AssertionError("eval_P called")

    monkeypatch.setattr(sequences, "eval_P", refuse)
    rep = g.joint_continuity_check(*args)
    assert canonical_json(rep.to_jsonable()) == canonical_json(expected.to_jsonable())
    assert [(w.points, {k: float(v).hex() for k, v in w.values.items()}) for w in rep.witnesses] \
        == [(w.points, {k: float(v).hex() for k, v in w.values.items()})
            for w in expected.witnesses]


# -- diameters ----------------------------------------------------------------

def test_diameter_constant_family():
    inst = make_instance("constant")
    assert g.diameter(inst, g.SubsetMask.full(3)) == 3.0


def test_diameter_damped_pair_close_to_limit():
    # the limit of 1 + exp(-t) as t -> 0+ doubles d = 1, exactly: no grid t
    # (the least is 1e-4) is read
    inst = make_instance("damped")
    assert g.diameter(inst, ["a", "b"]) == 2.0
    assert g.diameter(inst, g.SubsetMask.full(3)) == 6.0


def test_diameter_scaled_flags_infinity():
    inst = make_instance("scaled")
    assert math.isinf(g.diameter(inst, ["a", "b"]))


def test_diameter_monotone_under_inclusion():
    inst = make_instance("constant")
    n = 3
    for bits_small in range(1, 1 << n):
        for bits_big in range(1, 1 << n):
            if bits_small & ~bits_big:
                continue
            small = g.diameter(inst, g.SubsetMask(n, bits_small))
            big = g.diameter(inst, g.SubsetMask(n, bits_big))
            assert small <= big


def test_diameter_interval_analytic():
    car = g.IntervalCarrier(-2.0, 2.0, 0.25)
    inst = g.gallery_construct("damped", {}, car, g.MAX, (1e-4, 0.5, 1.0), (1.0,))
    assert g.diameter(inst, g.ClosedInterval(-1.0, 1.0)) == 4.0


def test_closure_diameter_fine_grid_equal():
    inst = make_instance("constant")
    rep = g.check_closure_diameter(inst, g.SubsetMask.from_labels(inst.carrier, ["a", "b"]))
    assert rep.ok


def test_closure_diameter_coarse_grid_artifact():
    inst = g.gallery_construct("constant", {}, two_point_carrier(), g.MAX, (1.0,), (2.0,))
    rep = g.check_closure_diameter(inst, g.SubsetMask.from_labels(inst.carrier, ["a"]))
    assert rep.failed
    assert "grid-resolution artifact" in rep.note
    assert rep.data["diameter"] == 0.0 and rep.data["closure_diameter"] == 1.0


def test_closure_diameter_full_carrier_trivial():
    inst = make_instance("constant")
    assert g.check_closure_diameter(inst, g.SubsetMask.full(3)).ok


# -- Cantor ------------------------------------------------------------------

def damped_interval():
    car = g.IntervalCarrier(-2.0, 2.0, 0.25)
    return g.gallery_construct("damped", {}, car, g.MAX,
                               (1e-4, 0.5, 1.0, 2.0, 4.0, 50.0), (0.5, 1.0, 2.0))


def test_cantor_nested_intervals():
    inst = damped_interval()
    fam = [g.ClosedInterval(-1.0 / i, 1.0 / i) for i in range(1, 101)]
    est, diams, rep = g.cantor_intersection(inst, fam)
    assert abs(est) <= 1e-6
    assert all(d2 <= d1 for d1, d2 in zip(diams, diams[1:]))
    for i, d in enumerate(diams, start=1):
        assert d == pytest.approx(4.0 / i, abs=1e-3)
    assert rep.verdict == g.INCONCLUSIVE  # 100 sets leave width 0.02 > 1e-6
    assert rep.data["estimate"] == 0.0


def test_cantor_point_lies_in_every_member():
    inst = damped_interval()
    fam = [g.ClosedInterval(-1.0 / i, 1.0 / i) for i in range(1, 40)]
    est, _, _ = g.cantor_intersection(inst, fam)
    assert all(m.contains(est) for m in fam)


def test_cantor_singleton_chain_on_finite_carrier():
    inst = make_instance("constant")
    n = 3
    fam = [g.SubsetMask.from_indices(n, range(3)),
           g.SubsetMask.from_indices(n, range(2)),
           g.SubsetMask.from_indices(n, range(1))]
    est, diams, rep = g.cantor_intersection(inst, fam)
    assert rep.ok
    assert est == "a"
    assert diams[-1] == 0.0


def test_cantor_constant_singleton_family():
    # every member equal to {a}: diameters identically zero, intersection {a}
    inst = make_instance("constant")
    fam = [g.SubsetMask.from_labels(inst.carrier, ["a"])] * 5
    est, diams, rep = g.cantor_intersection(inst, fam)
    assert rep.ok
    assert est == "a"
    assert diams == [0.0] * 5


def test_cantor_rejects_non_shrinking_diameters():
    inst = damped_interval()
    fam = [g.ClosedInterval(0.0, 1.0) for _ in range(100)]
    with pytest.raises(g.HypothesisError):
        g.cantor_intersection(inst, fam)


def test_cantor_rejects_broken_nesting_and_infinite_diameters():
    inst = damped_interval()
    with pytest.raises(g.HypothesisError):
        g.cantor_intersection(inst, [g.ClosedInterval(-1, 1), g.ClosedInterval(0, 2)])
    scal = scaled_interval(t_grid=(1e-4, 0.5, 1.0))
    with pytest.raises(g.HypothesisError):
        g.cantor_intersection(scal, [g.ClosedInterval(-1, 1), g.ClosedInterval(-0.1, 0.1)])


# -- subsequences and compactness ----------------------------------------------

def test_subsequence_completeness_reciprocal():
    inst = scaled_interval()
    indices = [2 ** k for k in range(1, 10)]
    rep = g.subsequence_completeness_check(inst, RECIP, indices, 0.0, tol=SEQ_TOL)
    assert rep.ok


def test_subsequence_completeness_rejects_non_cauchy():
    inst = scaled_interval()
    bad = g.SequenceSpec("alternating", c=0.0, a=1.0, n_terms=200)
    with pytest.raises(g.PreconditionError):
        g.subsequence_completeness_check(inst, bad, [2, 4, 6], 1.0, tol=SEQ_TOL)


def test_subsequence_indices_validated():
    inst = scaled_interval()
    with pytest.raises(g.DomainError):
        g.subsequence_completeness_check(inst, RECIP, [4, 2], 0.0, tol=SEQ_TOL)
    with pytest.raises(g.DomainError):
        g.subsequence_completeness_check(inst, RECIP, [1, 9999], 0.0, tol=SEQ_TOL)


def test_compact_closed_bounded_fine_grid():
    inst = make_instance("scaled")
    pair = g.SubsetMask.from_labels(inst.carrier, ["a", "b"])
    rep = g.check_compact_closed_bounded(inst, pair)
    assert rep.ok
    assert rep.data["K_t"]["1"] == 1.0  # d(a,b)/t at t=1


def test_compact_full_carrier():
    inst = make_instance("scaled")
    assert g.check_compact_closed_bounded(inst, g.SubsetMask.full(3)).ok


def test_compact_closedness_grid_artifact_reported():
    inst = g.gallery_construct("constant", {}, two_point_carrier(), g.MAX, (1.0,), (2.0,))
    rep = g.check_compact_closed_bounded(inst, g.SubsetMask.from_labels(inst.carrier, ["a"]))
    assert rep.failed
    assert any("grid artifact" in w.detail for w in rep.witnesses)


def test_sequence_terms_leave_carrier():
    inst = scaled_interval()
    seq = g.SequenceSpec("geometric", c=0.0, a=10.0, r=0.5, n_terms=20)
    with pytest.raises(g.DomainError):
        g.check_convergence(inst, seq, 0.0, tol=SEQ_TOL)


def closed_form_values(spec):
    """Terms n = 1..n_terms of a closed-form sequence, by its docstring formula."""
    ns = np.arange(1, spec.n_terms + 1, dtype=float)
    return {"geometric": lambda: spec.c + spec.a * spec.r ** ns,
            "reciprocal": lambda: spec.c + spec.a / ns,
            "alternating": lambda: spec.c + spec.a * (-1.0) ** ns}[spec.kind]().tolist()


@pytest.mark.parametrize("spec", [
    g.SequenceSpec("geometric", c=0.5, a=1.0, r=0.5, n_terms=50),
    g.SequenceSpec("reciprocal", c=1.0, a=-3.0, n_terms=40),
    g.SequenceSpec("alternating", c=0.0, a=2.5, n_terms=10),
    g.SequenceSpec("geometric", c=1.9, a=0.01, r=1.5, n_terms=30),
    g.SequenceSpec("reciprocal", c=math.nan, a=1.0, n_terms=8),
    g.SequenceSpec("alternating", c=2.0, a=-0.0, n_terms=6),
])
def test_closed_form_terms_match_the_per_term_check(spec):
    # one bounds test on an interval: the same floats as the per-term
    # contains loop, and the same error naming the first term outside
    carrier = g.IntervalCarrier(-2.0, 2.0, 0.25)
    values = closed_form_values(spec)
    outside = [v for v in values if not carrier.contains(v)]
    if outside:
        with pytest.raises(g.DomainError) as err:
            spec.terms(carrier)
        assert str(err.value) == f"sequence term {outside[0]!r} leaves the carrier"
        return
    terms = spec.terms(carrier)
    assert all(type(v) is float for v in terms)
    assert [v.hex() for v in terms] == [v.hex() for v in values]


# -- batches against their per-row oracles ----------------------------------------

def convergence_oracle(inst, seq, x, tol):
    """check_convergence as one loop over the grid t, each term by eval_P."""
    terms = seq.terms(inst.carrier)
    start = min(int(math.floor(0.8 * len(terms))), len(terms) - 1)
    win = terms[start:]
    witnesses, tails = [], {}
    for t in inst.t_grid:
        vals = [g.eval_P(inst, p, x, t) for p in win]
        worst = int(np.argmax(vals))
        tails[f"{t:.12g}"] = vals[worst]
        if vals[worst] >= tol:
            witnesses.append(g.Witness(points=(terms[start + worst], x),
                                       values={"n": float(start + worst + 1), "t": t,
                                               "value": vals[worst], "tol": tol},
                                       detail="tail term does not drop below tolerance"))
    return g.CheckReport(name="convergence", verdict=g.FAIL if witnesses else g.PASS,
                         samples_tested=len(win) * len(inst.t_grid), witnesses=tuple(witnesses),
                         note=f"tail window = last {len(win)} of {len(terms)} terms",
                         data={"max_tail_P": tails})


def same_reports(got, want):
    assert [canonical_json(r.to_jsonable()) for r in got] == \
        [canonical_json(r.to_jsonable()) for r in want]


@settings(max_examples=60, deadline=None)
@given(gallery_instances(), st.data())
def test_convergence_rows_match_the_per_row_check(inst, data):
    # rows of different lengths (ragged windows) and distinct limits, among
    # them a constant row, which passes, and rows that end away from their
    # limit, which fail
    labels = inst.carrier.labels
    label = st.sampled_from(labels)
    seqs, limits = [], []
    for _ in range(data.draw(st.integers(1, 6))):
        points = data.draw(st.lists(label, min_size=1, max_size=30))
        seqs.append(g.SequenceSpec("explicit", points=tuple(points)))
        limits.append(data.draw(label))
    seqs.append(g.SequenceSpec("explicit", points=(labels[0],) * 12))
    limits.append(labels[0])
    tol = data.draw(st.sampled_from([1e-6, 0.5, 2.0]))
    rows = sequences.convergence_rows(inst, seqs, limits, tol)
    same_reports(rows, [g.check_convergence(inst, s, x, tol) for s, x in zip(seqs, limits)])
    same_reports(rows, [convergence_oracle(inst, s, x, tol) for s, x in zip(seqs, limits)])
    assert rows[-1].ok


def test_convergence_rows_on_an_interval():
    inst = scaled_interval()
    seqs = [g.SequenceSpec("geometric", c=0.5, a=1.0, r=0.5, n_terms=60), RECIP,
            g.SequenceSpec("alternating", c=0.0, a=1.0, n_terms=25)]
    limits = [0.5, 0.0, 1.0]
    rows = sequences.convergence_rows(inst, seqs, limits, SEQ_TOL)
    assert [r.verdict for r in rows] == [g.PASS, g.PASS, g.FAIL]
    same_reports(rows, [g.check_convergence(inst, s, x, SEQ_TOL) for s, x in zip(seqs, limits)])
    same_reports(rows, [convergence_oracle(inst, s, x, SEQ_TOL) for s, x in zip(seqs, limits)])


def test_convergence_rows_validate_each_limit_before_its_terms():
    inst = make_instance("scaled")
    good = g.SequenceSpec("explicit", points=("a", "b"))
    bad = g.SequenceSpec("explicit", points=("a", "z"))
    with pytest.raises(g.DomainError, match="limit candidate 'z'"):
        sequences.convergence_rows(inst, [good, bad], ["a", "z"])
    with pytest.raises(g.DomainError, match="sequence term 'z' leaves the carrier"):
        sequences.convergence_rows(inst, [good, bad, good], ["a", "b", "z"])
    assert sequences.convergence_rows(inst, [], []) == []


def nested_family(n, data):
    """A nested chain of non-empty masks over a random order of the points,
    with repeated members and single-point members."""
    order = data.draw(st.permutations(range(n)))
    sizes = sorted(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=8)), reverse=True)
    return [g.SubsetMask.from_indices(n, order[:k]) for k in sizes]


def flag_rows(fam):
    return np.array([[m.contains(i) for i in range(m.n)] for m in fam], dtype=bool)


@settings(max_examples=60, deadline=None)
@given(gallery_instances(), st.data())
def test_nested_diameters_match_the_per_member_diameter(inst, data):
    fam = nested_family(inst.carrier.size, data)
    assert sequences._nested_diameters(inst, flag_rows(fam)) == \
        [g.diameter(inst, m) for m in fam]


def test_nested_diameters_cover_singletons_the_inf_rule_and_tables():
    n = 5
    fam = [g.SubsetMask.from_indices(n, range(k)) for k in (5, 3, 3, 2, 1, 1)]
    # scaled P = d / t is unbounded as t -> 0+ at every pair at positive distance
    scaled = make_instance("scaled", carrier=line_carrier(n), t_grid=(2.0, 4.0))
    # P = d^2 / t tabulated at t 1, 2 and 4 on a grid from t = 2: the table's
    # first value extends to the left, so the sup is d^2, not P at the least grid t
    carrier = line_carrier(3)
    table = g.gallery_construct(
        "tabulated", g.tabulate_step_family(carrier, (1.0, 2.0, 4.0), lambda d, t: d * d / t),
        carrier, g.MAX, (2.0, 4.0), ALPHA_GRID)
    small = [g.SubsetMask.from_indices(3, range(k)) for k in (3, 2, 1)]
    for inst, members in ((scaled, fam), (table, small)):
        got = sequences._nested_diameters(inst, flag_rows(members))
        assert got == [g.diameter(inst, m) for m in members]
    assert sequences._nested_diameters(scaled, flag_rows(fam)) == [math.inf] * 4 + [0.0, 0.0]
    assert sequences._nested_diameters(table, flag_rows(small)) == [4.0, 1.0, 0.0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("scaled", "constant", "damped", "discrete")),
       st.sets(st.sampled_from((1e-4, 0.01, 0.5, 1.0, 4.0)), min_size=1, max_size=3),
       st.lists(st.tuples(st.sampled_from((-2.0, -0.5, 0.0, 1 / 3)),
                          st.sampled_from((0.0, 1e-9, 0.25, 1.5))), min_size=1, max_size=6))
def test_interval_diameters_match_the_per_member_diameter(family, t_grid, ends):
    # width-0 members (diameter 0 in every family) and a one-node grid included
    inst = interval_instance(family, t_grid=sorted(t_grid), c=2.0)
    members = [g.ClosedInterval(lo, lo + w) for lo, w in ends]
    assert sequences._interval_diameters(inst, members) == [g.diameter(inst, m) for m in members]


@settings(max_examples=60, deadline=None)
@given(gallery_instances() | st.sampled_from(("scaled", "constant", "damped", "discrete")).map(
    lambda family: interval_instance(family, t_grid=(1e-4, 0.5, 4.0), c=1.5)), st.data())
def test_K_t_table_matches_one_matrix_per_t(inst, data):
    # the maximum of P over all pairs, one matrix per grid t, on subsets of a
    # finite carrier and on sequences and point lists of an interval
    pts = inst.carrier.points()
    if inst.carrier.kind == "finite":
        s = g.SubsetMask.from_indices(len(pts), data.draw(
            st.sets(st.integers(0, len(pts) - 1), min_size=1)))
        c = np.array(s.indices())
    else:
        s = data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=12) | st.builds(
            g.SequenceSpec, st.just("geometric"), c=st.sampled_from((0.0, 1 / 3)),
            a=st.sampled_from((1.0, -1.5)), r=st.sampled_from((0.5, 0.9)), n_terms=st.just(40)))
        c = core.coords(inst, s.terms(inst.carrier) if isinstance(s, g.SequenceSpec) else s)
    expected = {f"{t:.12g}": float(core.P_at(inst, c[:, None], c, t).max()) for t in inst.t_grid}
    rep = g.check_bounded(inst, s)
    assert rep.data["K_t"] == expected
    assert rep.samples_tested == len(inst.t_grid) * len(c) ** 2


def cauchy_oracle(inst, seq, tol):
    """check_cauchy as one window x window P_at matrix per grid t."""
    terms = seq.terms(inst.carrier)
    start = min(int(math.floor(0.8 * len(terms))), len(terms) - 1)
    win = terms[start:]
    witnesses, samples, tails = [], 0, {}
    c = core.coords(inst, win)
    for t in inst.t_grid:
        mat = core.P_at(inst, c[:, None], c, t)
        samples += mat.size
        i, j = divmod(int(np.argmax(mat)), mat.shape[1])
        tails[f"{t:.12g}"] = float(mat[i, j])
        if mat[i, j] >= tol:
            witnesses.append(g.Witness(points=(win[i], win[j]),
                                       values={"n": float(start + i + 1),
                                               "m": float(start + j + 1), "t": t,
                                               "value": float(mat[i, j]), "tol": tol},
                                       detail="tail pair does not drop below tolerance"))
    return g.CheckReport(name="cauchy", verdict=g.FAIL if witnesses else g.PASS,
                         samples_tested=samples, witnesses=tuple(witnesses),
                         note=f"tail window = last {len(win)} of {len(terms)} terms",
                         data={"max_tail_P": tails})


def bounded_K_t_oracle(inst, c):
    """K_t of a family formula as check_bounded read it on an interval: P over
    the grid t at the first farthest pair of the |u - v| matrix."""
    i, j = np.unravel_index(np.argmax(np.abs(c[:, None] - c)), (c.size, c.size))
    return core.P_at(inst, c[i], c[j], np.asarray(inst.t_grid)).tolist()


def same_witnesses(got, want):
    """The same reports, with the same witness points and value bits."""
    same_reports([got], [want])
    assert [(w.points, {k: float(v).hex() for k, v in w.values.items()}) for w in got.witnesses] \
        == [(w.points, {k: float(v).hex() for k, v in w.values.items()}) for w in want.witnesses]


INTERVAL_POINTS = (-2.0, -0.5, 0.0, 1 / 3, 1.5, 2.0)


# a sequence on [-2, 2]: a closed form that converges or alternates (a
# failing tail), or a list of points that repeats values (tied maxima)
INTERVAL_SEQUENCES = st.builds(
    g.SequenceSpec, st.sampled_from(("geometric", "reciprocal", "alternating")),
    c=st.sampled_from((0.0, 1 / 3, -0.5)), a=st.sampled_from((1.0, -1.5, 1e-9, 0.0)),
    r=st.sampled_from((0.5, 0.9, -0.5)), n_terms=st.integers(5, 60)) | st.lists(
    st.sampled_from(INTERVAL_POINTS) | st.floats(-2.0, 2.0), min_size=1, max_size=40).map(
    lambda pts: g.SequenceSpec("explicit", points=tuple(pts)))


@st.composite
def interval_family_instances(draw):
    family = draw(st.sampled_from(("scaled", "constant", "damped", "discrete")))
    t_grid = draw(st.sets(st.sampled_from((1e-4, 0.01, 0.5, 1.0, 1.01, 4.0)),
                          min_size=1, max_size=4))
    return interval_instance(family, t_grid=sorted(t_grid), c=1.5)


@settings(max_examples=80, deadline=None)
@given(interval_family_instances(), INTERVAL_SEQUENCES, st.sampled_from((1e-9, 1e-3, 0.5)))
def test_cauchy_matches_one_matrix_per_t(inst, seq, tol):
    same_witnesses(g.check_cauchy(inst, seq, tol), cauchy_oracle(inst, seq, tol))


@settings(max_examples=80, deadline=None)
@given(interval_family_instances(), INTERVAL_SEQUENCES, INTERVAL_SEQUENCES,
       st.sampled_from(INTERVAL_POINTS), st.sampled_from(INTERVAL_POINTS),
       st.sampled_from((1e-9, 1e-3, 0.5)))
def test_joint_continuity_matches_the_per_t_loop(inst, seqx, seqy, x, y, tol):
    # an infinite tolerance certifies the prerequisite convergence of any
    # sequence, so tails that stray and squeezes that fail are compared too;
    # the pair of reports the sequences battery passes gives the same report
    want = joint_continuity_oracle(inst, seqx, seqy, x, y, tol, math.inf)
    same_witnesses(g.joint_continuity_check(inst, seqx, seqy, x, y, tol, math.inf), want)
    convergence = sequences.convergence_rows(inst, [seqx, seqy], [x, y], math.inf)
    same_witnesses(sequences._joint_continuity(inst, seqx, seqy, x, y, tol, math.inf,
                                               convergence), want)


@pytest.mark.parametrize("n_terms, calls_made", [(200, 1), (300, 2), (1000, 6)])
@pytest.mark.parametrize("kind", ["alternating", "geometric"])
def test_cauchy_reads_blocks_of_grid_t(monkeypatch, n_terms, calls_made, kind):
    # a block holds at most _P3_BLOCK = 2^17 bytes, 2^14 float64 entries: a
    # 40-term window takes the 6 grid t in one kernel call, a 60-term window
    # 4 per call and a 200-term window one; the alternating tail fails, the
    # geometric passes
    inst = interval_instance("damped", t_grid=(1e-4, 0.01, 0.5, 1.0, 1.01, 4.0))
    seq = g.SequenceSpec(kind, c=0.0, a=1.0, r=0.5, n_terms=n_terms)
    want = cauchy_oracle(inst, seq, 1e-9)
    assert want.ok == (kind == "geometric")
    calls = _count_kernel_calls(monkeypatch)
    got = g.check_cauchy(inst, seq, 1e-9)
    assert len(calls) == calls_made
    same_witnesses(got, want)


def test_joint_continuity_checks_x_n_before_it_reads_y_n(monkeypatch):
    # x_n does not certify its limit, so the check stops there: y_n, whose
    # limit lies outside the carrier, is never read
    inst = scaled_interval()
    seen = []
    real = sequences.check_convergence
    monkeypatch.setattr(sequences, "check_convergence",
                        lambda inst, seq, x, tol: seen.append(x) or real(inst, seq, x, tol))
    with pytest.raises(g.PreconditionError, match="sequence x is not verified convergent"):
        g.joint_continuity_check(inst, RECIP, RECIP, 1.0, 5.0, SEQ_TOL)
    assert seen == [1.0]
    with pytest.raises(g.DomainError, match="not in the carrier"):
        g.joint_continuity_check(inst, RECIP, RECIP, 0.0, 5.0, SEQ_TOL)


@settings(max_examples=80, deadline=None)
@given(interval_family_instances(), INTERVAL_SEQUENCES | st.lists(
    st.sampled_from(INTERVAL_POINTS) | st.floats(-2.0, 2.0), min_size=1, max_size=40))
def test_interval_K_t_reads_the_least_and_the_greatest_point(inst, s):
    c = core.coords(inst, s.terms(inst.carrier) if isinstance(s, g.SequenceSpec) else s)
    rep = g.check_bounded(inst, s)
    assert [v.hex() for v in rep.data["K_t"].values()] == \
        [v.hex() for v in bounded_K_t_oracle(inst, c)]


def two_cluster_instance():
    # classes {a0, a1, a2} and {b0, b1, b2}: the closed sets are the unions of them
    labels = ("a0", "a1", "a2", "b0", "b1", "b2")
    d = [[0.0 if i == j else 1.0 if (i < 3) == (j < 3) else 5.0 for j in range(6)]
         for i in range(6)]
    return g.gallery_construct("constant", {}, g.FiniteCarrier(labels, d), g.MAX,
                               (1.0, 2.0), (2.0,))


def test_cantor_walks_the_members_in_order_before_the_nesting_check():
    inst = two_cluster_instance()
    car = inst.carrier
    full, empty = g.SubsetMask.full(6), g.SubsetMask.empty(6)
    a = g.SubsetMask.from_labels(car, ["a0", "a1", "a2"])
    b = g.SubsetMask.from_labels(car, ["b0", "b1", "b2"])
    not_closed = g.SubsetMask.from_labels(car, ["a0", "a1", "a2", "b0"])
    # member 2 is not closed and member 4 is empty (and member 3 breaks nesting)
    with pytest.raises(g.HypothesisError, match="not closed"):
        g.cantor_intersection(inst, [full, not_closed, b, empty, empty])
    # member 2 closed: the empty member 4 raises before the broken nesting
    with pytest.raises(g.HypothesisError, match="non-empty"):
        g.cantor_intersection(inst, [full, a, b, empty, empty])
    with pytest.raises(g.HypothesisError, match="not nested"):
        g.cantor_intersection(inst, [full, a, b])
    with pytest.raises(g.DomainError, match="mask size mismatch"):
        g.cantor_intersection(inst, [full, g.SubsetMask.full(5)])


def _count_kernel_calls(monkeypatch):
    calls = []
    real = core._kernel

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(core, "_kernel", counting)
    return calls


def test_sequences_and_cantor_batteries_make_a_fixed_number_of_kernel_calls(monkeypatch):
    # every P_at call is one kernel call: on a fresh instance the sequences
    # battery makes one for its convergence rows, one for the K_t table that
    # bounded and compact_closed_bounded share and one for tau_P's classes,
    # whatever n is; cantor makes one for the classes, and its diameters
    # read none
    calls = _count_kernel_calls(monkeypatch)
    counts = {}
    for n in (6, 24):
        inst = make_instance("constant", carrier=line_carrier(n))
        del calls[:]
        checks, rows = sequences.sequence_battery(inst, 1e-6)
        assert checks and rows is None and all(c.ok for c in checks)
        counts["sequences", n] = len(calls)
        inst = make_instance("constant", carrier=line_carrier(n))
        del calls[:]
        assert sequences.cantor_battery(inst, 1e-6).ok
        counts["cantor", n] = len(calls)
    assert counts["sequences", 6] == counts["sequences", 24] == 3
    assert counts["cantor", 6] == counts["cantor", 24] == 1
    # on an interval, cantor's 24 diameters read no P; the sequences battery
    # makes one kernel call per check over the whole t grid, on a grid of up
    # to 10 t: the convergence rows of x_n and y_n, cauchy, bounded (the K_t
    # table), joint_continuity and subsequence_completeness (the
    # subsequence); it evaluates the terms of x_n and y_n once each, and
    # those of the subsequence.  The CSV rows, one more call, are built only
    # when the payload is written
    evaluated = []
    real_evaluate = sequences.SequenceSpec._evaluate
    monkeypatch.setattr(sequences.SequenceSpec, "_evaluate",
                        lambda self, carrier: evaluated.append(self) or real_evaluate(
                            self, carrier))
    for t_grid in ((1e-4, 0.5, 1.0, 2.0, 4.0, 50.0), (0.5,)):
        inst = interval_instance("damped", t_grid=t_grid)
        del calls[:]
        assert sequences.cantor_battery(inst, 1e-6).ok and len(calls) == 0
        del calls[:], evaluated[:]
        checks, rows = sequences.sequence_battery(inst, 1e-6)
        assert len(checks) == 5 and all(c.ok for c in checks)
        assert len(calls) == 5
        assert [seq.kind for seq in evaluated] == ["geometric", "geometric", "explicit"]
        assert evaluated[0].a == -evaluated[1].a != 0
        assert len(rows()) == 1 + 200 * len(t_grid)
        assert len(calls) == 6 and len(evaluated) == 3

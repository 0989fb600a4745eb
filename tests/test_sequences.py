import math

import numpy as np
import pytest

import gpmspace as g
from helpers import make_instance, two_point_carrier

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


# -- diameters ----------------------------------------------------------------

def test_diameter_constant_family():
    inst = make_instance("constant")
    assert g.diameter(inst, g.SubsetMask.full(3)) == 3.0


def test_diameter_damped_pair_close_to_limit():
    inst = make_instance("damped")  # t_min = 1e-4
    d = g.diameter(inst, ["a", "b"])
    assert abs(d - 2.0) <= 2e-4  # limit of 1 + exp(-t) as t -> 0+ doubles d = 1


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
    d = g.diameter(inst, g.ClosedInterval(-1.0, 1.0))
    assert abs(d - 4.0) <= 1e-3


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

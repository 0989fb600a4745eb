import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import balls as balls_module
from gpmspace import core
from helpers import (ALPHA_GRID, T_GRID, gallery_instances, line_carrier, make_instance,
                     three_point_carrier, two_point_carrier)

FINE = make_instance("scaled", op=g.MAX)


def two_point_instance(alpha_grid, t_grid=(1.0,)):
    return g.gallery_construct("scaled", {}, two_point_carrier(), g.MAX, t_grid, alpha_grid)


# -- masks -------------------------------------------------------------------

def test_subset_mask_roundtrip_and_ops():
    car = three_point_carrier()
    m = g.SubsetMask.from_labels(car, ["a", "c"])
    assert m.labels(car) == ("a", "c")
    assert m.count == 2
    assert m.complement().labels(car) == ("b",)
    full = g.SubsetMask.full(3)
    assert m.union(m.complement()) == full
    assert m.intersection(m.complement()).is_empty
    assert m.issubset(full) and not full.issubset(m)
    with pytest.raises(g.DomainError):
        g.SubsetMask(2, 0b100)


# -- balls --------------------------------------------------------------------

def test_open_ball_direct_evaluation():
    # oracle: P(a,b,2) = 1/2 < 1, P(a,c,2) = 3/2 >= 1
    car = FINE.carrier
    assert g.open_ball(FINE, "a", 1.0, 2.0).labels(car) == ("a", "b")


def test_open_ball_extremes():
    car = FINE.carrier
    big = 1 + max(g.eval_P(FINE, "a", b, 1.0) for b in car.labels)
    assert g.open_ball(FINE, "a", big, 1.0) == g.SubsetMask.full(3)
    assert g.open_ball(FINE, "a", 1e-9, 1.0).labels(car) == ("a",)


def test_closed_ball_boundary_included():
    car = FINE.carrier
    assert g.closed_ball(FINE, "a", 1.5, 2.0).labels(car) == ("a", "b", "c")
    assert g.closed_ball(FINE, "a", 0.0, 1.0).labels(car) == ("a",)
    for alpha in FINE.alpha_grid:
        for t in FINE.t_grid:
            assert g.open_ball(FINE, "a", alpha, t).issubset(
                g.closed_ball(FINE, "a", alpha, t))


def test_ball_domain_errors():
    with pytest.raises(g.DomainError):
        g.open_ball(FINE, "a", 0.0, 1.0)  # open balls need a positive radius
    with pytest.raises(g.DomainError):
        g.open_ball(FINE, "a", 1.0, 0.0)
    with pytest.raises(g.DomainError):
        g.open_ball(FINE, "zz", 1.0, 1.0)
    with pytest.raises(g.DomainError):
        g.closed_ball(FINE, "a", -1.0, 1.0)


@pytest.mark.parametrize("mask", [g.SubsetMask(5, 0b10001), g.SubsetMask(2, 0b01)],
                         ids=["larger", "smaller"])
@pytest.mark.parametrize("call", [
    lambda m: g.is_open(FINE, m),
    lambda m: g.interior(FINE, m),
    lambda m: g.closure_and_limit_points(FINE, m),
    lambda m: g.separation_witness(FINE, "regular", a="c", subset=m),
    lambda m: g.check_compact_closed_bounded(FINE, m),
], ids=["is_open", "interior", "closure", "regular_witness", "compact"])
def test_mask_of_the_wrong_size_is_a_domain_error(call, mask):
    # FINE has 3 points
    with pytest.raises(g.DomainError, match="mask size mismatch"):
        call(mask)


def test_ball_monotone_in_radius_and_scale():
    for a in FINE.carrier.labels:
        for t in FINE.t_grid:
            for a1, a2 in zip(FINE.alpha_grid, FINE.alpha_grid[1:]):
                assert g.open_ball(FINE, a, a1, t).issubset(g.open_ball(FINE, a, a2, t))
        for alpha in FINE.alpha_grid:
            for t1, t2 in zip(FINE.t_grid, FINE.t_grid[1:]):
                assert g.open_ball(FINE, a, alpha, t1).issubset(
                    g.open_ball(FINE, a, alpha, t2))


# -- topology generation -------------------------------------------------------

def test_two_point_fine_grid_is_discrete():
    inst = two_point_instance((0.5, 2.0))
    topo = g.generate_topology(inst)
    assert len(topo) == 4
    assert g.open_ball(inst, "a", 0.5, 1.0).labels(inst.carrier) == ("a",)
    assert g.open_ball(inst, "b", 0.5, 1.0).labels(inst.carrier) == ("b",)


def test_two_point_coarse_grid_is_indiscrete():
    inst = two_point_instance((2.0,))
    topo = g.generate_topology(inst)
    assert [m.labels(inst.carrier) for m in topo] == [(), ("a", "b")]


def test_empty_and_full_always_members():
    for inst in (FINE, two_point_instance((2.0,))):
        topo = g.generate_topology(inst)
        n = inst.carrier.size
        assert g.SubsetMask.empty(n) in topo
        assert g.SubsetMask.full(n) in topo


def test_is_open_examples():
    inst = two_point_instance((2.0,))
    assert g.is_open(inst, g.SubsetMask.empty(2))
    assert g.is_open(inst, g.SubsetMask.full(2))
    assert not g.is_open(inst, g.SubsetMask.from_labels(inst.carrier, ["a"]))


def test_generate_topology_size_limit():
    with pytest.raises(g.SizeError):
        g.generate_topology(FINE, max_points=2)


def test_generate_topology_caps_the_classes_not_the_points():
    # two clusters of 8 points, 1 apart inside a cluster and 10 across: at
    # t = 1 and alpha = 2 each cluster is one class, so 16 points give 4 sets
    n = 16
    carrier = g.FiniteCarrier([f"c{i}" for i in range(n)],
                              [[0 if i == j else 1 if i // 8 == j // 8 else 10
                                for j in range(n)] for i in range(n)])
    inst = make_instance("scaled", g.MAX, carrier=carrier, t_grid=(1.0, 2.0),
                         alpha_grid=(2.0, 4.0))
    assert [m.count for m in g.generate_topology(inst)] == [0, 8, 8, 16]
    with pytest.raises(g.SizeError, match="max_points=1"):
        g.generate_topology(inst, max_points=1)


def test_topology_family_verify_rejects_broken_families():
    n = 2
    masks = [g.SubsetMask.empty(n), g.SubsetMask(n, 0b01), g.SubsetMask(n, 0b10)]
    fam = g.TopologyFamily(n, masks)  # misses the full set
    with pytest.raises(g.VerificationError):
        fam.verify()


# -- closures -------------------------------------------------------------------

def test_closure_discrete_case():
    closure, limits = g.closure_and_limit_points(FINE, g.SubsetMask.from_labels(FINE.carrier, ["a"]))
    assert closure.labels(FINE.carrier) == ("a",)
    assert limits.is_empty


def test_closure_coarse_two_point_case():
    inst = two_point_instance((2.0,))
    s = g.SubsetMask.from_labels(inst.carrier, ["a"])
    closure, limits = g.closure_and_limit_points(inst, s)
    assert closure.labels(inst.carrier) == ("a", "b")
    assert limits.labels(inst.carrier) == ("b",)


def test_closure_of_empty_set():
    closure, limits = g.closure_and_limit_points(FINE, g.SubsetMask.empty(3))
    assert closure.is_empty and limits.is_empty


def test_closure_idempotent_and_extensive():
    for inst in (FINE, two_point_instance((2.0,)), two_point_instance((0.5, 2.0))):
        n = inst.carrier.size
        for bits in range(1 << n):
            s = g.SubsetMask(n, bits)
            cl1, _ = g.closure_and_limit_points(inst, s)
            cl2, _ = g.closure_and_limit_points(inst, cl1)
            assert s.issubset(cl1)
            assert cl1 == cl2


# -- theorems ----------------------------------------------------------------------

def test_ball_open_and_closed_ball_closed_fine_grids():
    assert g.verify_ball_theorem(FINE, "ball_open").ok
    assert g.verify_ball_theorem(FINE, "closed_ball_closed").ok


def test_nested_closure_lemma():
    # max(0.5, 0.5) = 0.5 <= 0.5, so the lemma applies with alpha = beta = 0.5
    rep = g.verify_ball_theorem(FINE, "nested_closure", alpha=0.5, beta=0.5,
                                scales=[1.0, 2.0])
    assert rep.ok
    # oracle for one configuration: closure(B(a, 0.5, 1)) = {a} inside B(a, 0.5, 2)
    inner, _ = g.closure_and_limit_points(FINE, g.open_ball(FINE, "a", 0.5, 1.0))
    assert inner.issubset(g.open_ball(FINE, "a", 0.5, 2.0))


def test_nested_closure_precondition():
    with pytest.raises(g.PreconditionError):
        g.verify_ball_theorem(FINE, "nested_closure", alpha=0.5, beta=2.0)


@pytest.mark.parametrize("theorem,params,missing", [
    ("nested_closure", {}, "alpha"), ("nested_closure", {"alpha": 0.5}, "beta"),
    ("closed_separation", {"point": "a"}, "subset"),
    ("closed_separation", {"subset": g.SubsetMask(3, 0b110)}, "point")])
def test_a_missing_theorem_parameter_is_named(theorem, params, missing):
    with pytest.raises(g.DomainError, match=f"^{theorem} needs the parameter '{missing}'$"):
        g.verify_ball_theorem(FINE, theorem, **params)


def test_closed_separation_lemma():
    subset = g.SubsetMask.from_labels(FINE.carrier, ["b", "c"])
    rep = g.verify_ball_theorem(FINE, "closed_separation", subset=subset, point="a",
                                scales=[1.0])
    assert rep.ok
    assert rep.data["inf_per_t"]["1"] == 1.0  # min(d(a,b), d(a,c)) / 1


def test_closed_separation_preconditions():
    subset = g.SubsetMask.from_labels(FINE.carrier, ["b", "c"])
    with pytest.raises(g.PreconditionError):
        g.verify_ball_theorem(FINE, "closed_separation", subset=subset, point="b")
    coarse = two_point_instance((2.0,))
    not_closed = g.SubsetMask.from_labels(coarse.carrier, ["b"])
    with pytest.raises(g.PreconditionError):
        g.verify_ball_theorem(coarse, "closed_separation", subset=not_closed, point="a")


@st.composite
def line_metric_instances(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    gaps = draw(st.lists(st.floats(min_value=0.5, max_value=3.0), min_size=n - 1,
                         max_size=n - 1))
    xs = [0.0]
    for gf in gaps:
        xs.append(xs[-1] + gf)
    labels = [f"p{i}" for i in range(n)]
    d = [[abs(xs[i] - xs[j]) for j in range(n)] for i in range(n)]
    carrier = g.FiniteCarrier(labels, d)
    min_d = min(d[i][j] for i in range(n) for j in range(n) if i != j)
    return g.gallery_construct("scaled", {}, carrier, g.MAX,
                               (1.0, 2.0), (0.5 * min_d, 2.0 * max(xs[-1], 1.0)))


@settings(max_examples=25, deadline=None)
@given(line_metric_instances())
def test_fine_grids_generate_discrete_topology(inst):
    # the alpha grid contains a value below the smallest nonzero P at t = 1
    topo = g.generate_topology(inst)
    assert len(topo) == 1 << inst.carrier.size
    topo.verify()


# -- memoized derivations against a from-scratch oracle -------------------------

@st.composite
def random_finite_instances(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.integers(min_value=1, max_value=6))
    for k in range(n):  # shortest-path closure makes d a metric
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    labels = [f"p{i}" for i in range(n)]
    carrier = g.FiniteCarrier(labels, d)
    t_grid = tuple(sorted(draw(st.sets(st.sampled_from([1e-4, 0.25, 0.5, 1.0, 2.0, 4.0, 50.0]),
                                       min_size=1, max_size=4))))
    alpha_grid = tuple(sorted(draw(st.sets(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]),
                                           min_size=1, max_size=4))))
    family = draw(st.sampled_from(g.FAMILIES))
    params = {}
    if family == "discrete":
        params = {"c": draw(st.floats(min_value=0.1, max_value=5.0))}
    elif family == "tabulated":
        nodes = [0.5, 1.0, 2.0]
        tables = []
        for i in range(n):
            for j in range(i + 1, n):
                vals = draw(st.lists(st.floats(min_value=0.05, max_value=6.0),
                                     min_size=len(nodes), max_size=len(nodes)))
                tables.append({"pair": [labels[i], labels[j]], "t": nodes,
                               "v": sorted(vals, reverse=True)})
        params = {"tables": tables}
    return g.gallery_construct(family, params, carrier, g.MAX, t_grid, alpha_grid)


def _oracle_balls(inst):
    return [sorted({g.open_ball(inst, a, alpha, t).bits
                    for alpha in inst.alpha_grid for t in inst.t_grid})
            for a in inst.carrier.labels]


def _oracle_open(balls, bits):
    return all(any(b & ~bits == 0 for b in balls[i])
               for i in range(len(balls)) if (bits >> i) & 1)


@settings(max_examples=60, deadline=None)
@given(random_finite_instances(), st.data())
def test_memoized_derivations_match_from_scratch_oracle(inst, data):
    n = inst.carrier.size
    oracle = _oracle_balls(inst)
    family = {bits for bits in range(1 << n) if _oracle_open(oracle, bits)}
    # P is non-increasing in t, so B(x, min alpha, min t) lies in every grid ball
    # at x and the admitted family is closed under intersection
    assert all((x & y) in family for x in family for y in family)

    for _ in range(2):  # first call derives, second reads the memo
        masks = balls_module.grid_ball_masks(inst)
        assert isinstance(masks, tuple) and all(isinstance(row, tuple) for row in masks)
        assert [[m.bits for m in row] for row in masks] == oracle
        assert {m.bits for m in g.generate_topology(inst)} == family
    assert g.generate_topology(inst) is g.generate_topology(inst)
    assert balls_module.grid_ball_masks(inst) is balls_module.grid_ball_masks(inst)

    for bits in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8)):
        s = g.SubsetMask(n, bits)
        assert g.is_open(inst, s) == (bits in family)
        inner = 0
        for u in family:
            if u & ~bits == 0:
                inner |= u
        assert g.interior(inst, s).bits == inner
        # x is a limit point of s when every open set around x meets s minus x
        limits = sum(1 << i for i in range(n)
                     if all(u & ~(1 << i) & bits for u in family if u >> i & 1))
        closure, lim = g.closure_and_limit_points(inst, s)
        assert lim.bits == limits
        assert closure.bits == bits | limits


@settings(max_examples=80, deadline=None)
@given(gallery_instances())
def test_grid_ball_tensor_matches_one_ball_at_a_time(inst):
    n = inst.carrier.size
    order = list(itertools.product(inst.carrier.labels, inst.alpha_grid, inst.t_grid))
    for theorem, ball, closed in (("ball_open", g.open_ball, False),
                                  ("closed_ball_closed", g.closed_ball, True)):
        masks = [ball(inst, a, alpha, t) for a, alpha, t in order]
        assert [balls_module._mask_of_flags(row) for row in
                balls_module._grid_balls(inst)[int(closed)].reshape(-1, n)] == masks
        # the theorem's witnesses are the balls a per-ball loop rejects, in order
        checked = [m.complement() if closed else m for m in masks]
        rejected = [ball for ball, m in zip(order, checked) if not g.is_open(inst, m)]
        rep = g.verify_ball_theorem(inst, theorem)
        assert rep.samples_tested == len(order)
        assert [(w.points[0], w.values["alpha"], w.values["t"]) for w in rep.witnesses] == rejected


def test_generate_topology_checks_size_before_the_memo():
    inst = make_instance("scaled", op=g.MAX)
    g.generate_topology(inst)
    with pytest.raises(g.SizeError):
        g.generate_topology(inst, max_points=2)


def test_memo_does_not_keep_instances_alive():
    # the memo lives on the instance, so no module holds an entry for it,
    # and nothing in it refers back to the instance: dropping the last
    # reference frees both without the cycle collector
    inst = make_instance("scaled", op=g.MAX)
    g.generate_topology(inst)
    g.d_alpha(g.AlphaMetric(inst, 1.0), "a", "c")
    assert set(inst._memo) == {"grid_P", "classes", "topology"}
    ref = weakref.ref(inst)
    del inst
    assert ref() is None


# -- work counts (machine independent) -------------------------------------------

def _count_values(monkeypatch):
    """The size of every kernel evaluation, in call order."""
    sizes = []
    real = core._kernel

    def counting(*args):
        values = real(*args)
        sizes.append(np.size(values))
        return values

    monkeypatch.setattr(core, "_kernel", counting)
    return sizes


def test_ball_open_theorem_derives_grid_balls_once(monkeypatch):
    n = 9
    inst = make_instance("scaled", op=g.MAX, carrier=line_carrier(n))
    sizes = _count_values(monkeypatch)
    assert g.verify_ball_theorem(inst, "ball_open").ok
    # one kernel tensor over (t, point, point), core.grid_P, gives the
    # theorem's balls, which every alpha reads, and its slice at the least t
    # the classes
    assert sizes == [len(T_GRID) * n * n] == [486]


def test_cantor_intersection_derives_grid_balls_once(monkeypatch):
    n = 20
    inst = make_instance("constant", op=g.MAX, carrier=line_carrier(n))
    fam = [g.SubsetMask.from_indices(n, range(n - k)) for k in range(n)]
    sizes = _count_values(monkeypatch)
    _, _, rep = g.cantor_intersection(inst, fam)
    assert rep.ok
    # the classes: the slice at the least t of core.grid_P, one kernel tensor
    # over (t, point, point); no grid ball
    assert sizes == [len(T_GRID) * n * n]


def test_topology_battery_tests_no_set_for_openness(monkeypatch):
    # the ball theorems ask one array question of every grid ball, "is it a
    # union of classes", so the battery calls is_open on no ball, cold or warm
    inst = make_instance("scaled", op=g.MAX, carrier=line_carrier(9))
    calls = []
    real = balls_module.is_open
    monkeypatch.setattr(balls_module, "is_open", lambda *args: calls.append(args) or real(*args))
    counts = []
    for _ in range(2):
        checks = balls_module.topology_battery(inst)
        assert all(c.ok for c in checks)
        counts.append(len(calls))
    assert counts == [0, 0]

"""tau_P, tau_d_alpha and the countable-base checks against the 2^n scan.

The oracles below are the enumerations the toolkit used before it derived
both families from their class labels: ``admitted_family`` scans all 2^n
subsets, ``metric_ball_masks`` builds d_alpha balls over a radius grid fine
enough to realize every ball of a finite carrier, ``countable_base_oracle``
loops over the scanned family, and ``least_and_reach`` closes the least
grid balls under Warshall's pass.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import balls as balls_module
from helpers import gallery_instances, line_carrier, make_instance


def admitted_family(n, balls_per_point):
    """All subsets where every member point has one of its balls inside."""
    masks = []
    for bits in range(1 << n):
        if all(any(b.bits & ~bits == 0 for b in balls_per_point[i])
               for i in range(n) if (bits >> i) & 1):
            masks.append(g.SubsetMask(n, bits))
    return masks


def metric_ball_masks(am):
    """Per point, d_alpha balls over radii one tolerance on either side of each
    realized distance, midpoints of consecutive ones and one past the largest."""
    labels = am.instance.carrier.labels
    n = len(labels)
    tol = am.solver.tolerance
    realized = sorted({0.0} | {g.d_alpha(am, a, b) for a in labels for b in labels
                              if not math.isinf(g.d_alpha(am, a, b))})
    eps = set()
    for v in realized:
        eps.add(v + tol)
        if v - tol > 0:
            eps.add(v - tol)
    for v1, v2 in zip(realized, realized[1:]):
        eps.add(0.5 * (v1 + v2))
    eps.add(realized[-1] + 1.0)
    radii = sorted(e for e in eps if e > 0)
    out = []
    for a in labels:
        seen = {}
        for r in radii:
            bits = sum(1 << i for i, b in enumerate(labels) if g.d_alpha(am, a, b) < r)
            seen[bits] = g.SubsetMask(n, bits)
        out.append([seen[b] for b in sorted(seen)])
    return out


def countable_base_oracle(inst, family, mode, x=None, n_max=None):
    """(specs, verdict, samples, first failing set) by looping over ``family``."""
    car = inst.carrier

    def isolating_n(p, cap=64):
        for k in range(1, cap + 1):
            if g.open_ball(inst, p, 1.0 / k, 1.0 / k).count == 1:
                return k
        return cap

    if mode == "local":
        n_top = n_max if n_max is not None else isolating_n(x)
        specs = [g.BallSpec(x, 1.0 / k, 1.0 / k) for k in range(1, n_top + 1)]
        masks = [g.open_ball(inst, x, s.radius, s.scale) for s in specs]
        around = [u for u in family if u.contains(car.index(x))]
        failures = [u for u in around if not any(m.issubset(u) for m in masks)]
        samples = len(around)
    else:
        n_top = n_max if n_max is not None else max(isolating_n(p) for p in car.labels)
        specs = [g.BallSpec(p, 1.0 / k, 1.0 / k) for p in car.labels for k in range(1, n_top + 1)]
        masks = [g.open_ball(inst, s.center, s.radius, s.scale) for s in specs]
        failures = []
        for u in family:
            union = 0
            for m in masks:
                if m.issubset(u):
                    union |= m.bits
            if union != u.bits:
                failures.append(u)
        samples = len(family)
    verdict = g.INCONCLUSIVE if failures else g.PASS
    first = failures[0].labels(car) if failures else None
    return specs, verdict, samples, first


def oracle_tau_p(inst):
    n = inst.carrier.size
    return g.TopologyFamily(n, admitted_family(n, balls_module.grid_ball_masks(inst)))


@settings(max_examples=120, deadline=None)
@given(gallery_instances())
def test_tau_p_equals_the_subset_scan(inst):
    tau_p = g.generate_topology(inst)
    assert tau_p == oracle_tau_p(inst)
    tau_p.verify()


def oracle_classes(tau):
    """The minimal open set of each point, the intersection of the members
    holding it, once each and ordered by the least point."""
    n, out = tau.n, {}
    for i in range(n):
        bits = (1 << n) - 1
        for m in tau:
            if m.contains(i):
                bits &= m.bits
        out.setdefault(bits, g.SubsetMask(n, bits))
    return list(out.values())


@settings(max_examples=80, deadline=None)
@given(gallery_instances(ops=(g.MAX,)), st.sampled_from([0.05, 0.25, 1.0, 4.0]))
def test_tau_d_alpha_equals_the_radius_grid_scan(inst, alpha):
    # tau_d_alpha is the power set exactly when P4 holds at alpha, and the
    # report names the classes of tau_P that merge points
    n = inst.carrier.size
    am = g.AlphaMetric(inst, alpha)
    tau_d = g.TopologyFamily(n, admitted_family(n, metric_ball_masks(am)))
    tau_d.verify()
    discrete = len(tau_d) == 1 << n
    try:
        rep = g.compare_topologies(inst, alpha)
    except g.HypothesisError:
        assert not discrete
        return
    assert discrete
    tau_p = oracle_tau_p(inst)
    car = inst.carrier
    assert rep.data == {
        "alpha": alpha,
        "tau_P_size": len(tau_p),
        "tau_d_alpha_size": len(tau_d),
        "merged_classes": [list(c.labels(car)) for c in oracle_classes(tau_p) if c.count > 1],
    }
    assert rep.verdict == (g.PASS if len(tau_p) == len(tau_d) else g.INCONCLUSIVE)


@settings(max_examples=60, deadline=None)
@given(gallery_instances(), st.sampled_from([None, 1, 2, 4]), st.data())
def test_countable_base_matches_a_loop_over_the_subset_scan(inst, n_max, data):
    family = list(oracle_tau_p(inst))
    x = data.draw(st.sampled_from(inst.carrier.labels))
    for mode, point in (("local", x), ("global", None)):
        specs, rep = g.countable_base(inst, mode, x=point, n_max=n_max)
        want_specs, verdict, samples, first = countable_base_oracle(inst, family, mode,
                                                                    point, n_max)
        assert specs == want_specs
        assert (rep.verdict, rep.samples_tested) == (verdict, samples)
        assert (rep.witness.points if rep.witnesses else None) == first


# plus on the nodes 0, 1, 2: a table op next to the closed-form ones
TABLE_OP = g.BinaryOperation.tabulated([0.0, 1.0, 2.0],
                                       [[0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])


def least_and_reach(inst):
    """(U, reach) per point as bitmasks: U_x = B(x, min alpha, min t), and
    reach its transitive closure by Warshall's pass, the least open set at x."""
    least = [g.open_ball(inst, a, min(inst.alpha_grid), min(inst.t_grid)).bits
             for a in inst.carrier.labels]
    reach = list(least)
    for k in range(len(reach)):
        for i, r in enumerate(reach):
            if r >> k & 1:
                reach[i] = r | reach[k]
    return least, reach


@settings(max_examples=120, deadline=None)
@given(gallery_instances(ops=(g.PLUS, g.MAX, TABLE_OP)))
def test_tau_p_is_the_partition_topology_of_its_classes(inst):
    # every gallery P is symmetric, so reach is an equivalence and tau_P is
    # the partition topology of its k classes; the class-based code rests on it
    n = inst.carrier.size
    least, reach = least_and_reach(inst)

    def matrix(rows):
        return [[bool(r >> j & 1) for j in range(n)] for r in rows]

    u, r = matrix(least), matrix(reach)
    assert u == [list(col) for col in zip(*u)]
    assert all(r[i][i] for i in range(n))
    assert r == [list(col) for col in zip(*r)]
    assert all(r[i][l] for i in range(n) for j in range(n) for l in range(n)
               if r[i][j] and r[j][l])
    assert balls_module._classes(inst).tolist() == [r[x].index(True) for x in range(n)]
    assert [c.bits for c in balls_module.tau_p_classes(inst)] == list(dict.fromkeys(reach))
    k = len(set(reach))
    tau_p = g.generate_topology(inst)
    assert len(tau_p) == 2 ** k
    assert tau_p == oracle_tau_p(inst)
    assert all(m.complement() in tau_p for m in tau_p)
    assert all(sum(m.contains(x) for m in tau_p) == 2 ** (k - 1) for x in range(n))


@st.composite
def planted_path_instances(draw):
    """Instances whose least balls hold a path a - b - c with a and c apart:
    d(a, b) = d(b, c) = 1 and d(a, c) = 2 in a random metric on up to 8
    points, under a formula linear in d, with the least alpha 1.5 times P at
    distance 1 and the least t.  The class of a then holds c, which one step
    of U from a does not reach."""
    n = draw(st.integers(min_value=3, max_value=8))
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.integers(min_value=1, max_value=6))
    d[0][1] = d[1][0] = d[1][2] = d[2][1] = 1
    d[0][2] = d[2][0] = 2  # every other path from a to c is at least as long
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    order = draw(st.permutations(range(n)))  # the path at random indices
    carrier = g.FiniteCarrier([f"p{i}" for i in range(n)],
                              [[d[order[i]][order[j]] for j in range(n)] for i in range(n)])
    family = draw(st.sampled_from(("scaled", "constant", "damped")))
    op = draw(st.sampled_from((g.PLUS, g.MAX, TABLE_OP)))
    t_grid = tuple(sorted(draw(st.sets(st.sampled_from([1e-4, 0.25, 0.5, 1.0, 2.0, 4.0, 50.0]),
                                       min_size=1, max_size=4))))
    unit = g.eval_P(g.GpmsInstance(carrier, family, {}, op, t_grid, (1.0,)),
                    f"p{order.index(0)}", f"p{order.index(1)}", t_grid[0])
    alpha_grid = tuple(sorted({1.5 * unit} | {m * unit for m in draw(
        st.sets(st.sampled_from([2.0, 4.0, 8.0]), max_size=2))}))
    return g.gallery_construct(family, {}, carrier, op, t_grid, alpha_grid)


@settings(max_examples=80, deadline=None)
@given(st.one_of(gallery_instances(ops=(g.PLUS, g.MAX, TABLE_OP)), planted_path_instances()),
       st.data())
def test_closure_is_closed_idempotent_and_matches_the_open_sets(inst, data):
    n = inst.carrier.size
    tau_p = oracle_tau_p(inst)
    for bits in [1 << x for x in range(n)] + [data.draw(st.integers(0, (1 << n) - 1))]:
        s = g.SubsetMask(n, bits)
        closure, limits = g.closure_and_limit_points(inst, s)
        assert closure.complement() in tau_p
        assert closure == g.interior(inst, s.complement()).complement()
        assert g.closure_and_limit_points(inst, closure)[0] == closure
        # x is a limit point of s when every open set around x meets s minus x
        assert limits.indices() == [x for x in range(n) if all(
            u.bits & bits & ~(1 << x) for u in tau_p if u.contains(x))]


def test_closure_is_the_union_of_the_classes_it_meets():
    # line 0, 1, 2 at t 1 and alpha 1.5: U = {0,1}, {0,1,2}, {1,2}, which is
    # not transitive, and reach joins all three points into one class
    inst = make_instance("scaled", g.MAX, carrier=line_carrier(3), t_grid=(1.0,),
                         alpha_grid=(1.5,))
    assert least_and_reach(inst) == ([0b011, 0b111, 0b110], [0b111] * 3)
    closure, _ = g.closure_and_limit_points(inst, g.SubsetMask(3, 0b001))
    assert closure.bits == 0b111  # one step of U gives {0, 1}, whose complement {2} is not open
    # closure(B(0, 0.5, 0.5)) = closure({0}) is the carrier, not inside B(0, 1.5, 1) = {0, 1}
    assert g.verify_ball_theorem(inst, "nested_closure", alpha=1.5, beta=0.5).failed

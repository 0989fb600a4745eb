"""Shared instance builders for the test suite."""
import os
import sys

from hypothesis import strategies as st

import gpmspace as g

T_GRID = (1e-4, 0.5, 1.0, 2.0, 4.0, 50.0)
ALPHA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

D3 = [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]


def three_point_carrier():
    return g.FiniteCarrier(("a", "b", "c"), D3)


def two_point_carrier():
    return g.FiniteCarrier(("a", "b"), [[0.0, 1.0], [1.0, 0.0]])


def line_carrier(n):
    labels = tuple(str(i) for i in range(n))
    d = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
    return g.FiniteCarrier(labels, d)


def workload_docs(workload, seed):
    """The instance documents a benchmark workload writes at ``seed``."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.instance_docs(workload, seed)


def make_instance(family="scaled", op=g.MAX, carrier=None,
                  t_grid=T_GRID, alpha_grid=ALPHA_GRID, **params):
    if carrier is None:
        carrier = three_point_carrier()
    return g.gallery_construct(family, params, carrier, op, t_grid, alpha_grid)


def interval_instance(family="scaled", op=g.MAX, lo=-2.0, hi=2.0, resolution=0.25,
                      t_grid=T_GRID, alpha_grid=ALPHA_GRID, **params):
    carrier = g.IntervalCarrier(lo, hi, resolution)
    return g.gallery_construct(family, params, carrier, op, t_grid, alpha_grid)


def squared_distance_table_instance(op=g.MAX, t_grid=T_GRID, alpha_grid=ALPHA_GRID):
    """Line points {0, 1, 2} with tabulated P = d^2 / t at the grid nodes."""
    carrier = line_carrier(3)
    params = g.tabulate_step_family(carrier, t_grid, lambda d, t: d * d / t)
    return g.gallery_construct("tabulated", params, carrier, op, t_grid, alpha_grid)


@st.composite
def gallery_instances(draw, ops=(g.PLUS, g.MAX)):
    n = draw(st.integers(min_value=2, max_value=8))
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
        tables = []
        for i in range(n):
            for j in range(i + 1, n):
                nodes = sorted(draw(st.sets(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
                                            min_size=1, max_size=4)))
                vals = draw(st.lists(st.floats(min_value=0.05, max_value=6.0),
                                     min_size=len(nodes), max_size=len(nodes)))
                tables.append({"pair": [labels[i], labels[j]], "t": nodes,
                               "v": sorted(vals, reverse=True)})
        params = {"tables": tables}
    op = draw(st.sampled_from(ops))
    return g.gallery_construct(family, params, carrier, op, t_grid, alpha_grid)

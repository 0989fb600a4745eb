"""Shared instance builders for the test suite."""
import importlib
import math
import os
import sys

import numpy as np
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


def full_triangle_scan(D, slack):
    """Every (i, j, l) with D[i, l] > D[i, j] + D[j, l] + slack, in
    lexicographic order, from one k x k x k tensor."""
    return np.argwhere(D[:, None, :] > (D[:, :, None] + D) + slack)


def planted_matrix(rng, k):
    """A symmetric k x k matrix of halves, zeros and infinities: the triangle
    sums tie at slacks that are multiples of 0.5, and the diagonal is not
    zero."""
    D = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, math.inf], size=(k, k))
    return np.where(np.tri(k, dtype=bool), D.T, D)


WORKLOAD_SEEDS = (1, 11, 23)  # the seeds CI replays the benchmark on


def perfbench_module(name):
    """The module ``perfbench/<name>.py`` (the directory is no package)."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def workload_docs(workload, seed):
    """The instance documents a benchmark workload writes at ``seed``."""
    return perfbench_module("workloads").instance_docs(workload, seed)


def all_workload_docs():
    """``{"workload seed name": document}``: every file of every benchmark
    workload at each of ``WORKLOAD_SEEDS``."""
    return {f"{workload} {seed} {name}": doc
            for workload in perfbench_module("workloads").WORKLOADS for seed in WORKLOAD_SEEDS
            for name, doc in workload_docs(workload, seed).items()}


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


def step_tables_oracle(carrier, params):
    """``core._step_tables``'s arrays, built one table entry at a time with
    per-entry numpy calls: the builder that the one-pass version replaced,
    which raises the same errors in the same order."""
    if carrier.kind != "finite":
        raise g.ConstructionError("tabulated family requires a finite carrier")
    raw = params.get("tables")
    if not raw:
        raise g.ConstructionError("tabulated family needs per-pair tables")
    if not isinstance(raw, (list, tuple)):
        raise g.ConstructionError("params.tables must be a list of {pair, t, v} entries")
    tables = {}
    for k, entry in enumerate(raw):
        where = f"params.tables[{k}]"
        if not (isinstance(entry, dict) and {"pair", "t", "v"} <= entry.keys()
                and isinstance(entry["pair"], (list, tuple))):
            raise g.ConstructionError(f"{where} must be an object with a 'pair' list, 't' and 'v'")
        pair = tuple(str(p) for p in entry["pair"])
        if len(pair) != 2 or not all(carrier.contains(p) for p in pair) or pair[0] == pair[1]:
            raise g.ConstructionError(f"table pair {pair!r} must name two distinct carrier points")
        try:
            nodes = np.asarray(entry["t"], dtype=float)
            vals = np.asarray(entry["v"], dtype=float)
        except (TypeError, ValueError):
            raise g.ConstructionError(f"{where}: 't' and 'v' must be lists of numbers") from None
        if (nodes.ndim != 1 or nodes.size == 0 or not np.all(np.diff(nodes) > 0)
                or not nodes[0] > 0):
            raise g.ConstructionError(f"table t nodes for {pair!r} must be strictly increasing positives")
        if vals.shape != nodes.shape or not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise g.ConstructionError(f"table values for {pair!r} must be finite non-negative")
        if np.any(np.diff(vals) > 0):
            raise g.ConstructionError(
                f"table values for {pair!r} increase in t; P must be non-increasing in t",
                axiom="monotone")
        i, j = sorted((carrier.index(pair[0]), carrier.index(pair[1])))
        if (i, j) in tables:
            raise g.ConstructionError(f"{where} repeats the table for pair {pair!r}")
        tables[i, j] = (nodes, vals)
    n = carrier.size
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in tables:
                raise g.ConstructionError(
                    f"tabulated family is missing a table for pair "
                    f"({carrier.labels[i]}, {carrier.labels[j]})")
    width = max(nodes.size for nodes, _ in tables.values()) + 1
    step_nodes = np.full((n, n, width), np.inf)
    step_vals = np.zeros((n, n, width))
    for (i, j), (nodes, vals) in tables.items():
        step_nodes[[i, j], [j, i], :nodes.size] = nodes
        step_vals[[i, j], [j, i]] = np.pad(vals, (1, width - 1 - vals.size), mode="edge")
    step_nodes.flags.writeable = False
    step_vals.flags.writeable = False
    return step_nodes, step_vals

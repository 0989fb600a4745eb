"""Seeded instance files and the operations each benchmark workload runs.

Every instance is written as a version-1 JSON instance file; the program
under test only ever sees those files.  The same ``seed`` gives the same
files byte for byte: it drives the random carriers and is copied into each
instance's ``seed`` field.
"""
from __future__ import annotations

import json
import os
import random

DEFAULT_T_GRID = [1e-4, 0.5, 1, 2, 4, 50]
DEFAULT_ALPHA_GRID = [0.25, 0.5, 1, 2, 4]
TOL = 1e-6

WIDE_COMMANDS = ("axioms", "sequences", "cantor", "dalpha")

WORKLOADS = {
    "finite-topology": "full-report on four finite carriers (n=7..12): balls, "
                       "separation and topology comparison dominate",
    "interval-sweep": "full-report on three interval carriers: no topology or "
                      "separation, core axiom scans and the d_alpha solver dominate",
    "wide-finite": "axioms, sequences, cantor and dalpha on two n=48 carriers: "
                   "is_open on large masks, no 2^n scan, O(n^3) carrier check",
}


def shortest_path_metric(n, rng, lo=1, hi=10):
    """Random integer weights on the complete graph, closed under shortest paths."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(lo, hi)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def line_metric(n):
    return [[abs(i - j) for j in range(n)] for i in range(n)]


def clustered_metric(n_clusters, size, rng):
    """Distance 1 inside a cluster, one random integer in [4, 8] per cluster pair."""
    between = {}
    for a in range(n_clusters):
        for b in range(a + 1, n_clusters):
            between[a, b] = between[b, a] = rng.randint(4, 8)
    n = n_clusters * size
    return [[0 if i == j else 1 if i // size == j // size else between[i // size, j // size]
             for j in range(n)] for i in range(n)]


def squared_tables(labels, d, t_nodes):
    """``params.tables`` for the tabulated family P = d^2 / t at the grid nodes."""
    n = len(labels)
    return [{"pair": [labels[i], labels[j]], "t": list(t_nodes),
             "v": [d[i][j] ** 2 / t for t in t_nodes]}
            for i in range(n) for j in range(i + 1, n)]


def finite_doc(prefix, d, family, op, seed, params=None,
               t_grid=DEFAULT_T_GRID, alpha_grid=DEFAULT_ALPHA_GRID):
    return {"version": 1, "points": [f"{prefix}{i}" for i in range(len(d))], "d": d,
            "family": family, "params": params or {}, "op": op,
            "t_grid": list(t_grid), "alpha_grid": list(alpha_grid), "seed": seed, "tol": TOL}


def interval_doc(lo, hi, resolution, family, op, seed, params=None):
    return {"version": 1, "interval": [lo, hi], "resolution": resolution,
            "family": family, "params": params or {}, "op": op,
            "t_grid": list(DEFAULT_T_GRID), "alpha_grid": list(DEFAULT_ALPHA_GRID),
            "seed": seed, "tol": TOL}


def instance_docs(workload, seed, tiny=False):
    """``{name: instance document}`` for one workload, in run order.

    ``tiny`` shrinks every carrier so the smoke test runs in seconds.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "finite-topology":
        n_line, n_rand, n_tab, clusters = (3, 4, 3, 2) if tiny else (9, 9, 7, 4)
        rand = shortest_path_metric(n_rand, rng)
        tab = shortest_path_metric(n_tab, rng)
        tab_labels = [f"q{i}" for i in range(n_tab)]
        return {
            "line": finite_doc("x", line_metric(n_line), "scaled", "max", seed),
            "random-damped": finite_doc("p", rand, "damped", "plus", seed),
            "random-tabulated": finite_doc(
                "q", tab, "tabulated", "max", seed,
                params={"tables": squared_tables(tab_labels, tab, DEFAULT_T_GRID)}),
            "clustered": finite_doc("c", clustered_metric(clusters, 3, rng), "scaled", "max",
                                    seed, t_grid=[1, 2, 4], alpha_grid=[2, 4, 8]),
        }
    if workload == "interval-sweep":
        scale = 10 if tiny else 1
        return {
            "scaled": interval_doc(-2.0, 2.0, 0.01 * scale, "scaled", "max", seed),
            "damped": interval_doc(-2.0, 2.0, 0.02 * scale, "damped", "plus", seed),
            "discrete": interval_doc(0.0, 1.0, 0.005 * scale, "discrete", "max", seed,
                                     params={"c": 1.0}),
        }
    if workload == "wide-finite":
        n = 5 if tiny else 48
        return {
            "wide-scaled": finite_doc("w", shortest_path_metric(n, rng), "scaled", "max", seed),
            "wide-constant": finite_doc("w", shortest_path_metric(n, rng), "constant", "max",
                                        seed),
        }
    raise KeyError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")


def operations(workload, names):
    """``[(instance name, command)]`` in the order one pass runs them."""
    commands = WIDE_COMMANDS if workload == "wide-finite" else ("full-report",)
    return [(name, cmd) for name in names for cmd in commands]


def write_instances(workload, seed, directory, tiny=False):
    """Write the workload's instance files; returns ``{name: path}``."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, doc in instance_docs(workload, seed, tiny).items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        paths[name] = path
    return paths

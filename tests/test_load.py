"""Loading an instance file against the passes it replaced.

``load_instance`` writes the instance digest in one pass
(``reports.compact_json``), scans a finite table's triangle inequality in
blocks of rows and refuses a blank pair from P at the smallest grid t.
Each is held to the code it replaced, kept here as an oracle: the digest
``sha256(json.dumps(canonical(describe()), sort_keys=True))`` with
``describe``'s per-entry ``float`` rows, the per-row triangle loop and the
points x points x t grid construction scan, whose P1-diagonal, symmetry and
rising arms no carrier the construction accepts can trip.  The step tables
are validated and padded in one array pass, held to the entry-by-entry
builder (``helpers.step_tables_oracle``).
"""
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import core, reports
from gpmspace.reports import canonical
from helpers import WORKLOAD_SEEDS, line_carrier, step_tables_oracle, workload_docs

T_GRID = [1e-4, 0.5, 1, 2, 4, 50]
ALPHA_GRID = [0.25, 0.5, 1, 2, 4]

# floats a table, a grid or a parameter may hold: subnormals, values near
# 1e308 and values that move when rounded to 12 significant digits
EDGE_FLOATS = (5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.1 + 0.2, 1 / 3,
               1.0000000000001, 123456789012.5, 2.5, 7.0, 1e300, 1e307, 1e308,
               1.7976931348623157e308)


# -- oracles ----------------------------------------------------------------


def oracle_digest(inst):
    """The instance digest as it was first computed: the canonical tree of
    ``describe()`` with a Python ``float`` per table entry, through ``json``."""
    desc = inst.describe()
    if inst.carrier.kind == "finite":
        desc["carrier"]["d"] = [[float(x) for x in row] for row in inst.carrier.d]
    text = json.dumps(canonical(desc), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def triangle_oracle(labels, d):
    """(message, axiom) of the first failure of the per-row triangle loop, or None."""
    d = np.array(d, dtype=float)
    slack = 1e-12 * max(1.0, float(d.max(initial=0.0)))
    with np.errstate(over="ignore"):
        for i in range(len(labels)):
            bad = d[i][:, None] > (d[i][None, :] + d.T) + slack
            if bad.any():
                j, k = np.argwhere(bad)[0]
                return (f"triangle inequality fails on ({labels[i]}, {labels[j]}, {labels[k]})",
                        "triangle")
    return None


def construction_oracle(inst):
    """(message, axiom) of the first failure of the pair-grid construction
    scan on a raw instance, or None."""
    pts = inst.carrier.points()
    tg = inst.t_grid
    car = inst.carrier
    if car.kind == "finite":
        u, v = np.unravel_index(np.argmax(car.d), car.d.shape)
        far_x, far_y = car.labels[u], car.labels[v]
    else:
        u, v = far_x, far_y = car.lo, car.hi
    with np.errstate(over="ignore"):
        c = core.coords(inst, pts)
        grid = core.P_at(inst, c[:, None, None], c[None, :, None], np.asarray(tg))
        far = core.P_at(inst, u, v, tg[0])
    upper = np.triu(np.ones((len(pts), len(pts)), dtype=bool), 1)
    bad = np.argwhere(grid.diagonal().T != 0.0)
    if bad.size:
        i, k = bad[0]
        return f"P({pts[i]},{pts[i]},{tg[k]}) != 0", "P1"
    blank = np.all(grid == 0.0, axis=-1)
    asym = grid != grid.transpose(1, 0, 2)
    rising = grid[:, :, :-1] < grid[:, :, 1:]
    bad = np.argwhere(upper & (blank | asym.any(-1) | rising.any(-1)))
    if bad.size:
        i, j = bad[0]
        x, y = pts[i], pts[j]
        if blank[i, j]:
            return f"distinct points ({x}, {y}) are indistinguishable on the t grid", "P1"
        if asym[i, j].any():
            return f"P not symmetric at ({x}, {y}, {tg[np.argmax(asym[i, j])]})", "P2"
        k = np.argmax(rising[i, j])
        return (f"P({x},{y},.) increases from t={tg[k]} to t={tg[k + 1]}; must be non-increasing",
                "monotone")
    if not np.isfinite(far):
        return f"P({far_x},{far_y},{tg[0]}) is not finite", "finite"
    return None


def refusal(fn):
    """(message, axiom) of the ConstructionError ``fn()`` raises, or None."""
    try:
        fn()
    except g.ConstructionError as err:
        return str(err), err.axiom
    return None


def assert_refusals_match(labels, d, family="scaled", params=None, t_grid=T_GRID):
    """The carrier and the construction refuse as their oracles do; returns
    the refusal."""
    expected = triangle_oracle(labels, d)
    got = refusal(lambda: g.FiniteCarrier(labels, d))
    assert got == expected
    if got is not None:
        return got
    carrier = g.FiniteCarrier(labels, d)
    params = dict(params or {})
    if family == "tabulated":
        params = g.tabulate_step_family(carrier, t_grid, lambda dist, t: dist / t)
    raw = g.GpmsInstance(carrier, family, params, g.MAX, t_grid, ALPHA_GRID)
    expected = construction_oracle(raw)
    got = refusal(lambda: g.gallery_construct(family, params, carrier, g.MAX, t_grid,
                                              ALPHA_GRID))
    assert got == expected
    return got


def line_table(n, scale=1.0):
    return [[abs(i - j) * scale for j in range(n)] for i in range(n)]


def ultrametric(w):
    """d(a, b) = max(w_a, w_b) off the diagonal: an ultrametric, exact in floats."""
    return [[0.0 if i == j else max(a, b) for j, b in enumerate(w)] for i, a in enumerate(w)]


def plant(d, pairs, value):
    d = [row[:] for row in d]
    for i, j in pairs:
        d[i][j] = d[j][i] = value
    return d


def labels_of(n):
    return [f"p{i}" for i in range(n)]


# -- refusals ---------------------------------------------------------------


@pytest.mark.parametrize("n, pairs", [
    (40, [(30, 35)]),
    (48, [(20, 30), (33, 45)]),
    (48, [(47, 2), (16, 40), (29, 31)]),
    (70, [(69, 0), (45, 50)]),
])
def test_planted_triangle_violations_across_blocks(monkeypatch, n, pairs):
    # violations planted in later blocks of rows, one block or several apart,
    # in an integer table, which the scan reads as int16, and in the same
    # table halved, which it reads as float64; blocks of 2^15 bytes
    monkeypatch.setattr(core, "_P3_BLOCK", 1 << 15)
    for scale, dtype in ((1.0, np.int16), (0.5, np.float64)):
        d = plant(line_table(n, scale), pairs, 3.0 * n * scale)
        read = core._scan_table(np.array(d))
        assert read.dtype == dtype
        assert core._P3_BLOCK // (n * n * read.itemsize) < n // 3  # several blocks of rows
        got = assert_refusals_match(labels_of(n), d)
        assert got is not None and got[1] == "triangle"


def test_sums_that_overflow_bound_every_distance():
    # d(a,k) + d(k,b) overflows to inf, which bounds d(a,b): no violation, so
    # the construction's overflow check refuses the instance instead
    n = 44
    huge = [(1.0, 1.2, 1.5, 1.7976931348623157)[k % 4] * 1e308 for k in range(n)]
    big = plant(ultrametric(huge), [(0, n - 1)], 1.7976931348623157e308)
    assert assert_refusals_match(labels_of(n), big, "constant") is None
    assert assert_refusals_match(labels_of(n), big) == ("P(p0,p3,0.0001) is not finite", "finite")
    # a real violation, past a sum that overflows, is still found
    small = plant(ultrametric([1.0] * 3 + huge[3:]), [(0, 1)], 1e308)
    assert assert_refusals_match(labels_of(n), small, "constant") == (
        "triangle inequality fails on (p0, p1, p2)", "triangle")


@pytest.mark.parametrize("family, params", [("scaled", {}), ("discrete", {"c": 5e-324})])
def test_subnormal_distances_are_indistinguishable(family, params):
    # 5e-324 / 2 and 5e-324 / 4 round to 0: the pair (p0, p1) reads 0 on the t grid
    n = 5
    d = line_table(n, 5e-324) if family == "scaled" else line_table(n)
    got = assert_refusals_match(labels_of(n), d, family, params, t_grid=[2.0, 4.0])
    assert got == ("distinct points (p0, p1) are indistinguishable on the t grid", "P1")
    # subnormal pairs among distinguishable ones: the first blank pair is named
    d = ultrametric([1.0, 5e-324, 2.0, 5e-324, 5e-324])
    got = assert_refusals_match(labels_of(n), d, t_grid=[2.0, 4.0])
    assert got == ("distinct points (p1, p3) are indistinguishable on the t grid", "P1")


@pytest.mark.parametrize("family", ["scaled", "damped"])
def test_P_that_overflows_at_the_smallest_t_is_not_finite(family):
    n = 6
    d = line_table(n, 1e300 if family == "scaled" else 1.7e308 / (n - 1))
    got = assert_refusals_match(labels_of(n), d, family, t_grid=[1e-10, 1.0])
    assert got == (f"P(p0,p{n - 1},1e-10) is not finite", "finite")


@pytest.mark.parametrize("family", ["scaled", "constant", "tabulated"])
def test_strided_sample_of_70_points(family):
    # every pair is read: blank pairs at odd points, which a sample of every
    # second point would skip, are refused as well as those it would keep
    n = 70
    w = [1.0 + k for k in range(n)]
    odd = ultrametric([1e-320 if k in (3, 5) else x for k, x in enumerate(w)])
    even = ultrametric([1e-320 if k in (66, 68) else x for k, x in enumerate(w)])
    t_grid = [1e4, 1e5] if family != "constant" else T_GRID
    for d, pair in ((odd, "(p3, p5)"), (even, "(p66, p68)")):
        got = assert_refusals_match(labels_of(n), d, family, t_grid=t_grid)
        if family == "constant":  # 1e-320 stays above 0 under the constant family
            assert got is None
        else:
            assert got == (f"distinct points {pair} are indistinguishable on the t grid", "P1")


@pytest.mark.parametrize("n", [65, 66])
def test_a_blank_pair_a_stride_would_skip_is_refused(tmp_path, capsys, n):
    # positions 0, 1, 1, 2, ..., n - 2 with d(p1, p2) = 5e-324, which reads 0
    # at t = 2; from 66 points on a stride-2 sample would miss p1
    pos = [0, 1] + list(range(1, n - 1))
    d = [[float(abs(a - b)) for b in pos] for a in pos]
    d[1][2] = d[2][1] = 5e-324
    doc = {"version": 1, "seed": 1, "tol": 1e-6, "points": labels_of(n), "d": d,
           "family": "scaled", "params": {}, "op": "max", "t_grid": [2, 4],
           "alpha_grid": ALPHA_GRID}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert g.main(["axioms", str(path)]) == 2
    assert "distinct points (p1, p2) are indistinguishable on the t grid" in capsys.readouterr().err
    assert assert_refusals_match(labels_of(n), d, t_grid=[2.0, 4.0]) == \
        ("distinct points (p1, p2) are indistinguishable on the t grid", "P1")


@st.composite
def planted_tables(draw):
    """(labels, d): an ultrametric max(w_a, w_b) of edge weights, exact in
    floats, with a few entries overwritten, so the triangle inequality fails,
    holds by an overflowing sum or holds."""
    n = draw(st.integers(2, 8) | st.integers(40, 70))
    w = [draw(st.sampled_from(EDGE_FLOATS)) for _ in range(n)]
    d = [[0.0 if i == j else max(w[i], w[j]) for j in range(n)] for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=3))
    return labels_of(n), plant(d, pairs, draw(st.sampled_from(EDGE_FLOATS)))


@settings(max_examples=80, deadline=None)
@given(planted_tables(), st.sampled_from(("scaled", "constant", "damped", "discrete")),
       st.sets(st.sampled_from((1e-10, 1e-4, 0.5, 1.0, 2.0, 4.0, 50.0)), min_size=1, max_size=4),
       st.sampled_from(EDGE_FLOATS[:-4]))
@example((labels_of(3), [[0, 5e-324, 5e-324], [5e-324, 0, 5e-324], [5e-324, 5e-324, 0]]),
         "scaled", {2.0, 4.0}, 1.0)
def test_refusals_match_the_oracles(table, family, t_grid, c):
    labels, d = table
    params = {"c": c} if family == "discrete" else {}
    assert_refusals_match(labels, d, family, params, t_grid=sorted(t_grid))


# -- step tables --------------------------------------------------------------


def step_tables_outcome(build, carrier, params):
    """``("built", nodes, values)`` from ``build``, or ``("refused", type, text,
    axiom)`` of the error it raises."""
    try:
        nodes, values = build(carrier, params)
    except g.GpmsError as err:
        return "refused", type(err), str(err), getattr(err, "axiom", None)
    return "built", nodes, values


def assert_step_tables_match(carrier, params):
    """``core._step_tables`` builds what the oracle builds, bit for bit and
    read-only, or raises what it raises; returns the outcome."""
    expected = step_tables_outcome(step_tables_oracle, carrier, params)
    got = step_tables_outcome(lambda car, p: core._step_tables(car, p)[0], carrier, params)
    if expected[0] == "refused":
        assert got == expected
        return got
    assert got[0] == "built"
    for want, have in zip(expected[1:], got[1:]):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()
        assert not have.flags.writeable
    tables = core._step_tables(carrier, params)[1]
    assert tables == sorted(
        ({"pair": sorted(map(str, e["pair"])), "t": np.asarray(e["t"], dtype=float).tolist(),
          "v": np.asarray(e["v"], dtype=float).tolist()} for e in params["tables"]),
        key=lambda e: e["pair"])
    return got


STEP_NODES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
STEP_VALUES = (0.0, 0.5, 1.0, 2.0, 3.0, 6.0)
STEP_FAULTS = ("node-nan", "node-zero", "node-negative", "node-decreasing", "value-nan",
               "value-inf", "value-negative", "value-rising", "pair-repeated", "pair-missing",
               "entry-not-object", "t-not-numeric", "t-nested", "t-v-lengths")


def plant_step_fault(draw, tables, k, fault):
    """Break entry ``k`` of ``tables`` (a list of entry dicts) by ``fault``."""
    entry = tables[k]
    t, v = list(entry["t"]), list(entry["v"])
    at = draw(st.integers(0, len(t) - 1))
    if fault.startswith("node-") and fault != "node-decreasing":
        t[at] = {"node-nan": math.nan, "node-zero": 0.0, "node-negative": -1.0}[fault]
    elif fault == "node-decreasing":
        t, v = (t[::-1], v) if len(t) > 1 else ([t[0], t[0] / 2], v * 2)
    elif fault.startswith("value-") and fault != "value-rising":
        v[at] = {"value-nan": math.nan, "value-inf": math.inf, "value-negative": -0.5}[fault]
    elif fault == "value-rising":
        t, v = (t, v[:-1] + [v[-2] + 1.0]) if len(t) > 1 else (t + [t[0] * 2], v + [v[0] + 1.0])
    elif fault == "pair-repeated":
        # the pair of another entry that is still an object: a fault planted
        # earlier may have replaced one with a list or a string
        other = draw(st.sampled_from([e for j, e in enumerate(tables)
                                      if j != k and isinstance(e, dict)]))
        entry = dict(entry, pair=draw(st.permutations(other["pair"])))
    elif fault == "pair-missing":
        del tables[k]
        return
    elif fault == "entry-not-object":
        tables[k] = draw(st.sampled_from(([1, 2], "x", {"pair": entry["pair"], "t": t})))
        return
    elif fault == "t-not-numeric":
        t[at] = draw(st.sampled_from(("x", None)))
    elif fault == "t-nested":
        t = draw(st.sampled_from(([t], [[x] for x in t], [t, [1.0]])))
    elif fault == "t-v-lengths":
        v = v + [v[-1]]
    tables[k] = dict(entry, t=t, v=v)


@st.composite
def step_table_params(draw):
    """(carrier, params): one table per pair of 2 to 6 points, ragged widths,
    each pair in either order and the entries shuffled, with up to two
    planted faults, in different entries when there are two."""
    n = draw(st.integers(2, 6))
    kinds = STEP_FAULTS if n > 2 else [f for f in STEP_FAULTS if f != "pair-repeated"]
    planted = min(draw(st.sampled_from((0, 1, 1, 2))), n - 1)
    faults = [draw(st.sampled_from(kinds)) for _ in range(planted)]
    carrier = line_carrier(n)
    tables = []
    for i in range(n):
        for j in range(i + 1, n):
            t = sorted(draw(st.sets(st.sampled_from(STEP_NODES), min_size=1, max_size=4)))
            v = sorted(draw(st.lists(st.sampled_from(STEP_VALUES), min_size=len(t),
                                     max_size=len(t))), reverse=True)
            pair = [str(i), str(j)] if draw(st.booleans()) else [str(j), str(i)]
            tables.append({"pair": pair, "t": t, "v": v})
    tables = draw(st.permutations(tables))
    at = draw(st.lists(st.integers(0, len(tables) - 1), min_size=len(faults),
                       max_size=len(faults), unique=True))
    for k, fault in sorted(zip(at, faults), reverse=True):  # a deletion shifts later entries
        plant_step_fault(draw, tables, k, fault)
    return carrier, {"tables": tables}


@settings(max_examples=300, deadline=None)
@given(step_table_params())
def test_step_tables_match_the_entry_by_entry_builder(case):
    assert_step_tables_match(*case)


def test_a_value_error_beats_a_later_structural_error():
    # entry 0 breaks a value rule, entry 1 a structural one, which the loop
    # meets first; the entry-by-entry order reports entry 0
    carrier = line_carrier(3)
    rising = {"pair": ["0", "1"], "t": [1, 2], "v": [1, 2]}
    for late in ([1, 2], {"pair": ["0", "9"], "t": [1], "v": [1]},
                 {"pair": ["0", "2"], "t": ["x"], "v": [1]},
                 {"pair": ["0", "2"], "t": [1, 2], "v": [1]}, dict(rising, pair=["1", "0"])):
        outcome = assert_step_tables_match(carrier, {"tables": [rising, late]})
        assert outcome[2:] == ("table values for ('0', '1') increase in t; P must be "
                               "non-increasing in t", "monotone")
    # and within an entry: nodes before the t/v lengths, values before a repeated pair
    outcome = assert_step_tables_match(carrier, {"tables": [
        {"pair": ["0", "1"], "t": [2, 1], "v": [1]}]})
    assert outcome[2] == "table t nodes for ('0', '1') must be strictly increasing positives"
    outcome = assert_step_tables_match(carrier, {"tables": [
        {"pair": ["0", "1"], "t": [1], "v": [1]}, {"pair": ["1", "0"], "t": [1], "v": [-1]}]})
    assert outcome[2] == "table values for ('1', '0') must be finite non-negative"


def tabulated_docs():
    """The golden tabulated instances and the workload's 7-point file at the CI seeds."""
    golden = os.path.join(os.path.dirname(__file__), "golden")
    docs = {}
    for name in sorted(os.listdir(golden)):
        if name.endswith(".instance.json"):
            with open(os.path.join(golden, name), encoding="utf-8") as fh:
                docs[name] = json.load(fh)
    docs = {name: doc for name, doc in docs.items() if doc["family"] == "tabulated"}
    for seed in WORKLOAD_SEEDS:
        docs[f"finite-topology {seed}"] = workload_docs("finite-topology", seed)[
            "random-tabulated"]
    return docs


TABULATED_DOCS = tabulated_docs()


@pytest.mark.parametrize("name", sorted(TABULATED_DOCS))
def test_tabulated_files_build_as_the_entry_by_entry_builder(name):
    doc = TABULATED_DOCS[name]
    carrier = g.FiniteCarrier(doc["points"], doc["d"])
    assert assert_step_tables_match(carrier, doc["params"])[0] == "built"


def test_a_nan_node_is_refused_in_a_one_node_table():
    # a NaN is not above 0, and a one-node table has no step to compare it with
    carrier = line_carrier(3)
    for t in ([math.nan], [math.nan, 2.0], [1.0, math.nan]):
        tables = [{"pair": ["0", "1"], "t": t, "v": [1.0] * len(t)},
                  {"pair": ["0", "2"], "t": [1.0], "v": [2.0]},
                  {"pair": ["1", "2"], "t": [1.0], "v": [1.0]}]
        with pytest.raises(g.ConstructionError) as err:
            g.gallery_construct("tabulated", {"tables": tables}, carrier, g.MAX, T_GRID,
                                ALPHA_GRID)
        assert str(err.value) == "table t nodes for ('0', '1') must be strictly increasing positives"
        assert err.value.axiom is None


# -- the digest -------------------------------------------------------------


def instance_doc(draw):
    kind = draw(st.sampled_from(("integer", "float", "tabulated", "table-op", "interval",
                                 "discrete")))
    doc = {"version": 1, "family": "constant", "params": {}, "op": "max",
           "t_grid": sorted(draw(st.sets(st.sampled_from((0.5, 1, 2.0, 4, 50, 1 / 3, 0.1 + 0.2)),
                                         min_size=1, max_size=4))),
           "alpha_grid": sorted(draw(st.sets(st.sampled_from((0.25, 1, 1.0000000000001, 2.5)),
                                             min_size=1, max_size=3))),
           "seed": 0, "tol": 1e-6}
    if kind == "interval":
        lo = draw(st.sampled_from((-2.0, 0.0, 0.1 + 0.2, 1e-310)))
        doc.update(interval=[lo, lo + draw(st.sampled_from((1.0, 1 / 3, 123.456789012345)))],
                   resolution=draw(st.sampled_from((0.25, 0.1 + 0.2, 1 / 7))),
                   family=draw(st.sampled_from(("scaled", "damped", "constant"))))
        return doc
    n = draw(st.integers(2, 7))
    if kind == "integer":
        w = [draw(st.integers(1, 2 ** 53)) for _ in range(n)]
    else:
        w = [draw(st.sampled_from(EDGE_FLOATS)) for _ in range(n)]
    doc.update(points=labels_of(n),
               d=[[0 if i == j else max(w[i], w[j]) for j in range(n)] for i in range(n)])
    if kind == "discrete":
        doc.update(family="discrete", params={"c": draw(st.sampled_from(EDGE_FLOATS[:-3]))})
    elif kind == "tabulated":
        doc["family"] = "tabulated"
        doc["params"] = {"tables": [
            {"pair": [f"p{j}", f"p{i}"], "t": [0.5, 2.0, 1e300],
             "v": sorted(draw(st.lists(st.sampled_from(EDGE_FLOATS), min_size=3, max_size=3)),
                         reverse=True)}
            for i in range(n) for j in range(i + 1, n)]}
    elif kind == "table-op":
        doc["op"] = {"table": {"grid": [0.0, 1 / 3, 1e308],
                               "values": [[0.0, 1 / 3, 1e308], [1 / 3, 0.1 + 0.2, 1e308],
                                          [1e308, 1e308, 5e-324]]}}
    return doc


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_digest_matches_the_json_oracle(tmp_path_factory, data):
    doc = instance_doc(data.draw)
    path = tmp_path_factory.mktemp("digest") / "inst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        inst_file = g.load_instance(str(path))
    except g.GpmsError:
        assume(False)
    assert inst_file.digest == oracle_digest(inst_file.instance)


def test_digest_of_edge_floats(tmp_path):
    # every edge float in one table, where rounding to 12 digits merges
    # some of them: the digest is still the oracle's
    w = [x for x in EDGE_FLOATS if x < 1e300]
    n = len(w)
    doc = {"version": 1, "points": labels_of(n),
           "d": [[0 if i == j else max(w[i], w[j]) for j in range(n)] for i in range(n)],
           "family": "constant", "params": {}, "op": "max", "t_grid": [0.5, 1 / 3 + 1],
           "alpha_grid": [0.1 + 0.2], "seed": 0, "tol": 1e-6}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    inst_file = g.load_instance(str(path))
    assert inst_file.digest == oracle_digest(inst_file.instance)
    assert reports.compact_json(inst_file.instance.describe()) == json.dumps(
        canonical(inst_file.instance.describe()), sort_keys=True)


# -- work ---------------------------------------------------------------------


def test_a_wide_load_rounds_each_float_once_and_calls_the_kernel_at_most_twice(
        tmp_path, monkeypatch):
    n = 48
    d = [[abs(i - j) % 7 + (i != j) for j in range(n)] for i in range(n)]
    d = [[min(d[i][j], d[j][i]) for j in range(n)] for i in range(n)]
    for k in range(n):  # shortest-path closure makes d a metric
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    doc = {"version": 1, "points": labels_of(n), "d": d, "family": "scaled", "params": {},
           "op": "max", "t_grid": T_GRID, "alpha_grid": ALPHA_GRID, "seed": 0, "tol": 1e-6}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    distinct = {float(x) for row in d for x in row} | set(map(float, T_GRID + ALPHA_GRID))
    plain, kernel = [], []
    real_plain, real_kernel = reports._plain, core._kernel

    def counted_plain(x):
        plain.append(x)
        return real_plain(x)

    def counted_kernel(*args):
        kernel.append(1)
        return real_kernel(*args)

    monkeypatch.setattr(reports, "_plain", counted_plain)
    monkeypatch.setattr(core, "_kernel", counted_kernel)
    inst_file = g.load_instance(str(path))
    assert len(distinct) < 20 and len(plain) <= len(distinct) + 2
    assert len(kernel) <= 2
    assert inst_file.digest == oracle_digest(inst_file.instance)


def test_step_tables_take_as_many_numpy_calls_for_21_tables_as_for_3(monkeypatch):
    # validation and padding are array passes over all entries: no np.diff or
    # np.pad per table, and no np.unique on the load path
    calls = {name: [] for name in ("diff", "pad", "concatenate", "unique")}

    def counting(real, seen):
        def counted(*args, **kwargs):
            seen.append(1)
            return real(*args, **kwargs)
        return counted

    for name, seen in calls.items():
        monkeypatch.setattr(np, name, counting(getattr(np, name), seen))
    counts = []
    for n in (3, 7):
        carrier = line_carrier(n)
        params = g.tabulate_step_family(carrier, T_GRID, lambda d, t: d * d / t)
        assert len(params["tables"]) == n * (n - 1) // 2
        for seen in calls.values():
            seen.clear()
        g.gallery_construct("tabulated", params, carrier, g.MAX, T_GRID, ALPHA_GRID)
        counts.append({name: len(seen) for name, seen in calls.items()})
    assert counts[0] == counts[1]
    assert counts[1]["unique"] == 0

"""The one-pass report writer against the encoder it replaces.

``reports.canonical_json(x)`` must equal ``json.dumps(canonical(x),
sort_keys=True, indent=2) + "\\n"`` byte for byte, on any value tree a report
can hold.
"""
import enum
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import balls, reports, separation
from gpmspace.reports import canonical, canonical_json


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Jsonable:
    """An object serialized through its ``to_jsonable``."""

    def __init__(self, value):
        self.value = value

    def to_jsonable(self):
        return self.value


class FloatSub(float):
    """A float whose repr is no float text: it is written by the float rules."""

    def __repr__(self):
        return "FloatSub"

    __str__ = __repr__


class StrSub(str):
    """A string whose ``str`` differs from its characters: a key written as its ``str``."""

    def __str__(self):
        return "sub:" + str.__str__(self)


class Opaque:
    """An object with neither ``item`` nor ``to_jsonable``: serialized as its str."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


TRICKY = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "☃", "\ud800", "\udfff",
          "\U0001f600", "/", "a"]
TEXT = st.text(st.sampled_from(TRICKY) | st.characters(exclude_categories=()), max_size=8)
FLOATS = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2, 1 / 3, 123456789012.5])
INTS = st.booleans() | st.integers() | st.sampled_from([2 ** 70, -(2 ** 64) - 1, Level.LOW, Level.HIGH])
NUMPY = (st.floats(width=32).map(np.float32) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
         | st.booleans().map(np.bool_) | FLOATS.map(np.float64))
LEAVES = (st.none() | TEXT | FLOATS | INTS | NUMPY | TEXT.map(Opaque) | FLOATS.map(FloatSub)
          | TEXT.map(StrSub))
KEYS = (TEXT | st.integers(-3, 3) | TEXT.map(StrSub)
        | st.sampled_from([1, "1", None, "None", True, 2.5, Level.HIGH, StrSub("1")]))


def trees():
    return st.recursive(
        LEAVES,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(KEYS, inner, max_size=4) | inner.map(Jsonable)),
        max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(trees())
@example({1: "int key", "1": "str key"})
@example({"1": "str key", 1: "int key"})
@example([[], {}, (), [[]], {"a": {}}])
@example({"z": [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, 0.1 + 0.2]})
@example([True, False, 2 ** 70, Level.HIGH, np.float32(0.1), np.int64(-7), np.bool_(True)])
@example(Jsonable({"w": Jsonable((1, 2.5, Opaque("o")))}))
@example([0.0, -0.0, 0.0])
@example({"a": -0.0, "b": 0.0, "c": -0.0})
@example([math.nan, math.nan, math.inf, -math.inf, math.inf])
@example([1.5, np.float64(1.5), 1.5])
@example([1, True, Level.HIGH])
@example(["a", StrSub("b")])
@example([2.5, [2.5], 2.5])
@example({StrSub("b"): 1, "a": [FloatSub(0.1 + 0.2), 0.1 + 0.2]})
# one key set at several depths and in both insertion orders: each dict
# shape the writer keeps is one key tuple at one indentation
@example([{"a": 1, "b": [{"b": 2, "a": 3}]}, {"b": 0, "a": {"a": 1, "b": 2}}])
@example({"a": {"a": {"a": {}}}, "b": [{"a": 1}, [{"a": 2}]]})
# a converted key set that meets a kept one, and keys equal to a kept key
# tuple that are not exact strings
@example([{"1": 0}, {1: 0, "1": 1}])
@example([{"b": 1}, {StrSub("b"): 2}, {"b": 3}])
@example([{"a": 1, "b": 2}, Jsonable({"b": 3, "a": 4}), {True: 5, "b": 6}, {"a": 7, "b": 8}])
def test_writer_matches_the_indenting_encoder(tree):
    assert canonical_json(tree) == json.dumps(canonical(tree), sort_keys=True, indent=2) + "\n"
    assert reports.compact_json(tree) == json.dumps(canonical(tree), sort_keys=True)


def test_colliding_keys_keep_the_last_value():
    assert canonical_json({1: "a", "1": "b"}) == '{\n  "1": "b"\n}\n'
    assert canonical_json({"1": "a", 1: "b"}) == '{\n  "1": "b"\n}\n'


def test_scalars_and_empty_containers():
    assert canonical_json(math.nan) == '"nan"\n'
    assert canonical_json(0.1 + 0.2) == "0.3\n"
    assert canonical_json(-0.0) == "-0.0\n"
    assert canonical_json("\ud800é") == '"\\ud800\\u00e9"\n'
    assert canonical_json({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}\n'


def _shortest_path_doc(family, n=48, seed=48):
    """An n-point instance document: random integer weights closed under shortest paths."""
    rng = random.Random(seed)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, 10)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return {"version": 1, "points": [f"w{i}" for i in range(n)], "d": d, "family": family,
            "params": {}, "op": "max", "t_grid": [1e-4, 0.5, 1, 2, 4, 50],
            "alpha_grid": [0.25, 0.5, 1, 2, 4], "seed": 11, "tol": 1e-6}


@pytest.fixture(scope="module")
def wide_reports(tmp_path_factory):
    """``{(family, command): Report}`` on 48 points: long float rows, repeated
    values and, under constant/max, infinite d_alpha entries."""
    reports_by_case = {}
    for family in ("scaled", "constant"):
        path = tmp_path_factory.mktemp(family) / "inst.json"
        path.write_text(json.dumps(_shortest_path_doc(family)), encoding="utf-8")
        inst_file = g.load_instance(str(path))
        for command in ("dalpha", "sequences"):
            reports_by_case[family, command] = g.run_command(command, inst_file)
    return reports_by_case


def test_large_reports_match_the_indenting_encoder(wide_reports):
    for case, report in wide_reports.items():
        expected = json.dumps(report.to_jsonable(), sort_keys=True, indent=2) + "\n"
        assert report.to_canonical_json() == expected, case
    assert '"inf"' in wide_reports["constant", "dalpha"].to_canonical_json()


def _exact_floats(tree):
    if type(tree) is float:
        yield tree
    elif isinstance(tree, dict):
        for v in tree.values():
            yield from _exact_floats(v)
    elif isinstance(tree, (list, tuple)):
        for v in tree:
            yield from _exact_floats(v)


def test_each_distinct_float_is_rounded_once_per_call(wide_reports, monkeypatch):
    report = wide_reports["scaled", "dalpha"]
    tree = {"grids": report.grids, "tol": report.tol,
            "checks": [c.to_jsonable() for c in report.checks]}
    floats = list(_exact_floats(tree))
    distinct = {x for x in floats if x and math.isfinite(x)}
    assert len(floats) > 10 * len(distinct)  # the d_alpha table repeats its values
    calls = []
    real = reports._round12

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(reports, "_round12", counted)
    for _ in range(2):  # the memo lives for one call: the second call rounds again
        calls.clear()
        report.to_canonical_json()
        assert sorted(calls) == sorted(distinct)


# labels with every character the row writer must escape or pass through:
# quotes, backslashes, '%' and braces (literal in a template), NUL (the
# template's own sentinel character) and non-ASCII, up to astral
LABELS = st.text(st.characters(min_codepoint=32, max_codepoint=126)
                 | st.sampled_from(['"', "\\", "%", "{", "}", "\x00", "é", "☃", "\U0001f600"]),
                 max_size=5)


@st.composite
def separation_instances(draw):
    """2 to 6 labelled points, an integer shortest-path metric, a family and op,
    and a t grid; the coarse grid [50] leaves singletons not closed, so its
    regular and normal rows are refused."""
    labels = draw(st.lists(LABELS, min_size=2, max_size=6, unique=True))
    n = len(labels)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.integers(1, 10))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    family = draw(st.sampled_from(["scaled", "damped", "constant", "discrete"]))
    params = {"c": draw(st.sampled_from([0.5, 1.0, 3.0]))} if family == "discrete" else {}
    t_grid = draw(st.sampled_from([(1e-4, 0.5, 1, 2, 4, 50), (1, 2, 4), (50,)]))
    return g.gallery_construct(family, params, g.FiniteCarrier(labels, d),
                               draw(st.sampled_from([g.MAX, g.PLUS])), t_grid, (0.25, 0.5, 1, 2, 4))


REFUSING = g.gallery_construct("scaled", {}, g.FiniteCarrier(['a"1', "{x},y", "\x000\x00"],
                                                             [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
                               g.MAX, (50,), (0.25, 0.5, 1, 2, 4))


def mixed_checks(inst):
    """A checks list that mixes plain reports with rows of several batches
    and shapes: T0 and T2 rows on a pair, multi-point regular and normal rows
    (constructed where the sets are closed, refused where not) and the base
    reports, at the default depth and at depth 0, where every base fails."""
    n, labels = inst.carrier.size, inst.carrier.labels
    classes = balls._classes(inst)
    rows = [([0], [*range(1, n)]), ([0], [1]), ([*range(n // 2)], [*range(n // 2, n)])]
    first = classes == classes[0]
    if not first.all():  # two unions of classes: closed sets
        rows.append((np.flatnonzero(first).tolist(), np.flatnonzero(~first).tolist()))
    centers = np.zeros((2, len(rows), n), dtype=bool)
    for r, (xs, ys) in enumerate(rows):
        centers[0, r, xs] = centers[1, r, ys] = True
    batches = separation.witness_batches(inst, *centers, {
        "T0": [1], "T2": [1], "regular": [0, 1], "normal": [*range(len(rows))]})
    views = [separation.WitnessRow(b, r, f"{kind}<{labels[r % n]}>#{r}")
             for kind, b in batches.items() for r in range(len(b.rows))]
    for n_max in (None, 0):
        views += separation.base_batch(inst, [*range(n), None], n_max)[0]
    plain = [g.CheckReport(name=f"plain {p}", verdict=g.PASS, data={"label": p, "x": 0.1})
             for p in labels]
    # interleaved: a plain report after every third view
    checks = []
    for k, view in enumerate(views):
        checks.append(view)
        if k % 3 == 2 and plain:
            checks.append(plain.pop())
    return checks + plain


def assert_rows_read_as_their_reports(inst, checks):
    for c in checks:
        if isinstance(c, separation.WitnessRow):
            error = c.batch.errors[c.row]
            want = (c.batch.report(c.row, c.name) if error is None
                    else g.CheckReport(name=c.name, verdict=g.INCONCLUSIVE,
                                       note=reports.not_certifiable(error)))
        elif c.name.startswith("countable_base["):
            local = c.name.startswith("countable_base[local@")
            depth_0 = c.witness is not None and c.witness.values["n_max"] == 0
            want = g.countable_base(inst, "local" if local else "global",
                                    x=c.name[len("countable_base[local@"):-1] if local else None,
                                    n_max=0 if depth_0 else None)[1]
        else:
            continue
        assert c.to_jsonable() == want.to_jsonable()
        assert (c.name, c.verdict, c.note, c.samples_tested, len(c.witnesses)) == \
            (want.name, want.verdict, want.note, want.samples_tested, len(want.witnesses))


# two clusters of two: each cluster is a class, so the cluster rows are
# constructed on two-point sets
CLUSTERED = g.gallery_construct("scaled", {}, g.FiniteCarrier(
    ['a"', "b\\", "\u00e9", "{c}"], [[0, 1, 5, 5], [1, 0, 5, 5], [5, 5, 0, 1], [5, 5, 1, 0]]),
    g.MAX, (1, 2, 4), (2, 4, 8))


@settings(max_examples=80, deadline=None)
@given(separation_instances())
@example(REFUSING)
@example(CLUSTERED)
def test_separation_rows_match_the_indenting_encoder(inst):
    # the battery's rows are views of their witness batches, written from a
    # template the general rules derive; refused rows are views too
    inst_file = g.cli.InstanceFile(version=1, instance=inst, seed=0, tol=1e-6, digest="",
                                   source={})
    report = g.run_command("separation", inst_file)
    tree = report.to_jsonable()
    assert report.to_canonical_json() == json.dumps(tree, sort_keys=True, indent=2) + "\n"
    assert reports.compact_json(report._body()) == json.dumps(tree, sort_keys=True)
    if inst is REFUSING:
        assert {c.verdict for c in report.checks} == {"pass", "inconclusive"}
    # a list that mixes plain reports with rows of several batches and
    # shapes, written a column at a time by both layouts
    checks = mixed_checks(inst)
    body = {"checks": [c if isinstance(c, reports.Templated) else c.to_jsonable()
                       for c in checks]}
    tree = canonical(body)
    assert canonical_json(body) == json.dumps(tree, sort_keys=True, indent=2) + "\n"
    assert reports.compact_json(body) == json.dumps(tree, sort_keys=True)
    assert_rows_read_as_their_reports(inst, checks)
    assert_rows_read_as_their_reports(inst, report.checks)
    if inst is CLUSTERED:  # every kind of row and shape is met
        shapes = {c.batch.shapes[c.row] for c in checks if isinstance(c, reports.Templated)}
        assert shapes == {(1, 0), (1, 1), (2, 2), None}
        # a base that holds, and one that fails on an open set of two points
        bases = {(c.verdict, len(c.witness.points) if c.witness else 0) for c in checks
                 if c.name.startswith("countable_base[")}
        assert bases == {("pass", 0), ("inconclusive", 2)}
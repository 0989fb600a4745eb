import gc
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import balls, cli, core, separation
from helpers import line_carrier, make_instance, three_point_carrier, two_point_carrier
from test_topology_oracles import countable_base_oracle, gallery_instances, oracle_tau_p

FINE = make_instance("scaled", op=g.MAX)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def two_point_instance(t_grid=(1.0,), alpha_grid=(0.5, 2.0)):
    return g.gallery_construct("scaled", {}, two_point_carrier(), g.MAX, t_grid, alpha_grid)


def test_t2_witness_matches_hand_construction():
    # with t_grid = {1}: t0 = 1, alpha0 = P(a,b,1) = 1, alpha1 = 1/2,
    # balls at scale 1/2 hold only their centers since P(a,b,1/2) = 2
    inst = two_point_instance()
    w = g.separation_witness(inst, "T2", a="a", b="b")
    assert (w.t0, w.alpha0, w.alpha1) == (1.0, 1.0, 0.5)
    assert w.u_mask.labels(inst.carrier) == ("a",)
    assert w.v_mask.labels(inst.carrier) == ("b",)
    assert g.eval_op(inst.op, w.alpha1, w.alpha1) < w.alpha0


def test_t0_witness_excludes_second_point():
    inst = two_point_instance()
    w = g.separation_witness(inst, "T0", a="a", b="b")
    assert w.balls_u == (g.BallSpec("a", 1.0, 1.0),)
    assert not w.u_mask.contains(inst.carrier.index("b"))


def test_t1_ball_exclusions_for_all_pairs():
    labels = FINE.carrier.labels
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            t0 = FINE.t_grid[0]
            alpha0 = g.eval_P(FINE, a, b, t0)
            assert not g.open_ball(FINE, a, alpha0, t0).contains(FINE.carrier.index(b))
            assert not g.open_ball(FINE, b, alpha0, t0).contains(FINE.carrier.index(a))
            w = g.separation_witness(FINE, "T1", a=a, b=b)
            assert g.verify_witness(FINE, w).ok


@pytest.mark.parametrize("kind", ["T0", "T1", "T2"])
def test_point_witnesses_round_trip(kind):
    labels = FINE.carrier.labels
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            w = g.separation_witness(FINE, kind, a=a, b=b)
            assert g.verify_witness(FINE, w).ok


def test_regular_and_normal_witnesses():
    n = FINE.carrier.size
    for bits in range(1, (1 << n) - 1):
        subset = g.SubsetMask(n, bits)
        for x in FINE.carrier.labels:
            if subset.contains(FINE.carrier.index(x)):
                continue
            w = g.separation_witness(FINE, "regular", a=x, subset=subset)
            assert g.verify_witness(FINE, w).ok
            assert subset.issubset(w.v_mask)
    for ab in range(1, 1 << n):
        for bb in range(1, 1 << n):
            if ab & bb:
                continue
            w = g.separation_witness(FINE, "normal",
                                     subset=g.SubsetMask(n, ab),
                                     subset_b=g.SubsetMask(n, bb))
            assert g.verify_witness(FINE, w).ok
            assert w.u_mask.intersection(w.v_mask).is_empty


def test_hand_built_witness_with_radius_too_large_fails():
    inst = two_point_instance()
    w = g.SeparationWitness(kind="T2", t0=1.0, alpha0=1.0, alpha1=1.0,
                            balls_u=(g.BallSpec("a", 1.0, 0.5),),
                            balls_v=(g.BallSpec("b", 1.0, 0.5),), a="a", b="b")
    rep = g.verify_witness(inst, w)
    assert rep.failed  # max(1,1) = 1 is not strictly below alpha0 = 1
    assert any("inequality chain" in x.detail for x in rep.witnesses)


def test_hand_built_witness_with_overlapping_balls_fails():
    inst = two_point_instance(t_grid=(1.0, 2.0))
    w = g.SeparationWitness(kind="T2", t0=1.0, alpha0=1.0, alpha1=2.0,
                            balls_u=(g.BallSpec("a", 2.0, 2.0),),
                            balls_v=(g.BallSpec("b", 2.0, 2.0),), a="a", b="b")
    rep = g.verify_witness(inst, w)
    assert rep.failed
    assert any("overlap" in x.detail for x in rep.witnesses)


@pytest.mark.parametrize("kind", ["regular", "normal"])
def test_hand_built_set_witness_above_the_set_separation_fails(kind):
    # {a, b} against c at t0 = 1: the set separation value is P(b, c, 1) = 2,
    # so alpha0 = P(a, c, 1) = 3 is too large
    car = FINE.carrier
    ab = g.SubsetMask.from_labels(car, ["a", "b"])
    ball = (g.BallSpec("c", 0.5, 0.5),)
    if kind == "regular":
        w = g.SeparationWitness(kind, 1.0, 3.0, 0.5, ball, (), a="c", set_a=ab)
    else:
        w = g.SeparationWitness(kind, 1.0, 3.0, 0.5, (), ball, set_a=ab,
                                set_b=g.SubsetMask.from_labels(car, ["c"]))
    rep = g.verify_witness(FINE, w)
    chain = [x for x in rep.witnesses if "set separation value" in x.detail]
    assert chain and chain[0].values["separation"] == 2.0


def test_witness_with_foreign_point_errors():
    inst = two_point_instance()
    w = g.SeparationWitness(kind="T0", t0=1.0, alpha0=1.0, alpha1=None,
                            balls_u=(g.BallSpec("zz", 1.0, 1.0),), balls_v=(),
                            a="zz", b="b")
    with pytest.raises(g.DomainError):
        g.verify_witness(inst, w)


def test_regular_requires_closed_set():
    coarse = two_point_instance(alpha_grid=(2.0,))
    not_closed = g.SubsetMask.from_labels(coarse.carrier, ["b"])
    with pytest.raises(g.PreconditionError):
        g.separation_witness(coarse, "regular", a="a", subset=not_closed)


def test_normal_requires_disjoint_sets():
    n = FINE.carrier.size
    with pytest.raises(g.PreconditionError):
        g.separation_witness(FINE, "normal",
                             subset=g.SubsetMask(n, 0b011), subset_b=g.SubsetMask(n, 0b001))


def test_local_base_at_a_verifies():
    # B(a, 1, 1) = {a} already: P(a,b,1) = 1 >= 1
    specs, rep = g.countable_base(FINE, "local", x="a", n_max=4)
    assert [s.radius for s in specs] == [1.0, 0.5, 1 / 3, 0.25]
    assert rep.ok
    assert g.open_ball(FINE, "a", 1.0, 1.0).labels(FINE.carrier) == ("a",)


@pytest.mark.parametrize("mode", ["local", "global"])
def test_countable_base_refuses_a_negative_depth(mode):
    x = "a" if mode == "local" else None
    with pytest.raises(g.DomainError, match="^n_max must be >= 0, got -1$"):
        g.countable_base(FINE, mode, x=x, n_max=-1)
    # depth 0 holds no base ball: every base fails there
    specs, rep = g.countable_base(FINE, mode, x=x, n_max=0)
    assert specs == [] and rep.verdict == g.INCONCLUSIVE
    assert rep.witness.values == {"n_max": 0.0}


@pytest.mark.parametrize("n_max, why", [
    (2.5, "^n_max must be an int, got 2.5$"), (float("nan"), "^n_max must be an int, got nan$"),
    ("3", "^n_max must be an int, got '3'$"), (True, "^n_max must be an int, got True$"),
    (np.int64(3), "^n_max must be an int, got "),
    (10 ** 20, "^n_max=100000000000000000000 needs a base pass of 4"),
])
def test_countable_base_refuses_a_depth_that_is_no_int_or_beyond_the_budget(monkeypatch,
                                                                            n_max, why):
    # refused before any P is read: no kernel tensor is built, however deep
    inst = two_point_instance()
    monkeypatch.setattr(core, "_kernel", lambda *args: pytest.fail("a tensor was built"))
    with pytest.raises(g.DomainError, match=why):
        g.countable_base(inst, "global", n_max=n_max)
    with pytest.raises(g.DomainError, match=why):
        separation.base_batch(inst, [0, None], n_max)
    # the budget holds 2^22 (depth, n, n) entries: depth 2^20 on two points
    budget = 1 << 20
    with pytest.raises(g.DomainError, match=f"^n_max={budget + 1} needs"):
        separation.base_batch(inst, [None], budget + 1)


def test_global_base_generates_all_open_sets():
    inst = two_point_instance()
    specs, rep = g.countable_base(inst, "global")
    assert rep.ok
    assert rep.samples_tested == 4  # discrete topology on two points


def test_local_base_inconclusive_when_depth_too_small():
    # a tiny constant distance keeps B(x, 1/n, 1/n) fat for small n, while a
    # small alpha-grid value makes {a} open
    carrier = g.FiniteCarrier(("a", "b"), [[0.0, 1e-3], [1e-3, 0.0]])
    inst = g.gallery_construct("constant", {}, carrier, g.MAX, (1.0,), (5e-4,))
    specs, rep = g.countable_base(inst, "local", x="a", n_max=4)
    assert rep.verdict == g.INCONCLUSIVE
    assert rep.witness.points == ("a",)  # the open set {a} is named


@pytest.mark.parametrize("mode", ["local", "global"])
def test_countable_base_reads_the_least_open_set_not_the_least_ball(mode):
    # constant P = d on 0 - 1 - 2 at steps of 0.1 with alpha_grid {0.15}:
    # U_0 = {0, 1} but U_1 is everything, so the least open set around 0 is
    # the whole carrier; the base ball B(0, 1, 1) is the whole carrier too
    carrier = g.FiniteCarrier(("0", "1", "2"),
                              [[0.0, 0.1, 0.2], [0.1, 0.0, 0.1], [0.2, 0.1, 0.0]])
    inst = g.gallery_construct("constant", {}, carrier, g.MAX, (1.0,), (0.15,))
    x = "0" if mode == "local" else None
    specs, rep = g.countable_base(inst, mode, x=x, n_max=1)
    assert rep.ok
    want = countable_base_oracle(inst, list(oracle_tau_p(inst)), mode, x, 1)
    assert (specs, rep.verdict, rep.samples_tested, None) == want


def test_witnesses_serialize():
    w = g.separation_witness(FINE, "T2", a="a", b="c")
    payload = w.to_jsonable(FINE.carrier)
    assert payload["kind"] == "T2"
    assert payload["U"][0]["center"] == "a"


def mask_oracle(inst, specs):
    """The union of the open balls of ``specs``, one open_ball at a time."""
    bits = 0
    for spec in specs:
        bits |= g.open_ball(inst, spec.center, spec.radius, spec.scale).bits
    return g.SubsetMask(inst.carrier.size, bits)


def pick_t0_oracle(inst, xs, ys):
    """(t0, alpha0): the first grid t where min of scalar eval_P is positive."""
    for t in inst.t_grid:
        v = min(g.eval_P(inst, x, y, t) for x in xs for y in ys)
        if v > 0:
            return t, v
    return None


@settings(max_examples=60, deadline=None)
@given(gallery_instances(), st.data())
def test_battery_witnesses_match_the_scalar_oracles(inst, data):
    labels = inst.carrier.labels
    n = len(labels)
    battery = {c.name: c for c in separation.separation_battery(inst)}
    single = [g.SubsetMask.from_indices(n, [i]) for i in range(n)]
    cases = [(f"{kind}({a},{b})", kind, dict(a=a, b=b), [a], [b])
             for i, a in enumerate(labels) for b in labels[i + 1:]
             for kind in ("T0", "T1", "T2")]
    cases += [(f"regular({{{a}}},{x})", "regular", dict(a=x, subset=single[i]), [x], [a])
              for i, a in enumerate(labels) for x in labels if x != a]
    cases += [(f"normal({{{a}}},{{{labels[j]}}})", "normal",
               dict(subset=single[i], subset_b=single[j]), [a], [labels[j]])
              for i, a in enumerate(labels) for j in range(i + 1, n)]
    # sets of several points, which the battery does not build
    set_a = g.SubsetMask(n, data.draw(st.integers(1, (1 << n) - 2)))
    set_b = g.SubsetMask(n, data.draw(st.integers(1, (1 << n) - 1))).difference(set_a)
    x = set_a.complement().labels(inst.carrier)[0]
    cases.append((None, "regular", dict(a=x, subset=set_a), [x], set_a.labels(inst.carrier)))
    if not set_b.is_empty:
        cases.append((None, "normal", dict(subset=set_a, subset_b=set_b),
                      set_a.labels(inst.carrier), set_b.labels(inst.carrier)))
    for name, kind, kw, xs, ys in cases:
        try:
            w = g.separation_witness(inst, kind, **kw)
        except (g.PreconditionError, g.WitnessNotFoundError):
            assert name is None or battery[name].verdict == g.INCONCLUSIVE
            continue
        fresh = g.verify_witness(inst, w)
        assert w.report.ok
        assert w.report.to_jsonable() == fresh.to_jsonable()
        if name is not None:
            fresh.name = name
            assert battery[name].to_jsonable() == fresh.to_jsonable()
        assert w.u_mask == mask_oracle(inst, w.balls_u)
        assert w.v_mask == mask_oracle(inst, w.balls_v)
        assert (w.t0, w.alpha0) == pick_t0_oracle(inst, xs, ys)


def test_battery_builds_each_witness_once(monkeypatch):
    # the battery reads per-instance kernel tensors: cold, the grid balls (for
    # the least open sets), P at the t grid and its halves, and the base balls,
    # however many pairs there are; warm, none
    calls = []
    real_kernel = core._kernel

    def kernel(*args):
        calls.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(core, "_kernel", kernel)
    for n in (4, 9):
        inst = make_instance("scaled", op=g.MAX, carrier=line_carrier(n))
        calls.clear()
        checks = separation.separation_battery(inst)
        assert all(c.ok for c in checks)
        cold = len(calls)
        calls.clear()
        separation.separation_battery(inst)
        assert (cold, len(calls)) == (3, 0)


def test_countable_base_scans_no_open_set_family(monkeypatch):
    # a base question is decided from reach[y]: once warm, no open set of the
    # 2^n family is tested for a point or against a base ball
    inst = make_instance("scaled", op=g.MAX, carrier=line_carrier(9))
    separation.separation_battery(inst)  # warm the memo
    calls = {"issubset": 0, "contains": 0}

    def counting(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    for name in calls:
        monkeypatch.setattr(g.SubsetMask, name, counting(name, getattr(g.SubsetMask, name)))
    reports = [separation.countable_base(inst, "local", x=x)[1] for x in inst.carrier.labels]
    reports.append(separation.countable_base(inst, "global")[1])
    assert all(r.ok for r in reports)
    assert calls == {"issubset": 0, "contains": 0}


# x o x = 3 for every x: sub_idempotent finds no alpha1 below an alpha0 of 3 or less
FLAT = g.BinaryOperation.tabulated([0.0, 1.0], [[3.0, 3.0], [3.0, 3.0]])


def per_pair_witness(inst, kind, xs, ys):
    """The witness the per-pair construction builds for the center index
    lists ``xs`` and ``ys``, ball by ball with scalar P, and its verification
    report; or the error that construction raises."""
    car = inst.carrier
    n = car.size
    la, lb = [car.labels[i] for i in xs], [car.labels[j] for j in ys]
    set_x, set_y = g.SubsetMask.from_indices(n, xs), g.SubsetMask.from_indices(n, ys)
    closed = {"regular": [("subset", set_y)], "normal": [("subset", set_x), ("subset_b", set_y)]}
    for name, subset in closed.get(kind, []):
        if not g.is_open(inst, subset.complement()):
            raise g.PreconditionError(f"{name} is not closed at these grids")
    picked = pick_t0_oracle(inst, la, lb)
    if picked is None:
        raise g.WitnessNotFoundError("no grid t gives a positive separating value")
    t0, alpha0 = picked
    if kind in ("T0", "T1"):
        alpha1, radius, scale = None, alpha0, t0
    else:
        alpha1 = g.sub_idempotent(inst.op, alpha0)
        radius, scale = alpha1, t0 / 2
    points = kind in ("T0", "T1", "T2")
    w = g.SeparationWitness(
        kind, t0, alpha0, alpha1, tuple(g.BallSpec(p, radius, scale) for p in la),
        () if kind == "T0" else tuple(g.BallSpec(p, radius, scale) for p in lb),
        a=la[0] if kind != "normal" else None, b=lb[0] if points else None,
        set_a=None if points else set_y if kind == "regular" else set_x,
        set_b=set_y if kind == "normal" else None)
    rep = g.verify_witness(inst, w)
    if not rep.ok:
        raise g.WitnessNotFoundError(
            f"constructed {kind} witness failed verification: {rep.witness.detail}")
    return w, rep


def batch_fields(batch):
    """A batch's per-row values, read through its construction and the
    construction's alpha0 stage: the lists of centers, t0, alpha0, alpha1,
    radius and scale, and the ball masks U and V as (rows, n) arrays (T0
    builds no V)."""
    con, at = batch.construction, batch.rows
    out = {field: [getattr(con.stage, field)[i] for i in at]
           for field in ("x_members", "y_members", "t0", "alpha0")}
    out.update({field: [getattr(con, field)[i] for i in at]
                for field in ("alpha1", "radius", "scale")})
    out["u"] = con.u[at]
    out["v"] = np.zeros_like(out["u"]) if batch.kind == "T0" else con.v[at]
    return out


def one_kind_batch(inst, kind, xs, ys):
    """The witnesses of one kind on every row of ``xs`` and ``ys``."""
    return separation.witness_batches(inst, xs, ys, {kind: range(len(xs))})[kind]


def assert_rows_match_the_per_pair_path(inst, kind, rows):
    """Each row of one witness batch against ``per_pair_witness``; returns
    the errors the rows raised."""
    n = inst.carrier.size
    centers = np.zeros((2, len(rows), n), dtype=bool)
    for r, (xs, ys) in enumerate(rows):
        centers[0, r, xs] = centers[1, r, ys] = True
    batch = one_kind_batch(inst, kind, *centers)
    fields = batch_fields(batch)
    errors = []
    for r, (xs, ys) in enumerate(rows):
        try:
            w, want = per_pair_witness(inst, kind, xs, ys)
        except g.GpmsError as exc:
            with pytest.raises(g.GpmsError) as got:
                batch.report(r)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            errors.append(got.value)
            continue
        assert batch.report(r).to_jsonable() == want.to_jsonable()
        assert (fields["t0"][r], fields["alpha0"][r], fields["alpha1"][r]) == \
            (w.t0, w.alpha0, w.alpha1)

        def specs(centers):
            return tuple(g.BallSpec(inst.carrier.labels[i], fields["radius"][r],
                                    fields["scale"][r]) for i in centers[r])

        assert (specs(fields["x_members"]), () if kind == "T0" else specs(fields["y_members"])) \
            == (w.balls_u, w.balls_v)
        assert balls._mask_of_flags(fields["u"][r]) == mask_oracle(inst, w.balls_u)
        assert balls._mask_of_flags(fields["v"][r]) == mask_oracle(inst, w.balls_v)
    return errors


@settings(max_examples=60, deadline=None)
@given(gallery_instances(ops=(g.PLUS, g.MAX, FLAT)), st.data())
def test_witness_batch_rows_match_the_per_pair_path(inst, data):
    n = inst.carrier.size
    rows = dict.fromkeys(("T0", "T1", "T2"), [([i], [j]) for i in range(n)
                                              for j in range(n) if i != j])
    rows["regular"], rows["normal"] = [], []
    # drawn sets of one or more points: every point outside one, and a
    # drawn set of the points outside it
    for bits in data.draw(st.lists(st.integers(1, (1 << n) - 2), min_size=1, max_size=4)):
        inner = [i for i in range(n) if bits >> i & 1]
        outer = [i for i in range(n) if not bits >> i & 1]
        rows["regular"] += [([x], inner) for x in outer]
        picked = data.draw(st.integers(1, (1 << len(outer)) - 1))
        rows["normal"].append((inner, [x for k, x in enumerate(outer) if picked >> k & 1]))
    for kind, kind_rows in rows.items():
        assert_rows_match_the_per_pair_path(inst, kind, kind_rows)


def _constant_tables(carrier, values):
    return {"tables": [{"pair": list(pair), "t": [1.0], "v": [v]} for pair, v in values.items()]}


# one instance and row per way a row can fail, with the start of its error
ERROR_ROWS = {
    # P = 0 between two distinct points: built without the construction's sanity pass
    "no positive t": (lambda: g.GpmsInstance(
        two_point_carrier(), "tabulated", _constant_tables(two_point_carrier(), {"ab": 0.0}),
        g.MAX, (1.0,), (0.5,)), "T0", ([0], [1]), "no grid t gives a positive"),
    "set not closed": (lambda: two_point_instance(alpha_grid=(2.0,)), "regular", ([0], [1]),
                       "subset is not closed"),
    # least balls {a}, {b, c}, {b, c}: {a} is closed, {b} is not
    "second set not closed": (lambda: g.gallery_construct(
        "constant", {}, g.FiniteCarrier(("a", "b", "c"), [[0, 3, 3], [3, 0, 1], [3, 1, 0]]),
        g.MAX, (1.0,), (2.0,)), "normal", ([0], [1]), "subset_b is not closed"),
    "no alpha1": (lambda: g.gallery_construct("scaled", {}, two_point_carrier(), FLAT,
                                              (1.0,), (0.5,)), "T2", ([0], [1]),
                  "tabulated: found no value whose self-combination stays below 1.0"),
    # the balls of a T2 witness are built at t0 / 2, which underflows to 0 ...
    "ball at t = 0": (lambda: g.gallery_construct("constant", {}, two_point_carrier(), g.MAX,
                                                  (5e-324,), (0.5,)), "T2", ([0], [1]),
                      "t must be a finite positive real, got 0.0"),
    # ... and of radius alpha1 = alpha0 / 2, which does too
    "ball of radius 0": (lambda: g.gallery_construct(
        "constant", {}, g.FiniteCarrier(("a", "b"), [[0, 5e-324], [5e-324, 0]]), g.MAX,
        (1.0,), (0.5,)), "T2", ([0], [1]), "open ball radius must be positive, got 0.0"),
    # P(a, b) = 4 but P(a, c) = P(b, c) = 1: c lies in both balls of radius 2
    "failed claim": (lambda: g.gallery_construct(
        "tabulated", _constant_tables(three_point_carrier(), {"ab": 4.0, "ac": 1.0, "bc": 1.0}),
        three_point_carrier(), g.MAX, (1.0,), (0.5,)), "T2", ([0], [1]),
        "constructed T2 witness failed verification: U and V overlap"),
}


@pytest.mark.parametrize("case", sorted(ERROR_ROWS))
def test_witness_batch_error_rows_match_the_per_pair_path(case):
    build, kind, row, error = ERROR_ROWS[case]
    inst = build()
    got = assert_rows_match_the_per_pair_path(inst, kind, [row])
    assert len(got) == 1 and str(got[0]).startswith(error)
    # separation_witness, a batch of one, raises it too
    car = inst.carrier
    (x,), (y,) = row
    single = [g.SubsetMask.from_indices(car.size, [i]) for i in (x, y)]
    kw = {"regular": dict(a=car.labels[x], subset=single[1]),
          "normal": dict(subset=single[0], subset_b=single[1])}.get(
              kind, dict(a=car.labels[x], b=car.labels[y]))
    with pytest.raises(type(got[0]), match=error):
        g.separation_witness(inst, kind, **kw)


@pytest.mark.parametrize("case", sorted(ERROR_ROWS))
def test_error_rows_leave_no_reference_cycles(case):
    # a row keeps its error: if that error held the frames of the batch that
    # keeps it, every battery would leave a cycle for the collector, and the
    # peak memory of repeated passes would grow
    build, kind, ((x,), (y,)), _ = ERROR_ROWS[case]
    inst = build()
    single = np.eye(inst.carrier.size, dtype=bool)
    one_kind_batch(inst, kind, single[[x]], single[[y]])  # derive the tables
    gc.collect()
    gc.disable()
    try:
        batch = one_kind_batch(inst, kind, single[[x]], single[[y]])
        for _ in range(2):
            try:
                batch.report(0)
            except g.GpmsError:
                pass
        del batch
        assert gc.collect() == 0
    finally:
        gc.enable()


def battery_rows(n):
    """The battery's center table and each kind's rows in it: one row per
    ordered pair of single points, T0 to normal on the pairs i < j and
    regular on every ordered pair (point x, closed set {i})."""
    outside = [(x, i) for i in range(n) for x in range(n) if x != i]
    at = {pair: r for r, pair in enumerate(outside)}
    pairs = [at[i, j] for i in range(n) for j in range(i + 1, n)]
    single = np.eye(n, dtype=bool)
    xs, ys = single[[x for x, _ in outside]], single[[y for _, y in outside]]
    return xs, ys, {**dict.fromkeys(("T0", "T1", "T2", "normal"), pairs),
                    "regular": list(range(len(outside)))}


def assert_shared_rows_match_one_kind_batches(inst):
    """Each kind of the battery's shared constructions against a one-kind
    batch on the same rows, error rows included; returns the errors met."""
    xs, ys, kinds = battery_rows(inst.carrier.size)
    shared = separation.witness_batches(inst, xs, ys, kinds)
    errors = set()
    for kind, rows in kinds.items():
        got, want = shared[kind], one_kind_batch(inst, kind, xs[rows], ys[rows])
        assert [None if e is None else (type(e), e.args) for e in got.errors] == \
            [None if e is None else (type(e), e.args) for e in want.errors]
        errors |= {type(e).__name__ for e in got.errors if e is not None}
        got, want = batch_fields(got), batch_fields(want)
        for field in ("x_members", "y_members", "alpha1"):
            assert got[field] == want[field]
        for field in ("t0", "alpha0", "radius", "scale", "u", "v"):
            np.testing.assert_array_equal(got[field], want[field])
    return errors


def merges_points(inst):
    return np.unique(balls._classes(inst)).size < inst.carrier.size


@settings(max_examples=60, deadline=None)
@given(gallery_instances(ops=(g.PLUS, g.MAX, FLAT)).filter(merges_points))
def test_shared_constructions_match_one_kind_batches(inst):
    # tau_P merges points, so some regular and normal rows are not closed
    assert "PreconditionError" in assert_shared_rows_match_one_kind_batches(inst)


@pytest.mark.parametrize("name", ["damped-tableop-line3", "scaled-tableop-d3"])
def test_shared_constructions_match_one_kind_batches_on_table_ops(name):
    inst = cli.load_instance(os.path.join(GOLDEN, f"{name}.instance.json")).instance
    assert_shared_rows_match_one_kind_batches(inst)


@pytest.mark.parametrize("case", sorted(ERROR_ROWS))
def test_shared_constructions_keep_each_error_row(case):
    inst = ERROR_ROWS[case][0]()
    assert_shared_rows_match_one_kind_batches(inst)


def per_call_countable_base(inst, mode, x=None, n_max=None):
    """``countable_base`` as one call computes it on its own: base balls of
    its centers from their own kernel tensor, and its own test of each ball
    against the classes of tau_P."""
    car = inst.carrier
    n = car.size
    c = np.arange(n)
    classes = balls._classes(inst)
    class_bits = balls._class_bits(classes)

    def base_balls(depth):  # [k, p, y]: y in B(p, 1/k, 1/k)
        r = (1.0 / np.arange(1, depth + 1))[:, None, None]
        with np.errstate(over="ignore"):
            return core.P_at(inst, c[:, None], c, r) < r

    points, centers = ([car.index(x)], [x]) if mode == "local" else (list(range(n)), car.labels)
    if n_max is None:
        alone = base_balls(64).sum(-1) == 1
        n_top = int(np.where(alone.any(0), alone.argmax(0) + 1, 64)[points].max())
    else:
        n_top = n_max
    specs = [g.BallSpec(p, 1.0 / k, 1.0 / k) for p in centers for k in range(1, n_top + 1)]
    held = base_balls(max(n_top, 64))[:max(n_top, 0), points]
    one_class = np.where(held, classes, n).min(-1) == np.where(held, classes, -1).max(-1)
    covered = (held & one_class[..., None]).any((0, 1))
    failing = min((class_bits[classes[y]] for y in points if not covered[y]), default=None)
    count = 1 << len(class_bits)
    local = mode == "local"
    name = f"countable_base[local@{x}]" if local else "countable_base[global]"
    samples = count // 2 if local else count
    if failing is None:
        note = (f"local base verified against {count} open sets" if local
                else f"base generates all {count} open sets")
        return specs, g.CheckReport(name=name, verdict=g.PASS, samples_tested=samples, note=note)
    named = list(g.SubsetMask(n, failing).labels(car))
    detail = ("open set admits no base ball at this depth" if local
              else "open set is not a union of base members")
    note = (f"no base ball fits inside the open set {named}; try a larger n_max" if local
            else f"open set {named} not generated; the dense-set base needs larger n_max")
    return specs, g.CheckReport(
        name=name, verdict=g.INCONCLUSIVE, samples_tested=samples, note=note,
        witnesses=(g.Witness(points=tuple(named), values={"n_max": float(n_top)},
                             detail=detail),))


def _twelve_point_instances():
    """A line under scaled/max and constant/max, and four clusters of three
    under scaled/max on coarse grids, whose classes hold several points."""
    clustered = [[0 if i == j else 1 if i // 3 == j // 3 else 4 + (i // 3 + j // 3) % 3
                  for j in range(12)] for i in range(12)]
    return [make_instance("scaled", carrier=line_carrier(12)),
            make_instance("constant", carrier=line_carrier(12)),
            g.gallery_construct("scaled", {}, g.FiniteCarrier([f"c{i}" for i in range(12)],
                                                              clustered),
                                g.MAX, (1, 2, 4), (2, 4, 8))]


@pytest.mark.parametrize("centers", [1, 5])
def test_base_pass_in_chunks_of_centers_matches_one_tensor(monkeypatch, centers):
    # a budget of one or five centers' base balls: every kernel tensor of
    # the pass stays within it, the last chunk of five is short, and every
    # base_batch report and depth equals that of the pass in one tensor
    points = [None, *range(12)]

    def batches():
        return [[(rep.to_jsonable(), depth)
                 for rep, depth in zip(*separation.base_batch(inst, points, n_max))]
                for inst in _twelve_point_instances() for n_max in (None, 3, 64)]

    want = batches()
    budget = centers * separation._BASE_DEPTH * 12
    sizes = []
    real = separation.P_at
    monkeypatch.setattr(separation, "_BASE_BUDGET", budget)
    monkeypatch.setattr(separation, "P_at", lambda *a: sizes.append(real(*a).size) or real(*a))
    assert batches() == want
    assert max(sizes) == budget and len(sizes) == 3 * -(-12 // centers)


# B(p, 1, 1) = {p, x} lies inside C(x) = {p, x}, but B(x, 1, 1) holds q too:
# the global base covers x at n = 1, the local base at x does not
SPILL = g.gallery_construct("scaled", {}, g.FiniteCarrier(
    ("p", "x", "q"), [[0, 0.5, 1.4], [0.5, 0, 0.9], [1.4, 0.9, 0]]), g.MAX, (1.0,), (0.6,))


@settings(max_examples=60, deadline=None)
@given(gallery_instances(), st.sampled_from([None, 0, 1, 2, 4, 65]))
@example(SPILL, 1)
def test_countable_bases_from_one_pass_match_per_call_reports(inst, n_max):
    # every report reads the instance's one pass over the base balls; the
    # battery's bases are the calls without n_max
    battery = {c.name: c for c in separation.separation_battery(inst)}
    for x in (*inst.carrier.labels, None):
        mode = "global" if x is None else "local"
        specs, rep = g.countable_base(inst, mode, x=x, n_max=n_max)
        want_specs, want = per_call_countable_base(inst, mode, x, n_max)
        assert specs == want_specs
        assert rep.to_jsonable() == want.to_jsonable()
        if n_max is None:
            assert battery[rep.name].to_jsonable() == want.to_jsonable()

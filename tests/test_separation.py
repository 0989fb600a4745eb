import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import balls, cli, core, separation
from helpers import line_carrier, make_instance, three_point_carrier, two_point_carrier
from test_topology_oracles import countable_base_oracle, gallery_instances, oracle_tau_p

FINE = make_instance("scaled", op=g.MAX)


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
    battery = {c.name: c for c in cli._separation_checks(inst, cli.Options(), 0, 1e-6)[0]}
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
        checks, _, _ = cli._separation_checks(inst, cli.Options(), 0, 1e-6)
        assert all(c.ok for c in checks)
        cold = len(calls)
        calls.clear()
        cli._separation_checks(inst, cli.Options(), 0, 1e-6)
        assert (cold, len(calls)) == (3, 0)


def test_countable_base_scans_no_open_set_family(monkeypatch):
    # a base question is decided from reach[y]: once warm, no open set of the
    # 2^n family is tested for a point or against a base ball
    inst = make_instance("scaled", op=g.MAX, carrier=line_carrier(9))
    cli._separation_checks(inst, cli.Options(), 0, 1e-6)  # warm the memo
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


def assert_rows_match_the_per_pair_path(inst, kind, rows):
    """Each row of one witness batch against ``per_pair_witness``; returns
    the errors the rows raised."""
    n = inst.carrier.size
    centers = np.zeros((2, len(rows), n), dtype=bool)
    for r, (xs, ys) in enumerate(rows):
        centers[0, r, xs] = centers[1, r, ys] = True
    batch = separation.witness_batch(inst, kind, *centers)
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
        assert (batch.t0[r], batch.alpha0[r], batch.alpha1[r]) == (w.t0, w.alpha0, w.alpha1)
        assert batch.balls(r) == (w.balls_u, w.balls_v)
        assert balls._mask_of_flags(batch.u[r]) == mask_oracle(inst, w.balls_u)
        assert balls._mask_of_flags(batch.v[r]) == mask_oracle(inst, w.balls_v)
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
    separation.witness_batch(inst, kind, single[[x]], single[[y]])  # derive the tables
    gc.collect()
    gc.disable()
    try:
        batch = separation.witness_batch(inst, kind, single[[x]], single[[y]])
        for _ in range(2):
            try:
                batch.report(0)
            except g.GpmsError:
                pass
        del batch
        assert gc.collect() == 0
    finally:
        gc.enable()

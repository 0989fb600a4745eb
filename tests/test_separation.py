import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmspace as g
from gpmspace import cli, separation
from helpers import line_carrier, make_instance, two_point_carrier
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
    battery = {c.name: c for c in cli._separation_checks(inst, 15)}
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
    # line n=9, scaled/max, default grids: 36 pairs x (1+2+2) T-balls, 72 regular
    # and 36 normal witnesses x 2 balls, and 36 base balls make 432 open_ball
    # calls; T0 and T2 read one scalar P in t0 and one in verification, T1 one
    inst = make_instance("scaled", op=g.MAX, carrier=line_carrier(9))
    cli._separation_checks(inst, 15)  # warm the memo
    calls = {"open_ball": 0, "eval_P": 0, "issubset": 0}

    def counting(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(separation, "open_ball", counting("open_ball", separation.open_ball))
    monkeypatch.setattr(separation, "eval_P", counting("eval_P", separation.eval_P))
    monkeypatch.setattr(g.SubsetMask, "issubset", counting("issubset", g.SubsetMask.issubset))
    checks = cli._separation_checks(inst, 15)
    assert all(c.ok for c in checks)
    assert calls["open_ball"] <= 432
    assert calls["eval_P"] <= 180
    calls["issubset"] = 0
    for x in inst.carrier.labels:
        separation.countable_base(inst, "local", x=x)
    separation.countable_base(inst, "global")
    assert calls["issubset"] == 0

"""Balls, the generated topology, closures, and the ball lemmas.

The topology admits a subset iff every member has a grid ball inside it, so
its fineness depends on the declared alpha/t grids: the same two-point
space is discrete under a fine grid and indiscrete under a coarse one.  It is
the partition topology of the classes the least grid balls join, and a
closure is the union of the classes that meet the set.
"""
import gpmspace as g

carrier = g.FiniteCarrier(("a", "b", "c"), [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
inst = g.gallery_construct("scaled", {}, carrier, g.MAX,
                           (1e-4, 0.5, 1.0, 2.0, 4.0, 50.0),
                           (0.25, 0.5, 1.0, 2.0, 4.0))

print("Open ball B(a, 1, 2) for the scaled family (P = d/t):")
ball = g.open_ball(inst, "a", 1.0, 2.0)
print("  members:", ball.labels(carrier),
      " since P(a,b,2) = 0.5 < 1 and P(a,c,2) = 1.5 >= 1")
print("Closed ball B[a, 1.5, 2] includes the boundary point:",
      g.closed_ball(inst, "a", 1.5, 2.0).labels(carrier))

print()
topo = g.generate_topology(inst)
print(f"Fine grids isolate points: {len(topo)} open sets (discrete).")

two = g.FiniteCarrier(("a", "b"), [[0, 1], [1, 0]])
fine = g.gallery_construct("scaled", {}, two, g.MAX, (1.0,), (0.5, 2.0))
coarse = g.gallery_construct("scaled", {}, two, g.MAX, (1.0,), (2.0,))
print("Two points, alpha grid {0.5, 2}: ",
      [m.labels(two) for m in g.generate_topology(fine)])
print("Two points, alpha grid {2} only:",
      [m.labels(two) for m in g.generate_topology(coarse)])

print()
print("Closures follow suit.  Under the coarse grid a and b form one class,")
print("so every open set around b meets {a} and b is a limit point of {a}:")
s = g.SubsetMask.from_labels(two, ["a"])
closure, limits = g.closure_and_limit_points(coarse, s)
print("  closure({a}) =", closure.labels(two), " limit points =", limits.labels(two))
closure, _ = g.closure_and_limit_points(fine, s)
print("Under the fine grid closure({a}) =", closure.labels(two))

print()
print("Ball lemmas, checked exhaustively over the grids:")
print("  every open ball is open:        ",
      g.verify_ball_theorem(inst, "ball_open").verdict)
print("  every closed ball is closed:    ",
      g.verify_ball_theorem(inst, "closed_ball_closed").verdict)
rep = g.verify_ball_theorem(inst, "nested_closure", alpha=0.5, beta=0.5,
                            scales=[1.0, 2.0])
print("  closure(B(a, b, t/2)) in B(a, a, t) with max(0.5,0.5) <= 0.5:",
      rep.verdict)
subset = g.SubsetMask.from_labels(carrier, ["b", "c"])
rep = g.verify_ball_theorem(inst, "closed_separation", subset=subset, point="a",
                            scales=[1.0])
print("  inf P(a, {b,c}, 1) =", rep.data["inf_per_t"]["1"], "->", rep.verdict)

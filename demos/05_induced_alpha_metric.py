"""Induced alpha-metrics and the topology identity.

For op = max, thresholding P at a fixed alpha induces the two-point map
d_alpha(a,b) = inf { t : P(a,b,t) < alpha }.  Every gallery family has it in
closed form: d/alpha for the scaled family P = d/t, and for the damped
family P = d (1 + e^-t) it is 0 once alpha >= 2d, inf while alpha <= d and
-ln(alpha/d - 1) in between.
"""
import math

import gpmspace as g

carrier = g.FiniteCarrier(("a", "b", "c"), [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
inst = g.gallery_construct("scaled", {}, carrier, g.MAX,
                           (1e-4, 0.5, 1.0, 2.0, 4.0, 50.0),
                           (0.25, 0.5, 1.0, 2.0, 4.0))

for alpha in (0.5, 1.0, 2.0):
    am = g.AlphaMetric(inst, alpha)
    print(f"d_alpha table at alpha = {alpha} (closed form d/alpha):")
    labels = carrier.labels
    print("     " + "".join(f"{b:>10s}" for b in labels))
    for a in labels:
        print(f"  {a}: " + "".join(f"{g.d_alpha(am, a, b):10.6f}" for b in labels))
    print("  metric axioms:", g.check_alpha_metric_axioms(am).verdict)

print()
rep = g.check_alpha_monotonicity(inst, "a", "c", (0.5, 1.0, 2.0))
print("d_alpha(a,c) over alpha = 0.5, 1, 2:",
      [round(v, 6) for v in rep.data["values"]], "->", rep.verdict)

print()
damped = g.gallery_construct("damped", {}, carrier, g.MAX, (0.5, 1.0, 2.0), (1.0, 2.0))
am = g.AlphaMetric(damped, 2.5)
print("damped family at alpha = 2.5: d_alpha(a,b) =", g.d_alpha(am, "a", "b"),
      "(alpha >= 2d), d_alpha(b,c) =", round(g.d_alpha(am, "b", "c"), 6),
      f"(= ln 4 = {math.log(4):.6f}), d_alpha(a,c) =", g.d_alpha(am, "a", "c"), "(alpha <= d)")

print()
print("Topology identity: the metric topology of d_alpha equals tau_P")
for alpha in (0.5, 1.0, 2.0):
    rep = g.compare_topologies(inst, alpha)
    print(f"  alpha={alpha}: {rep.verdict} "
          f"({rep.data['tau_P_size']} = {rep.data['tau_d_alpha_size']} open sets)")

print()
print("At a coarse grid tau_P is only a sub-collection (grid artifact):")
two = g.FiniteCarrier(("a", "b"), [[0, 1], [1, 0]])
coarse = g.gallery_construct("scaled", {}, two, g.MAX, (1.0,), (2.0,))
rep = g.compare_topologies(coarse, 1.0)
print(f"  verdict: {rep.verdict}; tau_P merges {rep.data['merged_classes']}, "
      f"while tau_d_alpha is discrete ({rep.data['tau_d_alpha_size']} open sets)")

print()
print("The separation hypothesis matters: a bounded family loses positivity")
const = g.gallery_construct("constant", {},
                            g.FiniteCarrier(("a", "b"), [[0, 1], [1, 0]]),
                            g.MAX, (1.0, 2.0), (0.5,))
am = g.AlphaMetric(const, 4.0)  # alpha above sup P: the ray is everything
print("  constant family, alpha=4: d_alpha(a,b) =", g.d_alpha(am, "a", "b"),
      "->", g.check_alpha_metric_axioms(am).verdict)
try:
    g.compare_topologies(const, 4.0)
except g.HypothesisError as exc:
    print("  topology identity:", exc)

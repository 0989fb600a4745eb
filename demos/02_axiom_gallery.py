"""The instance gallery and the parametric-distance axioms P1-P5.

Carrier: three points with base distances d(a,b)=1, d(b,c)=2, d(a,c)=3.
The interesting cell is the constant family under max: the split triangle
inequality collapses to the ultrametric inequality, which this d violates.
The damped family is the constant family scaled by (1 + e^-t) and inherits
the same failure.
"""
import gpmspace as g

carrier = g.FiniteCarrier(("a", "b", "c"), [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
T_GRID = (1e-4, 0.5, 1.0, 2.0, 4.0, 50.0)
ALPHA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

AXIOMS = ("P1", "P2", "P3", "P4", "P5", "monotone")

print("=" * 72)
print("P-axiom verdicts per family and operation (exact, for all t > 0)")
print("=" * 72)
print(f"{'family':10s} {'op':5s}" + "".join(f"{ax:>10s}" for ax in AXIOMS))
for family in ("scaled", "constant", "damped", "discrete"):
    for op in (g.PLUS, g.MAX):
        params = {"c": 1.0} if family == "discrete" else {}
        inst = g.gallery_construct(family, params, carrier, op, T_GRID, ALPHA_GRID)
        row = f"{family:10s} {op.name:5s}"
        for ax in AXIOMS:
            row += f"{g.check_P_axiom(inst, ax, seed=1, n_samples=1000).verdict:>10s}"
        print(row)

print()
print("Every fail comes with a re-checkable witness.  constant + max:")
inst = g.gallery_construct("constant", {}, carrier, g.MAX, T_GRID, ALPHA_GRID)
w = g.check_P_axiom(inst, "P3", seed=1, n_samples=1000).witness
a, b, x = w.points
print(f"  P({a},{b},{w.values['s']}+{w.values['t']}) = {w.values['lhs']}"
      f"  >  max split = {w.values['rhs']}")

print()
print("A tabulated P = d^2/t on line points 0,1,2 breaks P3 with exact values:")
line = g.FiniteCarrier(("0", "1", "2"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
params = g.tabulate_step_family(line, T_GRID, lambda d, t: d * d / t)
tab = g.gallery_construct("tabulated", params, line, g.MAX, T_GRID, ALPHA_GRID)
print("  P(0,2,2) =", g.eval_P(tab, "0", "2", 2.0),
      " vs max(P(0,1,1), P(2,1,1)) =",
      max(g.eval_P(tab, "0", "1", 1.0), g.eval_P(tab, "2", "1", 1.0)))

print()
print("Construction rejects broken inputs up front:")
try:
    g.gallery_construct("discrete", {"c": -1.0}, carrier, g.MAX, T_GRID, ALPHA_GRID)
except g.ConstructionError as exc:
    print("  discrete c=-1:", exc)
try:
    g.FiniteCarrier(("a", "b"), [[0, 1], [2, 0]])
except g.ConstructionError as exc:
    print(f"  asymmetric d (axiom {exc.axiom}):", exc)

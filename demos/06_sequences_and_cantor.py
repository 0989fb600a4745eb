"""Sequences, diameters and the Cantor intersection check on an interval.

Limits are certified on a tail window, so the t grid must let the windowed
values actually drop below the tolerance: 1/n at N = 1000 needs t >= 0.5
and tol = 1e-2, while the joint-continuity pair (1/n, 2 + 1/n) cancels
exactly and matches its closed-form limit 2/t at 1e-6.
"""
import gpmspace as g

carrier = g.IntervalCarrier(-2.0, 4.0, 0.25)
inst = g.gallery_construct("scaled", {}, carrier, g.MAX,
                           (0.5, 1.0, 2.0, 4.0, 50.0), (0.25, 0.5, 1.0, 2.0, 4.0))

seq = g.SequenceSpec("reciprocal", c=0.0, a=1.0, n_terms=1000)  # x_n = 1/n
print("x_n = 1/n with the scaled family:")
print("  convergence to 0:", g.check_convergence(inst, seq, 0.0, tol=1e-2).verdict)
print("  Cauchy:           ", g.check_cauchy(inst, seq, tol=1e-2).verdict)
bounded = g.check_bounded(inst, seq, tol=1e-2, limit=0.0)
print("  bounded, K_t table:", {k: round(v, 4) for k, v in bounded.data["K_t"].items()})

alt = g.SequenceSpec("alternating", c=0.0, a=1.0, n_terms=200)  # x_n = (-1)^n
rep = g.check_convergence(inst, alt, 1.0, tol=1e-2)
print("  alternating vs limit 1:", rep.verdict,
      f"(witness at n={int(rep.witness.values['n'])}, value {rep.witness.values['value']:g})")

print()
seqy = g.SequenceSpec("reciprocal", c=2.0, a=1.0, n_terms=1000)  # y_n = 2 + 1/n
jc = g.joint_continuity_check(inst, seq, seqy, 0.0, 2.0, tol=1e-6, conv_tol=1e-2)
print("Joint continuity: P(x_n, y_n, t) -> P(0, 2, t) = 2/t")
for t in (0.5, 1.0, 2.0):
    est = jc.data["tail_limit_estimate"][f"{t:.12g}"]
    print(f"  t={t}: tail estimate {est:.9f} vs 2/t = {2.0 / t:.9f}")

print()
print("Diameters take the sup over t > 0, the t -> 0+ limit, in closed form:")
damped = g.gallery_construct("damped", {}, g.IntervalCarrier(-2.0, 2.0, 0.25),
                             g.MAX, (1e-4, 0.5, 1.0, 2.0, 4.0, 50.0), (1.0,))
print("  damped delta([-1, 1]) =", g.diameter(damped, g.ClosedInterval(-1, 1)),
      " (2 * width)")
scaled2 = g.gallery_construct("scaled", {}, g.IntervalCarrier(-2.0, 2.0, 0.25),
                              g.MAX, (1e-4, 0.5, 1.0), (1.0,))
print("  scaled delta([-1, 1]) =", g.diameter(scaled2, g.ClosedInterval(-1, 1)),
      " (d/t diverges as t -> 0)")

print()
print("Cantor intersection on A_i = [-1/i, 1/i], i = 1..100 (damped family):")
fam = [g.ClosedInterval(-1.0 / i, 1.0 / i) for i in range(1, 101)]
est, diams, rep = g.cantor_intersection(damped, fam)
print(f"  estimate {est}, diameters 4/i: first={diams[0]:.6f}, last={diams[-1]:.6f}")
print(f"  verdict: {rep.verdict} ({rep.note or 'single point certified'})")

print()
print("Subsequence completeness: Cauchy + convergent subsequence => convergent")
rep = g.subsequence_completeness_check(inst, seq, [2 ** k for k in range(1, 10)],
                                       0.0, tol=1e-2)
print("  x_n = 1/n with the dyadic subsequence:", rep.verdict)

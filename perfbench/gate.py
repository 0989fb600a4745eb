"""Correctness gate: every stated P-axiom violation must reproduce.

A ``fail`` verdict of P1, P2, P3, P4 or monotone carries witnesses that
state the violated inequality with both of its sides.  The gate evaluates
each one again through the public ``eval_P`` / ``eval_op`` and reports the
witnesses whose stated values or violation do not come back exactly.
"""
from __future__ import annotations

from functools import partial

from gpmspace import FAIL, eval_op, eval_P

GATED = ("P1", "P2", "P3", "P4", "monotone")


def _reproduces(inst, name, w):
    P = partial(eval_P, inst)
    v = w.values
    if name == "P1":
        if len(w.points) == 1:
            (x,) = w.points
            got = P(x, x, v["t"])
            return got == v["value"] and got != 0.0
        x, y = w.points
        return all(P(x, y, t) == 0.0 for t in inst.t_grid)
    if name == "P2":
        x, y = w.points
        lhs, rhs = P(x, y, v["t"]), P(y, x, v["t"])
        return lhs == v["lhs"] and rhs == v["rhs"] and lhs != rhs
    if name == "P3":
        a, b, x = w.points
        lhs = P(a, b, v["s"] + v["t"])
        rhs = eval_op(inst.op, P(a, x, v["s"]), P(b, x, v["t"]))
        return lhs == v["lhs"] and rhs == v["rhs"] and lhs > rhs
    if name == "P4":
        x, y = w.points
        return (P(x, y, v["t"]) == v["value"]
                and all(P(x, y, t) < v["alpha"] for t in inst.t_grid))
    # monotone
    x, y = w.points
    v1, v2 = P(x, y, v["t1"]), P(x, y, v["t2"])
    return v1 == v["v1"] and v2 == v["v2"] and v1 < v2


def irreproducible(inst, checks):
    """``[(check name, witness)]`` for every gated witness that does not reproduce."""
    bad = []
    for check in checks:
        if check.name in GATED and check.verdict == FAIL:
            for w in check.witnesses:
                try:
                    ok = _reproduces(inst, check.name, w)
                except (KeyError, ValueError):  # malformed witness or foreign point
                    ok = False
                if not ok:
                    bad.append((check.name, w))
    return bad

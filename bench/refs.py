"""Reference values the benchmark computes on its own, with exact
fractions and without the program under test, to bound the program's
answers: the Vickrey revenue (a truthful mechanism, so a lower bound on
the truthful optimum) and the expected maximum welfare (an upper bound on
any individually rational mechanism's revenue)."""

from __future__ import annotations

import itertools
from fractions import Fraction

from gen import Instance


def vickrey_revenue(inst: Instance) -> Fraction:
    """Highest value wins, lowest index on ties, and pays the smallest own
    grid value at which it still wins.  Feasible whenever every unit
    vector is, which holds for every single-parameter system built here."""
    total = Fraction(0)
    for v, q in inst.support.items():
        best = max(v)
        i = v.index(best)
        below = max(v[:i], default=None)
        above = max(v[i + 1 :], default=None)
        critical = min(
            g
            for g in inst.grid[i]
            if (below is None or g > below) and (above is None or g >= above)
        )
        total += q * critical
    return total


def max_welfare(inst: Instance) -> Fraction:
    """Expected value of the best allocation at each support profile."""
    total = Fraction(0)
    if inst.model == "multi-item":
        n, m = inst.n, inst.items
        assignments = list(itertools.product(range(-1, n), repeat=m))
        for t, q in inst.support.items():
            best = 0
            for a in assignments:
                w = 0
                for i in range(n):
                    mask = sum(1 << j for j, owner in enumerate(a) if owner == i)
                    w += inst.types[i][t[i]][mask]
                best = max(best, w)
            total += q * best
        return total
    vectors = inst.vectors or [
        tuple(int(j == i) for j in range(inst.n)) for i in range(inst.n)
    ]
    for v, q in inst.support.items():
        total += q * max(sum(f * x for f, x in zip(vec, v)) for vec in vectors)
    return total


def mechanism_revenue(inst: Instance, payments: dict) -> Fraction:
    """Expected total payment, given per-profile expected payment rows."""
    return sum((q * sum(payments[v]) for v, q in inst.support.items()), Fraction(0))

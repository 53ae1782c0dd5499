"""Brute-force benchmark: the best deterministic truthful auction, found
by enumerating monotone winner functions over the grid and charging each
winner his critical value.

Candidate counts are exponential in the number of grid cells, so hard
limits guard every entry point; nothing is ever truncated silently.
Enumeration order is lexicographic in the per-profile choices, and ties
in revenue keep the earliest candidate, so parallel splits over choice
prefixes could be recombined without changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import InvalidInputError, SizeLimitError
from .model import (
    EXACT,
    FLOAT,
    DeterministicMechanism,
    ExplicitDistribution,
    FeasibilitySystem,
    ValueGrid,
    lines,
)


@dataclass
class EnumLimits:
    """Caps on the search: grid cells and raw candidate winner functions."""

    max_cells: int = 12
    max_candidates: int = 10_000_000


def critical_payment(w, grid: ValueGrid, profile, bidder: int):
    """Smallest grid value at which the bidder still wins, others fixed.

    w maps a profile to its allocation: either a callable returning a 0/1
    vector or a DeterministicMechanism.  The bidder must win at the given
    profile; no monotonicity is assumed, the minimum is over the whole
    winning set.
    """
    if isinstance(w, DeterministicMechanism):
        mech = w
        w = lambda v: mech.fs.vectors[mech.choice[v]]
    profile = tuple(profile)
    if not w(profile)[bidder]:
        raise InvalidInputError(f"bidder {bidder} does not win at {profile}")
    for v in grid.values[bidder]:
        q = profile[:bidder] + (v,) + profile[bidder + 1 :]
        if w(q)[bidder]:
            return v
    raise InvalidInputError(f"bidder {bidder} wins at no grid value near {profile}")


def enumerate_deterministic_optimal(
    dist: ExplicitDistribution,
    fs: Optional[FeasibilitySystem] = None,
    limits: Optional[EnumLimits] = None,
):
    """Exhaust monotone winner functions with critical payments and return
    (best mechanism, exact revenue); revenue ties keep the first candidate
    in lexicographic enumeration order."""
    limits = limits or EnumLimits()
    grid = dist.grid
    n = grid.n
    if fs is None:
        fs = FeasibilitySystem.single_item(n)
    cells = grid.cells()
    if cells > limits.max_cells:
        raise SizeLimitError(
            f"{cells} grid cells exceed the cap of {limits.max_cells}"
        )
    vecs = fs.vectors
    K = len(vecs)
    if K**cells > limits.max_candidates:
        raise SizeLimitError(
            f"{K}^{cells} candidate winner functions exceed the cap of "
            f"{limits.max_candidates}"
        )

    profiles = list(grid.profiles())
    # down[k][i]: profile index one own-value step below, or -1 at the floor;
    # stepping down is lexicographically smaller, hence already assigned in DFS
    down = [[-1] * n for _ in profiles]
    for i, idx, k, line in lines([len(vi) for vi in grid.values]):
        if k:
            down[idx][i] = line[k - 1]
    support_items = [
        (k, dist.support[v]) for k, v in enumerate(profiles) if v in dist.support
    ]
    zero = 0.0 if dist.mode == FLOAT else Fraction(0)

    choice = [0] * cells
    best_rev = None
    best_choice = None

    def critical_at(k: int, i: int):
        # lowest still-winning own value; the winning set is a suffix here
        j = k
        while down[j][i] != -1 and vecs[choice[down[j][i]]][i]:
            j = down[j][i]
        return profiles[j][i]

    def dfs(k: int) -> None:
        nonlocal best_rev, best_choice
        if k == cells:
            rev = zero
            for t, q in support_items:
                vec = vecs[choice[t]]
                for i in range(n):
                    if vec[i]:
                        rev += q * critical_at(t, i)
            if best_rev is None or rev > best_rev:
                best_rev = rev
                best_choice = tuple(choice)
            return
        dk = down[k]
        for c in range(K):
            vec = vecs[c]
            ok = True
            for i in range(n):
                j = dk[i]
                if j != -1 and not vec[i] and vecs[choice[j]][i]:
                    ok = False
                    break
            if ok:
                choice[k] = c
                dfs(k + 1)

    dfs(0)
    choice[:] = best_choice
    payments = {}
    winners = {}
    for k, v in enumerate(profiles):
        vec = vecs[choice[k]]
        pay = [zero] * n
        for i in range(n):
            if vec[i]:
                pay[i] = critical_at(k, i)
        payments[v] = tuple(pay)
        winners[v] = choice[k]
    mech = DeterministicMechanism(grid, fs, winners, payments, dist.mode)
    return mech, best_rev

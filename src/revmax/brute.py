"""Brute-force benchmark: the best deterministic truthful auction, found
by enumerating monotone winner functions over the grid and charging each
winner the bidder's critical value.

Candidate counts are exponential in the number of grid cells, so hard
limits guard every entry point; nothing is ever truncated silently.
Enumeration order is lexicographic in the per-profile choices, and ties
in revenue keep the earliest candidate, so parallel splits over choice
prefixes could be recombined without changing the result.

Profiles are assigned in canonical order, one own-value step below
first, so a winner's critical value is fixed on assignment and revenue
is a prefix sum carried down the recursion: O(n) per node, a compare per
complete rule.  The search is exact in either mode: it sums ints, the
values and masses read through as_integer_ratio() (a float at its binary
value) and scaled by the lcm of their denominators.  The revenue is
divided by the scaled masses' total, which is 1 in exact mode and the
exact total of a float distribution's masses otherwise, and is handed
back in the distribution's mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import InvalidInputError, SizeLimitError
from .model import (
    DeterministicMechanism,
    ExplicitDistribution,
    FeasibilitySystem,
    ProfileTable,
    ValueGrid,
    convert,
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
    (best mechanism, revenue); revenue ties keep the first candidate in
    lexicographic enumeration order.  Revenues are compared exactly, and
    the best is rounded once in float mode."""
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
    # revenues are ints over dq * dv, which compare like the rationals
    values = [[x.as_integer_ratio() for x in vi] for vi in grid.values]
    masses = [q.as_integer_ratio() for q in dist.masses]
    dv = lcm(*[d for vi in values for _, d in vi])
    dq = lcm(*[d for _, d in masses])
    scaled = [[p * (dv // d) for p, d in vi] for vi in values]
    mass = [0] * cells
    for idx, (p, d) in zip(dist.flat, masses):
        mass[idx] = p * (dq // d)
    # down[k][i]: profile index one own-value step below, or -1 at the floor;
    # stepping down is lexicographically smaller, hence already assigned in DFS
    down = [[-1] * n for _ in profiles]
    own = [[0] * n for _ in profiles]
    for i, idx, k, line in lines([len(vi) for vi in grid.values]):
        own[idx][i] = scaled[i][k]
        if k:
            down[idx][i] = line[k - 1]
    masks = [sum(1 << i for i in range(n) if vec[i]) for vec in vecs]
    members = [[i for i in range(n) if vec[i]] for vec in vecs]
    # fits[need]: ascending choices whose winners include the mask need of
    # bidders winning one step below; filled on first use
    fits: dict = {}

    choice = [0] * cells
    # crit[k][i]: the profile whose own value is bidder i's critical value
    # if it wins at k: crit[down[k][i]][i] if it wins there too, else k;
    # cval[k][i] is that own value, scaled
    crit = [[0] * n for _ in profiles]
    cval = [[0] * n for _ in profiles]
    best_rev = None
    best_choice = None

    def fix(k: int) -> int:
        """Fill crit[k] and cval[k] from the choices below k; return the
        mask of the bidders winning one own-value step below."""
        need = 0
        ck, cv, ov = crit[k], cval[k], own[k]
        for i, j in enumerate(down[k]):
            if j != -1 and masks[choice[j]] >> i & 1:
                need |= 1 << i
                ck[i] = crit[j][i]
                cv[i] = cval[j][i]
            else:
                ck[i] = k
                cv[i] = ov[i]
        return need

    def dfs(k: int, rev) -> None:
        # rev: revenue of profiles 0..k-1
        nonlocal best_rev, best_choice
        if k == cells:
            if best_rev is None or rev > best_rev:
                best_rev = rev
                best_choice = tuple(choice)
            return
        need = fix(k)
        opts = fits.get(need)
        if opts is None:
            opts = fits[need] = [c for c in range(K) if masks[c] & need == need]
        q, cv = mass[k], cval[k]
        for c in opts:
            choice[k] = c
            r = rev
            if q:
                for i in members[c]:
                    r += q * cv[i]
            dfs(k + 1, r)

    dfs(0, 0)
    choice[:] = best_choice
    payments = []
    for k in range(cells):
        fix(k)
        vec = vecs[choice[k]]
        pay = [0] * n
        for i in range(n):
            if vec[i]:
                pay[i] = profiles[crit[k][i]][i]
        payments.append(tuple(pay))
    mech = DeterministicMechanism(
        grid, fs, ProfileTable(grid, choice), ProfileTable(grid, payments)
    )
    # the scaled masses sum to dq times the masses' exact total
    return mech, convert(Fraction(best_rev, dv * sum(mass)), dist.mode)

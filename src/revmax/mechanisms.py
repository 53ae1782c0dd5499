"""Reference mechanisms used as fixtures and baselines.

All are deterministic single-item rules.  Ties in the winner choice go
to the lowest bidder index.  The Vickrey variant charges the winner his
critical grid value (the smallest own grid value that still wins), which
equals the highest competing bid on shared gap-free grids and is what
keeps the round-down extension truthful on grids with gaps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .brute import critical_payment
from .errors import InvalidInputError
from .model import (
    EXACT,
    FLOAT,
    DeterministicMechanism,
    FeasibilitySystem,
    ProfileTable,
    ValueGrid,
)


def _zero(mode: str):
    return 0.0 if mode == FLOAT else Fraction(0)


def _argmax_winner(profile) -> int:
    best = max(profile)
    return min(i for i, v in enumerate(profile) if v == best)


def _build(grid: ValueGrid, allocate, charge) -> DeterministicMechanism:
    """allocate: profile -> winning bidder or None; charge: (profile,
    winner) -> payment."""
    fs = FeasibilitySystem.single_item(grid.n)
    choice, payments = [], []
    for v in grid.profiles():
        w = allocate(v)
        pay = [_zero(grid.mode)] * grid.n
        if w is None:
            choice.append(fs.zero_index)
        else:
            choice.append(fs.winner_index(w))
            pay[w] = charge(v, w)
        payments.append(tuple(pay))
    return DeterministicMechanism(
        grid, fs, ProfileTable(grid, choice), ProfileTable(grid, payments)
    )


def vickrey(grid: ValueGrid) -> DeterministicMechanism:
    """Highest value wins, lowest index on ties, and pays his critical
    grid value."""

    def w(profile):
        i = _argmax_winner(profile)
        return tuple(1 if j == i else 0 for j in range(grid.n))

    return _build(
        grid,
        _argmax_winner,
        lambda v, i: critical_payment(w, grid, v, i),
    )


def second_price(grid: ValueGrid) -> DeterministicMechanism:
    """Highest value wins, lowest index on ties, and pays the highest
    competing value.  Grid-truthful and rational, but values between grid
    points can profit from deviating once the charge drops below the
    winner's critical grid value, so the round-down extension check fails
    on grids with gaps; vickrey() is the extension-safe variant."""
    return _build(
        grid,
        _argmax_winner,
        lambda v, i: max(v[j] for j in range(grid.n) if j != i)
        if grid.n > 1
        else _zero(grid.mode),
    )


def first_price(grid: ValueGrid) -> DeterministicMechanism:
    """Highest value wins, lowest index on ties, and pays his own bid.
    Not truthful whenever someone can win below his top value."""
    return _build(grid, _argmax_winner, lambda v, i: v[i])


def posted_price(grid: ValueGrid, prices: Sequence) -> DeterministicMechanism:
    """Offer bidder i a take-it-price; the lowest-index bidder at or above
    his price buys at that price.  Each price must sit on its bidder's
    grid (or be None for no offer), otherwise values between the price and
    the next grid point would round down out of their own purchase."""
    if len(prices) != grid.n:
        raise InvalidInputError("one price per bidder required")
    norm: list = []
    for i, r in enumerate(prices):
        if r is None:
            norm.append(None)
            continue
        r = Fraction(r) if grid.mode == EXACT else float(r)
        if r not in grid.values[i]:
            raise InvalidInputError(
                f"price {r} is not a grid value of bidder {i}"
            )
        norm.append(r)

    def allocate(v) -> Optional[int]:
        for i in range(grid.n):
            if norm[i] is not None and v[i] >= norm[i]:
                return i
        return None

    return _build(grid, allocate, lambda v, i: norm[i])


def zero_mechanism(grid: ValueGrid) -> DeterministicMechanism:
    """Sells nothing and charges nothing."""
    return _build(grid, lambda v: None, lambda v, i: None)

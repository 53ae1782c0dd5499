"""Query access to a joint value distribution, with metered budgets.

ExplicitOracle answers point probabilities and one-coordinate
conditionals of an explicit distribution over its grid, in the grid's
arithmetic mode.  Reading the marginal supports is free; everything else
passes through a ledger that counts queries and enforces an optional
cap, so a query either counts and runs or raises without counting.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import BudgetError, InvalidInputError, UndefinedConditionalError
from .model import FLOAT, ExplicitDistribution, ValueGrid


def default_budget(grid: ValueGrid) -> int:
    """Polynomial cap in the bidder count and combined marginal support
    size: 16 * (n + sum of |V_i|)^2."""
    return 16 * (grid.n + sum(len(vi) for vi in grid.values)) ** 2


class QueryLedger:
    """Counts point and conditional queries; a budget, when set, caps
    their total.  Nothing in the package queries from more than one
    thread, so the ledger takes no lock."""

    def __init__(self, budget: Optional[int] = None):
        if budget is not None and budget < 0:
            raise InvalidInputError("budget cannot be negative")
        self._point = 0
        self._conditional = 0
        self.budget = budget

    def charge(self, kind: str) -> None:
        if self.budget is not None and self._point + self._conditional >= self.budget:
            raise BudgetError(f"query budget of {self.budget} exhausted")
        if kind == "point":
            self._point += 1
        elif kind == "conditional":
            self._conditional += 1
        else:
            raise InvalidInputError(f"unknown query kind {kind!r}")

    @property
    def point_queries(self) -> int:
        return self._point

    @property
    def conditional_queries(self) -> int:
        return self._conditional

    @property
    def total(self) -> int:
        return self._point + self._conditional

    def snapshot(self) -> dict:
        return {
            "point": self._point,
            "conditional": self._conditional,
            "budget": self.budget,
        }


class ExplicitOracle:
    """Metered view of an explicit joint distribution over its grid."""

    def __init__(
        self, dist: ExplicitDistribution, ledger: Optional[QueryLedger] = None
    ):
        self.dist = dist
        self.ledger = ledger or QueryLedger()

    def marginal_supports(self) -> ValueGrid:
        """The declared grid; free of charge."""
        return self.dist.grid

    def query_point(self, profile):
        """Pr[a = profile]; counts one point query."""
        self.ledger.charge("point")
        return self.dist.prob(profile)

    def query_conditional(self, bidder: int, value, given: Mapping[int, object]):
        """Pr[a_bidder = value | a_S = given values]; counts one
        conditional query.  Conditioning on a probability-zero event is an
        error (the query still counts)."""
        self.ledger.charge("conditional")
        given = dict(given)
        grid = self.dist.grid
        if not 0 <= bidder < grid.n:
            raise InvalidInputError(f"unknown bidder {bidder}")
        if bidder in given:
            raise InvalidInputError("cannot condition a bidder on himself")
        if value not in grid.values[bidder]:
            raise InvalidInputError(f"value {value} off bidder {bidder}'s grid")
        for j, vj in given.items():
            if not 0 <= j < grid.n:
                raise InvalidInputError(f"unknown bidder {j} in condition")
            if vj not in grid.values[j]:
                raise InvalidInputError(f"value {vj} off bidder {j}'s grid")
        zero = 0.0 if self.dist.mode == FLOAT else 0
        den = zero
        num = zero
        for profile, q in zip(map(grid.profile_at, self.dist.flat), self.dist.masses):
            if all(profile[j] == vj for j, vj in given.items()):
                den += q
                if profile[bidder] == value:
                    num += q
        if den == 0:
            raise UndefinedConditionalError(
                f"conditioning event {given} has probability 0"
            )
        return num / den


def with_budget(oracle: ExplicitOracle, budget: Optional[int] = None) -> ExplicitOracle:
    """Cap the oracle's total queries and return the oracle itself; the
    default cap is the polynomial budget for its grid.  The cap lives on
    the oracle's ledger, so every oracle sharing that ledger counts
    against it."""
    if budget is None:
        budget = default_budget(oracle.marginal_supports())
    if budget < 0:
        raise InvalidInputError("budget cannot be negative")
    oracle.ledger.budget = budget
    return oracle


def materialize(oracle: ExplicitOracle) -> ExplicitDistribution:
    """Rebuild the full explicit table, in the grid's mode, by querying
    every grid profile once; costs exactly the product of the marginal
    support sizes."""
    grid = oracle.marginal_supports()
    support = {}
    for profile in grid.profiles():
        q = oracle.query_point(profile)
        if q > 0:
            support[profile] = q
    return ExplicitDistribution(grid, support)

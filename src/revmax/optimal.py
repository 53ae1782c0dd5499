"""Revenue-optimal truthful-in-expectation auctions as a linear program.

The LP is allocation-only.  Its variables are the lottery weights
lambda(v, f) of each profile v on each nonzero feasible vector f; the zero
vector's weight is the slack of the row sum_f lambda(v, f) <= 1, and
x_i(v) = sum_{f: f_i = 1} lambda(v, f).  On each line (bidder i's values
w_1 < ... < w_m with the others' values v_-i fixed) one row per adjacent
pair keeps x_i monotone, and payments follow the chain
p_t = p_{t-1} + w_t (x_t - x_{t-1}) from p_0 = x_0 = 0.  By Myerson (1981)
these are the highest payments that keep a monotone x truthful and
rational: IR binds at the lowest value and every downward adjacent IC
constraint binds.  So the objective is sum_v sum_i phi_i(v) x_i(v) with

    phi_i(w_t, v_-i) = q(w_t, v_-i) w_t - (w_{t+1} - w_t) sum_{s>t} q(w_s, v_-i),

and the optimum equals that of the LP over weights and payments with every
IC and IR row.  Chain payments are nonnegative, so allowing negative
payments would change nothing, and there is no switch for it.  Every row
is <= with right-hand side 0 or 1, the form revmax.lp solves from the
slack basis.

Every solve is exact.  Float is an input and output format: a float
distribution is converted once, at the solver boundary, to the exact
distribution of its binary values with each mass divided by the masses'
exact total (a positive scale of the objective, which changes no pivot),
and the optimum is rounded to float when it is handed back.

solve_optimal returns the interim optimum and its revenue only.  Its
ex-post lottery comes from the package's two routes: canonical_expost
(revmax.model) on single-item systems, and on any system the
Caratheodory decomposition here, decompose_allocation, which writes each
profile's allocation as a lottery over at most n+1 feasible vectors, or
reads a separating certificate off the same LP's dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatchError
from .lp import LEQ, LinearProgram, solve
from .model import (
    EXACT,
    FLOAT,
    ExplicitDistribution,
    FeasibilitySystem,
    InterimMechanism,
    ProfileTable,
    ValueGrid,
    convert,
    expected_revenue,
    lines,
)


@dataclass
class OptimalResult:
    """The optimal interim mechanism and its revenue, both in the
    distribution's mode.  Its ex-post lottery is
    canonical_expost(interim, fs) on a single-item system, or per profile
    decompose_allocation(interim.x[v], fs) on any system."""

    interim: InterimMechanism
    revenue: object


@dataclass
class HullDecomposition:
    """Either a convex combination over feasible vectors or a separating
    certificate (a, b) with a.x - b = 1 and a.F <= b for every feasible
    F."""

    in_hull: bool
    terms: Optional[tuple] = None
    certificate: Optional[tuple] = None


def _columns(fs: FeasibilitySystem) -> tuple:
    """The LP column layout of one profile: the indices of the vectors
    that get a column (all but the zero, ascending), and per bidder the
    ascending positions among them of the vectors in which it wins."""
    cols = [f for f in range(len(fs.vectors)) if f != fs.zero_index]
    wins = [[c for c, f in enumerate(cols) if fs.vectors[f][i]] for i in range(fs.n)]
    return cols, wins


def _virtual_values(along: Sequence[int], w: Sequence, mass: Sequence, phi: list, i: int) -> None:
    """Set phi[v][i] at the flat indices v along one line of bidder i,
    listed by increasing parameter w: q(w_t) w_t - (w_{t+1} - w_t) times
    the line's mass above w_t."""
    above = 0  # mass of the line above the current value
    for v, wt, nxt in reversed(list(zip(along, w, w[1:] + w[-1:]))):
        phi[v][i] = mass[v] * wt - (nxt - wt) * above
        above += mass[v]


def _chain_payments(along: Sequence[int], w: Sequence, xs: Sequence, ps: list, i: int) -> None:
    """Set ps[v][i] along one line of bidder i, listed by increasing
    parameter w, to Myerson's chain p_t = p_{t-1} + w_t (x_t - x_{t-1})
    from p_0 = x_0 = 0, where x_t is xs[v][i]."""
    p = last = 0
    for v, wt in zip(along, w):
        x = xs[v][i]
        p += wt * (x - last)
        last = x
        ps[v][i] = p


def build_optimal_lp(dist: ExplicitDistribution, fs: FeasibilitySystem) -> LinearProgram:
    """Assemble the allocation-only revenue LP: lottery weights of the
    nonzero vectors per profile, one <= 1 row per profile, adjacent
    monotonicity rows per line, virtual-value objective, in the
    distribution's arithmetic."""
    grid = dist.grid
    if fs.n != grid.n:
        raise DimensionMismatchError("feasibility system and grid disagree on n")
    n = grid.n
    mass = [0] * grid.cells()
    for idx, q in zip(dist.flat, dist.masses):
        mass[idx] = q
    cols, wins = _columns(fs)
    K = len(cols)

    phi = [[0] * n for _ in mass]
    monotone = []
    for i, _, k, line in lines([len(w) for w in grid.values]):
        if k:
            continue
        _virtual_values(line, grid.values[i], mass, phi, i)
        if not wins[i]:
            continue
        for lo, hi in zip(line, line[1:]):
            row = {lo * K + c: 1 for c in wins[i]}
            row.update({hi * K + c: -1 for c in wins[i]})
            monotone.append(row)

    objective = [
        sum((phi_v[i] for i in range(n) if fs.vectors[f][i]), 0)
        for phi_v in phi
        for f in cols
    ]
    lp = LinearProgram(len(objective), objective)
    for k in range(len(mass)):
        lp.add_constraint({k * K + c: 1 for c in range(K)}, LEQ, 1)
    for row in monotone:
        lp.add_constraint(row, LEQ, 0)
    return lp


def _exact(dist: ExplicitDistribution) -> ExplicitDistribution:
    """The distribution in exact arithmetic: dist itself, or for a float
    distribution that of its binary values, each mass divided by the
    masses' exact total so that they sum to 1."""
    if dist.mode == EXACT:
        return dist
    grid = ValueGrid([[Fraction(w) for w in vi] for vi in dist.grid.values])
    masses = [Fraction(q) for q in dist.masses]
    total = sum(masses)
    support = [(grid.profile_at(idx), q / total) for idx, q in zip(dist.flat, masses)]
    return ExplicitDistribution(grid, support, strict=False)


def solve_optimal(
    dist: ExplicitDistribution, fs: Optional[FeasibilitySystem] = None
) -> OptimalResult:
    """Solve the revenue LP exactly and return the optimal interim
    mechanism: x_i(v) sums profile v's lottery weights on the vectors in
    which bidder i wins, and payments follow the chain along every line.
    A float distribution is solved as its exact copy (_exact), and the
    mechanism is rounded to float by its own constructor."""
    if fs is None:
        fs = FeasibilitySystem.single_item(dist.grid.n)
    exact = _exact(dist)
    sol = solve(build_optimal_lp(exact, fs))
    if sol.status != "optimal":
        # the all-zero mechanism is feasible and every weight is at most 1
        raise RuntimeError(f"revenue LP reported {sol.status}; this cannot happen")
    grid = exact.grid
    n = grid.n
    cols, wins = _columns(fs)
    K = len(cols)
    zero = Fraction(0)

    xs = []
    for k in range(grid.cells()):
        weights = sol.x[k * K : (k + 1) * K]
        xs.append(tuple(sum((w for c in wi if (w := weights[c])), zero) for wi in wins))

    ps = [[zero] * n for _ in xs]
    for i, _, k, line in lines([len(w) for w in grid.values]):
        if not k:
            _chain_payments(line, grid.values[i], xs, ps, i)
    out = dist.grid
    interim = InterimMechanism(out, ProfileTable(out, xs), ProfileTable(out, ps))
    return OptimalResult(interim, expected_revenue(interim, dist))


def decompose_allocation(
    x: Sequence, fs: FeasibilitySystem, mode: str = EXACT
) -> HullDecomposition:
    """Write x as a convex combination of at most n+1 feasible vectors,
    or certify that x lies outside their convex hull.

    One LP over the weights lambda_f of all feasible vectors: rows
    sum_{f: F_i = 1} lambda_f <= x_i for each i and sum_f lambda_f <= 1,
    objective sum_f (|F_f| + 1) lambda_f.  Its optimum is at most
    sum_i x_i + 1, with equality exactly when every row is tight, that is
    when x is in the hull (in float mode, within 1e-7).  This objective
    is the phase-1 cost of the same rows written as equalities (-1 on
    each artificial, which takes the slack's column) plus the row-space
    vector 1.[A | I]; so every reduced cost, pivot and final basis is the
    one phase 1 would take, and so are the terms.

    Outside the hull, with y the LP's dual, z = y - 1 (z_i for the row of
    coordinate i, z_0 for the last row) and gap = sum_i x_i + 1 -
    optimum > 0: dual feasibility gives z_0 + sum_i F_i z_i >= 0 for
    every F, and strong duality gives sum_i x_i z_i + z_0 = -gap.  So
    a_i = -z_i / gap and b = z_0 / gap satisfy a.F <= b for every
    feasible F and a.x - b = 1.
    A negative coordinate x_i needs no LP: a = e_i / x_i and b = 0.

    The LP is solved exactly on the binary values of a float point, and
    the terms and the certificate are handed back in the given mode."""
    point = tuple(Fraction(convert(c, mode)) for c in x)
    n = fs.n
    if len(point) != n:
        raise DimensionMismatchError(f"point has {len(point)} coordinates, n={n}")
    zero = convert(0, mode)
    for i, c in enumerate(point):
        if c < 0:
            a = [zero] * n
            a[i] = convert(1 / c, mode)
            return HullDecomposition(False, certificate=(tuple(a), zero))

    lp = LinearProgram(len(fs.vectors), [sum(vec) + 1 for vec in fs.vectors])
    for i in range(n):
        row = {f: 1 for f, vec in enumerate(fs.vectors) if vec[i]}
        lp.add_constraint(row, LEQ, point[i])
    lp.add_constraint({f: 1 for f in range(len(fs.vectors))}, LEQ, 1)
    sol = solve(lp)
    gap = sum(point) + 1 - sol.objective
    if gap <= (1e-7 if mode == FLOAT else 0):
        # a basic solution of n+1 rows carries at most n+1 weights
        terms = tuple((f, convert(w, mode)) for f, w in enumerate(sol.x) if w)
        return HullDecomposition(True, terms=terms)
    z = [y - 1 for y in sol.dual]
    a = tuple(convert(-c / gap, mode) for c in z[:n])
    return HullDecomposition(False, certificate=(a, convert(z[n] / gap, mode)))

"""Exact linear programming: a one-phase primal simplex over integer
rows with Bland's anti-cycling rule.

A LinearProgram maximizes a linear objective subject to <= rows with a
nonnegative right-hand side, over variables that are nonnegative, or
free once set_free splits them into two nonnegative columns.  x = 0 is
then feasible, so every row's slack starts in the basis and the simplex
runs a single phase; add_constraint refuses any other row.  Both revenue
LPs (revmax.optimal and revmax.multi) and the hull LP of
decompose_allocation have this form.

At an optimum the reduced cost of row r's slack is -y_r, where y is an
optimal solution of the dual (minimize b.y subject to y >= 0 and
y.A_j >= c_j, with equality on free columns); LPSolution.dual reads it
off the final reduced-cost row when it is asked for.

The tableau is sparse: each row, and the reduced-cost row, is a
{column: numerator} map of its nonzeros, a right-hand-side numerator and
one positive denominator for the whole row.  These are ints, so no
Fraction is built per entry:

- a row starts scaled by the lcm of its coefficients' denominators,
  each coefficient read at its exact value through as_integer_ratio()
  (an int, a Fraction, or a float, whose value is a binary fraction);
- a pivot makes the pivot row's own entry a in the entering column, which
  the ratio test picks positive, its new denominator;
- every other row with numerator c in the entering column becomes
  (a*row - c*pivot row) / (a*d), d its old denominator, which touches
  only the pivot row's nonzeros when a is 1; entries that cancel to zero
  are deleted;
- such a row, and the reduced-cost row, is divided by the gcd of its
  numerators and its denominator only once that denominator is wider
  than _REDUCE_BITS bits, so a row stays unreduced while its integers
  are small and reducing them costs more than it saves (the lazy
  normalization of fraction-free elimination; Bareiss, "Sylvester's
  identity and multistep integer-preserving Gaussian elimination",
  1968).  The pivot row itself is always reduced.

When a row is reduced cannot change the pivot path: a reduction divides
a row's numerators and denominator by one positive int, which keeps
every rational the simplex reads.  Pricing compares the reduced-cost
numerators, which share one positive denominator; the ratio test
compares ratios within each row; a pivot divides the pivot row by its
own entry in the entering column and reduces it fully, which gives the
same row however it was scaled before; every other decision is a sign
test.  So the pivots, x and the objective are the same whether rows are
reduced always, never or past the bound.

A column index (column -> set of the rows holding it, the reduced-cost
row left out) follows every fill-in and every cancellation, so the
entering column's rows are read from it instead of from every row.

Pricing is one pass over the reduced-cost row's nonzeros, whose
numerators share one positive denominator: Dantzig's rule keeps the
largest, the lowest column index on ties, and runs while the objective
moves; after a stretch of degenerate pivots the solver switches to
Bland's rule (the lowest index with a positive reduced cost) for the
rest of the run, which guarantees termination without giving up
determinism.  The ratio test picks the least rhs/column ratio, the
lowest basis index on ties; it compares the cross products
r_i*c_j and r_j*c_i of the two rows' numerators, whose denominators
cancel.  x is read out as Fraction(rhs, d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Optional, Sequence

from .errors import DimensionMismatchError, InvalidInputError, PivotLimitError

LEQ = "<="

# consecutive non-improving pivots tolerated before Bland's rule takes over
_STALL_LIMIT = 64
# an eliminated row is divided by the gcd of its numerators and
# denominator once the denominator is wider than this many bits
_REDUCE_BITS = 62
_MAX_PIVOTS = 2_000_000
_EXACT = {int, Fraction}  # coefficient types _check_value passes without a call


@dataclass
class LPSolution:
    """Outcome of a solve: status is optimal or unbounded; x, objective
    and dual are set only when optimal, as Fractions.  pivots counts the
    simplex pivots."""

    status: str
    x: Optional[tuple] = None
    objective: Optional[Fraction] = None
    pivots: int = 0
    # (reduced-cost numerators, their denominator, first slack column,
    # number of rows) of the final tableau, read by dual
    _final: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def dual(self) -> Optional[tuple]:
        """An optimal dual solution, one entry per row: y_r is minus the
        reduced cost of row r's slack."""
        if self._final is None:
            return None
        red, den, first, m = self._final
        return tuple(Fraction(-red.get(first + r, 0), den) for r in range(m))


def _check_value(c, what: str, *at) -> None:
    """c must be an int, a Fraction or a finite float; what.format(*at) names it."""
    if not (isinstance(c, (int, Fraction)) or isinstance(c, float) and isfinite(c)):
        raise InvalidInputError(f"{what.format(*at)} is {c!r}, which has no exact finite value")


class LinearProgram:
    """Maximize objective . x subject to <= rows with nonnegative
    right-hand sides, over variables that are nonnegative unless
    set_free makes them free.  Coefficients and right-hand sides are
    checked where they are given (see _check_value)."""

    def __init__(self, num_vars: int, objective: Sequence):
        if num_vars < 0:
            raise InvalidInputError("negative number of variables")
        obj = list(objective)
        if len(obj) != num_vars:
            raise DimensionMismatchError("objective length does not match num_vars")
        for j in [j for j, c in enumerate(obj) if type(c) not in _EXACT]:
            _check_value(obj[j], "objective coefficient of variable {}", j)
        self.num_vars = num_vars
        self.objective = obj
        self.constraints: list[tuple[dict, str, object]] = []
        self.free = [False] * num_vars

    def add_constraint(self, coeffs: dict, rel: str, rhs) -> None:
        """coeffs maps variable index to coefficient; rel must be LEQ and
        rhs nonnegative, so that the row's slack can start in the basis."""
        if rel != LEQ:
            raise InvalidInputError(f"unsupported relation {rel!r}: rows are {LEQ}")
        _check_value(rhs, "right-hand side of row {}", len(self.constraints))
        if rhs < 0:
            raise InvalidInputError(
                f"negative right-hand side {rhs}: the slack basis must be feasible"
            )
        row = dict(coeffs)
        n, r = self.num_vars, len(self.constraints)
        for j, c in row.items():
            if not (0 <= j < n and type(c) in _EXACT):  # one test for the common case
                if not 0 <= j < n:
                    raise InvalidInputError(f"constraint references unknown variable {j}")
                _check_value(c, "coefficient of variable {} in row {}", j, r)
        self.constraints.append((row, rel, rhs))

    def set_free(self, var: int) -> None:
        """Let the variable take any sign."""
        if not 0 <= var < self.num_vars:
            raise InvalidInputError(f"unknown variable {var}")
        self.free[var] = True


def _integer_row(row: dict, rhs) -> tuple:
    """(numerators, rhs numerator, denominator) of a row of exact values,
    scaled by the lcm of their denominators; zero entries are left out."""
    ratios = [(j, a.as_integer_ratio()) for j, a in row.items() if a]
    rn, rd = rhs.as_integer_ratio()
    d = lcm(rd, *[q for _, (_, q) in ratios])
    return {j: p * (d // q) for j, (p, q) in ratios}, rn * (d // rd), d


def _column_index(rows, ncols: int) -> list:
    """cols[j]: the set of row indices whose row holds column j."""
    cols = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    return cols


def _eliminate(row: dict, r, d, c, a, pitems, pb, i=-1, cols=None) -> tuple:
    """Subtract c/d times the pivot row (numerators pitems and pb over a,
    a being its own numerator in the entering column) from row, whose
    numerators and rhs r are over d; returns the new (r, d).  When row is
    tableau row i, the column index cols follows its fill-ins and
    cancellations."""
    if a != 1:
        for j, v in row.items():
            row[j] = v * a
        r *= a
        d *= a
    for j, b in pitems:
        v = row.get(j)
        if v is None:
            row[j] = -c * b
            if cols is not None:
                cols[j].add(i)
        else:
            v -= c * b
            if v:
                row[j] = v
            else:
                del row[j]
                if cols is not None:
                    cols[j].discard(i)
    r -= c * pb
    if d.bit_length() > _REDUCE_BITS:
        g = gcd(d, r, *row.values())
        if g != 1:
            for j, v in row.items():
                row[j] = v // g
            r //= g
            d //= g
    return r, d


def _pivot(rows, rhs, den, leave: int, enter: int, column: dict, cols):
    """In-place pivot on rows[leave][enter], a positive entry; column maps
    each row index to its nonzero numerator in the entering column, and
    the column index cols is kept up to date.  Returns the pivot row's
    items, rhs numerator and denominator, for the reduced costs."""
    prow = rows[leave]
    a = prow[enter]
    q = gcd(a, rhs[leave], *prow.values())
    if q != 1:
        rows[leave] = prow = {j: v // q for j, v in prow.items()}
        rhs[leave] //= q
    den[leave] = a = a // q
    pb = rhs[leave]
    pitems = list(prow.items())
    for i, c in column.items():
        if i != leave:
            rhs[i], den[i] = _eliminate(
                rows[i], rhs[i], den[i], c, a, pitems, pb, i, cols
            )
    return pitems, pb, a


def _run_simplex(rows, rhs, den, basis, cols, cost: dict):
    """Maximize cost (a {column: value} map) over the equality system in
    basic form, whose column index is cols, from a basis of zero-cost
    columns.

    Returns ('optimal', pivots, red) or ('unbounded', pivots, red), red
    being the final reduced-cost row as (numerators, rhs numerator,
    denominator); its rhs is minus the objective.
    """
    red, robj, rden = _integer_row(cost, 0)
    bland = False
    stall = 0
    for pivots in range(_MAX_PIVOTS):
        # red's items come in no particular column order, so ties are
        # broken on the column index explicitly
        enter = -1
        if bland:
            for j, c in red.items():
                if c > 0 and (enter < 0 or j < enter):
                    enter = j
        else:
            best = 0
            for j, c in red.items():
                if c > best:
                    best = c
                    enter = j
                elif c == best and j < enter:
                    enter = j
        if enter < 0:
            return "optimal", pivots, (red, robj, rden)
        column = {i: rows[i][enter] for i in cols[enter]}
        # least ratio rhs/c over the rows with c > 0, lowest basis index
        # on ties, comparing r_i*c_leave with r_leave*c_i
        leave = -1
        for i, c in column.items():
            if c > 0:
                r = rhs[i]
                if leave >= 0:
                    u, w = r * cl, rl * c
                    if u > w or (u == w and basis[i] > basis[leave]):
                        continue
                leave, rl, cl = i, r, c
        if leave < 0:
            return "unbounded", pivots, (red, robj, rden)
        f = red[enter]
        pitems, pb, a = _pivot(rows, rhs, den, leave, enter, column, cols)
        robj, rden = _eliminate(red, robj, rden, f, a, pitems, pb)
        basis[leave] = enter
        # the objective gains f*pb over both rows' denominators, so f*pb
        # has the gain's sign
        if f * pb > 0:
            stall = 0
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    raise PivotLimitError(f"simplex did not terminate within {_MAX_PIVOTS} pivots")


def solve(lp: LinearProgram) -> LPSolution:
    """One-phase simplex solve of the program, from the slack basis.
    Coefficients may be ints, Fractions or floats; each is read once, at
    its exact value, and the solution is exact."""
    # Internal columns: a nonnegative variable is one column, a free one
    # the difference of two.  x_j = sum of its signed columns.
    col_of = []
    ncols = 0
    for free in lp.free:
        col_of.append(((ncols, 1), (ncols + 1, -1)) if free else ((ncols, 1),))
        ncols += 2 if free else 1

    # Sparse tableau rows {column: nonzero} over the internal columns, row
    # r's slack at column ncols + r; a column belongs to one variable, so
    # each row sets it at most once.  The slacks are the starting basis.
    width = ncols + len(lp.constraints)
    rows, rhs_col, den = [], [], []
    for r, (coeffs, _, rhs) in enumerate(lp.constraints):
        row = {}
        for j, c in coeffs.items():
            for col, s in col_of[j]:
                row[col] = c if s > 0 else -c
        row[ncols + r] = 1
        row, rhs, d = _integer_row(row, rhs)
        rows.append(row)
        rhs_col.append(rhs)
        den.append(d)
    basis = list(range(ncols, width))

    cost = {}
    for j, c in enumerate(lp.objective):
        if c:
            for col, s in col_of[j]:
                cost[col] = c if s > 0 else -c
    cols = _column_index(rows, width)
    status, pivots, (red, robj, rden) = _run_simplex(
        rows, rhs_col, den, basis, cols, cost
    )
    if status == "unbounded":
        return LPSolution("unbounded", pivots=pivots)

    zero = Fraction(0)
    yv = [zero] * width
    for i, bi in enumerate(basis):
        yv[bi] = Fraction(rhs_col[i], den[i])
    x = [
        yv[cs[0][0]] if len(cs) == 1 else sum((s * yv[col] for col, s in cs), zero)
        for cs in col_of
    ]
    final = (red, rden, ncols, len(rows))
    return LPSolution("optimal", tuple(x), Fraction(-robj, rden), pivots, final)

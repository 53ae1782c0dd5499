"""Exact linear programming: a two-phase primal simplex over
fractions.Fraction with Bland's anti-cycling rule.

The tableau is sparse: each row, and the reduced-cost row, is a
{column: coefficient} map of its nonzeros, and a pivot touches only the
rows with a nonzero in the entering column, at the pivot row's nonzeros,
deleting entries that cancel to exactly zero.  Sign tests read a
Fraction's numerator instead of comparing against Fraction(0).

Dantzig pricing (largest reduced cost, lowest column index on ties) runs
while the objective moves; after a stretch of degenerate pivots the
solver switches to Bland's rule for the rest of the run, which
guarantees termination without giving up determinism.  The ratio test
breaks ties on the lowest basis index.  A float mode with the same code,
the same pivoting and a 1e-9 feasibility tolerance exists for instances
too large for exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DimensionMismatchError, InvalidInputError, PivotLimitError
from .model import EXACT, FLOAT

LEQ = "<="
GEQ = ">="
EQ = "="

# consecutive non-improving pivots tolerated before Bland's rule takes over
_STALL_LIMIT = 64
_MAX_PIVOTS = 2_000_000


@dataclass
class LPSolution:
    """Outcome of a solve: status is optimal, infeasible, or unbounded;
    x and objective are set only when optimal.  pivots counts the
    simplex pivots of (phase 1, phase 2); phase 1 includes the pivots
    that drive leftover artificials out of the basis."""

    status: str
    x: Optional[tuple] = None
    objective: Optional[Union[Fraction, float]] = None
    pivots: tuple = (0, 0)


class LinearProgram:
    """A maximization (or minimization) problem over named variables with
    <=/= constraints and per-variable bounds, infinities allowed."""

    def __init__(
        self,
        num_vars: int,
        objective: Sequence,
        maximize: bool = True,
        names: Optional[Sequence[str]] = None,
    ):
        if num_vars < 0:
            raise InvalidInputError("negative number of variables")
        obj = list(objective)
        if len(obj) != num_vars:
            raise DimensionMismatchError("objective length does not match num_vars")
        if names is None:
            names = [f"x{j}" for j in range(num_vars)]
        else:
            names = list(names)
            if len(names) != num_vars:
                raise DimensionMismatchError("names length does not match num_vars")
            if len(set(names)) != num_vars:
                raise InvalidInputError("variable names must be unique")
        self.num_vars = num_vars
        self.objective = obj
        self.maximize = maximize
        self.names = names
        self.constraints: list[tuple[dict, str, object]] = []
        self.lower: list[Optional[object]] = [Fraction(0)] * num_vars
        self.upper: list[Optional[object]] = [None] * num_vars

    def add_constraint(self, coeffs, rel: str, rhs) -> None:
        """coeffs is a dict {var index: coefficient} or a full row; >= rows
        are stored negated as <=."""
        if rel not in (LEQ, GEQ, EQ):
            raise InvalidInputError(f"unsupported relation {rel!r}")
        if isinstance(coeffs, dict):
            row = dict(coeffs)
        else:
            if len(coeffs) != self.num_vars:
                raise DimensionMismatchError("constraint row length mismatch")
            row = {j: c for j, c in enumerate(coeffs) if c != 0}
        for j in row:
            if not 0 <= j < self.num_vars:
                raise InvalidInputError(f"constraint references unknown variable {j}")
        if rel == GEQ:
            row = {j: -c for j, c in row.items()}
            rel, rhs = LEQ, -rhs
        self.constraints.append((row, rel, rhs))

    def set_bounds(self, var: int, lower, upper) -> None:
        """None means unbounded on that side."""
        if not 0 <= var < self.num_vars:
            raise InvalidInputError(f"unknown variable {var}")
        if lower is not None and upper is not None and lower > upper:
            raise InvalidInputError(f"empty bound interval for variable {var}")
        self.lower[var] = lower
        self.upper[var] = upper

    def to_text(self) -> str:
        """Human-readable dump with exact coefficients, for debugging."""

        def term(c, name):
            return f"{c} {name}"

        goal = "max" if self.maximize else "min"
        lines = [
            f"{goal}: "
            + " + ".join(
                term(c, self.names[j]) for j, c in enumerate(self.objective) if c != 0
            )
        ]
        for k, (row, rel, rhs) in enumerate(self.constraints):
            body = " + ".join(term(c, self.names[j]) for j, c in sorted(row.items()))
            lines.append(f"c{k}: {body} {rel} {rhs}")
        for j in range(self.num_vars):
            lo = "-inf" if self.lower[j] is None else str(self.lower[j])
            hi = "+inf" if self.upper[j] is None else str(self.upper[j])
            lines.append(f"bound: {lo} <= {self.names[j]} <= {hi}")
        return "\n".join(lines)


def _positives(pairs, tol) -> list:
    """Keys of the (key, value) pairs whose value exceeds tol, in order.

    tol is 0 in exact mode, where every value is a Fraction: the sign of
    its numerator decides, which spares a Fraction comparison per entry.
    """
    if tol:
        return [k for k, v in pairs if v > tol]
    return [k for k, v in pairs if v.numerator > 0]


def _add_scaled(target: dict, f, items) -> None:
    """target += f * items over sparse rows, in place; entries that
    cancel to exactly zero are deleted."""
    for j, b in items:
        a = target.get(j)
        if a is None:
            target[j] = f * b
        else:
            a += f * b
            if a:
                target[j] = a
            else:
                del target[j]


def _pivot(rows, rhs, red: dict, leave: int, enter: int, column: dict):
    """In-place pivot on rows[leave][enter]; column maps each row index
    to its nonzero entry in the entering column.  Returns the objective
    gain term, 0 when red holds no reduced cost for the entering
    column."""
    prow = rows[leave]
    piv = prow[enter]
    if piv != 1:
        inv = 1 / piv
        rows[leave] = prow = {j: a * inv for j, a in prow.items()}
        rhs[leave] = rhs[leave] * inv
    pb = rhs[leave]
    pitems = list(prow.items())
    for i, f in column.items():
        if i != leave:
            _add_scaled(rows[i], -f, pitems)
            rhs[i] -= f * pb
    f = red.get(enter)
    if f is None:
        return 0
    _add_scaled(red, -f, pitems)
    return f * pb


def _run_simplex(rows, rhs, basis, cost, tol):
    """Maximize cost over the equality system in basic form.

    Returns ('optimal', objective, pivots) or ('unbounded', None,
    pivots).  Reduced costs (a sparse row like the others) and the
    running objective derive from the basis on entry.
    """
    red = {j: c for j, c in enumerate(cost) if c}
    obj = 0
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb:
            obj += cb * rhs[i]
            _add_scaled(red, -cb, rows[i].items())
    bland = False
    stall = 0
    for pivots in range(_MAX_PIVOTS):
        # Dantzig's rule with the lowest index winning ties (max keeps
        # the first maximum), or Bland's lowest index once stalled
        candidates = sorted(_positives(red.items(), tol))
        if not candidates:
            return "optimal", obj, pivots
        enter = candidates[0] if bland else max(candidates, key=red.__getitem__)
        column = {i: r[enter] for i, r in enumerate(rows) if enter in r}
        leave = -1
        best_ratio = None
        for i in _positives(column.items(), tol):
            ratio = rhs[i] / column[i]
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
        if leave < 0:
            return "unbounded", None, pivots
        gain = _pivot(rows, rhs, red, leave, enter, column)
        basis[leave] = enter
        obj += gain
        if gain > tol:
            stall = 0
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    raise PivotLimitError(f"simplex did not terminate within {_MAX_PIVOTS} pivots")


def solve(lp: LinearProgram, mode: str = EXACT) -> LPSolution:
    """Two-phase simplex solve of the program in the requested arithmetic."""
    if mode == FLOAT:
        tol = 1e-9
        num = float
    elif mode == EXACT:
        tol = 0
        num = lambda v: v if isinstance(v, Fraction) else Fraction(v)
    else:
        raise InvalidInputError(f"unknown arithmetic mode {mode!r}")

    sign = 1 if lp.maximize else -1

    # Internal columns: every original variable becomes one or two
    # nonnegative columns via shift (finite lower), mirror (upper only),
    # or a free split.  x_j = offset_j + sum of signed columns.
    col_of: list[list[tuple[int, int]]] = [[] for _ in range(lp.num_vars)]
    offsets = []
    ncols = 0
    extra_rows = []  # upper-bound rows y <= u - l for doubly bounded vars
    for j in range(lp.num_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        if lo is not None:
            offsets.append(num(lo))
            col_of[j].append((ncols, 1))
            if hi is not None:
                extra_rows.append(({ncols: num(1)}, num(hi) - num(lo)))
            ncols += 1
        elif hi is not None:
            offsets.append(num(hi))
            col_of[j].append((ncols, -1))
            ncols += 1
        else:
            offsets.append(num(0))
            col_of[j].append((ncols, 1))
            col_of[j].append((ncols + 1, -1))
            ncols += 2

    # Equality system rows over internal columns, slacks appended for <=.
    # A column belongs to one variable, so each row sets it at most once.
    zero, one = num(0), num(1)
    raw = []
    for row, rel, rhs in lp.constraints:
        body = {}
        shift = zero
        for j, c in row.items():
            c = num(c)
            if not c:
                continue
            if offsets[j]:
                shift += c * offsets[j]
            for col, s in col_of[j]:
                body[col] = c if s > 0 else -c
        raw.append((body, rel, num(rhs) - shift))
    for body, rhs in extra_rows:
        raw.append((body, LEQ, rhs))

    # Sparse tableau rows {column: nonzero}.  Rows with a negative rhs
    # are negated, so their slack stops being a basis candidate; every
    # row without a ready slack gets an artificial column past the slacks.
    width = ncols + sum(1 for _, rel, _ in raw if rel == LEQ)
    rows, rhs_col, basis, art_cols = [], [], [], []
    si = ncols
    for row, rel, rhs in raw:
        ready = rel == LEQ
        if ready:
            row[si] = one
            si += 1
        if rhs < 0:
            row = {j: -a for j, a in row.items()}
            rhs = -rhs
            ready = False
        if ready:
            basis.append(si - 1)
        else:
            col = width + len(art_cols)
            art_cols.append(col)
            row[col] = one
            basis.append(col)
        rows.append(row)
        rhs_col.append(rhs)

    phase1 = 0
    if art_cols:
        cost1 = [zero] * (width + len(art_cols))
        for col in art_cols:
            cost1[col] = num(-1)
        status, val, phase1 = _run_simplex(rows, rhs_col, basis, cost1, tol)
        infeas = (-val) > (1e-7 if mode == FLOAT else 0)
        if status != "optimal" or infeas:
            return LPSolution("infeasible", pivots=(phase1, 0))
        # Drive leftover artificials out of the basis or drop their rows.
        drop = []
        for i in range(len(rows)):
            if basis[i] >= width:
                enter = min(
                    (j for j, a in rows[i].items() if j < width and abs(a) > tol),
                    default=None,
                )
                if enter is None:
                    drop.append(i)
                else:
                    column = {k: r[enter] for k, r in enumerate(rows) if enter in r}
                    _pivot(rows, rhs_col, {}, i, enter, column)
                    basis[i] = enter
                    phase1 += 1
        for i in reversed(drop):
            del rows[i], rhs_col[i], basis[i]
        rows = [{j: a for j, a in r.items() if j < width} for r in rows]

    cost2 = [zero] * width
    for j in range(lp.num_vars):
        c = num(lp.objective[j]) * sign
        if c:
            for col, s in col_of[j]:
                cost2[col] += c * s
    status, val, phase2 = _run_simplex(rows, rhs_col, basis, cost2, tol)
    pivots = (phase1, phase2)
    if status == "unbounded":
        return LPSolution("unbounded", pivots=pivots)

    yv = [zero] * width
    for i, bi in enumerate(basis):
        yv[bi] = rhs_col[i]
    x = []
    for j in range(lp.num_vars):
        v = offsets[j]
        for col, s in col_of[j]:
            v = v + s * yv[col]
        x.append(v)
    objective = sum(
        (num(lp.objective[j]) * x[j] for j in range(lp.num_vars)), zero
    )
    return LPSolution("optimal", tuple(x), objective, pivots)

"""Exact linear programming: a two-phase primal simplex over
fractions.Fraction with Bland's anti-cycling rule.

Dantzig pricing runs while the objective moves; after a stretch of
degenerate pivots the solver switches to Bland's rule for the rest of the
run, which guarantees termination without giving up determinism.  A float
mode with the same pivoting and a 1e-9 feasibility tolerance exists for
instances too large for exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DimensionMismatchError, InvalidInputError
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
    x and objective are set only when optimal."""

    status: str
    x: Optional[tuple] = None
    objective: Optional[Union[Fraction, float]] = None


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


def _pivot(rows, rhs, red, leave: int, enter: int):
    """In-place tableau pivot; returns the objective gain term."""
    piv = rows[leave][enter]
    inv = 1 / piv
    prow = rows[leave]
    if piv != 1:
        rows[leave] = prow = [a * inv for a in prow]
        rhs[leave] = rhs[leave] * inv
    pb = rhs[leave]
    for i in range(len(rows)):
        if i == leave:
            continue
        f = rows[i][enter]
        if f:
            ri = rows[i]
            rows[i] = [a - f * b if b else a for a, b in zip(ri, prow)]
            rhs[i] -= f * pb
    f = red[enter]
    if f:
        for j in range(len(red)):
            if prow[j]:
                red[j] -= f * prow[j]
    return f * pb


def _run_simplex(rows, rhs, basis, cost, tol):
    """Maximize cost over the equality system in basic form.

    Returns ('optimal', objective) or ('unbounded', None).  red costs and
    the running objective derive from the basis on entry.
    """
    ncols = len(cost)
    red = list(cost)
    obj = 0
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb:
            obj += cb * rhs[i]
            row = rows[i]
            for j in range(ncols):
                if row[j]:
                    red[j] -= cb * row[j]
    bland = False
    stall = 0
    for _ in range(_MAX_PIVOTS):
        enter = -1
        if bland:
            for j in range(ncols):
                if red[j] > tol:
                    enter = j
                    break
        else:
            best = tol
            for j in range(ncols):
                if red[j] > best:
                    best = red[j]
                    enter = j
        if enter < 0:
            return "optimal", obj
        leave = -1
        best_ratio = None
        for i in range(len(rows)):
            a = rows[i][enter]
            if a > tol:
                ratio = rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded", None
        gain = _pivot(rows, rhs, red, leave, enter)
        basis[leave] = enter
        obj += gain
        if gain > tol:
            stall = 0
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    raise RuntimeError("simplex did not terminate within the pivot limit")


def solve(lp: LinearProgram, mode: str = EXACT) -> LPSolution:
    """Two-phase simplex solve of the program in the requested arithmetic."""
    if mode == FLOAT:
        tol = 1e-9
        num = float
    elif mode == EXACT:
        tol = Fraction(0)
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
    raw = []
    for row, rel, rhs in lp.constraints:
        body = {}
        shift = num(0)
        for j, c in row.items():
            c = num(c)
            if c == 0:
                continue
            shift += c * offsets[j]
            for col, s in col_of[j]:
                body[col] = body.get(col, num(0)) + c * s
        raw.append((body, rel, num(rhs) - shift))
    for body, rhs in extra_rows:
        raw.append((dict(body), LEQ, rhs))

    nslack = sum(1 for _, rel, _ in raw if rel == LEQ)
    width = ncols + nslack
    rows, rhs_col, slack_col = [], [], []
    si = ncols
    zero = num(0)
    for body, rel, rhs in raw:
        dense = [zero] * width
        for col, c in body.items():
            dense[col] = c
        if rel == LEQ:
            dense[si] = num(1)
            slack_col.append(si)
            si += 1
        else:
            slack_col.append(-1)
        rows.append(dense)
        rhs_col.append(rhs)

    # Normalize rhs >= 0; flipped slack columns stop being basis candidates.
    basis_ready = {}
    for i in range(len(rows)):
        if rhs_col[i] < 0:
            rows[i] = [-a for a in rows[i]]
            rhs_col[i] = -rhs_col[i]
        elif slack_col[i] >= 0:
            basis_ready[i] = slack_col[i]

    # Phase 1: artificials on rows without a ready slack basis.
    art_cols = []
    basis = []
    for i in range(len(rows)):
        if i in basis_ready:
            basis.append(basis_ready[i])
        else:
            col = width + len(art_cols)
            art_cols.append(col)
            basis.append(col)
    if art_cols:
        total = width + len(art_cols)
        for i in range(len(rows)):
            rows[i] = rows[i] + [zero] * len(art_cols)
            if basis[i] >= width:
                rows[i][basis[i]] = num(1)
        cost1 = [zero] * total
        for col in art_cols:
            cost1[col] = num(-1)
        status, val = _run_simplex(rows, rhs_col, basis, cost1, tol)
        infeas = (-val) > (1e-7 if mode == FLOAT else 0)
        if status != "optimal" or infeas:
            return LPSolution("infeasible")
        # Drive leftover artificials out of the basis or drop their rows.
        drop = []
        for i in range(len(rows)):
            if basis[i] >= width:
                enter = next(
                    (j for j in range(width) if abs(rows[i][j]) > tol), None
                )
                if enter is None:
                    drop.append(i)
                else:
                    red = [zero] * (width + len(art_cols))
                    _pivot(rows, rhs_col, red, i, enter)
                    basis[i] = enter
        for i in reversed(drop):
            del rows[i], rhs_col[i], basis[i]
        rows = [r[:width] for r in rows]

    cost2 = [zero] * width
    for j in range(lp.num_vars):
        c = num(lp.objective[j]) * sign
        if c:
            for col, s in col_of[j]:
                cost2[col] += c * s
    status, val = _run_simplex(rows, rhs_col, basis, cost2, tol)
    if status == "unbounded":
        return LPSolution("unbounded")

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
    return LPSolution("optimal", tuple(x), objective)

"""Constraint verification with replayable witnesses.

Every check walks its inequalities in a fixed order (bidder, then profile
lexicographically, then deviation) and records each violation as a
Witness carrying both sides of the broken relation, so re-evaluating the
quoted inequality at the witness reproduces the failure exactly.  Exact
mode compares rationals strictly; float mode flags a constraint once its
deficit exceeds 1e-9 times max(1, |lhs|, |rhs|).

The interim checks read the x and p tables as flat lists in canonical
profile order and reach a deviation along model.lines (a bidder's line
of flat indices), never by building and hashing the deviating profile;
walking the indices in order yields the documented witness order
without a sort.  In exact mode the truthfulness, IR and round-down
checks compare ints: each line's grid values, allocations and payments
are put on one positive integer scale (see _lines), under which a
utility is an int multiple of the rational one, so every comparison
keeps its outcome.  check_truthful builds these line rows once and
leaves them on its report; check_ir and check_extension, given that
report, walk the same rows.  The pair walks compare these ints inline,
and a witness side comes from the int just compared: a scaled utility u
on a line of scale C (see _lines) is quoted as the rational u / C, one
Fraction per side, which equals the rational expression it stands for
(G[k] X[j] - P[j] over C is g[k] xs[j] - ps[j]); it is built only for a
comparison that fails.  Float mode compares under violated's tolerance
and quotes the float utilities it compared.  On a
single-item system, feasibility is the direct test sum(x) <= 1 (in exact
mode on the allocation's own integer scale); the hull LP runs only for
allocations that fail it, to decide them and supply the certificate.

Exact mode also settles each line with O(K) work before comparing any
deviation pair.  With U[t] = G[t] X[t] - P[t], a line is quiet when both
adjacent constraints hold for every t: U[t] >= G[t] X[t+1] - P[t+1] and
U[t+1] >= G[t+1] X[t] - P[t].  Their sum makes X monotone (G is strictly
increasing), and monotone X with the adjacent constraints implies every
truthfulness constraint of the line (Myerson, "Optimal Auction Design",
1981), so a quiet line has no truthful witness.  A line is calm when it
is quiet, U[0] <= 0 and every G[t+1] X[t] - P[t] == U[t+1].  On a
truthful line condition b of check_extension reduces to that binding
equality and condition d to U[0] <= 0, and condition c always holds
(truthfulness both ways forces equal payments where X ties), so a calm
line has no b/c/d witness.  check_truthful skips quiet lines and
check_extension the b/c/d walk of calm lines; the other lines take the
full per-pair walk, which lists the witnesses in order.  Float mode marks
no line, because tolerance comparisons do not chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import DimensionMismatchError, InvalidInputError
from .model import (
    FLOAT,
    DeterministicMechanism,
    ExPostMechanism,
    FeasibilitySystem,
    InterimMechanism,
    lines,
)
from .optimal import decompose_allocation

_FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class Witness:
    """One broken constraint: the relation lhs REL rhs failed to hold."""

    check: str
    bidder: Optional[int]
    profile: tuple
    deviation: Optional[object]
    relation: str  # ">=", "<=", or "=="
    lhs: object
    rhs: object
    detail: str = ""


@dataclass
class VerifyReport:
    """Outcome of one or more checks; passed holds exactly when the
    witness list is empty.

    A check_truthful report also carries line_table, the (mechanism,
    rows of _lines) pair it walked, so that check_ir and check_extension
    given this report walk the same rows instead of rebuilding them.  It
    takes no part in == or repr."""

    passed: bool
    checks: dict
    witnesses: tuple
    line_table: Optional[tuple] = field(default=None, compare=False, repr=False)

    @classmethod
    def build(
        cls, name: str, witnesses: Sequence[Witness], line_table: Optional[tuple] = None
    ) -> "VerifyReport":
        ws = tuple(witnesses)
        return cls(not ws, {name: not ws}, ws, line_table)

    @classmethod
    def merge(cls, *reports: "VerifyReport") -> "VerifyReport":
        checks: dict = {}
        witnesses: list = []
        for rep in reports:
            for name, ok in rep.checks.items():
                checks[name] = checks.get(name, True) and ok
            witnesses.extend(rep.witnesses)
        return cls(all(checks.values()), checks, tuple(witnesses))


def violated(lhs, rhs, relation: str, mode: str) -> bool:
    """Does lhs REL rhs fail, under the mode's comparison discipline?"""
    if mode == FLOAT:
        scale = max(1.0, abs(lhs), abs(rhs))
        if relation == ">=":
            return rhs - lhs > _FLOAT_TOL * scale
        if relation == "<=":
            return lhs - rhs > _FLOAT_TOL * scale
        if relation == "==":
            return abs(lhs - rhs) > _FLOAT_TOL * scale
    else:
        if relation == ">=":
            return lhs < rhs
        if relation == "<=":
            return lhs > rhs
        if relation == "==":
            return lhs != rhs
    raise InvalidInputError(f"unknown relation {relation!r}")


def _scaled(vals) -> tuple:
    """(d, [c * d for c in vals]) with d the lcm of the denominators, so
    the scaled entries are ints in the order of the rationals."""
    d = lcm(*[c.denominator for c in vals])
    return d, [c.numerator * (d // c.denominator) for c in vals]


def _verdicts(G, X, P) -> tuple:
    """(quiet, calm) of one exact line table; see the module docstring."""
    U = [g * x - p for g, x, p in zip(G, X, P)]
    binding = True
    for t in range(len(U) - 1):
        down = G[t + 1] * X[t] - P[t]
        if U[t] < G[t] * X[t + 1] - P[t + 1] or U[t + 1] < down:
            return False, False
        binding = binding and down == U[t + 1]
    return True, binding and U[0] <= 0


def _lines(mech: InterimMechanism):
    """Walk bidders, then profiles in canonical order.  Yields (i, v, k,
    xs, ps, G, X, P, C, quiet, calm): k is the index of v[i] on bidder
    i's grid g, and xs/ps are bidder i's allocation and payment as v[i]
    sweeps the grid with the other values held.  The tables are read as
    one column per bidder in canonical order, and a line (see
    model.lines) is a slice of it; each line is gathered once, at its
    lowest value, and cached by its first index (which that visit
    overwrites, so a previous bidder's entry is never read).

    G, X and P are g, xs and ps on one positive scale, where type a's
    utility for report j is G[a] * X[j] - P[j] times the scale's constant.
    In exact mode they are ints: G[a] = g[a] * Dg, X[j] = xs[j] * Dx * Dp
    and P[j] = ps[j] * Dp * Dg * Dx, with Dg, Dx and Dp the lcm of each
    list's denominators, so the constant is 1 / C with C = Dg * Dx * Dp,
    and a scaled utility u is the rational u / C.  In float mode they are
    g, xs and ps themselves and C is None.  quiet and calm are the line's
    verdicts (see the module docstring), both False in float mode."""
    exact = mech.mode != FLOAT
    grids = [_scaled(g) if exact else (None, g) for g in mech.grid.values]
    profiles = list(mech.grid.profiles())
    xcols = list(zip(*mech.x.rows))
    pcols = list(zip(*mech.p.rows))
    cache = {}
    for i, idx, k, line in lines([len(vals) for vals in mech.grid.values]):
        if k == 0:
            cut = slice(line.start, line.stop, line.step)
            xs, ps = xcols[i][cut], pcols[i][cut]
            dg, G = grids[i]
            if exact:
                dx, X = _scaled(xs)
                dp, P = _scaled(ps)
                X = [c * dp for c in X]
                P = [c * dg * dx for c in P]
                C = dg * dx * dp
                verdicts = _verdicts(G, X, P)
            else:
                X, P, C = xs, ps, None
                verdicts = (False, False)
            cache[line.start] = (xs, ps, G, X, P, C, *verdicts)
        yield (i, profiles[idx], k, *cache[line.start])


def _side(u, C):
    """The quoted value of a utility u on a line of scale C (see _lines):
    the rational u / C in exact mode, u itself in float mode."""
    return u if C is None else Fraction(u, C)


def _beaten(gv, own, X, P, C) -> list:
    """(j, quoted u) for each report j of the line whose scaled utility
    u = gv * X[j] - P[j] breaks own >= u: in exact mode u > own, compared
    inline; in float mode under violated's tolerance.  A report whose
    utility is own itself never breaks it, so the caller need not skip
    the truthful report."""
    if C is not None:
        return [
            (j, Fraction(u, C)) for j, (x, p) in enumerate(zip(X, P)) if (u := gv * x - p) > own
        ]
    return [
        (j, u) for j, (x, p) in enumerate(zip(X, P))
        if violated(own, (u := gv * x - p), ">=", FLOAT)
    ]


def _line_rows(mech: InterimMechanism, truthful: Optional[VerifyReport]):
    """The rows of _lines(mech): the list a check_truthful report of this
    same mechanism carries, else a fresh walk."""
    table = truthful.line_table if truthful is not None else None
    if table is not None and table[0] is mech:
        return table[1]
    return _lines(mech)


def check_truthful(mech: InterimMechanism) -> VerifyReport:
    """No type gains by reporting a different grid value, in expectation.
    The report keeps the line rows it walked (VerifyReport.line_table)
    for check_ir and check_extension."""
    out = []
    rows = list(_lines(mech))
    for i, v, k, _xs, _ps, G, X, P, C, quiet, _calm in rows:
        if quiet:
            continue
        gk = G[k]
        truth = gk * X[k] - P[k]
        beaten = _beaten(gk, truth, X, P, C)
        if beaten:
            g, lhs = mech.grid.values[i], _side(truth, C)
            for j, rhs in beaten:
                out.append(Witness("truthful", i, v, g[j], ">=", lhs, rhs))
    return VerifyReport.build("truthful", out, (mech, rows))


def check_ir(
    mech: InterimMechanism, truthful: Optional[VerifyReport] = None
) -> VerifyReport:
    """Truthful reporting never pays more than the expected allocation is
    worth: G[k] * X[k] >= P[k] on each line's scale (see _lines), with
    the rational sides quoted by a witness.  Given truthful, a
    check_truthful report of this same mechanism, it walks that report's
    line rows instead of building them."""
    out = []
    for i, v, k, _xs, ps, G, X, P, C, _quiet, _calm in _line_rows(mech, truthful):
        worth = G[k] * X[k]
        broken = worth < P[k] if C is not None else violated(worth, P[k], ">=", FLOAT)
        if broken:
            out.append(Witness("ir", i, v, None, ">=", _side(worth, C), ps[k]))
    return VerifyReport.build("ir", out)


def check_expost_ir(mech: ExPostMechanism) -> VerifyReport:
    """Under every coin outcome, a winner pays at most his bid and a
    non-winner pays exactly nothing.  The outcome table is in canonical
    order, so walking it needs no lookup."""
    out = []
    table = list(zip(mech.grid.profiles(), mech.outcomes.rows))
    for i in range(mech.grid.n):
        for v, outcomes in table:
            for t, (vec_idx, pay, _prob) in enumerate(outcomes):
                if mech.fs.vectors[vec_idx][i]:
                    if violated(v[i], pay[i], ">=", mech.mode):
                        out.append(
                            Witness(
                                "expost_ir", i, v, None, ">=", v[i], pay[i],
                                detail=f"outcome {t}",
                            )
                        )
                elif violated(pay[i], 0, "==", mech.mode):
                    out.append(
                        Witness(
                            "expost_ir", i, v, None, "==", pay[i], 0,
                            detail=f"outcome {t}: non-winner charged",
                        )
                    )
    return VerifyReport.build("expost_ir", out)


def check_feasible(mech: InterimMechanism, fs: FeasibilitySystem) -> VerifyReport:
    """Each profile's expected allocation lies in the convex hull of the
    feasible vectors; failures quote a separating certificate.  On a
    single-item system an allocation summing to at most 1 is in the hull
    directly (0 <= x <= 1 holds by construction; exact mode sums the
    allocation's ints under the lcm of its denominators); only the others
    reach the LP, which also supplies the certificate."""
    if fs.n != mech.grid.n:
        raise DimensionMismatchError("feasibility system and grid disagree on n")
    single = fs.is_single_item()
    exact = mech.mode != FLOAT
    out = []
    for v, x in zip(mech.grid.profiles(), mech.x.rows):
        if single:
            d, nums = _scaled(x) if exact else (1, x)
            if sum(nums) <= d:
                continue
        dec = decompose_allocation(x, fs, mech.mode)
        if not dec.in_hull:
            a, b = dec.certificate
            lhs = sum(c * xi for c, xi in zip(a, x))
            out.append(
                Witness(
                    "feasible", None, v, None, "<=", lhs, b,
                    detail=f"separating certificate a={tuple(map(str, a))}, b={b}",
                )
            )
    return VerifyReport.build("feasible", out)


def check_extension(
    mech: InterimMechanism, truthful: Optional[VerifyReport] = None
) -> VerifyReport:
    """Truthfulness of the round-down extension to all real values.

    Finitely many conditions cover every off-grid type: (a) grid
    truthfulness; (b) just below each next grid value, the lower outcome
    still beats every menu entry; (c) at the top, the slope is maximal,
    with cheaper payment on ties; (d) below the grid, every menu entry
    has non-positive utility.  Condition (a) restates the witnesses of
    truthful, a check_truthful report of this same mechanism, and the
    other conditions walk its line rows; it is computed here when not
    given.
    """
    grid = mech.grid
    if truthful is None:
        truthful = check_truthful(mech)
    out = []
    for w in truthful.witnesses:
        out_w = Witness(
            "extension", w.bidder, w.profile, w.deviation, w.relation,
            w.lhs, w.rhs, detail="condition a (grid truthfulness)",
        )
        out.append(out_w)
    for i, v, k, xs, ps, G, X, P, C, _quiet, calm in _line_rows(mech, truthful):
        if calm:
            continue
        g = grid.values[i]
        K = len(g)
        if k < K - 1:
            gn = G[k + 1]
            own = gn * X[k] - P[k]
            beaten = _beaten(gn, own, X, P, C)
            if beaten:
                lhs = _side(own, C)
                detail = f"condition b (true value just below {g[k + 1]})"
                for j, rhs in beaten:
                    out.append(
                        Witness("extension", i, v, g[j], ">=", lhs, rhs, detail=detail)
                    )
        if k == K - 1:
            for j in range(K - 1):
                if C is not None:
                    steeper = X[k] < X[j]
                    dearer = X[k] == X[j] and P[k] > P[j]
                else:
                    steeper = violated(X[k], X[j], ">=", FLOAT)
                    dearer = not violated(X[j], X[k], ">=", FLOAT) and violated(
                        P[k], P[j], "<=", FLOAT
                    )
                if steeper:
                    out.append(
                        Witness(
                            "extension", i, v, g[j], ">=", xs[k], xs[j],
                            detail="condition c (slope above the top value)",
                        )
                    )
                elif dearer:
                    # slopes tie; the top outcome must not cost more
                    out.append(
                        Witness(
                            "extension", i, v, g[j], "<=", ps[k], ps[j],
                            detail="condition c (payment at tied top slope)",
                        )
                    )
        if k == 0:
            for j, lhs in _beaten(G[0], 0, X, P, C):
                out.append(
                    Witness(
                        "extension", i, v, g[j], "<=", lhs, 0,
                        detail="condition d (true value below the grid)",
                    )
                )
    return VerifyReport.build("extension", out)


def check_universal(parts: Sequence[tuple]) -> VerifyReport:
    """A universally truthful object is an explicit finite mixture of
    deterministic mechanisms; every part must be truthful on and off the
    grid, and the mixing weights must form a distribution."""
    parts = list(parts)
    if not parts:
        raise InvalidInputError("empty mixture")
    mode = parts[0][0].mode
    total = sum(prob for _, prob in parts)
    if any(prob <= 0 for _, prob in parts):
        raise InvalidInputError("mixture weights must be positive")
    if violated(total, 1, "==", mode):
        raise InvalidInputError(f"mixture weights sum to {total}, not 1")
    grid = parts[0][0].grid
    out = []
    for idx, (part, _prob) in enumerate(parts):
        if not isinstance(part, DeterministicMechanism):
            raise InvalidInputError(f"part {idx} is not deterministic")
        if part.grid != grid:
            raise DimensionMismatchError(f"part {idx} is on a different grid")
        interim = part.as_interim()
        truthful = check_truthful(interim)
        for rep in (truthful, check_extension(interim, truthful)):
            for w in rep.witnesses:
                prefix = f"part {idx}"
                detail = f"{prefix}: {w.detail}" if w.detail else prefix
                out.append(
                    Witness(
                        w.check, w.bidder, w.profile, w.deviation,
                        w.relation, w.lhs, w.rhs, detail=detail,
                    )
                )
    return VerifyReport(not out, {"universal": not out}, tuple(out))

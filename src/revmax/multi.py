"""Multi-item extension in the explicit model: items are assigned whole,
bidders value bundles through full 2^m tables, and the revenue LP ranges
over lotteries of complete assignments.

A MultiItemInstance lays its prior out as an ExplicitDistribution does,
on the product of its type lists, and mechanism tables are ProfileTables
over that product.  Assignment counts grow as (n+1)^m, so a size guard
protects every entry point.  Payments attach to coin outcomes
proportionally to realized bundle value, which keeps every charge within
the winner's bid and the empty bundle free.

The revenue LP is solved exactly.  Float is an input and output format:
a float instance is converted once, at the solver boundary, to the exact
instance of its binary values (masses divided by their exact total), and
the mechanism is rounded to float when it is handed back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NonRepresentableError,
    SizeLimitError,
)
from .lp import LEQ, LinearProgram, solve
from .model import (
    EXACT,
    FLOAT,
    ProfileTable,
    _Product,
    _check_table_domain,
    _check_unit_total,
    _convert_row,
    _placed_support,
    _support,
    convert,
    lines,
)
from .optimal import _chain_payments, _virtual_values
from .verify import VerifyReport, Witness, _scaled, violated

MAX_ASSIGNMENTS = 6561  # (n+1)^m cap, e.g. m <= 8 at n = 2

UNSOLD = -1


class Valuation:
    """One bidder type: a value for each of the 2^m item bundles, indexed
    by bitmask (bit j set means item j in the bundle); the empty bundle
    is worth 0."""

    __slots__ = ("m", "values")

    def __init__(self, m: int, values: Sequence, mode: str = EXACT):
        if m < 1:
            raise InvalidInputError("need at least one item")
        vals = tuple(convert(x, mode) for x in values)
        if len(vals) != 2**m:
            raise DimensionMismatchError(
                f"bundle table has {len(vals)} entries, expected {2 ** m}"
            )
        if vals[0] != 0:
            raise InvalidInputError("the empty bundle must be worth 0")
        if any(x < 0 for x in vals):
            raise InvalidInputError("negative bundle value")
        self.m = m
        self.values = vals

    def of(self, mask: int):
        return self.values[mask]

    def __eq__(self, other):
        return (
            isinstance(other, Valuation)
            and self.m == other.m
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.m, self.values))

    def __repr__(self):
        return f"Valuation(m={self.m}, {list(map(str, self.values))})"


class MultiItemInstance(_Product):
    """Explicit correlated prior over finite per-bidder type lists, and
    the product of those lists, whose profiles are tuples of type indices
    (never converted as numbers).  support maps type profiles to
    probabilities, or is an iterable of such pairs, and is kept as flat
    and masses, as an ExplicitDistribution's is."""

    __slots__ = ("m", "types", "flat", "masses", "mode")

    def __init__(
        self,
        m: int,
        types: Sequence[Sequence[Valuation]],
        support: Mapping[tuple, object],
        mode: str = EXACT,
    ):
        if not types:
            raise InvalidInputError("need at least one bidder")
        for i, ts in enumerate(types):
            if not ts:
                raise InvalidInputError(f"bidder {i} has no types")
            for t in ts:
                if t.m != m:
                    raise DimensionMismatchError(
                        f"bidder {i} has a type over {t.m} items, expected {m}"
                    )
        self.m = m
        self.types = tuple(tuple(ts) for ts in types)
        self.mode = mode
        self._lay_out([range(len(ts)) for ts in self.types])
        unused = "type {k} of bidder {i} appears in no support profile"
        self.flat, self.masses = _support(self, _placed_support(self, support), unused)

    @property
    def support(self) -> dict:
        """A dict from support profiles to probabilities, built on access."""
        return dict(zip(map(self.profile_at, self.flat), self.masses))

    def type_profiles(self) -> list:
        """Full product of type indices, lexicographic."""
        return list(self.profiles())

    def _key(self, profile) -> tuple:
        """A given type profile as a tuple; one outside the type product
        is an input error, so no support or table over it holds one."""
        key = tuple(profile)
        try:
            self.flat_index(key)
        except KeyError:
            raise InvalidInputError(f"type profile {key} is outside the type product") from None
        return key

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, MultiItemInstance) and (
            self.m, self.types, self.flat, self.masses
        ) == (other.m, other.types, other.flat, other.masses)

    def __repr__(self):
        return f"MultiItemInstance(n={self.n}, m={self.m}, {len(self.flat)} profiles)"


def enumerate_assignments(n: int, m: int) -> tuple:
    """All (n+1)^m ways to give each item to a bidder or keep it unsold
    (owner -1), lexicographic in the owner tuples."""
    return tuple(itertools.product(range(-1, n), repeat=m))


def bundle_mask(assignment: tuple, bidder: int) -> int:
    mask = 0
    for j, owner in enumerate(assignment):
        if owner == bidder:
            mask |= 1 << j
    return mask


class MultiMechanism:
    """Per type profile, a lottery over complete assignments (sparse, by
    assignment index) and one payment per bidder.  Each table is given
    and kept as the interim tables are (see model.InterimMechanism), over
    the instance's type product."""

    __slots__ = ("inst", "assignments", "lotteries", "payments")

    def __init__(
        self,
        inst: MultiItemInstance,
        lotteries: Mapping[tuple, Sequence[tuple]],
        payments: Mapping[tuple, Sequence],
    ):
        mode = inst.mode
        assigns = enumerate_assignments(inst.n, inst.m)
        lots = _check_table_domain(inst, lotteries, "lottery table")
        for k, row in enumerate(lots):
            total = 0
            clean = []
            for a_idx, w in row:
                if not 0 <= a_idx < len(assigns):
                    raise InvalidInputError(f"bad assignment index {a_idx}")
                w = convert(w, mode)
                if w <= 0:
                    raise InvalidInputError(f"lottery weight {w} is not positive")
                total += w
                clean.append((a_idx, w))
            _check_unit_total(total, mode, "lottery weights at {}", inst, k)
            lots[k] = tuple(clean)
        pays = _check_table_domain(inst, payments, "payment table")
        for k, row in enumerate(pays):
            pay = pays[k] = _convert_row(row, mode)
            if len(pay) != inst.n:
                raise DimensionMismatchError(
                    f"payment row at {inst.quote(k)} has wrong length"
                )
        self.inst = inst
        self.assignments = assigns
        self.lotteries = ProfileTable(inst, lots)
        self.payments = ProfileTable(inst, pays)

    def expected_value(self, t: tuple, bidder: int):
        """Expected bundle value of the bidder's own type under the
        lottery at t, which is never empty."""
        val = self.inst.types[bidder][t[bidder]]
        return sum(
            w * val.of(bundle_mask(self.assignments[a], bidder)) for a, w in self.lotteries[t]
        )

    def __repr__(self):
        return f"MultiMechanism(n={self.inst.n}, m={self.inst.m})"


def _bundle_values(inst: MultiItemInstance, assigns: Sequence[tuple]) -> list:
    """values[i][ti][a]: value of assignment a to bidder i holding type ti."""
    return [
        [[t.of(bundle_mask(a, i)) for a in assigns] for t in inst.types[i]]
        for i in range(inst.n)
    ]


def _guard(n: int, m: int, max_assignments: int) -> None:
    count = (n + 1) ** m
    if count > max_assignments:
        raise SizeLimitError(
            f"(n+1)^m = {count} assignments exceed the cap of {max_assignments}"
        )


def _kept_ir(ts: Sequence[Valuation]) -> list:
    """ir[r]: whether type r of a general bidder keeps its rationality
    rows (see build_multi_lp for why the rest are implied)."""
    tables = [t.values for t in ts]
    return [
        not any(
            s != r and all(x >= y for x, y in zip(a, b)) and (s < r or a != b)
            for s, b in enumerate(tables)
        )
        for r, a in enumerate(tables)
    ]


def _role(ts: Sequence[Valuation], i: int, assigns: Sequence[tuple]) -> Optional[tuple]:
    """None unless bidder i's tables are alpha_t * b with pairwise
    distinct alpha_t >= 0; then (its types by increasing alpha, those
    alphas, and (a - 1, b(bundle_i(a))) for each assignment a that b
    values above 0), where b's first nonzero entry is 1 and alpha_t is
    type t's entry there.  Proportionality is decided on the exact
    rationals, floats included; alpha and b keep the tables' arithmetic."""
    exact = [tuple(map(Fraction, t.values)) for t in ts]
    base = next((t for t in exact if any(t)), None)
    if base is None or len(set(exact)) < len(exact):
        return None
    j = next(c for c, x in enumerate(base) if x)
    if any(x * base[j] != t[j] * y for t in exact for x, y in zip(t, base)):
        return None
    top = next(t.values for t in ts if t.values[j])
    bx = [(a - 1, c) for a, c in enumerate(top[bundle_mask(x, i)] / top[j] for x in assigns) if c]
    order = sorted(range(len(ts)), key=lambda t: ts[t].values[j])
    return order, [ts[t].values[j] for t in order], bx


def build_multi_lp(
    inst: MultiItemInstance,
    *,
    allow_negative_payments: bool = False,
    max_assignments: int = MAX_ASSIGNMENTS,
) -> LinearProgram:
    """Revenue LP over assignment lotteries, in the instance's mode:
    lottery weights per type profile, payments per type profile and
    bidder that is not single-parameter (_role), with the single-item
    program's rows and bundle values in place of unit values.
    allow_negative_payments makes the payment variables free; unlike the
    single-item LP's, this optimum can depend on it.

    Assignment 0 leaves every item unsold, so every bidder values it at 0
    and its weight would appear only in the profile's convexity row.  It
    gets no column: its weight is the slack of the row
    sum_{a>0} lambda(t, a) <= 1, and solve_multi writes it back as
    1 - sum.  Every row is <= with right-hand side 0 or 1, the form
    revmax.lp solves from the slack basis.

    Rows that the kept rows imply are left out; the optimum is that of
    the all-pairs, all-IR program.  Both rules read one line of bidder i
    at a time, with u(r) = v_r . lambda(r) - p(r):

    - Single-parameter bidders, whose tables are pairwise distinct
      nonnegative multiples alpha * b of one table, have Myerson's
      program in x = b . lambda (revmax.optimal): no payment columns and
      no IC or IR rows, only rows keeping x monotone between types
      adjacent in alpha order, and phi . x in the objective.  solve_multi
      charges the chain payments, the highest that IC and IR allow; they
      are nonnegative, so allow_negative_payments changes nothing here.
      A bidder with two identical tables stays general.
    - IR of every other bidder, which keeps every IC pair.  If type t
      dominates type s (v_t >= v_s on every bundle), then
      u(t) >= v_t . lambda(s) - p(s) >= v_s . lambda(s) - p(s) = u(s) by
      IC t -> s and lambda >= 0, so t's IR rows follow from s's.  Only
      types that dominate no other keep them; among identical tables
      the lowest index keeps its rows."""
    _guard(inst.n, inst.m, max_assignments)
    n = inst.n
    assigns = enumerate_assignments(n, inst.m)
    K = len(assigns) - 1
    cells = inst.cells()
    nlam = cells * K
    roles = [_role(ts, i, assigns) for i, ts in enumerate(inst.types)]
    general = [i for i, role in enumerate(roles) if role is None]

    def pay(t_idx: int, i: int) -> int:
        return nlam + t_idx * len(general) + general.index(i)

    mass = [0] * cells
    for k, q in zip(inst.flat, inst.masses):
        mass[k] = q
    objective = [0] * (nlam + cells * len(general))
    for k, i in itertools.product(range(cells), general):
        objective[pay(k, i)] = mass[k]

    # gain[i][ti] and loss[i][ti]: (a - 1, +v or -v), a's column in a
    # profile's block of K, for each assignment a worth v > 0 to bidder i
    # of type ti, so never a = 0; bx holds b's entries the same way.  A
    # row takes at most one table per profile and profiles have disjoint
    # lambda columns, so each coefficient is written once.
    gain = [
        [[(a - 1, v) for a, v in enumerate(vals) if v] for vals in per_type]
        for per_type in _bundle_values(inst, assigns)
    ]
    loss = [[[(o, -v) for o, v in g] for g in per_type] for per_type in gain]

    phi = [[0] * n for _ in range(cells)]
    rows = [{k * K + o: 1 for o in range(K)} for k in range(cells)]
    for i, _, k, line in lines([len(ts) for ts in inst.types]):
        if k:
            continue
        if roles[i]:
            order, w, bx = roles[i]
            along = [line[t] for t in order]
            _virtual_values(along, w, mass, phi, i)
            for q, (o, c) in itertools.product(along, bx):
                objective[q * K + o] += phi[q][i] * c
            for lo, hi in zip(along, along[1:]):
                rows.append({lo * K + o: c for o, c in bx})
                rows[-1].update((hi * K + o, -c) for o, c in bx)
            continue
        for true_t, rep_t in itertools.permutations(range(len(line)), 2):
            k_true, k_rep = line[true_t], line[rep_t]
            rows.append({pay(k_rep, i): -1, pay(k_true, i): 1})
            rows[-1].update((k_rep * K + o, v) for o, v in gain[i][true_t])
            rows[-1].update((k_true * K + o, v) for o, v in loss[i][true_t])
    for i in general:
        keep = _kept_ir(inst.types[i])
        for k, t in enumerate(inst.profiles()):
            if keep[t[i]]:
                rows.append({pay(k, i): 1})
                rows[-1].update((k * K + o, v) for o, v in loss[i][t[i]])

    lp = LinearProgram(len(objective), objective)
    if allow_negative_payments:
        for k, i in itertools.product(range(cells), general):
            lp.set_free(pay(k, i))
    for r, row in enumerate(rows):
        lp.add_constraint(row, LEQ, 1 if r < cells else 0)
    return lp


def _exact(inst: MultiItemInstance) -> MultiItemInstance:
    """The instance in exact arithmetic: inst itself, or for a float
    instance that of its binary values, each mass divided by the masses'
    exact total so that they sum to 1."""
    if inst.mode == EXACT:
        return inst
    types = [[Valuation(inst.m, [Fraction(v) for v in t.values]) for t in ts] for ts in inst.types]
    masses = [Fraction(q) for q in inst.masses]
    total = sum(masses)
    support = [(inst.profile_at(idx), q / total) for idx, q in zip(inst.flat, masses)]
    return MultiItemInstance(inst.m, types, support)


def solve_multi(
    inst: MultiItemInstance,
    *,
    allow_negative_payments: bool = False,
    max_assignments: int = MAX_ASSIGNMENTS,
):
    """Solve the multi-item revenue LP exactly; the exact mechanism is
    replayed through check_multi, every IC pair and IR row, before being
    handed back.  A single-parameter bidder pays Myerson's chain along
    each of its lines in alpha order, p_t = p_{t-1} + alpha_t (x_t -
    x_{t-1}) from p = x = 0.  A float instance is solved as its exact
    copy (_exact), and the mechanism is then rounded to float by its own
    constructor.  Returns (mechanism, expected revenue), both in the
    instance's mode."""
    exact = _exact(inst)
    lp = build_multi_lp(
        exact,
        allow_negative_payments=allow_negative_payments,
        max_assignments=max_assignments,
    )
    sol = solve(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"multi-item LP reported {sol.status}; this cannot happen")
    cells = inst.cells()
    assigns = enumerate_assignments(inst.n, inst.m)
    K = len(assigns) - 1
    roles = [_role(ts, i, assigns) for i, ts in enumerate(exact.types)]
    pays = iter(sol.x[cells * K :])  # by profile, then general bidder
    lotteries, payments = [], []
    for k in range(cells):
        sold = sol.x[k * K : (k + 1) * K]
        # the all-unsold assignment's weight is its row's slack
        weights = (1 - sum(sold),) + sold
        lotteries.append([(a, w) for a, w in enumerate(weights) if w])
        payments.append([0 if role else next(pays) for role in roles])
    for i, _, k, line in lines([len(ts) for ts in inst.types]):
        if roles[i] and not k:
            order, w, bx = roles[i]
            along = [line[t] for t in order]
            # x = b . lambda first; the chain reads each x before it writes p there
            for q in along:
                payments[q][i] = sum(c * sol.x[q * K + o] for o, c in bx)
            _chain_payments(along, w, payments, payments, i)
    mech = MultiMechanism(exact, ProfileTable(exact, lotteries), ProfileTable(exact, payments))
    report = check_multi(mech)
    if not report.passed:
        raise RuntimeError(
            f"solved mechanism failed its own replay: {report.witnesses[0]}"
        )
    if exact is not inst:
        mech = MultiMechanism(inst, mech.lotteries, mech.payments)
    return mech, multi_revenue(mech)


def multi_revenue(mech: MultiMechanism):
    """Expected total payment under truthful play, summed over the
    instance's support in canonical order."""
    rows = mech.payments.rows
    return sum(q * sum(rows[idx]) for idx, q in zip(mech.inst.flat, mech.inst.masses))


def check_multi(mech: MultiMechanism) -> VerifyReport:
    """Replay the LP's truthfulness and rationality rows against the
    mechanism tables.

    Walks model.lines in the order of verify.check_truthful (bidder,
    type profile, misreport).  Once per line of bidder i, W[a][j] is type
    a's expected bundle value under the lottery at the line's j-th
    profile and P[j] that profile's payment; a misreport keeps the true
    type at the misreport's lottery, and rationality reads the table's
    diagonal.

    In exact mode W and P are ints on one positive scale per line, as
    verify._lines puts its tables, so every comparison keeps its outcome:
    bidder i's bundle values are multiplied by Dv, the lcm of their
    denominators; each lottery's weights by the lcm of their own
    denominators, and its sums then by what takes that to Dw, the lcm
    over the line; W by Dp, the lcm of the line's payment denominators,
    and P by Dw * Dv.  Float mode runs the same loop with every scale 1
    and violated's tolerance.  A witness quotes the expressions
    sum(w * v) - p themselves, computed only for a comparison that
    fails."""
    inst = mech.inst
    mode = inst.mode
    exact = mode != FLOAT
    values = _bundle_values(inst, mech.assignments)
    lots, pays = mech.lotteries.rows, mech.payments.rows
    if exact:
        tables = []
        for per_type in values:
            dv = lcm(*[v.denominator for vals in per_type for v in vals])
            ints = [[v.numerator * (dv // v.denominator) for v in vals] for vals in per_type]
            tables.append((dv, ints))
        dens, rows = [], []
        for lot in lots:
            d, nums = _scaled([w for _, w in lot])
            dens.append(d)
            rows.append([(a, c) for (a, _), c in zip(lot, nums)])
        zero, witness_zero = 0, Fraction(0)
    else:
        tables = [(1, per_type) for per_type in values]
        dens, rows = [1] * len(lots), lots
        zero = witness_zero = 0.0

    def worth(vals, q: int):
        """The expected value of assignments worth vals under the lottery
        at flat index q, as a witness quotes it."""
        return sum((w * vals[a] for a, w in lots[q]), witness_zero)

    cache = {}
    ic, ir = [], []
    for i, idx, k, line in lines([len(ts) for ts in inst.types]):
        if k == 0:
            dv, V = tables[i]
            dw = lcm(*[dens[q] for q in line])
            if exact:
                dp, P = _scaled([pays[q][i] for q in line])
                P = [c * dw * dv for c in P]
            else:
                dp, P = 1, [pays[q][i] for q in line]
            W = [
                [sum((w * v[a] for a, w in rows[q]), zero) * (dw // dens[q] * dp) for q in line]
                for v in V
            ]
            # keyed by the line's first index, which this visit overwrites
            cache[line.start] = (W, P)
        W, P = cache[line.start]
        Wk = W[k]
        truth = Wk[k] - P[k]
        for j, q in enumerate(line):
            if j != k and violated(truth, Wk[j] - P[j], ">=", mode):
                vals = values[i][k]
                ic.append(
                    Witness(
                        "multi_ic", i, inst.profile_at(idx), j, ">=",
                        worth(vals, idx) - pays[idx][i], worth(vals, q) - pays[q][i],
                    )
                )
        if violated(Wk[k], P[k], ">=", mode):
            ir.append(
                Witness(
                    "multi_ir", i, inst.profile_at(idx), None, ">=",
                    worth(values[i][k], idx), pays[idx][i],
                )
            )
    return VerifyReport.merge(
        VerifyReport.build("multi_ic", ic), VerifyReport.build("multi_ir", ir)
    )


@dataclass
class MultiExPostMechanism:
    """Coin-level form of a multi-item mechanism: per type profile, the
    assignment lottery with per-outcome charges."""

    inst: MultiItemInstance
    outcomes: ProfileTable  # rows of (assignment index, payments, prob)


def multi_expost(mech: MultiMechanism) -> MultiExPostMechanism:
    """Attach payments to coin outcomes proportionally to realized bundle
    value: charge_i(A) = v_i(S_i(A)) * p_i(t) / E[v_i].  Every charge stays
    within the realized value (by interim IR) and empty bundles are free."""
    inst = mech.inst
    values = _bundle_values(inst, mech.assignments)
    table = []
    for t, lot, pay in zip(inst.profiles(), mech.lotteries.rows, mech.payments.rows):
        own = [values[i][ti] for i, ti in enumerate(t)]
        ratios = []
        for i, p_i in enumerate(pay):
            w_i = sum(w * own[i][a] for a, w in lot)
            if w_i == 0:
                if p_i != 0:
                    raise NonRepresentableError(
                        f"bidder {i} pays {p_i} at {t} but values every "
                        "outcome of the lottery at 0"
                    )
                ratios.append(0)
            else:
                ratios.append(p_i / w_i)
        table.append(tuple((a, tuple(v[a] * r for v, r in zip(own, ratios)), w) for a, w in lot))
    return MultiExPostMechanism(inst, ProfileTable(inst, table))


def max_welfare(inst: MultiItemInstance):
    """Full-surplus bound: expected best attainable welfare, by direct
    enumeration of assignments at each support profile."""
    assigns = enumerate_assignments(inst.n, inst.m)
    out = 0
    for idx, q in zip(inst.flat, inst.masses):
        t = inst.profile_at(idx)
        best = None
        for a in assigns:
            w = sum(inst.types[i][t[i]].of(bundle_mask(a, i)) for i in range(inst.n))
            if best is None or w > best:
                best = w
        out += q * best
    return out

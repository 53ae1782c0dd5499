"""Shared generators and independent cross-check oracles for the tests.

The hull-membership oracle here deliberately avoids the package's LP
machinery: it enumerates vector subsets and solves the barycentric
systems by Gaussian elimination, so decomposition results are checked
against a second, unrelated method.  The reference revenue LP keeps
payments as variables with every truthfulness and rationality
constraint, so the allocation-only LP is checked against the full
formulation it reduces.  Likewise the reference multi-item LP keeps a
column and a convexity equality for the all-unsold assignment, whose
weight the solver's LP carries as a slack.  Both reference LPs keep
their convexity rows as equalities in a ReferenceProgram, which the
reference simplex solves with a phase 1; revmax.lp takes only <= rows
with nonnegative right-hand sides.  The reference decomposition is the
two-phase one, an equality hull LP and a separation LP for the
certificate, so decompose_allocation, which reads the terms off one <= LP
and the certificate off its dual, must give the same terms.  The reference simplex keeps
dense tableau rows with the same pivot rule, so the sparse solver in
revmax.lp must take the same pivots to the same vertex.  The reference checkers look
every deviation up by building its profile, sweep each profile's own
column afresh, solve one hull LP per profile and look each profile's
ex-post outcomes up by profile, so the indexed walks in revmax.verify
must return the same witnesses in the same order.  The reference IR
check compares the rationals themselves, profile by profile, where
revmax.verify.check_ir compares the integer line tables of
check_truthful.  The reference projections build their interim tables
through the validating InterimMechanism constructor, so the direct
builds of as_interim and interim_of must give the same tables.
The reference mechanism reader builds every mechanism through the public
constructors from (profile, row) pairs in file order, so
revmax.io.read_mechanism, which places each line at its profile's flat
index, must give the same tables.  The reference table check looks
every grid profile up in the table, so
revmax.model._check_table_domain, which compares a pair in canonical
position with the grid's profile there and hashes only the others, must
return the same rows in the same order and raise the same errors.  The reference distribution
build keys its duplicate test, strict-grid check and canonical sort by
the profile tuples, so the flat-index build of ExplicitDistribution must
return the same support table and raise the same errors.  The reference multi-item checker sums Fraction (or float) products
w * v for every type and profile of each line, so
revmax.multi.check_multi, which compares ints on per-line scales, must
return the same report, with the same witnesses in the same order.  The reference deterministic search recomputes each complete
rule's revenue over the whole support, so the prefix-revenue search of
revmax.brute must return the same first optimum and the same revenue.
The reference optimal solve unpacks the LP optimum through per-profile
lottery dicts and a validated ex-post mechanism, as the solver once did,
so solve_optimal, which reads each x_i off its winner columns, must
return the same interim tables and the same revenue.  The reference
report writer encodes each witness as a dict through the sorted-key JSON
encoder, so revmax.io.write_report, which fills one template per line,
must write the same bytes.  The references are
exact: a solver given a float instance must return the rounding of what
they return on the instance's binary copy (binary_distribution,
binary_multi_instance).
"""

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from revmax import (
    DeterministicMechanism,
    DimensionMismatchError,
    EnumLimits,
    ExplicitDistribution,
    ExPostMechanism,
    FeasibilitySystem,
    InterimMechanism,
    InvalidInputError,
    MultiItemInstance,
    MultiMechanism,
    SizeLimitError,
    Valuation,
    ValueGrid,
)
from revmax.io import dumps_line, format_number
from revmax.lp import _MAX_PIVOTS, _STALL_LIMIT, LEQ, LPSolution, solve
from revmax.model import EXACT, FLOAT, _check_unit_total, _items, convert, lines
from revmax.multi import (
    MAX_ASSIGNMENTS,
    _bundle_values,
    _guard,
    enumerate_assignments,
)
from revmax.optimal import HullDecomposition, build_optimal_lp, decompose_allocation
from revmax.verify import VerifyReport, Witness, violated


def random_grid(rng, max_bidders=3, max_values=3, min_values=1):
    n = rng.randint(1, max_bidders)
    cols = [
        sorted(rng.sample(range(1, 10), rng.randint(min_values, max_values)))
        for _ in range(n)
    ]
    return ValueGrid(cols)


def random_distribution(rng, max_bidders=3, max_values=3, min_values=1, grid=None):
    """Random correlated distribution whose grid equals its marginal
    supports, with rational probabilities."""
    if grid is None:
        grid = random_grid(rng, max_bidders, max_values, min_values)
    profiles = list(grid.profiles())
    weights = {p: rng.randint(0, 3) for p in profiles}
    for i, vi in enumerate(grid.values):
        for v in vi:
            if not any(w for p, w in weights.items() if p[i] == v and w):
                candidates = [p for p in profiles if p[i] == v]
                weights[rng.choice(candidates)] += 1
    total = sum(weights.values())
    support = {p: Fraction(w, total) for p, w in weights.items() if w}
    return ExplicitDistribution(grid, support)


def random_interim(rng, grid, violate_ir=False):
    """Random single-item interim mechanism; payments stay within value
    times allocation unless violate_ir asks for at least one breach.
    Zero-allocation coordinates never pay, so the canonical ex-post form
    always exists."""
    x, p = {}, {}
    broken = []
    for v in grid.profiles():
        raw = [Fraction(rng.randint(0, 3)) for _ in range(grid.n)]
        total = sum(raw) + rng.randint(1, 3)
        alloc = tuple(c / total for c in raw)
        pay = []
        for i in range(grid.n):
            cap = v[i] * alloc[i]
            pay.append(cap * Fraction(rng.randint(0, 4), 4))
        x[v], p[v] = alloc, tuple(pay)
        broken.append((v, alloc))
    if violate_ir:
        options = [(v, a) for v, a in broken if any(c > 0 for c in a)]
        v, alloc = rng.choice(options)
        i = rng.choice([i for i, c in enumerate(alloc) if c > 0])
        pay = list(p[v])
        pay[i] = v[i] * alloc[i] + Fraction(1, 2)
        p[v] = tuple(pay)
    return InterimMechanism(grid, x, p)


def random_feasibility(rng, max_bidders=4, max_vectors=8, n=None):
    if n is None:
        n = rng.randint(1, max_bidders)
    pool = [
        tuple((mask >> i) & 1 for i in range(n)) for mask in range(1, 2**n)
    ]
    rng.shuffle(pool)
    extra = pool[: rng.randint(0, min(len(pool), max_vectors - 1))]
    return FeasibilitySystem(n, [(0,) * n] + extra)


def random_hull_point(rng, fs):
    weights = [Fraction(rng.randint(0, 4)) for _ in fs.vectors]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    weights = [w / total for w in weights]
    return tuple(
        sum(w * vec[i] for w, vec in zip(weights, fs.vectors))
        for i in range(fs.n)
    )


def _solve_unique(columns, rhs):
    """Exact solution of columns @ w = rhs when it is unique; None on a
    rank-deficient or inconsistent system."""
    k = len(columns)
    m = len(rhs)
    rows = [[columns[j][i] for j in range(k)] + [rhs[i]] for i in range(m)]
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [e / inv for e in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    for i in range(r, m):
        if rows[i][k] != 0:
            return None
    return [rows[j][k] for j in range(k)]


def in_hull_by_enumeration(point, fs):
    """Independent hull test: some affinely independent subset of at most
    n+1 vectors carries the point with non-negative weights."""
    point = tuple(Fraction(c) for c in point)
    vecs = [tuple(Fraction(c) for c in vec) for vec in fs.vectors]
    for size in range(1, min(len(vecs), fs.n + 1) + 1):
        for subset in combinations(range(len(vecs)), size):
            cols = [vecs[f] + (Fraction(1),) for f in subset]
            sol = _solve_unique(cols, point + (Fraction(1),))
            if sol is not None and all(w >= 0 for w in sol):
                return True
    return False


def best_posted_price(dist):
    """Single-bidder posted-price optimum by exhaustive search over the
    grid prices."""
    assert dist.grid.n == 1
    best = Fraction(0)
    for q in dist.grid.values[0]:
        sold = sum(prob for v, prob in dist.support.items() if v[0] >= q)
        best = max(best, q * sold)
    return best


def scale_distribution(dist, c):
    grid = ValueGrid([[v * c for v in vi] for vi in dist.grid.values])
    support = {tuple(v * c for v in p): q for p, q in dist.support.items()}
    return ExplicitDistribution(grid, support)


def random_multi_instance(rng, max_bidders=2, max_items=2, max_types=2):
    """Random explicit multi-item instance with full-product support."""
    n = rng.randint(1, max_bidders)
    m = rng.randint(1, max_items)
    types = []
    for _ in range(n):
        k = rng.randint(1, max_types)
        ts = []
        while len(ts) < k:
            base = [Fraction(0)] + [
                Fraction(rng.randint(0, 6)) for _ in range(2**m - 1)
            ]
            # superset monotone enough for variety; only v(empty)=0 required
            t = Valuation(m, base)
            if t not in ts:
                ts.append(t)
        types.append(ts)
    support = _random_type_support(rng, types)
    return MultiItemInstance(m, types, support)


def _random_type_support(rng, types):
    """Random weights over the type-profile product, covering every type
    of every bidder."""
    import itertools

    profiles = list(itertools.product(*(range(len(ts)) for ts in types)))
    weights = {t: rng.randint(0, 3) for t in profiles}
    for i, ts in enumerate(types):
        for k in range(len(ts)):
            if not any(w for t, w in weights.items() if t[i] == k and w):
                candidates = [t for t in profiles if t[i] == k]
                weights[rng.choice(candidates)] += 1
    total = sum(weights.values())
    return {t: Fraction(w, total) for t, w in weights.items() if w}


def random_multi_mechanism(rng, inst):
    """Random lotteries of one to three assignments per type profile, and
    payments that are random fractions (up to 3/2) of the bidder's own
    expected bundle value, so both truthfulness and rationality can fail."""
    A = len(enumerate_assignments(inst.n, inst.m))
    lotteries, payments = {}, {}
    for t in inst.type_profiles():
        picks = rng.sample(range(A), rng.randint(1, min(3, A)))
        weights = [rng.randint(1, 4) for _ in picks]
        lotteries[t] = [(a, Fraction(w, sum(weights))) for a, w in zip(picks, weights)]
        payments[t] = (0,) * inst.n
    mech = MultiMechanism(inst, lotteries, payments)
    for t in inst.type_profiles():
        payments[t] = tuple(
            mech.expected_value(t, i) * Fraction(rng.randint(0, 6), 4)
            for i in range(inst.n)
        )
    return lotteries, payments


def float_multi_instance(inst):
    """The same instance in float arithmetic."""
    types = [[Valuation(inst.m, t.values, FLOAT) for t in ts] for ts in inst.types]
    return MultiItemInstance(inst.m, types, dict(inst.support), FLOAT)


def binary_distribution(dist):
    """The exact copy of a float distribution that the solvers read: its
    grid values at their binary values, and each mass at its binary value
    divided by the exact total of those, so that the masses sum to 1."""
    grid = ValueGrid([[Fraction(w) for w in vi] for vi in dist.grid.values])
    total = sum(Fraction(q) for q in dist.support.values())
    support = {tuple(map(Fraction, v)): Fraction(q) / total for v, q in dist.support.items()}
    return ExplicitDistribution(grid, support, strict=False)


def binary_multi_instance(inst):
    """The exact copy of a float multi-item instance that solve_multi
    reads, normalized like binary_distribution's."""
    types = [[Valuation(inst.m, list(map(Fraction, t.values))) for t in ts] for ts in inst.types]
    total = sum(Fraction(q) for q in inst.support.values())
    support = {t: Fraction(q) / total for t, q in inst.support.items()}
    return MultiItemInstance(inst.m, types, support)


def scale_multi_instance(inst, c):
    types = [
        [Valuation(inst.m, [v * c for v in t.values]) for t in ts]
        for ts in inst.types
    ]
    return MultiItemInstance(inst.m, types, dict(inst.support))


def random_m1_instance(rng, max_bidders=2, max_types=3):
    """Random m=1 instance with distinct per-bidder item values, so the
    single-item bridge applies."""
    n = rng.randint(1, max_bidders)
    types = []
    for _ in range(n):
        vals = rng.sample(range(1, 10), rng.randint(1, max_types))
        types.append([Valuation(1, [0, v]) for v in vals])
    support = _random_type_support(rng, types)
    return MultiItemInstance(1, types, support)


def single_item_equivalent(inst: MultiItemInstance) -> ExplicitDistribution:
    """Bridge an m=1 instance to the single-item model: each type becomes
    its value for the lone item.  Types of one bidder must carry distinct
    values for the mapping to be a bijection."""
    if inst.m != 1:
        raise InvalidInputError("only m=1 instances have a single-item equivalent")
    columns = []
    for i, ts in enumerate(inst.types):
        vals = [t.of(1) for t in ts]
        if len(set(vals)) != len(vals):
            raise InvalidInputError(f"bidder {i} has two types with the same item value")
        columns.append(vals)
    support = [
        (tuple(columns[i][ti] for i, ti in enumerate(inst.profile_at(idx))), q)
        for idx, q in zip(inst.flat, inst.masses)
    ]
    grid = ValueGrid([sorted(c) for c in columns], inst.mode)
    return ExplicitDistribution(grid, support, strict=False)


def _units(n: int, u: int) -> list:
    """All 0/1 vectors with at most u ones, fewest ones first."""
    vecs = [v for v in itertools.product((0, 1), repeat=n) if sum(v) <= u]
    return sorted(vecs, key=lambda v: (sum(v), [-c for c in v]))


def random_search_instance(rng, mode=EXACT, max_cells=12, max_candidates=10000):
    """(distribution, feasibility system) shaped like the deterministic
    search's inputs: n = 1..4 bidders (one-value bidders included), at
    most max_cells grid cells and max_candidates raw winner rules, and one
    of the single-item system, two units among n, single item plus a
    bundle of bidders 0 and 1, or a random vector set.  Values and
    probabilities carry unrelated denominators; supports are full, padded
    (strict=False, grid profiles and even grid values without mass) or a
    point mass, which ties many rules."""
    n = rng.randint(1, 4)
    while True:
        sizes = [rng.randint(1, 6) for _ in range(n)]
        cells = 1
        for s in sizes:
            cells *= s
        systems = [FeasibilitySystem.single_item(n), random_feasibility(rng, n=n)]
        if n >= 2:
            systems.append(FeasibilitySystem(n, _units(n, 2)))
            systems.append(FeasibilitySystem(n, _units(n, 1) + [(1, 1) + (0,) * (n - 2)]))
        fs = rng.choice(systems)
        if cells <= max_cells and len(fs.vectors) ** cells <= max_candidates:
            break
    den = rng.choice([1, 1, 2, 3, 4, 6])
    values = [
        [Fraction(x, den) for x in sorted(rng.sample(range(rng.random() >= 0.2, 13), s))]
        for s in sizes
    ]
    profiles = list(itertools.product(*values))
    shape = rng.choice(["full", "padded", "point"])
    if shape == "point":
        weights = {rng.choice(profiles): 1}
    elif shape == "padded":
        chosen = rng.sample(profiles, rng.randint(1, len(profiles)))
        weights = {p: rng.randint(1, 5) for p in chosen}
    else:
        weights = {p: rng.choice([1, 2, 3, 5, 7]) for p in profiles}
    total = sum(weights.values())
    support = {
        tuple(str(c) for c in p): str(Fraction(w, total)) for p, w in weights.items()
    }
    grid = ValueGrid([[str(c) for c in vi] for vi in values], mode)
    return ExplicitDistribution(grid, support, strict=shape == "full"), fs


def reference_enumerate_deterministic_optimal(
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
    mech = DeterministicMechanism(grid, fs, winners, payments)
    return mech, best_rev


EQ = "="


class ReferenceProgram:
    """Maximize objective . x subject to <= and = rows with right-hand
    sides of any sign, over nonnegative or free variables: the form of
    the reference LPs, which keep their convexity equalities, and of the
    reference decomposition.  reference_solve solves it, as it solves a
    revmax.lp.LinearProgram, whose attributes it shares."""

    def __init__(self, num_vars: int, objective):
        self.num_vars = num_vars
        self.objective = list(objective)
        self.constraints = []
        self.free = [False] * num_vars

    def add_constraint(self, coeffs: dict, rel: str, rhs) -> None:
        assert rel in (LEQ, EQ), rel
        self.constraints.append((dict(coeffs), rel, rhs))

    def set_free(self, var: int) -> None:
        self.free[var] = True


def reference_optimal_lp(dist, fs, allow_negative_payments=False):
    """The revenue LP in its largest form: lottery weights per (profile,
    vector) including the zero vector, payments per (profile, bidder),
    convexity equalities, truthfulness between every pair of reports,
    and rationality at every profile; expected revenue objective."""
    grid = dist.grid
    n = grid.n
    profiles = list(grid.profiles())
    pindex = {v: k for k, v in enumerate(profiles)}
    K = len(fs.vectors)
    nlam = len(profiles) * K

    def lam(v_idx, f_idx):
        return v_idx * K + f_idx

    def pay(v_idx, i):
        return nlam + v_idx * n + i

    num_vars = nlam + len(profiles) * n
    objective = [Fraction(0)] * num_vars
    for v, q in dist.support.items():
        for i in range(n):
            objective[pay(pindex[v], i)] = q
    lp = ReferenceProgram(num_vars, objective)
    if allow_negative_payments:
        for k in range(len(profiles)):
            for i in range(n):
                lp.set_free(pay(k, i))

    for k in range(len(profiles)):
        lp.add_constraint({lam(k, f): 1 for f in range(K)}, EQ, 1)

    def x_coeffs(v_idx, i, scale, into):
        # contribution of scale * x_i(v) in lottery-weight variables
        for f, vec in enumerate(fs.vectors):
            if vec[i]:
                col = lam(v_idx, f)
                into[col] = into.get(col, 0) + scale

    for i in range(n):
        others = [grid.values[j] for j in range(n) if j != i]
        for rest in itertools.product(*others):
            def at(vi):
                return rest[:i] + (vi,) + rest[i:]

            for true_v in grid.values[i]:
                k_true = pindex[at(true_v)]
                for report_v in grid.values[i]:
                    if report_v == true_v:
                        continue
                    k_rep = pindex[at(report_v)]
                    # deviation utility minus truthful utility <= 0
                    row = {pay(k_rep, i): -1, pay(k_true, i): 1}
                    x_coeffs(k_rep, i, true_v, row)
                    x_coeffs(k_true, i, -true_v, row)
                    lp.add_constraint(row, LEQ, 0)

    for i in range(n):
        for k in range(len(profiles)):
            row = {pay(k, i): 1}
            x_coeffs(k, i, -profiles[k][i], row)
            lp.add_constraint(row, LEQ, 0)
    return lp


def reference_multi_lp(
    inst: MultiItemInstance,
    allow_negative_payments: bool = False,
    max_assignments: int = MAX_ASSIGNMENTS,
) -> ReferenceProgram:
    """The multi-item revenue LP with a column for every assignment,
    the all-unsold one included, and a convexity equality per type
    profile: the form revmax.multi.build_multi_lp reduces by making the
    all-unsold weight a slack."""
    _guard(inst.n, inst.m, max_assignments)
    n = inst.n
    assigns = enumerate_assignments(n, inst.m)
    A = len(assigns)
    profiles = inst.type_profiles()
    nlam = len(profiles) * A

    def lam(t_idx: int, a_idx: int) -> int:
        return t_idx * A + a_idx

    def pay(t_idx: int, i: int) -> int:
        return nlam + t_idx * n + i

    zero = 0.0 if inst.mode == FLOAT else Fraction(0)
    num_vars = nlam + len(profiles) * n
    objective = [zero] * num_vars
    for k, t in enumerate(profiles):
        for i in range(n):
            objective[pay(k, i)] = inst.support.get(t, zero)

    lp = ReferenceProgram(num_vars, objective)
    if allow_negative_payments:
        for k in range(len(profiles)):
            for i in range(n):
                lp.set_free(pay(k, i))

    for k in range(len(profiles)):
        lp.add_constraint({lam(k, a): 1 for a in range(A)}, EQ, 1)

    values = _bundle_values(inst, assigns)

    def value_coeffs(t_idx: int, i: int, ti: int, sign: int, into: dict) -> None:
        for a_idx, v in enumerate(values[i][ti]):
            if v:
                col = lam(t_idx, a_idx)
                into[col] = into.get(col, zero) + sign * v

    for i, _, k, line in lines([len(ts) for ts in inst.types]):
        if k:
            continue
        for true_t, k_true in enumerate(line):
            for rep_t, k_rep in enumerate(line):
                if rep_t == true_t:
                    continue
                row: dict = {pay(k_rep, i): -1, pay(k_true, i): 1}
                value_coeffs(k_rep, i, true_t, 1, row)
                value_coeffs(k_true, i, true_t, -1, row)
                lp.add_constraint(row, LEQ, 0)

    for i in range(n):
        for k, t in enumerate(profiles):
            row = {pay(k, i): 1}
            value_coeffs(k, i, t[i], -1, row)
            lp.add_constraint(row, LEQ, 0)

    return lp


def reference_revenue(dist, fs=None, allow_negative_payments=False):
    """Exact optimum of the reference revenue LP."""
    if fs is None:
        fs = FeasibilitySystem.single_item(dist.grid.n)
    sol = reference_solve(reference_optimal_lp(dist, fs, allow_negative_payments))
    assert sol.status == "optimal", sol.status
    return sol.objective


@dataclass
class ReferenceOptimum:
    """The optimum in both forms: in the ex-post form a winner of each
    outcome pays p_i(v) / x_i(v) and every other bidder pays nothing."""

    interim: InterimMechanism
    expost: ExPostMechanism
    revenue: object


def reference_solve_optimal(
    dist: ExplicitDistribution, fs: Optional[FeasibilitySystem] = None
) -> ReferenceOptimum:
    """Solve the revenue LP of an exact distribution and unpack the
    optimum into both mechanism forms, with chain payments along every
    line."""
    if fs is None:
        fs = FeasibilitySystem.single_item(dist.grid.n)
    lp = build_optimal_lp(dist, fs)
    sol = solve(lp)
    if sol.status != "optimal":
        # the all-zero mechanism is feasible and every weight is at most 1
        raise RuntimeError(f"revenue LP reported {sol.status}; this cannot happen")
    grid = dist.grid
    n = grid.n
    profiles = list(grid.profiles())
    cols = [f for f in range(len(fs.vectors)) if f != fs.zero_index]
    K = len(cols)
    zero = Fraction(0)

    xs, lotteries = [], []
    for k in range(len(profiles)):
        weights = dict(zip(cols, sol.x[k * K : (k + 1) * K]))
        weights[fs.zero_index] = 1 - sum(weights.values(), zero)
        weights = {f: w for f, w in sorted(weights.items()) if w > 0}
        x = [sum((w for f, w in weights.items() if fs.vectors[f][i]), zero) for i in range(n)]
        xs.append(tuple(x))
        lotteries.append(weights)

    ps = [[zero] * n for _ in profiles]
    for i, idx, k, line in lines([len(w) for w in grid.values]):
        # one chain step up from the value below, which canonical order visits first
        last_x = last_p = zero
        if k:
            last_x, last_p = xs[line[k - 1]][i], ps[line[k - 1]][i]
        ps[idx][i] = last_p + grid.values[i][k] * (xs[idx][i] - last_x)
    interim = InterimMechanism(grid, dict(zip(profiles, xs)), dict(zip(profiles, ps)))

    rows = {}
    for v, x, p, weights in zip(profiles, xs, ps, lotteries):
        charge = [p[i] / x[i] if x[i] else zero for i in range(n)]
        rows[v] = [
            (f, tuple(c if on else zero for c, on in zip(charge, fs.vectors[f])), w)
            for f, w in weights.items()
        ]
    expost = ExPostMechanism(grid, fs, rows)

    revenue = sum((q * sum(interim.p[v]) for v, q in dist.support.items()), zero)
    return ReferenceOptimum(interim, expost, revenue)


def _reference_pivot(rows, rhs, red, leave: int, enter: int):
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


def _reference_run_simplex(rows, rhs, basis, cost, tol):
    """Maximize cost over the equality system in basic form.

    Returns ('optimal', objective, pivots) or ('unbounded', None,
    pivots).  red costs and the running objective derive from the basis
    on entry.
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
    for pivots in range(_MAX_PIVOTS):
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
            return "optimal", obj, pivots
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
            return "unbounded", None, pivots
        gain = _reference_pivot(rows, rhs, red, leave, enter)
        basis[leave] = enter
        obj += gain
        if gain > tol:
            stall = 0
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    raise RuntimeError("simplex did not terminate within the pivot limit")


def reference_solve(lp) -> LPSolution:
    """Exact two-phase simplex solve of a ReferenceProgram or
    LinearProgram over dense tableau rows, every coefficient read as
    Fraction(v) (a float at its binary value).  Status is optimal,
    infeasible or unbounded; pivots counts both phases, and phase 1, which
    includes the pivots that drive leftover artificials out of the basis,
    runs only when some row has no slack to start the basis, which a
    LinearProgram never has."""
    tol = Fraction(0)
    num = lambda v: v if isinstance(v, Fraction) else Fraction(v)

    # Internal columns: every original variable becomes one or two
    # nonnegative columns via shift (finite lower), mirror (upper only),
    # or a free split.  x_j = offset_j + sum of signed columns.
    col_of: list[list[tuple[int, int]]] = [[] for _ in range(lp.num_vars)]
    offsets = []
    ncols = 0
    extra_rows = []  # upper-bound rows y <= u - l for doubly bounded vars
    for j in range(lp.num_vars):
        lo, hi = (None, None) if lp.free[j] else (0, None)
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
    phase1 = 0
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
        status, val, phase1 = _reference_run_simplex(rows, rhs_col, basis, cost1, tol)
        infeas = -val > 0
        if status != "optimal" or infeas:
            return LPSolution("infeasible", pivots=phase1)
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
                    _reference_pivot(rows, rhs_col, red, i, enter)
                    basis[i] = enter
                    phase1 += 1
        for i in reversed(drop):
            del rows[i], rhs_col[i], basis[i]
        rows = [r[:width] for r in rows]

    cost2 = [zero] * width
    for j in range(lp.num_vars):
        c = num(lp.objective[j])
        if c:
            for col, s in col_of[j]:
                cost2[col] += c * s
    status, val, phase2 = _reference_run_simplex(rows, rhs_col, basis, cost2, tol)
    if status == "unbounded":
        return LPSolution("unbounded", pivots=phase1 + phase2)

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
    return LPSolution("optimal", tuple(x), objective, phase1 + phase2)


def reference_decompose_allocation(x, fs: FeasibilitySystem):
    """The exact two-phase decomposition: the hull's equality rows solved
    by phase 1, and outside the hull a second LP over free (a, b) with
    a.F <= b for every feasible F and a.x - b = 1, both solved by
    reference_solve."""
    point = tuple(convert(c) for c in x)
    K = len(fs.vectors)
    zero = Fraction(0)
    lp = ReferenceProgram(K, [zero] * K)
    for i in range(fs.n):
        row = {f: 1 for f, vec in enumerate(fs.vectors) if vec[i]}
        lp.add_constraint(row, EQ, point[i])
    lp.add_constraint({f: 1 for f in range(K)}, EQ, 1)
    sol = reference_solve(lp)
    if sol.status == "optimal":
        return HullDecomposition(True, terms=tuple((f, w) for f, w in enumerate(sol.x) if w > 0))
    nv = fs.n + 1
    sep = ReferenceProgram(nv, [zero] * nv)
    for j in range(nv):
        sep.set_free(j)
    for vec in fs.vectors:
        row = {i: 1 for i in range(fs.n) if vec[i]}
        row[fs.n] = -1
        sep.add_constraint(row, LEQ, 0)
    norm = {i: point[i] for i in range(fs.n) if point[i] != 0}
    norm[fs.n] = -1
    sep.add_constraint(norm, EQ, 1)
    cert = reference_solve(sep)
    assert cert.status == "optimal", cert.status
    return HullDecomposition(False, certificate=(cert.x[: fs.n], cert.x[fs.n]))


def quoted(profile: tuple) -> str:
    """A profile as input errors quote it: like a tuple, with each entry as
    str writes it (1/2 for a Fraction, 2.0 for a float), never a repr."""
    if len(profile) == 1:
        return f"({profile[0]},)"
    return "(" + ", ".join(str(v) for v in profile) + ")"


def reference_distribution_support(grid: ValueGrid, support, strict: bool = True) -> dict:
    """The support table ExplicitDistribution(grid, support, strict=strict)
    builds, by the profile-keyed construction: the grid test, the
    duplicate test, the strict-grid sets and the canonical sort each look
    the profile tuples themselves up."""
    mode = grid.mode
    table = {}
    for profile, prob in _items(support):
        key = tuple(convert(v, mode) for v in profile)
        if len(key) != grid.n:
            raise DimensionMismatchError(
                f"profile {profile} has {len(key)} entries, grid has {grid.n} bidders"
            )
        if not grid.on_grid(key):
            raise InvalidInputError(f"support profile {profile} is off the grid")
        if key in table:
            raise InvalidInputError(f"duplicate support profile {quoted(key)}")
        q = convert(prob, mode)
        if q <= 0:
            raise InvalidInputError(f"support probability {prob} is not positive")
        table[key] = q
    if not table:
        raise InvalidInputError("empty support")
    _check_unit_total(sum(table.values()), mode, "support probabilities")
    if strict:
        for i, vi in enumerate(grid.values):
            seen = {key[i] for key in table}
            missing = [v for v in vi if v not in seen]
            if missing:
                raise InvalidInputError(
                    f"grid value {missing[0]} of bidder {i} appears in no "
                    "support profile (pass strict=False for padded grids)"
                )
    # canonical order: lexicographic by value index
    order = {p: k for k, p in enumerate(grid.profiles())}
    return dict(sorted(table.items(), key=lambda kv: order[kv[0]]))


def reference_check_table_domain(grid: ValueGrid, table, what: str) -> dict:
    """Reorder a per-profile table canonically, requiring the full grid:
    one lookup per grid profile, whatever the table's order."""
    out = {}
    for profile in grid.profiles():
        if profile not in table:
            raise InvalidInputError(f"{what} missing profile {quoted(profile)}")
        out[profile] = table[profile]
    if len(table) != grid.cells():
        extra = set(table) - set(out)
        off = [quoted(p) for p in sorted(extra)[:3]]
        raise InvalidInputError(f"{what} has off-grid profiles [{', '.join(off)}]")
    return out


def reference_read_mechanism(text: str, mode: Optional[str] = None):
    """A single-item mechanism file built through the public constructors
    from (profile, row) pairs in file order: each line decoded by json
    (decimals as Fractions), each number converted by convert in the
    header's mode or the given one, the outcome lines of one ex-post
    profile joined in file order, and universal parts taken in part
    order.  Returns the mechanism, or the universal list of (part,
    probability).  Well-formed files only: it reports no input error in
    the reader's words."""
    objs = [json.loads(line, parse_float=Fraction) for line in text.splitlines() if line.strip()]
    head, body = objs[0], objs[1:]
    mode = mode or head.get("mode", EXACT)

    def row(values):
        return tuple(convert(c, mode) for c in values)

    grid = ValueGrid([row(vi) for vi in next(o["grid"] for o in body if "grid" in o)], mode)
    vectors = [o["feasible"] for o in body if "feasible" in o]
    fs = FeasibilitySystem(grid.n, vectors) if vectors else FeasibilitySystem.single_item(grid.n)
    body = [o for o in body if "grid" not in o and "feasible" not in o]

    def pairs(lines, key):
        return [(row(o["profile"]), o[key] if key == "vector" else row(o[key])) for o in lines]

    kind = head["kind"]
    if kind == "interim":
        return InterimMechanism(grid, pairs(body, "alloc"), pairs(body, "pay"))
    if kind == "expost":
        outcomes = {}
        for o in body:
            outcome = (o["vector"], row(o["pay"]), convert(o["prob"], mode))
            outcomes.setdefault(row(o["profile"]), []).append(outcome)
        return ExPostMechanism(grid, fs, outcomes)
    if kind == "deterministic":
        return DeterministicMechanism(grid, fs, pairs(body, "vector"), pairs(body, "pay"))
    assert kind == "universal", kind
    probs = {o["part"]: convert(o["prob"], mode) for o in body if "profile" not in o}
    parts = []
    for k in range(len(probs)):
        lines = [o for o in body if "profile" in o and o["part"] == k]
        part = DeterministicMechanism(grid, fs, pairs(lines, "vector"), pairs(lines, "pay"))
        parts.append((part, probs[k]))
    return parts


def reference_check_truthful(mech: InterimMechanism) -> VerifyReport:
    """No type gains by reporting a different grid value, in expectation."""
    grid = mech.grid
    out = []
    for i in range(grid.n):
        for v in grid.profiles():
            truth = v[i] * mech.x[v][i] - mech.p[v][i]
            for rep in grid.values[i]:
                if rep == v[i]:
                    continue
                q = v[:i] + (rep,) + v[i + 1 :]
                dev = v[i] * mech.x[q][i] - mech.p[q][i]
                if violated(truth, dev, ">=", mech.mode):
                    out.append(
                        Witness("truthful", i, v, rep, ">=", truth, dev)
                    )
    return VerifyReport.build("truthful", out)


def reference_check_ir(mech: InterimMechanism) -> VerifyReport:
    """Truthful reporting never pays more than the expected allocation is
    worth."""
    out = []
    for i in range(mech.grid.n):
        for (v, x), p in zip(mech.x.items(), mech.p.values()):
            worth = v[i] * x[i]
            if violated(worth, p[i], ">=", mech.mode):
                out.append(Witness("ir", i, v, None, ">=", worth, p[i]))
    return VerifyReport.build("ir", out)


def reference_as_interim(mech: DeterministicMechanism) -> InterimMechanism:
    """The deterministic mechanism's interim form through the validating
    constructor."""
    rows = [tuple(convert(c, mech.mode) for c in vec) for vec in mech.fs.vectors]
    x = [(v, rows[idx]) for v, idx in mech.choice.items()]
    return InterimMechanism(mech.grid, x, mech.payments)


def reference_interim_of(mech: ExPostMechanism) -> InterimMechanism:
    """Project an ex-post lottery to expected allocations and payments
    through the validating constructor."""
    zero = 0.0 if mech.mode == FLOAT else Fraction(0)
    x, p = [], []
    for v, rows in mech.outcomes.items():
        xa = [zero] * mech.grid.n
        pa = [zero] * mech.grid.n
        for vec_idx, pay, prob in rows:
            vec = mech.fs.vectors[vec_idx]
            for i in range(mech.grid.n):
                if vec[i]:
                    xa[i] += prob
                if pay[i]:
                    pa[i] += prob * pay[i]
        x.append((v, tuple(xa)))
        p.append((v, tuple(pa)))
    return InterimMechanism(mech.grid, x, p)


def reference_check_expost_ir(mech: ExPostMechanism) -> VerifyReport:
    """Under every coin outcome, a winner pays at most his bid and a
    non-winner pays exactly nothing; each profile's outcomes are looked
    up by profile."""
    out = []
    for i in range(mech.grid.n):
        for v in mech.grid.profiles():
            for t, (vec_idx, pay, _prob) in enumerate(mech.outcomes[v]):
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


def reference_check_feasible(mech: InterimMechanism, fs: FeasibilitySystem) -> VerifyReport:
    """Each profile's expected allocation lies in the convex hull of the
    feasible vectors; failures quote a separating certificate."""
    if fs.n != mech.grid.n:
        raise DimensionMismatchError("feasibility system and grid disagree on n")
    out = []
    for v in mech.grid.profiles():
        dec = decompose_allocation(mech.x[v], fs, mech.mode)
        if not dec.in_hull:
            a, b = dec.certificate
            lhs = sum(c * xi for c, xi in zip(a, mech.x[v]))
            out.append(
                Witness(
                    "feasible", None, v, None, "<=", lhs, b,
                    detail=f"separating certificate a={tuple(map(str, a))}, b={b}",
                )
            )
    return VerifyReport.build("feasible", out)


def _reference_column(mech: InterimMechanism, i: int, v: tuple):
    """Own-value sweep of (x_i, p_i) with the other coordinates fixed."""
    xs, ps = [], []
    for g in mech.grid.values[i]:
        q = v[:i] + (g,) + v[i + 1 :]
        xs.append(mech.x[q][i])
        ps.append(mech.p[q][i])
    return xs, ps


def reference_check_extension(mech: InterimMechanism) -> VerifyReport:
    """Truthfulness of the round-down extension to all real values.

    Finitely many conditions cover every off-grid type: (a) grid
    truthfulness; (b) just below each next grid value, the lower outcome
    still beats every menu entry; (c) at the top, the slope is maximal,
    with cheaper payment on ties; (d) below the grid, every menu entry
    has non-positive utility.
    """
    grid = mech.grid
    out = []
    for w in reference_check_truthful(mech).witnesses:
        out_w = Witness(
            "extension", w.bidder, w.profile, w.deviation, w.relation,
            w.lhs, w.rhs, detail="condition a (grid truthfulness)",
        )
        out.append(out_w)
    for i in range(grid.n):
        K = len(grid.values[i])
        for v in grid.profiles():
            k = grid.index(i, v[i])
            xs, ps = _reference_column(mech, i, v)
            if k < K - 1:
                g = grid.values[i][k + 1]
                for j in range(K):
                    if j == k:
                        continue
                    lhs = g * xs[k] - ps[k]
                    rhs = g * xs[j] - ps[j]
                    if violated(lhs, rhs, ">=", mech.mode):
                        out.append(
                            Witness(
                                "extension", i, v, grid.values[i][j], ">=",
                                lhs, rhs,
                                detail=f"condition b (true value just below {g})",
                            )
                        )
            if k == K - 1:
                for j in range(K - 1):
                    if violated(xs[k], xs[j], ">=", mech.mode):
                        out.append(
                            Witness(
                                "extension", i, v, grid.values[i][j], ">=",
                                xs[k], xs[j],
                                detail="condition c (slope above the top value)",
                            )
                        )
                    elif not violated(xs[j], xs[k], ">=", mech.mode):
                        # slopes tie; the top outcome must not cost more
                        if violated(ps[k], ps[j], "<=", mech.mode):
                            out.append(
                                Witness(
                                    "extension", i, v, grid.values[i][j], "<=",
                                    ps[k], ps[j],
                                    detail="condition c (payment at tied top slope)",
                                )
                            )
            if k == 0:
                g = grid.values[i][0]
                for j in range(K):
                    lhs = g * xs[j] - ps[j]
                    if violated(lhs, 0, "<=", mech.mode):
                        out.append(
                            Witness(
                                "extension", i, v, grid.values[i][j], "<=",
                                lhs, 0,
                                detail="condition d (true value below the grid)",
                            )
                        )
    return VerifyReport.build("extension", out)


def reference_check_multi(mech: MultiMechanism) -> VerifyReport:
    """Replay the LP's truthfulness and rationality rows against the
    mechanism tables.

    Walks model.lines in the order of verify.check_truthful (bidder,
    type profile, misreport).  Once per line of bidder i, worth[a][j] is
    type a's expected bundle value under the lottery at the line's j-th
    profile; a misreport keeps the true type at the misreport's lottery,
    and rationality reads the same table's diagonal."""
    inst = mech.inst
    mode = inst.mode
    zero = 0.0 if mode == FLOAT else Fraction(0)
    values = _bundle_values(inst, mech.assignments)
    profiles = list(mech.payments)
    lots, pays = list(mech.lotteries.values()), list(mech.payments.values())
    cache = {}
    ic, ir = [], []
    for i, idx, k, line in lines([len(ts) for ts in inst.types]):
        if k == 0:
            # keyed by the line's first index, which this visit overwrites
            cache[line.start] = [
                [sum((w * vals[a] for a, w in lots[j]), zero) for j in line]
                for vals in values[i]
            ]
        worth = cache[line.start][k]
        t = profiles[idx]
        paid = pays[idx][i]
        truth = worth[k] - paid
        for j, q in enumerate(line):
            if j == k:
                continue
            dev = worth[j] - pays[q][i]
            if violated(truth, dev, ">=", mode):
                ic.append(Witness("multi_ic", i, t, j, ">=", truth, dev))
        if violated(worth[k], paid, ">=", mode):
            ir.append(Witness("multi_ir", i, t, None, ">=", worth[k], paid))
    return VerifyReport.merge(
        VerifyReport.build("multi_ic", ic), VerifyReport.build("multi_ir", ir)
    )


def _reference_witness_value(v, mode: str):
    """A witness field on the wire.  Most witness values are exact
    Fractions, so the string format_number gives one is written here
    first, without the checks and the call."""
    if type(v) is Fraction and mode != FLOAT:
        return str(v)
    if v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, tuple):
        return [_reference_witness_value(c, mode) for c in v]
    return format_number(v, mode)


def _reference_witness_line(w: Witness, mode: str) -> str:
    return dumps_line(
        {
            "bidder": w.bidder,
            "check": w.check,
            "detail": w.detail,
            "deviation": _reference_witness_value(w.deviation, mode),
            "lhs": _reference_witness_value(w.lhs, mode),
            "profile": _reference_witness_value(w.profile, mode),
            "relation": w.relation,
            "rhs": _reference_witness_value(w.rhs, mode),
        }
    )


def reference_write_report(report: VerifyReport, mode: str) -> str:
    """Witness lines followed by one summary line, each line a dict
    encoded by the sorted-key JSON encoder."""
    out = [_reference_witness_line(w, mode) for w in report.witnesses]
    out.append(
        dumps_line(
            {
                "checks": {k: bool(v) for k, v in sorted(report.checks.items())},
                "passed": report.passed,
                "witnesses": len(report.witnesses),
            }
        )
    )
    return "".join(out)

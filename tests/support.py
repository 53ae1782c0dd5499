"""Shared generators and independent cross-check oracles for the tests.

The hull-membership oracle here deliberately avoids the package's LP
machinery: it enumerates vector subsets and solves the barycentric
systems by Gaussian elimination, so decomposition results are checked
against a second, unrelated method.  The reference revenue LP keeps
payments as variables with every truthfulness and rationality
constraint, so the allocation-only LP is checked against the full
formulation it reduces.
"""

import itertools
from fractions import Fraction
from itertools import combinations

from revmax import (
    ExplicitDistribution,
    FeasibilitySystem,
    InterimMechanism,
    MultiItemInstance,
    Valuation,
    ValueGrid,
)
from revmax.lp import EQ, LEQ, LinearProgram, solve


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


def random_feasibility(rng, max_bidders=4, max_vectors=8):
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
    lp = LinearProgram(num_vars, objective, maximize=True)
    if allow_negative_payments:
        for k in range(len(profiles)):
            for i in range(n):
                lp.set_bounds(pay(k, i), None, None)

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


def reference_revenue(dist, fs=None, allow_negative_payments=False):
    """Exact optimum of the reference revenue LP."""
    if fs is None:
        fs = FeasibilitySystem.single_item(dist.grid.n)
    sol = solve(reference_optimal_lp(dist, fs, allow_negative_payments))
    assert sol.status == "optimal", sol.status
    return sol.objective

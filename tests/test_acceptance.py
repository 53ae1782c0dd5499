"""Acceptance suite: ten desk-scale criteria covering the exact solvers,
the verifier, the oracle layer, the multi-item reduction, and the
decomposition, each reported as a single pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import contextlib
import io as std_io
import random
import threading
import time
from fractions import Fraction as F

from revmax import (
    BudgetError,
    ExplicitDistribution,
    ExplicitOracle,
    FeasibilitySystem,
    MultiItemInstance,
    Valuation,
    ValueGrid,
    canonical_expost,
    check_expost_ir,
    check_extension,
    check_feasible,
    check_ir,
    check_truthful,
    decompose_allocation,
    default_budget,
    enumerate_deterministic_optimal,
    first_price,
    interim_of,
    materialize,
    solve_multi,
    solve_optimal,
    vickrey,
    with_budget,
)
from revmax import io as rio
from revmax.cli import main as cli_main
from support import (
    best_posted_price,
    in_hull_by_enumeration,
    random_distribution,
    random_feasibility,
    random_hull_point,
    random_interim,
    random_m1_instance,
    random_multi_instance,
    reference_revenue,
    scale_distribution,
    scale_multi_instance,
    single_item_equivalent,
)

PAIR = ExplicitDistribution.from_support({(1, 1): F(1, 2), (2, 2): F(1, 2)})


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_pair_instance_full_surplus():
    t0 = time.perf_counter()
    lp_revenue = solve_optimal(PAIR).revenue
    t_lp = time.perf_counter() - t0
    t0 = time.perf_counter()
    det_revenue = enumerate_deterministic_optimal(PAIR)[1]
    t_det = time.perf_counter() - t0
    ok = lp_revenue == F(3, 2) and det_revenue == F(3, 2) and t_lp < 1 and t_det < 1
    report(
        1,
        ok,
        f"pair instance: solve={lp_revenue} ({t_lp:.3f}s), "
        f"solve-det={det_revenue} ({t_det:.3f}s)",
    )


def test_criterion_02_single_bidder_equals_posted_price():
    rng = random.Random(102)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        dist = random_distribution(rng, max_bidders=1, max_values=4)
        lp = solve_optimal(dist).revenue
        posted = best_posted_price(dist)
        if lp != posted:
            report(2, False, f"LP {lp} != posted price {posted} on {dist.support}")
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and elapsed < 10
    report(2, ok, f"{checked} single-bidder instances match posted prices "
                  f"({elapsed:.2f}s)")


def test_criterion_03_randomized_dominates_deterministic():
    rng = random.Random(103)
    fs = FeasibilitySystem.single_item(2)
    strict = 0
    for _ in range(50):
        grid = ValueGrid(
            [sorted(rng.sample(range(1, 10), rng.randint(1, 3))) for _ in range(2)]
        )
        dist = random_distribution(rng, grid=grid)
        result = solve_optimal(dist)
        det = enumerate_deterministic_optimal(dist)[1]
        if result.revenue < det:
            report(3, False, f"LP {result.revenue} < deterministic {det}")
        if result.revenue > det:
            strict += 1
        for check in (check_truthful, check_ir):
            if not check(result.interim).passed:
                report(3, False, f"{check.__name__} failed on an LP output")
        if not check_feasible(result.interim, fs).passed:
            report(3, False, "check_feasible failed on an LP output")
    report(3, True, f"50 instances: LP >= deterministic (strictly better on "
                    f"{strict}), all LP outputs verified")


def test_criterion_04_verifier_calibration():
    rng = random.Random(104)
    for trial in range(20):
        grid = ValueGrid(
            [
                sorted(rng.sample(range(1, 10), rng.randint(2, 3)))
                for _ in range(rng.randint(2, 3))
            ]
        )
        good = vickrey(grid).as_interim()
        for check in (check_truthful, check_ir, check_extension):
            if not check(good).passed:
                report(4, False, f"{check.__name__} rejected the truthful baseline")
        bad = first_price(grid).as_interim()
        rep = check_truthful(bad)
        if rep.passed:
            report(4, False, f"first price passed on {grid.values}")
        w = rep.witnesses[0]
        v = w.profile
        dev = v[: w.bidder] + (w.deviation,) + v[w.bidder + 1 :]
        truth = bad.x[v][w.bidder] * v[w.bidder] - bad.p[v][w.bidder]
        lied = bad.x[dev][w.bidder] * v[w.bidder] - bad.p[dev][w.bidder]
        if truth != w.lhs or lied != w.rhs or not truth < lied:
            report(4, False, "witness does not replay")
    report(4, True, "20 grids: truthful baseline passes, first price fails "
                    "with replayable witnesses")


def test_criterion_05_expost_equivalence():
    rng = random.Random(105)
    fs_cache = {}
    for trial in range(50):
        dist = random_distribution(rng, max_bidders=2)
        grid = dist.grid
        mech = random_interim(rng, grid, violate_ir=trial % 3 == 0)
        fs = fs_cache.setdefault(grid.n, FeasibilitySystem.single_item(grid.n))
        ir_ok = check_ir(mech).passed
        ep = canonical_expost(mech, fs)
        ep_ok = check_expost_ir(ep).passed
        if ir_ok != ep_ok:
            report(5, False, f"interim IR {ir_ok} but ex-post IR {ep_ok}")
        if interim_of(ep) != mech:
            report(5, False, "expectation round trip broke")
    report(5, True, "50 mechanisms: ex-post IR iff interim IR, expectation "
                    "round trip exact")


def test_criterion_06_multi_item_reduction(tmp_path):
    rng = random.Random(106)
    for _ in range(20):
        inst = random_m1_instance(rng)
        multi_rev = solve_multi(inst)[1]
        single_rev = solve_optimal(single_item_equivalent(inst)).revenue
        if multi_rev != single_rev:
            report(6, False, f"multi {multi_rev} != single {single_rev}")
    big = Valuation(9, [0] * 511 + [1])
    huge = MultiItemInstance(9, [[big], [big]], {(0, 0): F(1)})
    path = tmp_path / "huge.ndjson"
    path.write_text(rio.write_instance(huge))
    with contextlib.redirect_stderr(std_io.StringIO()):
        code = cli_main(["solve-multi", str(path)])
    ok = code == 3
    report(6, ok, f"20 m=1 instances match the single-item solver exactly; "
                  f"size guard exits {code}")


def test_criterion_07_scaling_homogeneity():
    rng = random.Random(107)
    factors = (2, 3, 5)
    for trial in range(20):
        c = factors[trial % 3]
        dist = random_distribution(rng, max_bidders=2)
        base = solve_optimal(dist).revenue
        scaled = solve_optimal(scale_distribution(dist, F(c))).revenue
        if scaled != c * base:
            report(7, False, f"single-item optimum broke homogeneity at c={c}")
    for trial in range(6):
        c = factors[trial % 3]
        inst = random_multi_instance(rng)
        base = solve_multi(inst)[1]
        scaled = solve_multi(scale_multi_instance(inst, F(c)))[1]
        if scaled != c * base:
            report(7, False, f"multi-item optimum broke homogeneity at c={c}")
    report(7, True, "optimum scales exactly with c in {2,3,5}, single and "
                    "multi item")


def test_criterion_08_oracle_model():
    rng = random.Random(108)
    for _ in range(50):
        dist = random_distribution(rng)
        oracle = ExplicitOracle(dist)
        back = materialize(oracle)
        if back.support != dist.support or back.grid != dist.grid:
            report(8, False, "materialize is not the identity")
        count = 1
        for vi in dist.grid.values:
            count *= len(vi)
        if oracle.ledger.point_queries != count:
            report(8, False, f"query count {oracle.ledger.point_queries} != {count}")
    grid = PAIR.grid
    if default_budget(grid) != 16 * (grid.n + 4) ** 2:
        report(8, False, "default budget formula drifted")
    capped = with_budget(ExplicitOracle(PAIR), 3)
    try:
        materialize(capped)
        report(8, False, "undersized budget did not error")
    except BudgetError:
        pass
    shared = ExplicitOracle(PAIR)
    threads = [
        threading.Thread(
            target=lambda: [shared.query_point((1, 1)) for _ in range(500)]
        )
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    ok = shared.ledger.point_queries == 4000
    report(8, ok, "50 materialize round trips exact, counts exact, budget "
                  f"enforced, concurrent count={shared.ledger.point_queries}")


def test_criterion_09_decomposition():
    rng = random.Random(109)
    for _ in range(100):
        fs = random_feasibility(rng)
        point = random_hull_point(rng, fs)
        dec = decompose_allocation(point, fs)
        if not dec.in_hull or not in_hull_by_enumeration(point, fs):
            report(9, False, f"hull point rejected: {point}")
        if len(dec.terms) > fs.n + 1:
            report(9, False, f"{len(dec.terms)} terms exceed n+1")
        recon = [F(0)] * fs.n
        total = F(0)
        for f, w in dec.terms:
            total += w
            for i in range(fs.n):
                recon[i] += w * fs.vectors[f][i]
        if total != 1 or tuple(recon) != point:
            report(9, False, "decomposition does not reproduce the point")
    outside = 0
    for _ in range(100):
        fs = random_feasibility(rng)
        point = None
        for _attempt in range(20):
            cand = tuple(F(rng.randint(0, 6), 4) for _ in range(fs.n))
            if not in_hull_by_enumeration(cand, fs):
                point = cand
                break
        if point is None:
            # every 0/1 hull misses points with a coordinate above 1
            point = (F(5, 4),) + tuple(F(0) for _ in range(fs.n - 1))
        dec = decompose_allocation(point, fs)
        if dec.in_hull:
            report(9, False, f"non-hull point accepted: {point}")
        a, b = dec.certificate
        if sum(c * x for c, x in zip(a, point)) <= b:
            report(9, False, "certificate does not separate the point")
        if any(sum(c * x for c, x in zip(a, vec)) > b for vec in fs.vectors):
            report(9, False, "certificate cuts off a feasible vector")
        outside += 1
    report(9, True, f"100 hull points decomposed with <= n+1 terms, "
                    f"{outside} outside points certified")


def test_criterion_10_payment_sign_comparison():
    # the allocation-only LP against the full LP with signed payments
    rng = random.Random(110)
    total = F(0)
    for _ in range(50):
        dist = random_distribution(rng, max_bidders=2)
        base = solve_optimal(dist).revenue
        signed = reference_revenue(dist, allow_negative_payments=True)
        if signed != base:
            report(10, False, f"signed reference optimum {signed} != {base}")
        total += base
    report(10, True, f"50 instances: signed-payment reference optimum equals "
                     f"the allocation-only optimum (total {total})")

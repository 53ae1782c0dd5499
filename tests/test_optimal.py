"""Revenue LP construction and solving, the ex-post extraction, and the
convex-hull decomposition with its certificates."""

import itertools
import random
from fractions import Fraction as F

import pytest

from revmax import (
    ExplicitDistribution,
    FeasibilitySystem,
    InterimMechanism,
    ProfileTable,
    ValueGrid,
    build_optimal_lp,
    canonical_expost,
    check_feasible,
    check_ir,
    check_truthful,
    decompose_allocation,
    expected_revenue,
    interim_of,
    solve_optimal,
)
from revmax import io as rio
from revmax.lp import LEQ
from revmax.model import EXACT, FLOAT
from support import (
    binary_distribution,
    in_hull_by_enumeration,
    random_distribution,
    random_feasibility,
    random_hull_point,
    reference_decompose_allocation,
    reference_revenue,
    reference_solve_optimal,
)

PAIR = ExplicitDistribution.from_support({(1, 1): F(1, 2), (2, 2): F(1, 2)})


def test_lp_shape_for_two_by_two():
    fs = FeasibilitySystem.single_item(2)
    lp = build_optimal_lp(PAIR, fs)
    # 4 profiles x 2 nonzero vectors of lottery weight, no payments
    assert lp.num_vars == 8
    # one mass row per profile, then one monotonicity row per adjacent
    # pair on each of the 2 lines of each bidder
    assert all(rel == LEQ for _, rel, _ in lp.constraints)
    assert [rhs for _, _, rhs in lp.constraints] == [1] * 4 + [0] * 4


def test_pair_instance_extracts_full_surplus():
    result = solve_optimal(PAIR)
    assert result.revenue == F(3, 2)
    assert expected_revenue(result.interim, PAIR) == F(3, 2)


def test_feasibility_without_winners_sells_nothing():
    # the LP has no variables: only the zero vector is feasible
    result = solve_optimal(PAIR, FeasibilitySystem(2, [(0, 0)]))
    assert result.revenue == 0
    assert set(result.interim.x.values()) == {(0, 0)}


def test_single_bidder_uniform_two_values():
    dist = ExplicitDistribution.from_support({(1,): F(1, 2), (2,): F(1, 2)})
    assert solve_optimal(dist).revenue == F(1)


def test_solution_passes_its_own_constraints():
    result = solve_optimal(PAIR)
    fs = FeasibilitySystem.single_item(2)
    assert check_truthful(result.interim).passed
    assert check_ir(result.interim).passed
    assert check_feasible(result.interim, fs).passed


def test_expost_form_round_trips_to_interim():
    result = solve_optimal(PAIR)
    expost = canonical_expost(result.interim, FeasibilitySystem.single_item(2))
    assert interim_of(expost) == result.interim


def test_negative_payments_never_hurt():
    # revenue neutrality of the payment sign: the full LP over weights and
    # payments has the same optimum with free payments, and the
    # allocation-only solver reaches it (chain payments are nonnegative)
    rng = random.Random(5)
    for _ in range(10):
        dist = random_distribution(rng, max_bidders=2)
        revenue = solve_optimal(dist).revenue
        assert revenue == reference_revenue(dist)
        assert revenue == reference_revenue(dist, allow_negative_payments=True)


def _reference_instances(rng, count):
    """Single-item systems, random feasibility systems, and single-item
    systems on padded grids, in turn."""
    for case in range(count):
        kind = case % 3
        if kind == 1:
            fs = random_feasibility(rng, max_bidders=3)
        else:
            fs = FeasibilitySystem.single_item(rng.randint(2, 3))
        top = 3 if fs.n < 3 else 2
        grid = ValueGrid(
            [sorted(rng.sample(range(1, 10), rng.randint(2, top))) for _ in range(fs.n)]
        )
        if kind < 2:
            yield random_distribution(rng, grid=grid), fs
            continue
        picked = rng.sample(list(grid.profiles()), rng.randint(1, grid.cells() - 1))
        weights = {v: rng.randint(1, 3) for v in picked}
        total = sum(weights.values())
        support = {v: F(w, total) for v, w in weights.items()}
        yield ExplicitDistribution(grid, support, strict=False), fs


def test_allocation_lp_matches_reference_lp():
    rng = random.Random(21)
    for dist, fs in _reference_instances(rng, 42):
        result = solve_optimal(dist, fs)
        assert result.revenue == reference_revenue(dist, fs)
        grid, x, p = dist.grid, result.interim.x, result.interim.p
        for i in range(grid.n):
            others = [grid.values[j] for j in range(grid.n) if j != i]
            for rest in itertools.product(*others):
                line = [rest[:i] + (w,) + rest[i:] for w in grid.values[i]]
                assert all(x[a][i] <= x[b][i] for a, b in zip(line, line[1:]))
                low = line[0]
                assert p[low][i] == low[i] * x[low][i]
        assert check_truthful(result.interim).passed
        assert check_ir(result.interim).passed
        assert check_feasible(result.interim, fs).passed


def _float_copy(dist):
    grid = ValueGrid([[float(w) for w in vi] for vi in dist.grid.values], FLOAT)
    support = {tuple(float(w) for w in v): float(q) for v, q in dist.support.items()}
    return ExplicitDistribution(grid, support, strict=False)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_solve_optimal_matches_reference(mode):
    # the reference unpacks through lottery dicts and an ex-post mechanism;
    # the solver reads x_i off bidder i's winner columns and must agree to
    # the last bit.  A float distribution is solved exactly as its binary
    # copy: the mechanism is the reference's on that copy rounded by the
    # float constructor, its revenue the float sum over the support, and
    # it passes the float-mode checks
    rng = random.Random(2413)
    for dist, fs in _reference_instances(rng, 120):
        if mode == FLOAT:
            dist = _float_copy(dist)
        got = solve_optimal(dist, fs)
        want = reference_solve_optimal(binary_distribution(dist) if mode == FLOAT else dist, fs)
        grid = dist.grid
        rounded = InterimMechanism(
            grid, ProfileTable(grid, want.interim.x.rows), ProfileTable(grid, want.interim.p.rows)
        )
        assert rio.write_mechanism(got.interim) == rio.write_mechanism(rounded)
        if mode == FLOAT:
            revenue = sum((q * sum(rounded.p[v]) for v, q in dist.support.items()), 0.0)
            assert type(got.revenue) is float and got.revenue.hex() == revenue.hex()
            assert abs(got.revenue - float(want.revenue)) <= 1e-9 * max(1.0, got.revenue)
            assert check_truthful(got.interim).passed
            assert check_ir(got.interim).passed
            assert check_feasible(got.interim, fs).passed
        else:
            assert type(got.revenue) is F and got.revenue == want.revenue
            assert interim_of(want.expost) == got.interim


def test_randomized_weakly_beats_posted_prices():
    # the optimum dominates selling to bidder 0 at either grid price
    dist = ExplicitDistribution.from_support(
        {(1, 1): F(1, 4), (1, 2): F(1, 4), (2, 1): F(1, 4), (2, 2): F(1, 4)}
    )
    opt = solve_optimal(dist).revenue
    assert opt >= F(5, 4)  # best posted price at 1 or 2 earns 1 or 5/4


def test_float_mode_close_to_exact():
    dist = ExplicitDistribution.from_support(
        {(1.0, 1.0): 0.5, (2.0, 2.0): 0.5}, mode="float"
    )
    result = solve_optimal(dist)
    assert abs(result.revenue - 1.5) < 1e-9


def test_decompose_point_inside_hull():
    fs = FeasibilitySystem.single_item(2)
    dec = decompose_allocation((F(1, 2), F(1, 4)), fs)
    assert dec.in_hull
    assert len(dec.terms) <= 3
    total = [F(0), F(0)]
    weight = F(0)
    for f, w in dec.terms:
        weight += w
        for i in range(2):
            total[i] += w * fs.vectors[f][i]
    assert weight == 1
    assert tuple(total) == (F(1, 2), F(1, 4))


def test_decompose_point_outside_hull_gives_certificate():
    fs = FeasibilitySystem.single_item(2)
    dec = decompose_allocation((F(4, 5), F(3, 5)), fs)
    assert not dec.in_hull
    a, b = dec.certificate
    value = sum(c * x for c, x in zip(a, (F(4, 5), F(3, 5))))
    assert value > b
    for vec in fs.vectors:
        assert sum(c * x for c, x in zip(a, vec)) <= b


def test_decompose_matches_subset_enumeration():
    rng = random.Random(9)
    for _ in range(25):
        fs = random_feasibility(rng)
        point = random_hull_point(rng, fs)
        dec = decompose_allocation(point, fs)
        assert dec.in_hull
        assert in_hull_by_enumeration(point, fs)


def _separates(cert, point, fs):
    a, b = cert
    return sum(c * x for c, x in zip(a, point)) - b == 1 and all(
        sum(c * f for c, f in zip(a, vec)) <= b for vec in fs.vectors
    )


def test_decompose_matches_two_phase_reference():
    # the hull LP's objective is phase 1's cost plus a row-space vector,
    # so it takes phase 1's pivots to the same weights; outside the hull
    # its dual gives a certificate normalized like the separation LP's
    rng = random.Random(1011)
    cases = []
    for _ in range(150):
        fs = random_feasibility(rng, max_bidders=4, max_vectors=9)
        cases.append((random_hull_point(rng, fs), fs))
        point = tuple(F(rng.randint(-1, 9), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(fs.n))
        cases.append((point, fs))
    outside = 0
    for point, fs in cases:
        got, want = decompose_allocation(point, fs), reference_decompose_allocation(point, fs)
        assert got.in_hull == want.in_hull == in_hull_by_enumeration(point, fs)
        assert decompose_allocation(tuple(map(float, point)), fs, FLOAT).in_hull == got.in_hull
        if got.in_hull:
            assert got.terms == want.terms
        else:
            assert _separates(got.certificate, point, fs)
            assert _separates(want.certificate, point, fs)
            outside += 1
    assert 100 <= outside <= 200


def test_float_decompose_rounds_the_exact_decomposition():
    # a float point is decomposed exactly at its binary values, with the
    # hull tolerance 1e-7 on the exact gap: where that binary point is in
    # the hull the terms are the reference's weights on it, rounded; any
    # float answer reproduces the point, or separates it, within 1e-7
    rng = random.Random(1011)
    exact_terms = outside = 0
    for _ in range(150):
        fs = random_feasibility(rng, max_bidders=4, max_vectors=9)
        hull = random_hull_point(rng, fs)
        other = tuple(F(rng.randint(-1, 9), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(fs.n))
        for point in (hull, other):
            fpoint = tuple(map(float, point))
            got = decompose_allocation(fpoint, fs, FLOAT)
            assert got.in_hull == in_hull_by_enumeration(point, fs)
            want = reference_decompose_allocation(tuple(map(F, fpoint)), fs)
            if want.in_hull:
                assert got.terms == tuple((f, float(w)) for f, w in want.terms)
                exact_terms += 1
            if got.in_hull:
                assert all(type(w) is float and w > 0 for _, w in got.terms)
                assert abs(sum(w for _, w in got.terms) - 1) <= 1e-7
                for i, c in enumerate(fpoint):
                    hit = sum(w for f, w in got.terms if fs.vectors[f][i])
                    assert abs(hit - c) <= 1e-7
            else:
                a, b = got.certificate
                assert all(type(c) is float for c in a + (b,))
                assert abs(sum(c * x for c, x in zip(a, fpoint)) - b - 1) <= 1e-7
                assert all(sum(c * f for c, f in zip(a, vec)) <= b + 1e-7 for vec in fs.vectors)
                outside += 1
    assert exact_terms >= 50 and outside >= 100


def test_decompose_dimension_mismatch():
    fs = FeasibilitySystem.single_item(2)
    with pytest.raises(Exception):
        decompose_allocation((F(1),), fs)


def test_solver_handles_padded_grids():
    # a zero-probability grid value changes nothing
    grid = ValueGrid([[1, 2, 3], [1, 2]])
    dist = ExplicitDistribution(
        grid, {(1, 1): F(1, 2), (2, 2): F(1, 2)}, strict=False
    )
    assert solve_optimal(dist).revenue >= F(3, 2)

"""Deterministic enumeration: critical payments, the exhaustive search
over monotone winner rules, size guards, and agreement with the LP."""

import random
from fractions import Fraction as F

import pytest

from revmax import (
    DeterministicMechanism,
    EnumLimits,
    ExplicitDistribution,
    ProfileTable,
    SizeLimitError,
    ValueGrid,
    check_extension,
    check_ir,
    check_truthful,
    critical_payment,
    enumerate_deterministic_optimal,
    expected_revenue,
    solve_optimal,
    vickrey,
)
from revmax import io as rio
from revmax.model import EXACT, FLOAT


def test_critical_payment_is_min_winning_value():
    grid = ValueGrid([[1, 2], [1, 2]])
    mech = vickrey(grid)
    assert critical_payment(mech, grid, (1, 1), 0) == F(1)
    assert critical_payment(mech, grid, (2, 1), 0) == F(1)
    # at (1, 2) the tie-break hands the item to bidder 1, so bidder 1's
    # critical value there is its own lowest winning report
    assert critical_payment(mech, grid, (1, 2), 1) == F(2)
    assert critical_payment(mech, grid, (2, 2), 0) == F(2)


def test_critical_payment_with_callable_winner():
    grid = ValueGrid([[1, 2, 5]])

    def w(profile):
        return (1,) if profile[0] >= 2 else (0,)

    assert critical_payment(w, grid, (5,), 0) == F(2)


def test_pair_instance_recovers_lookahead_rule():
    dist = ExplicitDistribution.from_support({(1, 1): F(1, 2), (2, 2): F(1, 2)})
    mech, revenue = enumerate_deterministic_optimal(dist)
    assert revenue == F(3, 2)
    assert mech.winner((1, 1)) == 0
    assert mech.winner((2, 1)) == 0
    assert mech.winner((2, 2)) == 0
    assert mech.winner((1, 2)) is None
    assert mech.payments[(F(1), F(1))] == (F(1), F(0))
    assert mech.payments[(F(2), F(2))] == (F(2), F(0))


def test_enumeration_output_is_truthful():
    from support import random_search_instance

    rng = random.Random(3)
    for _ in range(40):
        dist, fs = random_search_instance(rng, max_candidates=1_000_000)
        mech, revenue = enumerate_deterministic_optimal(dist, fs)
        interim = mech.as_interim()
        assert check_truthful(interim).passed
        assert check_ir(interim).passed
        assert check_extension(interim).passed
        assert expected_revenue(interim, dist) == revenue


def test_deterministic_never_beats_lp():
    from support import random_search_instance

    rng = random.Random(4)
    for _ in range(40):
        dist, fs = random_search_instance(rng, max_candidates=1_000_000)
        det = enumerate_deterministic_optimal(dist, fs)[1]
        assert solve_optimal(dist, fs).revenue >= det


def test_cells_guard():
    grid = ValueGrid([[1, 2, 3, 4], [1, 2, 3, 4]])
    dist = ExplicitDistribution(
        grid, {(v, v): F(1, 4) for v in (1, 2, 3, 4)}, strict=False
    )
    with pytest.raises(SizeLimitError):
        enumerate_deterministic_optimal(dist, limits=EnumLimits(max_cells=8))


def test_candidate_count_guard():
    # 9 cells stay under the cell cap, but 3^9 candidate rules do not
    grid = ValueGrid([[1, 2, 3], [1, 2, 3]])
    support = {(v, v): F(1, 3) for v in (1, 2, 3)}
    dist = ExplicitDistribution(grid, support, strict=False)
    with pytest.raises(SizeLimitError):
        enumerate_deterministic_optimal(
            dist, limits=EnumLimits(max_candidates=100)
        )


def test_single_bidder_equals_posted_price():
    from support import best_posted_price, random_distribution

    rng = random.Random(12)
    for _ in range(15):
        dist = random_distribution(rng, max_bidders=1, max_values=3)
        revenue = enumerate_deterministic_optimal(dist)[1]
        assert revenue == best_posted_price(dist)


def test_revenue_ties_keep_first_lexicographic_candidate():
    # a point mass ties every rule that extracts the full value
    dist = ExplicitDistribution.from_support({(3,): F(1)})
    mech, revenue = enumerate_deterministic_optimal(dist)
    assert revenue == F(3)
    assert mech.winner((3,)) == 0
    assert mech.payments[(F(3),)] == (F(3),)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_search_matches_reference(mode):
    # the reference walks the whole support at each complete rule: same
    # first optimum byte for byte, same revenue.  A float instance is
    # searched exactly: its output is the rounding of the reference's on
    # the instance's binary copy, and passes the float-mode checks
    from support import (
        binary_distribution,
        random_search_instance,
        reference_enumerate_deterministic_optimal,
    )

    for seed in range(200):
        dist, fs = random_search_instance(random.Random(seed), mode)
        mech, revenue = enumerate_deterministic_optimal(dist, fs)
        exact = binary_distribution(dist) if mode == FLOAT else dist
        ref_mech, ref_revenue = reference_enumerate_deterministic_optimal(exact, fs)
        grid = dist.grid
        want = DeterministicMechanism(
            grid, fs, ProfileTable(grid, ref_mech.choice.rows),
            ProfileTable(grid, ref_mech.payments.rows),
        )
        assert rio.write_mechanism(mech) == rio.write_mechanism(want), seed
        if mode == FLOAT:
            assert type(revenue) is float and revenue == float(ref_revenue), seed
            interim = mech.as_interim()
            assert check_truthful(interim).passed and check_ir(interim).passed, seed
        else:
            assert revenue == ref_revenue, seed

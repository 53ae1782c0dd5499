"""Core model types: grids, distributions, feasibility systems, the three
mechanism representations, and the revenue/ratio/execution operations."""

import itertools
import random
from fractions import Fraction as F

import pytest

from revmax import (
    DeterministicMechanism,
    DimensionMismatchError,
    ExPostMechanism,
    ExplicitDistribution,
    ExplicitOracle,
    FeasibilitySystem,
    InterimMechanism,
    InvalidInputError,
    MultiItemInstance,
    NonRepresentableError,
    ProfileTable,
    UndefinedRatioError,
    Valuation,
    ValueGrid,
    approximation_ratio,
    build_multi_lp,
    canonical_expost,
    execute,
    expected_revenue,
    interim_of,
    materialize,
    second_price,
    solve_optimal,
    zero_mechanism,
)
from revmax import model as model_module
from revmax.model import EXACT, FLOAT, _check_table_domain, convert, lines
from support import (
    random_distribution,
    random_feasibility,
    random_grid,
    random_interim,
    reference_as_interim,
    reference_check_table_domain,
    reference_distribution_support,
    reference_interim_of,
)

PAIR = {(1, 1): F(1, 2), (2, 2): F(1, 2)}


def pair_dist():
    return ExplicitDistribution.from_support(PAIR)


def test_grid_basic_construction():
    grid = ValueGrid([[1, 2], [3]])
    assert grid.n == 2
    assert grid.cells() == 2
    assert grid.values == ((F(1), F(2)), (F(3),))


def test_grid_rejects_unsorted_duplicate_negative():
    with pytest.raises(InvalidInputError):
        ValueGrid([[2, 1]])
    with pytest.raises(InvalidInputError):
        ValueGrid([[1, 1]])
    with pytest.raises(InvalidInputError):
        ValueGrid([[-1, 1]])
    with pytest.raises(InvalidInputError):
        ValueGrid([])


def test_grid_profiles_lexicographic():
    grid = ValueGrid([[1, 2], [5, 7]])
    assert list(grid.profiles()) == [
        (F(1), F(5)),
        (F(1), F(7)),
        (F(2), F(5)),
        (F(2), F(7)),
    ]
    assert grid.index(0, F(2)) == 1
    assert grid.on_grid((F(2), F(5)))
    assert not grid.on_grid((F(2), F(6)))


def test_grid_rejects_float_in_exact_mode():
    with pytest.raises(InvalidInputError):
        ValueGrid([[0.5, 1.5]])


def test_distribution_requires_unit_total():
    grid = ValueGrid([[1, 2]])
    with pytest.raises(InvalidInputError):
        ExplicitDistribution(grid, {(1,): F(1, 2), (2,): F(1, 3)})


def test_distribution_rejects_off_grid_and_duplicates():
    grid = ValueGrid([[1, 2]])
    with pytest.raises(InvalidInputError):
        ExplicitDistribution(grid, {(3,): F(1)})
    with pytest.raises(InvalidInputError):
        ExplicitDistribution(grid, [((1,), F(1, 2)), ((1,), F(1, 2))])


def test_distribution_grid_is_marginal_support():
    grid = ValueGrid([[1, 2], [1, 2]])
    with pytest.raises(InvalidInputError):
        ExplicitDistribution(grid, {(1, 1): F(1, 2), (2, 1): F(1, 2)})
    padded = ExplicitDistribution(
        grid, {(1, 1): F(1, 2), (2, 1): F(1, 2)}, strict=False
    )
    assert padded.prob((1, 2)) == 0


def test_distribution_from_support_derives_grid():
    dist = pair_dist()
    assert dist.grid.values == ((F(1), F(2)), (F(1), F(2)))
    assert dist.prob((1, 1)) == F(1, 2)
    assert dist.prob((1, 2)) == 0


def test_distribution_support_in_canonical_order():
    dist = ExplicitDistribution.from_support(
        [((2, 2), F(1, 2)), ((1, 1), F(1, 2))]
    )
    assert list(dist.support) == [(F(1), F(1)), (F(2), F(2))]


class _Unhashable(F):
    """A rational that cannot be hashed, so it is on no grid."""

    __hash__ = None


def _support_case(rng, mode):
    """(grid, support, strict) with the support in shuffled order and
    entries as ints, strings or Fractions; a padded grid (a value no
    profile uses) half the time, then zero to two faults: a wrong-length,
    off-grid or (exact mode) unhashable profile, a repeated profile, a
    non-positive or wrong probability, or an empty table."""
    n = rng.randint(1, 3)
    cols = [sorted(rng.sample(range(0, 9), rng.randint(1, 3))) for _ in range(n)]
    picked = [v for v in itertools.product(*cols) if rng.random() < 0.7]
    picked = picked or [tuple(c[0] for c in cols)]
    if rng.random() < 0.5:
        cols = [sorted(c + [max(c) + rng.randint(1, 3)]) for c in cols]
    weights = [rng.randint(1, 5) for _ in picked]
    spell = [int, str, F]
    support = [
        (tuple(rng.choice(spell)(c) for c in v), f"{w}/{sum(weights)}")
        for v, w in zip(picked, weights)
    ]
    rng.shuffle(support)
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randrange(len(support))
        v, q = support[at]
        fault = rng.randrange(7)
        if fault == 0:
            v = v + (v[0],) if rng.random() < 0.5 else v[:-1]
        elif fault == 1:
            v = v[:-1] + (rng.choice([F(1, 7), 9, "-1"]),)
        elif fault == 2 and mode == EXACT:
            v = v[:-1] + (_Unhashable(v[-1]),)
        elif fault == 3:
            support.insert(rng.randrange(len(support) + 1), (v, q))
        elif fault == 4:
            q = rng.choice(["0", "-1/3", 0])
        elif fault == 5:
            q = q + "1"
        elif fault == 6:
            support = []
            break
        support[at] = (v, q)
    return ValueGrid(cols, mode), support, rng.random() < 0.7


_FAULTS = {
    "dimension": "entries, grid has",
    "off grid": "is off the grid",
    "unhashable": "_Unhashable(",
    "duplicate": "duplicate support profile",
    "non-positive": "is not positive",
    "empty": "empty support",
    "sum": "support probabilities sum to",
    "missing value": "appears in no support profile",
}


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_distribution_build_matches_reference(mode):
    """The flat-index build gives the profile-keyed reference's support
    table, in the same order with the same key and probability types, or
    raises the same exception with the same message, whichever fault of
    a support comes first."""
    rng = random.Random(77)
    seen = set()
    for _ in range(400):
        grid, support, strict = _support_case(rng, mode)
        try:
            want = reference_distribution_support(grid, support, strict)
        except (InvalidInputError, DimensionMismatchError) as exc:
            with pytest.raises(type(exc)) as got:
                ExplicitDistribution(grid, support, strict=strict)
            assert str(got.value) == str(exc)
            seen.update(kind for kind, text in _FAULTS.items() if text in str(exc))
            continue
        dist = ExplicitDistribution(grid, support, strict=strict)
        assert list(dist.support.items()) == list(want.items())
        assert [tuple(map(type, v)) + (type(q),) for v, q in dist.support.items()] == [
            tuple(map(type, v)) + (type(q),) for v, q in want.items()
        ]
        seen.add("strict" if strict else "padded")
    expected = set(_FAULTS) | {"strict", "padded"}
    if mode == FLOAT:
        expected.discard("unhashable")
    assert seen == expected


def test_feasibility_single_item():
    fs = FeasibilitySystem.single_item(3)
    assert len(fs.vectors) == 4
    assert fs.is_single_item()
    assert fs.vectors[fs.zero_index] == (0, 0, 0)
    assert fs.vectors[fs.winner_index(1)] == (0, 1, 0)


def test_is_single_item_is_a_direct_test():
    assert FeasibilitySystem(1, [(1,), (0,)]).is_single_item()
    assert FeasibilitySystem(3, [(0, 1, 0), (0, 0, 0), (0, 0, 1), (1, 0, 0)]).is_single_item()
    two_units = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    assert not FeasibilitySystem(3, two_units).is_single_item()
    assert not FeasibilitySystem(3, [(0, 0, 0), (1, 0, 0), (0, 0, 1)]).is_single_item()
    assert not FeasibilitySystem(2, [(0, 0), (1, 0), (1, 1)]).is_single_item()


def test_feasibility_rejects_bad_vectors():
    with pytest.raises(InvalidInputError):
        FeasibilitySystem(2, [(0, 0), (0, 2)])
    with pytest.raises(InvalidInputError):
        FeasibilitySystem(2, [(1, 0)])  # all-zero vector required
    with pytest.raises(InvalidInputError):
        FeasibilitySystem(2, [(0, 0), (1, 0), (1, 0)])
    with pytest.raises(DimensionMismatchError):
        FeasibilitySystem(2, [(0, 0), (1,)])


def test_interim_requires_full_grid():
    grid = ValueGrid([[1, 2]])
    with pytest.raises(InvalidInputError):
        InterimMechanism(grid, {(1,): (F(1),)}, {(1,): (F(0),)})


def test_interim_rejects_allocation_outside_unit_interval():
    grid = ValueGrid([[1]])
    with pytest.raises(InvalidInputError):
        InterimMechanism(grid, {(1,): (F(3, 2),)}, {(1,): (F(0),)})


def test_expost_outcome_probabilities_sum_to_one():
    grid = ValueGrid([[1]])
    fs = FeasibilitySystem.single_item(1)
    with pytest.raises(InvalidInputError):
        ExPostMechanism(grid, fs, {(1,): [(0, (F(0),), F(1, 2))]})
    with pytest.raises(InvalidInputError):
        ExPostMechanism(grid, fs, {(1,): [(7, (F(0),), F(1))]})


def test_deterministic_non_winner_pays_zero():
    grid = ValueGrid([[1], [1]])
    fs = FeasibilitySystem.single_item(2)
    with pytest.raises(InvalidInputError):
        DeterministicMechanism(
            grid,
            fs,
            {(1, 1): fs.winner_index(0)},
            {(1, 1): (F(1), F(1))},
        )


def test_deterministic_off_grid_payment_row_is_input_error():
    # the winner lookup of the non-winner check used to raise KeyError
    grid = ValueGrid([[1, 2]])
    fs = FeasibilitySystem.single_item(1)
    choice = {(1,): 0, (2,): 1}
    pays = {(1,): (0,), (2,): (1,)}
    for extra in ({(3,): (1,)}, {(2, 1): (0,)}, {(F(1, 2),): (1,)}):
        for table in ({**pays, **extra}, {(1,): (0,), **extra}):
            with pytest.raises(InvalidInputError) as got:
                DeterministicMechanism(grid, fs, choice, table)
            with pytest.raises(InvalidInputError) as want:
                keyed = {tuple(map(F, v)): row for v, row in table.items()}
                _check_table_domain(grid, keyed, "payment table")
            assert str(got.value) == str(want.value)


def test_repeated_table_pair_is_input_error():
    # pairs are read like a file's lines: a second row for one profile is
    # rejected, not kept in place of the first
    grid = ValueGrid([[1, 2], [1, 2]])
    det = second_price(grid)
    interim = det.as_interim()
    expost = det.as_expost()

    def repeat(table, value):
        pairs = list(table.items())
        return pairs[:2] + [(pairs[1][0], value)] + pairs[2:]

    builds = [
        lambda: InterimMechanism(grid, repeat(interim.x, (F(0), F(0))), interim.p),
        lambda: InterimMechanism(grid, interim.x, repeat(interim.p, (F(0), F(0)))),
        lambda: ExPostMechanism(
            grid, det.fs, repeat(expost.outcomes, ((0, (F(0), F(0)), F(1)),))
        ),
        lambda: DeterministicMechanism(grid, det.fs, repeat(det.choice, 0), det.payments),
        lambda: DeterministicMechanism(
            grid, det.fs, det.choice, repeat(det.payments, (F(0), F(0)))
        ),
    ]
    for build in builds:
        with pytest.raises(InvalidInputError) as got:
            build()
        assert "repeats profile (1, 2)" in str(got.value)
    # the same pairs without the repeat are accepted
    assert InterimMechanism(grid, list(interim.x.items()), interim.p) == interim


def test_deterministic_winner_and_conversions():
    grid = ValueGrid([[1, 2], [1, 2]])
    mech = second_price(grid)
    assert mech.winner((2, 1)) == 0
    interim = mech.as_interim()
    assert interim.x[(2, 1)] == (F(1), F(0))
    assert interim.p[(2, 1)] == (F(1), F(0))
    expost = mech.as_expost()
    assert expost.outcomes[(2, 1)] == (
        (mech.fs.winner_index(0), (F(1), F(0)), F(1)),
    )


def test_zero_mechanism_revenue_is_zero():
    dist = pair_dist()
    mech = zero_mechanism(dist.grid).as_interim()
    assert expected_revenue(mech, dist) == 0


def test_second_price_revenue_on_uniform_square():
    dist = ExplicitDistribution.from_support(
        {(a, b): F(1, 4) for a in (1, 2) for b in (1, 2)}
    )
    mech = second_price(dist.grid).as_interim()
    assert expected_revenue(mech, dist) == F(5, 4)


def test_sell_to_first_at_second_bid_revenue():
    dist = pair_dist()
    grid = dist.grid
    x = {v: (F(1), F(0)) for v in grid.profiles()}
    p = {v: (v[1], F(0)) for v in grid.profiles()}
    mech = InterimMechanism(grid, x, p)
    assert expected_revenue(mech, dist) == F(3, 2)


def test_expected_revenue_rejects_grid_mismatch():
    dist = pair_dist()
    other = ValueGrid([[1, 2], [1, 3]])
    mech = zero_mechanism(other).as_interim()
    with pytest.raises(DimensionMismatchError):
        expected_revenue(mech, dist)


def test_approximation_ratio_is_opt_over_mechanism():
    assert approximation_ratio(F(1), F(3, 2)) == F(3, 2)
    assert approximation_ratio(F(3, 2), F(3, 2)) == 1
    assert approximation_ratio(F(0), F(0)) == 1
    with pytest.raises(UndefinedRatioError):
        approximation_ratio(F(0), F(3, 2))


def test_canonical_expost_splits_mass_and_charges_conditionally():
    grid = ValueGrid([[2], [4]])
    mech = InterimMechanism(
        grid,
        {(2, 4): (F(1, 2), F(1, 4))},
        {(2, 4): (F(1, 2), F(1, 2))},
    )
    fs = FeasibilitySystem.single_item(2)
    ep = canonical_expost(mech, fs)
    rows = ep.outcomes[(F(2), F(4))]
    assert rows == (
        (fs.winner_index(0), (F(1), F(0)), F(1, 2)),
        (fs.winner_index(1), (F(0), F(2)), F(1, 4)),
        (fs.zero_index, (F(0), F(0)), F(1, 4)),
    )
    assert interim_of(ep) == mech


def test_canonical_expost_rejects_charging_non_winner():
    grid = ValueGrid([[2]])
    mech = InterimMechanism(grid, {(2,): (F(0),)}, {(2,): (F(1),)})
    with pytest.raises(NonRepresentableError):
        canonical_expost(mech, FeasibilitySystem.single_item(1))


def test_canonical_expost_round_trip_random():
    rng = random.Random(7)
    for _ in range(40):
        dist = random_distribution(rng)
        mech = random_interim(rng, dist.grid)
        ep = canonical_expost(mech, FeasibilitySystem.single_item(dist.grid.n))
        assert interim_of(ep) == mech


def _random_deterministic(rng, mode):
    """A random winner and payment per profile over a random feasibility
    system; winners pay 0, half or all of their value, and in float mode
    non-winners sometimes pay -0.0."""
    grid = ValueGrid(random_grid(rng).values, mode)
    fs = random_feasibility(rng, n=grid.n)
    conv = float if mode == FLOAT else F
    unpaid = [conv(0), -0.0] if mode == FLOAT else [F(0)]
    choice, pay = {}, {}
    for v in grid.profiles():
        idx = rng.randrange(len(fs.vectors))
        choice[v] = idx
        pay[v] = tuple(
            conv(rng.choice([0, F(c) / 2, F(c)])) if won else rng.choice(unpaid)
            for c, won in zip(v, fs.vectors[idx])
        )
    return DeterministicMechanism(grid, fs, choice, pay)


def _random_lottery(rng, mode):
    """One to three outcomes per profile over a random feasibility
    system; winners pay 0, a third or all of their value."""
    grid = ValueGrid(random_grid(rng).values, mode)
    fs = random_feasibility(rng, n=grid.n)
    conv = float if mode == FLOAT else F
    outcomes = {}
    for v in grid.profiles():
        weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        rows = []
        for w in weights:
            idx = rng.randrange(len(fs.vectors))
            pay = tuple(
                conv(rng.choice([0, F(c) / 3, F(c)])) if won else conv(0)
                for c, won in zip(v, fs.vectors[idx])
            )
            rows.append((idx, pay, conv(F(w, sum(weights)))))
        outcomes[v] = rows
    return ExPostMechanism(grid, fs, outcomes)


def _assert_same_tables(got, want):
    """Same keys in the same order, and the same values down to their
    types and float signs."""
    assert type(got) is InterimMechanism
    assert got.grid == want.grid and got.mode == want.mode
    for table, ref in ((got.x, want.x), (got.p, want.p)):
        assert list(table) == list(ref)
        assert [list(map(repr, row)) for row in table.values()] == [
            list(map(repr, row)) for row in ref.values()
        ]
    assert got == want


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_direct_interim_projections_match_the_validating_constructor(mode):
    """as_interim and interim_of build their tables directly; the
    constructor, given the same rows, builds the same ones."""
    rng = random.Random(1616)
    for _ in range(40):
        det = _random_deterministic(rng, mode)
        _assert_same_tables(det.as_interim(), reference_as_interim(det))
        lottery = _random_lottery(rng, mode)
        _assert_same_tables(interim_of(lottery), reference_interim_of(lottery))
        expost = det.as_expost()
        _assert_same_tables(interim_of(expost), reference_interim_of(expost))
    grid = ValueGrid([[1, 2], [1, 2]], mode)
    second = second_price(grid)
    _assert_same_tables(second.as_interim(), reference_as_interim(second))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_expost_revenue_matches_the_interim_projection(mode, monkeypatch):
    """expected_revenue of an ex-post lottery equals that of its interim
    projection, down to the type and the float bits; exact mode sums the
    support's outcomes alone, without projecting the other profiles."""
    rng = random.Random(2424)
    pairs = []
    for _ in range(60):
        lottery = _random_lottery(rng, mode)
        dist = random_distribution(rng, grid=lottery.grid)
        pairs.append((lottery, dist, expected_revenue(interim_of(lottery), dist)))
    if mode == EXACT:
        monkeypatch.setattr(model_module, "interim_of", None)
    for lottery, dist, want in pairs:
        got = expected_revenue(lottery, dist)
        assert (type(got), repr(got)) == (type(want), repr(want))


def test_float_winning_probability_just_over_one_is_input_error():
    """The lottery accepts probabilities summing to 1 within 1e-12; a
    bidder winning with all of them then has an allocation over 1, which
    the projection still rejects."""
    grid = ValueGrid([[1]], FLOAT)
    fs = FeasibilitySystem.single_item(1)
    win = fs.winner_index(0)
    mech = ExPostMechanism(
        grid, fs, {(1.0,): [(win, (0.0,), 0.5), (win, (0.0,), 0.5 + 4e-13)]}
    )
    assert sum(prob for _, _, prob in mech.outcomes[(1.0,)]) > 1
    for project in (interim_of, reference_interim_of):
        with pytest.raises(InvalidInputError, match=r"allocation outside \[0,1\]"):
            project(mech)


def test_mode_comes_from_the_grid():
    """The arithmetic mode is chosen where raw numbers are first converted
    (a grid, a multi-item instance); the objects built on them and the
    solvers given them read it there and take no mode of their own."""
    # a float distribution solves in float with no further argument
    dist = ExplicitDistribution.from_support({(1.0,): 0.5, (2.0,): 0.5}, mode=FLOAT)
    result = solve_optimal(dist)
    assert result.interim.mode == FLOAT
    assert type(result.revenue) is float and result.revenue == 1.0

    # a distribution on a float grid is a float distribution
    grid = ValueGrid([[1.0, 2.0]], FLOAT)
    dist = ExplicitDistribution(grid, {(1.0,): 0.5, (2.0,): 0.5})
    assert dist.mode == FLOAT
    assert {type(c) for v, q in dist.support.items() for c in v + (q,)} == {float}
    assert materialize(ExplicitOracle(dist)).mode == FLOAT

    # profiles are read in the grid's mode, and there is no second mode to pass
    grid = ValueGrid([["1/3", "1"]])
    support = {("1/3",): "1/2", ("1",): "1/2"}
    with pytest.raises(TypeError):
        ExplicitDistribution(grid, support, FLOAT)
    dist = ExplicitDistribution(grid, support)
    assert dist.mode == EXACT
    assert list(dist.support.items()) == [((F(1, 3),), F(1, 2)), ((F(1),), F(1, 2))]

    # an exact distribution solves exactly: the interim's mode, profile
    # keys and entries agree
    result = solve_optimal(pair_dist())
    assert result.interim.mode == EXACT and type(result.revenue) is F
    tables = (result.interim.x, result.interim.p)
    assert {type(c) for t in tables for v, row in t.items() for c in v + row} == {F}
    with pytest.raises(TypeError):
        solve_optimal(pair_dist(), None, FLOAT)

    # mechanisms on a float grid are float mechanisms
    grid = ValueGrid([[1.0, 2.0]], FLOAT)
    fs = FeasibilitySystem.single_item(1)
    choice = {(1.0,): fs.zero_index, (2.0,): fs.winner_index(0)}
    x = {(1.0,): (0.0,), (2.0,): (1.0,)}
    pay = {(1.0,): (0.0,), (2.0,): (2.0,)}
    det = DeterministicMechanism(grid, fs, choice, pay)
    interim = InterimMechanism(grid, x, pay)
    assert interim == det.as_interim() == interim_of(det.as_expost())
    for mech in (det, interim, det.as_expost(), canonical_expost(interim, fs)):
        assert mech.mode == FLOAT
    with pytest.raises(TypeError):
        InterimMechanism(grid, x, pay, FLOAT)

    # the multi-item LP takes the instance's numbers: its masses are floats
    inst = MultiItemInstance(1, [[Valuation(1, [0.0, 1.0], FLOAT)]], {(0,): 1.0}, FLOAT)
    assert {type(c) for c in build_multi_lp(inst).objective if c} == {float}


def test_execute_is_deterministic_and_rounds_down():
    grid = ValueGrid([[1, 2], [1, 2]])
    ep = second_price(grid).as_expost()
    first = execute(ep, [F(5, 2), F(3, 2)], seed=11)
    again = execute(ep, [F(5, 2), F(3, 2)], seed=11)
    assert first == again
    vec, pay = first
    # bids round down to (2, 1): bidder 0 wins at the competing value
    assert vec == (1, 0)
    assert pay == (F(1), F(0))


def test_execute_excludes_below_grid_bidders():
    grid = ValueGrid([[2, 3], [2, 3]])
    ep = second_price(grid).as_expost()
    # bidder 0 is below the grid; the profile reads (2, 2), where he would
    # win, so that outcome collapses to the zero vector with no charges
    vec, pay = execute(ep, [F(1), F(5, 2)], seed=3)
    assert vec == (0, 0)
    assert pay == (F(0), F(0))
    # at (2, 3) bidder 1 wins outright, so his outcome survives exclusion
    vec, pay = execute(ep, [F(1), F(3)], seed=3)
    assert vec == (0, 1)
    assert pay == (F(0), F(2))
    vec, pay = execute(ep, [F(1), F(1)], seed=3)
    assert vec == (0, 0)
    assert pay == (F(0), F(0))


def test_execute_rejects_negative_bids():
    grid = ValueGrid([[1]])
    ep = second_price(grid).as_expost()
    with pytest.raises(InvalidInputError):
        execute(ep, [F(-1)], seed=0)


def test_lines_matches_tuple_definition():
    rng = random.Random(5)
    cases = [[1], [3], [1, 1, 1, 1], [2, 1, 3], [3, 1, 2, 1]]
    cases += [[rng.randint(1, 3) for _ in range(rng.randint(1, 4))] for _ in range(60)]
    for sizes in cases:
        profiles = list(itertools.product(*(range(s) for s in sizes)))
        expected = []
        for i in range(len(sizes)):
            for idx, v in enumerate(profiles):
                rest = v[:i] + v[i + 1 :]
                line = [
                    q for q, u in enumerate(profiles) if u[:i] + u[i + 1 :] == rest
                ]
                line.sort(key=lambda q: profiles[q][i])
                expected.append((i, idx, v[i], line))
        got = [(i, idx, k, list(line)) for i, idx, k, line in lines(sizes)]
        assert got == expected, sizes


def _outcome(call):
    try:
        value = call()
    except Exception as exc:  # the error class is the outcome compared
        return type(exc), None
    return type(value), value


def test_table_domain_matches_reference_in_any_order():
    grid = ValueGrid([[0, F(1, 2), 3], [1, 2], [F(7, 3)]])
    profiles = list(grid.profiles())
    rng = random.Random(11)
    off = (F(1, 2), F(3), F(7, 3))

    def fresh(v):  # new key objects, as a file reader builds them
        return tuple(F(c.numerator, c.denominator) for c in v)

    orders = [profiles] + [rng.sample(profiles, len(profiles)) for _ in range(8)]
    tables = [{fresh(v): ("row", v) for v in order} for order in orders]
    tables.append({fresh(v): 0 for v in profiles[:-1]})  # missing profile
    tables.append({fresh(v): 0 for v in profiles + [off]})  # off-grid profile
    tables.append({fresh(v): 0 for v in profiles[:-1] + [off]})
    tables.append({fresh(v): 0 for v in profiles[::-1] + [off]})
    for table in tables:
        try:
            want = reference_check_table_domain(grid, table, "test table")
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError) as got:
                _check_table_domain(grid, table, "test table")
            assert str(got.value) == str(exc)
            continue
        got = _check_table_domain(grid, table, "test table")
        # the rows, in the grid's canonical order
        assert list(zip(grid.profiles(), got)) == list(want.items())


def test_convert_strings_read_as_fraction_reads_them():
    def fraction(s, cast=F):
        # float mode rounds the rational once; neither mode lets the
        # parse or the rounding raise anything but InvalidInputError
        try:
            return cast(F(s))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InvalidInputError(str(s)) from exc

    listed = [" 3", "+3", "1_000", "3/-4", "3/0", "-0", "1.5", "1e3", "٣", "²",
              "0/0", "-3/4", "007/010", "-", "/", "3/", "/4", "", " 3/4 ", "3 / 4",
              "--3", "-+3", "3/4/5", "1" * 60, "-" + "9" * 30 + "/" + "7" * 25, "٣/4"]
    rng = random.Random(17)
    alphabet = "0123456789" * 3 + "-/-/ +_.eE٣²\t"
    fuzz = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            for _ in range(3000)]
    for s in listed + fuzz:
        assert _outcome(lambda: convert(s, EXACT)) == _outcome(lambda: fraction(s)), s
        assert _outcome(lambda: convert(s, FLOAT)) == _outcome(lambda: fraction(s, float)), s


def test_profile_table_is_a_read_only_mapping_in_canonical_order():
    grid = ValueGrid([[0, F(1, 2), 3], [1, 2]])
    profiles = list(grid.profiles())
    rows = [(F(k), F(k, 2)) for k in range(len(profiles))]
    table = ProfileTable(grid, rows)
    assert len(table) == 6
    assert list(table) == list(table.keys()) == profiles
    assert list(table.values()) == rows
    assert list(table.items()) == list(zip(profiles, rows))
    assert len(table.items()) == len(table.values()) == 6
    assert (profiles[3], rows[3]) in table.items()
    assert (profiles[3], rows[2]) not in table.items()
    assert rows[5] in table.values()
    # a key is placed by value, in any spelling that hashes like it
    for k, v in enumerate(profiles):
        assert table[v] == rows[k]
        assert v in table
    assert table[(F(1, 2), 2)] == table[(0.5, 2.0)] == rows[3]
    assert table[(3, 1)] == table.get((F(3), F(1))) == rows[4]
    # anything that is no grid profile is a missing key, not a TypeError
    unhashable = ([0], 1)
    for key in [(1, 1), (0, 3), (0,), (0, 1, 1), (), unhashable, [0, 1], "01", 5, None]:
        with pytest.raises(KeyError):
            table[key]
        assert key not in table
        assert table.get(key, "absent") == "absent"
    with pytest.raises(TypeError):
        table[(0, 1)] = rows[0]
    with pytest.raises(DimensionMismatchError):
        ProfileTable(grid, rows[:-1])


def test_profile_table_equals_mappings_with_the_same_pairs():
    grid = ValueGrid([[1, 2], [1, 2]])
    rows = [(F(k), F(0)) for k in range(4)]
    table = ProfileTable(grid, rows)
    keyed = dict(zip(grid.profiles(), rows))
    assert table == keyed and keyed == table
    assert table == ProfileTable(ValueGrid([[1, 2], [1, 2]]), list(rows))
    assert table != ProfileTable(grid, rows[::-1])
    assert table != ProfileTable(ValueGrid([[1, 3], [1, 2]]), rows)
    assert table != {**keyed, (F(1), F(1)): (F(9), F(0))}
    assert table != dict(list(keyed.items())[:-1])
    assert table != rows
    assert dict(table) == keyed
    assert repr(table) == f"ProfileTable({keyed!r})"


def test_mechanism_tables_are_profile_tables():
    grid = ValueGrid([[1, 2], [1, 2]])
    det = second_price(grid)
    interim = det.as_interim()
    expost = det.as_expost()
    tables = [det.choice, det.payments, interim.x, interim.p, expost.outcomes]
    for table in tables:
        assert isinstance(table, ProfileTable)
        assert list(table) == list(grid.profiles())
    assert interim.x[(2, 1)] == (1, 0)
    assert interim.p == {v: det.payments[v] for v in grid.profiles()}
    assert dict(expost.outcomes.items()) == {
        v: ((det.choice[v], det.payments[v], 1),) for v in grid.profiles()
    }
    # a constructor given a mechanism's tables keeps them equal
    assert InterimMechanism(grid, interim.x, dict(interim.p.items())) == interim


def test_constructors_convert_rows_to_the_grid_mode():
    # rows already of the grid's type are kept; any other entry is
    # converted, and a float in an exact row is refused as convert refuses it
    for mode, cls in ((EXACT, F), (FLOAT, float)):
        grid = ValueGrid([[1, 2]], mode)
        keys = list(grid.profiles())
        for x in ([(F(1, 2),), (1,)], [(0.5,), (1.0,)], [("1/2",), (True,)]):
            p = [(c,) for c in ("0", 1)]
            if mode == EXACT and isinstance(x[0][0], float):
                with pytest.raises(InvalidInputError, match="float 0.5 in exact mode"):
                    InterimMechanism(grid, list(zip(keys, x)), list(zip(keys, p)))
                continue
            mech = InterimMechanism(grid, list(zip(keys, x)), list(zip(keys, p)))
            assert mech.x == {keys[0]: (cls(F(1, 2)),), keys[1]: (cls(1),)}
            rows = list(mech.x.values()) + list(mech.p.values())
            assert {type(c) for row in rows for c in row} == {cls}

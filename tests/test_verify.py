"""Verifier calibration: known-good mechanisms pass, known-bad ones fail
with replayable witnesses pointing at the broken constraint."""

import random
from fractions import Fraction as F

import pytest

from revmax import (
    ExplicitDistribution,
    ExPostMechanism,
    FeasibilitySystem,
    InterimMechanism,
    InvalidInputError,
    MultiMechanism,
    ValueGrid,
    VerifyReport,
    check_expost_ir,
    check_extension,
    check_feasible,
    check_ir,
    check_multi,
    check_truthful,
    check_universal,
    decompose_allocation,
    first_price,
    posted_price,
    second_price,
    solve_optimal,
    vickrey,
    zero_mechanism,
)
from revmax.io import write_report
from revmax.model import EXACT, FLOAT
from revmax.verify import Witness
from support import (
    float_multi_instance,
    random_distribution,
    random_feasibility,
    random_grid,
    random_interim,
    random_multi_instance,
    random_multi_mechanism,
    reference_check_expost_ir,
    reference_check_extension,
    reference_check_feasible,
    reference_check_ir,
    reference_check_truthful,
    reference_write_report,
)

GRID = ValueGrid([[1, 2], [1, 2]])


def test_vickrey_passes_all_checks():
    interim = vickrey(GRID).as_interim()
    assert check_truthful(interim).passed
    assert check_ir(interim).passed
    assert check_extension(interim).passed
    assert check_feasible(interim, FeasibilitySystem.single_item(2)).passed


def test_first_price_fails_with_replayable_witness():
    interim = first_price(GRID).as_interim()
    report = check_truthful(interim)
    assert not report.passed
    w = report.witnesses[0]
    assert w.check == "truthful"
    v = w.profile
    dev = v[: w.bidder] + (w.deviation,) + v[w.bidder + 1 :]
    truth = (
        interim.x[v][w.bidder] * v[w.bidder] - interim.p[v][w.bidder]
    )
    lied = (
        interim.x[dev][w.bidder] * v[w.bidder] - interim.p[dev][w.bidder]
    )
    assert truth == w.lhs
    assert lied == w.rhs
    assert w.lhs < w.rhs


def test_ir_flags_overcharge():
    x = {v: (F(1), F(0)) for v in GRID.profiles()}
    p = {v: (v[0] + 1, F(0)) for v in GRID.profiles()}
    report = check_ir(InterimMechanism(GRID, x, p))
    assert not report.passed
    assert all(w.check == "ir" for w in report.witnesses)
    assert report.witnesses[0].bidder == 0


def test_expost_ir_flags_loser_charges():
    grid = ValueGrid([[1], [1]])
    fs = FeasibilitySystem.single_item(2)
    from revmax import ExPostMechanism

    mech = ExPostMechanism(
        grid,
        fs,
        {(1, 1): [(fs.winner_index(0), (F(1), F(1, 2)), F(1))]},
    )
    report = check_expost_ir(mech)
    assert not report.passed
    w = report.witnesses[0]
    assert w.bidder == 1
    assert "outcome" in w.detail


def test_expost_ir_flags_winner_overcharge():
    grid = ValueGrid([[1]])
    fs = FeasibilitySystem.single_item(1)
    from revmax import ExPostMechanism

    mech = ExPostMechanism(grid, fs, {(1,): [(fs.winner_index(0), (F(2),), F(1))]})
    assert not check_expost_ir(mech).passed


def test_feasible_flags_oversold_allocation():
    x = {v: (F(4, 5), F(3, 5)) for v in GRID.profiles()}
    p = {v: (F(0), F(0)) for v in GRID.profiles()}
    report = check_feasible(
        InterimMechanism(GRID, x, p), FeasibilitySystem.single_item(2)
    )
    assert not report.passed
    w = report.witnesses[0]
    # the witness carries a separating certificate evaluated at the point
    assert w.relation == "<="
    assert w.lhs > w.rhs


def test_extension_catches_subsidized_lowest_type():
    # paying the lowest type to participate passes grid IC but breaks the
    # below-grid condition
    grid = ValueGrid([[2, 3]])
    x = {(F(2),): (F(1),), (F(3),): (F(1),)}
    p = {(F(2),): (F(-1),), (F(3),): (F(-1),)}
    interim = InterimMechanism(grid, x, p)
    assert check_truthful(interim).passed
    report = check_extension(interim)
    assert not report.passed
    assert any(w.detail.startswith("condition d") for w in report.witnesses)


def test_extension_catches_gap_unsafe_payments():
    # highest-competing-value charges break extension on gapped grids
    grid = ValueGrid([[0, 5], [3]])
    interim = second_price(grid).as_interim()
    report = check_extension(interim)
    assert not report.passed


def test_vickrey_extension_safe_on_gapped_grid():
    grid = ValueGrid([[0, 5], [3]])
    interim = vickrey(grid).as_interim()
    assert check_truthful(interim).passed
    assert check_extension(interim).passed


def test_universal_mixture_of_posted_prices_passes():
    parts = [
        (posted_price(GRID, [F(1), F(1)]), F(1, 3)),
        (posted_price(GRID, [F(2), F(2)]), F(1, 3)),
        (zero_mechanism(GRID), F(1, 3)),
    ]
    assert check_universal(parts).passed


def test_universal_locates_untruthful_part():
    parts = [
        (vickrey(GRID), F(1, 2)),
        (first_price(GRID), F(1, 2)),
    ]
    report = check_universal(parts)
    assert not report.passed
    assert all(w.detail.startswith("part 1") for w in report.witnesses)


def test_universal_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        check_universal([(vickrey(GRID), F(1, 2))])
    with pytest.raises(InvalidInputError):
        check_universal([(vickrey(GRID), F(0)), (vickrey(GRID), F(1))])


def test_merge_combines_check_tables():
    good = check_ir(vickrey(GRID).as_interim())
    bad = check_truthful(first_price(GRID).as_interim())
    merged = VerifyReport.merge(good, bad)
    assert not merged.passed
    assert merged.checks == {"ir": True, "truthful": False}
    assert len(merged.witnesses) == len(bad.witnesses)


def test_float_tolerance_is_scale_aware():
    grid = ValueGrid([[1.0]], mode="float")
    x = {(1.0,): (1.0,)}
    p_ok = {(1.0,): (1.0 + 1e-12,)}
    p_bad = {(1.0,): (1.0 + 1e-6,)}
    ok = InterimMechanism(grid, x, p_ok)
    bad = InterimMechanism(grid, x, p_bad)
    assert check_ir(ok).passed
    assert not check_ir(bad).passed


def test_random_truthful_mechanisms_stay_truthful_under_padding():
    # adding an unused low value to the grid must not break a mechanism
    # that never sells below its posted price
    rng = random.Random(21)
    for _ in range(10):
        grid = random_grid(rng, max_bidders=2, min_values=2)
        interim = vickrey(grid).as_interim()
        assert check_truthful(interim).passed
        assert check_extension(interim).passed


def _parity_grid(rng):
    """n = 1..4 bidders, some holding a single value."""
    n = rng.randint(1, 4)
    top = {1: 5, 2: 4, 3: 3, 4: 2}[n]
    return ValueGrid(
        [sorted(rng.sample(range(1, 10), rng.randint(1, top))) for _ in range(n)]
    )


def _parity_distribution(rng, grid):
    """Strict half the time; otherwise a support on a random subset of
    profiles over the padded grid."""
    if rng.random() < 0.5:
        return random_distribution(rng, grid=grid)
    picked = rng.sample(list(grid.profiles()), rng.randint(1, grid.cells()))
    weights = {v: rng.randint(1, 3) for v in picked}
    total = sum(weights.values())
    support = {v: F(w, total) for v, w in weights.items()}
    return ExplicitDistribution(grid, support, strict=False)


def _random_tables(rng, grid):
    """Independent coarse entries: x in quarters (ties and oversold
    profiles are common), p between -v/4 and v."""
    x = {v: tuple(F(rng.randint(0, 4), 4) for _ in v) for v in grid.profiles()}
    p = {v: tuple(c * F(rng.randint(-1, 4), 4) for c in v) for v in grid.profiles()}
    return InterimMechanism(grid, x, p)


def _as_float(mech):
    grid = ValueGrid([[float(g) for g in vals] for vals in mech.grid.values], FLOAT)

    def table(t):
        return {tuple(map(float, v)): tuple(map(float, row)) for v, row in t.items()}

    return InterimMechanism(grid, table(mech.x), table(mech.p))


def _parity_cases(rng, rounds):
    for _ in range(rounds):
        grid = _parity_grid(rng)
        single = FeasibilitySystem.single_item(grid.n)
        fs = single if rng.random() < 0.5 else random_feasibility(rng, n=grid.n)
        prices = [rng.choice(list(vals) + [None]) for vals in grid.values]
        cases = [
            (vickrey(grid).as_interim(), single, True),
            (posted_price(grid, prices).as_interim(), single, True),
            (solve_optimal(_parity_distribution(rng, grid), fs).interim, fs, True),
            (_random_tables(rng, grid), fs, False),
            (random_interim(rng, grid), fs, False),
            (first_price(grid).as_interim(), fs, False),
            (second_price(grid).as_interim(), fs, False),
        ]
        for mech, mech_fs, must_pass in cases:
            yield mech, mech_fs, must_pass
            yield _as_float(mech), mech_fs, must_pass


def test_indexed_verifier_matches_reference():
    """The indexed checkers return the reference checkers' witnesses, in
    order, and the same report bytes, on 336 seeded mechanisms in both
    arithmetic modes."""
    rng = random.Random(404)
    seen, failed, mechanisms = set(), 0, 0
    for mech, fs, must_pass in _parity_cases(rng, 24):
        mechanisms += 1
        truthful = check_truthful(mech)
        new = [
            truthful,
            check_ir(mech, truthful),
            check_feasible(mech, fs),
            check_extension(mech, truthful),
        ]
        ref = [
            reference_check_truthful(mech),
            reference_check_ir(mech),
            reference_check_feasible(mech, fs),
            reference_check_extension(mech),
        ]
        for got, want in zip(new, ref):
            assert got.witnesses == want.witnesses
            assert got.checks == want.checks
            assert got.passed == want.passed
        assert check_ir(mech) == new[1]
        assert check_extension(mech) == new[3]
        merged = VerifyReport.merge(*new)
        assert write_report(merged, mech.mode) == write_report(
            VerifyReport.merge(*ref), mech.mode
        )
        assert merged.passed or not must_pass
        failed += not merged.passed
        seen.update((mech.mode, w.check, w.detail[:11]) for w in merged.witnesses)
    assert mechanisms >= 150
    assert 0 < failed < mechanisms
    for mode in (EXACT, FLOAT):
        for kind in ("truthful", "ir", "feasible"):
            assert any(m == mode and c == kind for m, c, _ in seen)
        for cond in "abcd":
            assert (mode, "extension", f"condition {cond}") in seen


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("n", [2, 3])
def test_single_item_feasibility_is_a_direct_sum_test(mode, n):
    third, half, tiny = F(1, 3), F(1, 2), F(1, 10**6)
    points = [
        (third, third),  # below 1
        (half, half),  # exactly 1
        (half, half + tiny),  # just above 1
        (F(1), F(0)),
        (F(0), F(0)),
        (F(3, 4), half),
    ]
    grid = ValueGrid([list(range(1, len(points) + 1))] + [[1]] * (n - 1), mode)
    rows = [pt + (F(0),) * (n - 2) for pt in points]
    conv = float if mode == FLOAT else F
    x = {
        v: tuple(map(conv, row)) for v, row in zip(grid.profiles(), rows)
    }
    p = {v: (conv(0),) * n for v in grid.profiles()}
    mech = InterimMechanism(grid, x, p)
    fs = FeasibilitySystem.single_item(n)
    report = check_feasible(mech, fs)
    outside = {w.profile for w in report.witnesses}
    for v, row in zip(grid.profiles(), rows):
        in_hull = decompose_allocation(mech.x[v], fs, mode).in_hull
        assert in_hull == (v not in outside) == (sum(row) <= 1)
    assert len(outside) == 2
    assert all(w.detail.startswith("separating certificate") for w in report.witnesses)
    reference = reference_check_feasible(mech, fs)
    assert report == reference
    assert write_report(report, mode) == write_report(reference, mode)


# pairwise coprime denominators of at least 10**12
_BIG = [10**12, 10**12 + 1, 10**12 + 3]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_single_item_sum_test_edges_match_reference(mode):
    """Single-item rows summing to exactly 1 over large coprime
    denominators, to 1 + 1/10**12, and just below 1: the integer sum test
    (exact) and the float sum test give the hull LP's verdicts and
    certificates."""
    a, b, c = (F(1, d) for d in _BIG)
    rows = [
        (a, b, 1 - a - b),  # exactly 1
        (F(1, 3), F(1, 3), F(1, 3)),  # exactly 1
        (F(1, 2), F(1, 2) + F(1, 10**12), F(0)),  # 1 + 1/10**12
        (a, b, 1 - a - b + c),  # 1 + 1/(10**12 + 3)
        (a, b, 1 - a - b - c),  # just below 1
        (F(_BIG[0] - 1, _BIG[0]), F(1, _BIG[1]), F(0)),  # just below 1
        (F(_BIG[1] - 1, _BIG[1]), F(_BIG[2] - 1, _BIG[2]), F(1, 7)),  # about 2
    ]
    conv = float if mode == FLOAT else F
    grid = ValueGrid([list(range(1, len(rows) + 1)), [1], [1]], mode)
    x = {v: tuple(map(conv, row)) for v, row in zip(grid.profiles(), rows)}
    p = {v: (conv(0),) * 3 for v in grid.profiles()}
    mech = InterimMechanism(grid, x, p)
    fs = FeasibilitySystem.single_item(3)
    report = check_feasible(mech, fs)
    reference = reference_check_feasible(mech, fs)
    assert report == reference
    assert write_report(report, mode) == write_report(reference, mode)
    failing = 3 if mode == EXACT else 1  # float's hull LP allows 1e-9
    assert len(report.witnesses) == failing


def _kernel_grid(rng):
    """One to three bidders; values may be 0, fractional or over a huge
    denominator, and some bidders hold a single value."""
    pool = [F(0), F(1, 3), F(3, 2), F(2), F(7, 3), F(5)]
    pool += [F(10**12 + 7, _BIG[0]), F(2 * 10**12 + 1, _BIG[1]), F(5 * 10**12, _BIG[2])]
    n = rng.randint(1, 3)
    return ValueGrid([sorted(rng.sample(pool, rng.randint(1, 4))) for _ in range(n)])


def _kernel_tables(rng, grid):
    """Allocations from a few levels, so that top slopes often tie;
    payments from a pool with negative, fractional and huge-denominator
    entries."""
    levels = [F(0), F(1, 2), F(1), F(1, _BIG[0]), F(_BIG[1] - 1, _BIG[1])]
    pays = [F(0), F(-1), F(-5, 7), F(2, 3), F(3), F(-1, _BIG[2]), F(10**12, _BIG[1])]
    x, p = {}, {}
    for v in grid.profiles():
        x[v] = tuple(rng.choice(levels) for _ in v)
        p[v] = tuple(rng.choice(pays + [c * rng.choice(levels)]) for c in v)
    return InterimMechanism(grid, x, p)


def test_integer_line_tables_match_reference():
    """The scaled-integer comparisons give the reference checkers'
    witnesses, in order and with the same lhs/rhs types, on grids with a
    0 value, fractional and 10**12-denominator values, one-value bidders,
    negative payments and tied top slopes, in both arithmetic modes."""
    rng = random.Random(8)
    seen, compared = set(), 0
    for _ in range(40):
        grid = _kernel_grid(rng)
        mechs = [_kernel_tables(rng, grid), first_price(grid).as_interim()]
        for mech in mechs + [_as_float(m) for m in mechs]:
            truthful = check_truthful(mech)
            pairs = [
                (truthful, reference_check_truthful(mech)),
                (check_extension(mech, truthful), reference_check_extension(mech)),
            ]
            for got, want in pairs:
                assert got == want
                for g, w in zip(got.witnesses, want.witnesses):
                    assert (type(g.lhs), type(g.rhs)) == (type(w.lhs), type(w.rhs))
                    cond = w.detail if w.detail.startswith("condition c") else w.detail[:11]
                    seen.add((mech.mode, cond, type(w.lhs).__name__, type(w.rhs).__name__))
                    compared += 1
    assert compared > 2000
    for mode, num in ((EXACT, "Fraction"), (FLOAT, "float")):
        for cond in (
            "",  # truthful
            "condition a",
            "condition b",
            "condition c (slope above the top value)",
            "condition c (payment at tied top slope)",
        ):
            assert (mode, cond, num, num) in seen
        assert (mode, "condition d", num, "int") in seen


def _myerson_tables(rng, grid):
    """Lines built to be calm, quiet but not calm, or neither (see the
    revmax.verify docstring).  Each line of each bidder gets monotone
    allocations from a few levels (ties are common) and payments from the
    payment identity p[t+1] = p[t] + g[t+1] (x[t+1] - x[t]), starting at
    p[0] = g[0] x[0] - offset; about a third of the lines shade each step
    toward g[t] (x[t+1] - x[t]), which keeps truthfulness but breaks the
    binding of condition b.  Up to three single entries are then
    perturbed."""
    levels = [F(0), F(1, 3), F(1, 2), F(1), F(1, _BIG[0]), F(_BIG[1] - 1, _BIG[1])]
    offsets = [F(0), F(0), F(0), F(1, 4), F(-1, 3), F(1, _BIG[2])]
    profiles = list(grid.profiles())
    x = {v: [None] * grid.n for v in profiles}
    p = {v: [None] * grid.n for v in profiles}
    for i, g in enumerate(grid.values):
        for v in profiles:
            if v[i] != g[0]:
                continue
            xs = sorted(rng.choice(levels) for _ in g)
            ps = [g[0] * xs[0] - rng.choice(offsets)]
            shade = rng.random() < 0.3
            for t in range(len(g) - 1):
                rate = g[t + 1]
                if shade:
                    rate = g[t] + (g[t + 1] - g[t]) * rng.choice([F(0), F(1, 2), F(2, 3)])
                ps.append(ps[-1] + rate * (xs[t + 1] - xs[t]))
            for k, gk in enumerate(g):
                q = v[:i] + (gk,) + v[i + 1 :]
                x[q][i], p[q][i] = xs[k], ps[k]
    for _ in range(rng.randint(0, 3)):
        v, i = rng.choice(profiles), rng.randrange(grid.n)
        if rng.random() < 0.4:
            x[v][i] = rng.choice(levels)
        else:
            p[v][i] += rng.choice([F(1, 5), F(-1, 5), F(1, _BIG[0]), F(-1, _BIG[0])])
    return InterimMechanism(
        grid, {v: tuple(r) for v, r in x.items()}, {v: tuple(r) for v, r in p.items()}
    )


def test_line_verdicts_match_reference():
    """On Myerson-payment mechanisms with shaded payments, offsets and
    perturbed entries, the checkers that skip quiet and calm lines give
    the reference checkers' witnesses, in order and with the same lhs/rhs
    types, in both arithmetic modes; exact mode marks lines of all three
    kinds, float mode marks none."""
    rng = random.Random(2020)
    kinds = set()
    for _ in range(150):
        grid = _kernel_grid(rng)
        mech = _myerson_tables(rng, grid)
        for m in (mech, _as_float(mech)):
            truthful = check_truthful(m)
            pairs = [
                (truthful, reference_check_truthful(m)),
                (check_extension(m, truthful), reference_check_extension(m)),
            ]
            for got, want in pairs:
                assert got == want
                assert [(type(w.lhs), type(w.rhs)) for w in got.witnesses] == [
                    (type(w.lhs), type(w.rhs)) for w in want.witnesses
                ]
            verdicts = {row[-2:] for row in truthful.line_table[1]}
            if m.mode == FLOAT:
                assert verdicts == {(False, False)}
            else:
                kinds |= verdicts
    assert kinds == {(True, True), (True, False), (False, False)}


def _random_expost(rng, mode):
    """One to three outcomes per profile over a random feasibility system;
    winners pay 0, half, all or more than their value, and non-winners
    are sometimes charged."""
    grid = ValueGrid(_kernel_grid(rng).values, mode)
    fs = random_feasibility(rng, n=grid.n)
    conv = float if mode == FLOAT else F
    outcomes = {}
    for v in grid.profiles():
        weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        rows = []
        for w in weights:
            idx = rng.randrange(len(fs.vectors))
            pay = tuple(
                conv(rng.choice([0, c / 2, c, c + F(1, 3)]) if won else rng.choice([0, 0, F(1, 7)]))
                for c, won in zip(map(F, v), fs.vectors[idx])
            )
            rows.append((idx, pay, conv(F(w, sum(weights)))))
        outcomes[v] = rows
    return ExPostMechanism(grid, fs, outcomes)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_expost_ir_matches_reference(mode):
    """Walking the canonical outcome table gives the per-profile lookups'
    witnesses in the same order."""
    rng = random.Random(12)
    details = set()
    for _ in range(60):
        mech = _random_expost(rng, mode)
        got, want = check_expost_ir(mech), reference_check_expost_ir(mech)
        assert got == want
        assert write_report(got, mode) == write_report(want, mode)
        details.update(w.detail.partition(":")[2] for w in got.witnesses)
    assert details == {"", " non-winner charged"}


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_ir_on_line_tables_matches_reference(mode):
    """check_ir on check_truthful's integer line tables, alone or given
    that report, gives the rational reference's witnesses in bidder, then
    profile order with the same lhs/rhs types and report bytes; the
    extension check given the same report matches its reference."""
    rng = random.Random(1606)
    broken = 0
    for round_ in range(60):
        grid = random_grid(rng, max_bidders=3, max_values=4, min_values=2)
        mech = random_interim(rng, grid, violate_ir=round_ % 2 == 0)
        if mode == FLOAT:
            mech = _as_float(mech)
        truthful = check_truthful(mech)
        want = reference_check_ir(mech)
        for got in (check_ir(mech), check_ir(mech, truthful)):
            assert got == want
            assert [(type(w.lhs), type(w.rhs)) for w in got.witnesses] == [
                (type(w.lhs), type(w.rhs)) for w in want.witnesses
            ]
            assert write_report(got, mode) == write_report(want, mode)
        assert check_extension(mech, truthful) == reference_check_extension(mech)
        broken += not want.passed
    assert broken >= 30


def test_line_table_is_reused_only_for_its_own_mechanism():
    """A check_truthful report hands its line rows on only for the
    mechanism it checked; for another one the checks walk afresh, and the
    rows take no part in == or repr."""
    good = vickrey(GRID).as_interim()
    overcharge = {v: (v[0] + 1, F(0)) for v in GRID.profiles()}
    bad = InterimMechanism(GRID, good.x, overcharge)
    report = check_truthful(good)
    assert report.line_table[0] is good
    assert report == check_truthful(vickrey(GRID).as_interim())
    assert "line_table" not in repr(report)
    assert not reference_check_ir(bad).passed
    assert check_ir(bad, report) == reference_check_ir(bad)
    assert check_ir(good, check_truthful(bad)) == reference_check_ir(good)
    assert VerifyReport.merge(report).line_table is None


def _reports_of_every_kind(mode):
    """Reports in mode that together hold every witness kind: truthful,
    ir, feasible, extension conditions a-d, expost_ir, universal parts,
    multi_ic and multi_ir."""
    rng = random.Random(2718)
    reports = []
    for mech, fs, _must_pass in _parity_cases(rng, 4):
        if mech.mode == mode:
            truthful = check_truthful(mech)
            reports.append(
                VerifyReport.merge(
                    truthful,
                    check_ir(mech, truthful),
                    check_feasible(mech, fs),
                    check_extension(mech, truthful),
                )
            )
    reports += [check_expost_ir(_random_expost(rng, mode)) for _ in range(8)]
    grid = ValueGrid([[1, 2, 4], [1, 3]], mode)
    reports.append(check_universal([(vickrey(grid), F(1, 2)), (first_price(grid), F(1, 2))]))
    for _ in range(8):
        inst = random_multi_instance(rng)
        lotteries, payments = random_multi_mechanism(rng, inst)
        if mode == FLOAT:
            inst = float_multi_instance(inst)
        reports.append(check_multi(MultiMechanism(inst, lotteries, payments)))
    return reports


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_report_writer_matches_reference_writer(mode):
    """write_report's one-template lines are byte for byte the sorted-key
    JSON encoding of each witness dict, for every witness kind, alone
    and merged into one report."""
    reports = _reports_of_every_kind(mode)
    seen = set()
    for report in reports:
        assert write_report(report, mode) == reference_write_report(report, mode)
        for w in report.witnesses:
            seen.add((w.check, w.detail[:11]))
            seen.add((w.check, type(w.bidder), type(w.deviation)))
    merged = VerifyReport.merge(*reports)
    assert write_report(merged, mode) == reference_write_report(merged, mode)
    details = {
        ("truthful", ""), ("ir", ""), ("feasible", "separating "),
        ("expost_ir", "outcome 0"), ("expost_ir", "outcome 0: "),
        ("truthful", "part 1"), ("extension", "part 1: con"),
        ("multi_ic", ""), ("multi_ir", ""),
    }
    details |= {("extension", f"condition {c}") for c in "abcd"}
    assert details <= seen, details - seen
    assert ("feasible", type(None), type(None)) in seen
    assert ("multi_ic", int, int) in seen


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_report_writer_matches_reference_on_odd_values(mode):
    """Values no checker writes take the encoder's path: bools, floats in
    exact mode, Fractions in float mode, non-finite floats, escaped
    strings, nested and mixed tuples; equal values of different types in
    one report are each written as their own type."""
    num = F(7, 3) if mode == EXACT else 7 / 3
    values = [
        True, None, 0, -5, 10**30, F(1), F(-3, 8), 1.0, 0.1, 2.5e-300,
        (1, 2), (F(1), F(2)), (1.0, 2.0), ((1, F(1, 2)), ()), "a\"b\u00e9\n",
    ]
    if mode == FLOAT:
        values += [float("inf"), float("-inf"), float("nan")]
    witnesses = [
        Witness("odd", None if k % 3 else k, v, values[-1 - k], "==", v, num, detail=str(v))
        for k, v in enumerate(values)
    ]
    witnesses.append(Witness("odd", True, (1, 2), F(1), "<=", 1, 1.0, detail="é"))
    report = VerifyReport.build("odd", witnesses)
    assert write_report(report, mode) == reference_write_report(report, mode)

"""Multi-item extension: bundle tables, the assignment LP, the m=1
bridge to the single-item solver, and proportional ex-post charges."""

import itertools
import random
import re
from fractions import Fraction as F

import pytest

from revmax import (
    DimensionMismatchError,
    FeasibilitySystem,
    InvalidInputError,
    MultiItemInstance,
    MultiMechanism,
    NonRepresentableError,
    ProfileTable,
    SizeLimitError,
    Valuation,
    ValueGrid,
    build_multi_lp,
    build_optimal_lp,
    check_multi,
    enumerate_assignments,
    max_welfare,
    multi_expost,
    solve_multi,
    solve_optimal,
)
from revmax.lp import LEQ, LinearProgram, solve
from revmax.model import lines
from revmax.multi import _bundle_values, bundle_mask
from support import (
    _random_type_support,
    binary_multi_instance,
    float_multi_instance,
    random_m1_instance,
    random_multi_instance,
    random_multi_mechanism,
    reference_check_multi,
    reference_distribution_support,
    reference_multi_lp,
    reference_solve,
    scale_multi_instance,
    single_item_equivalent,
)


def unit(x):
    return Valuation(1, [0, x])


def test_valuation_requires_zero_empty_bundle():
    with pytest.raises(InvalidInputError):
        Valuation(2, [1, 0, 0, 0])
    with pytest.raises(DimensionMismatchError):
        Valuation(2, [0, 1])
    with pytest.raises(InvalidInputError):
        Valuation(2, [0, -1, 0, 0])


def test_assignment_enumeration_and_masks():
    assigns = enumerate_assignments(2, 2)
    assert len(assigns) == 9
    assert assigns[0] == (-1, -1)
    assert bundle_mask((0, 1), 1) == 2
    assert bundle_mask((0, 0), 0) == 3
    assert bundle_mask((-1, -1), 0) == 0


def test_instance_requires_type_coverage():
    with pytest.raises(InvalidInputError):
        MultiItemInstance(1, [[unit(1), unit(2)]], {(0,): F(1)})


def _full_support(m, types):
    profiles = list(itertools.product(*(range(len(ts)) for ts in types)))
    return MultiItemInstance(m, types, {p: F(1, len(profiles)) for p in profiles})


def test_lp_shape_for_two_bidders_two_items():
    t = Valuation(2, [0, 1, 1, 2])
    u = Valuation(2, [0, 2, 2, 4])
    cases = [
        # t and 2t make both bidders single-parameter, so neither has
        # payment columns: 4 profiles x 8 assignments that sell something;
        # rows: 4 convexity, 2 bidders x 2 lines x 1 adjacent monotone row
        (_full_support(2, [[t, u], [t, u]]), 32, 8),
        # one more input, n=3 and m=1 with values 1, 2, 3: 27 profiles x 3
        # assignments; rows: 27 convexity, 3 bidders x 9 lines x 2
        # adjacent monotone rows
        (_full_support(1, [[unit(1), unit(2), unit(3)]] * 3), 81, 81),
    ]
    for inst, num_vars, num_rows in cases:
        lp = build_multi_lp(inst)
        # the all-unsold weight is the slack of each profile's <= 1 row
        assert lp.num_vars == num_vars
        assert len(lp.constraints) == num_rows
        assert all(rel == LEQ for _, rel, _ in lp.constraints)
        assert {rhs for _, _, rhs in lp.constraints} == {0, 1}


def _row_rule_instances(rng):
    """Instances on the edges of build_multi_lp's row rules, with random
    supports: identical types (m=1 and m=2), all-zero types, proportional
    m=2 tables, a single-parameter bidder beside one that is not, and
    unsorted m=1 types."""

    def bidder(m, *tables):
        return [Valuation(m, t) for t in tables]

    shapes = [
        (1, [bidder(1, [0, 1], [0, 3], [0, 3], [0, 2]), bidder(1, [0, 2], [0, 1])]),
        (2, [bidder(2, [0, 1, 2, 3], [0, 1, 2, 3], [0, 2, 1, 4]),
             bidder(2, [0, 0, 0, 1], [0, 3, 0, 3])]),
        (1, [bidder(1, [0, 2], [0, 0], [0, 1]), bidder(1, [0, 1], [0, 3])]),
        (2, [bidder(2, [0, 1, 2, 2], [0, 0, 0, 0], [0, 2, 0, 2]),
             bidder(2, [0, 1, 1, 1])]),
        (2, [bidder(2, [0, 0, 0, 1], [0, 0, 0, 2])] * 2),
        (2, [bidder(2, [0, 3, 6, 9], [0, 1, 2, 3], [0, 2, 4, 6]),
             bidder(2, [0, 1, 0, 1], [0, 0, 1, 1])]),
        (1, [bidder(1, [0, 5], [0, 1], [0, 3], [0, 2]), bidder(1, [0, 2], [0, 4], [0, 1])]),
    ]
    instances = [
        MultiItemInstance(m, types, _random_type_support(rng, types)) for m, types in shapes
    ]
    # equal types r, s and c above them: rows r <-> s and s <-> c alone
    # allow r at (1, 1) and c at (1, 2), revenue 4/3 against the optimum 1
    tied = bidder(1, [0, 1], [0, 1], [0, 2])
    instances.append(
        MultiItemInstance(1, [tied], {(0,): F(1, 3), (1,): F(1, 6), (2,): F(1, 2)})
    )
    return instances


@pytest.mark.parametrize("negative", [False, True])
def test_slack_form_lp_matches_reference_lp(negative):
    # the reference keeps every IC pair and every IR row, so equal optima
    # and a full replay of each solution check the rows left out
    rng = random.Random(31)
    instances = [
        random_multi_instance(rng, max_bidders=3, max_items=2, max_types=3)
        for _ in range(20)
    ]
    for inst in instances + _row_rule_instances(rng):
        want = reference_solve(reference_multi_lp(inst, negative)).objective
        mech, revenue = solve_multi(inst, allow_negative_payments=negative)
        assert revenue == want
        assert check_multi(mech).passed
        assert reference_check_multi(mech).passed
        finst = float_multi_instance(inst)
        mech, revenue = solve_multi(finst, allow_negative_payments=negative)
        assert abs(revenue - float(want)) <= 1e-9
        assert check_multi(mech).passed
        assert reference_check_multi(mech).passed


def _accumulated_multi_lp(inst, allow_negative_payments):
    """build_multi_lp's program assembled by adding every coefficient into
    zero, column by column, with its row rules applied on their own.  A
    bidder with pairwise distinct proportional tables (every 2x2 cross
    product agrees), not all zero, is single-parameter: with b its first
    nonzero table divided by that table's first nonzero entry and alpha
    each type's entry there, it keeps only monotone rows on b . lambda
    between types adjacent in the order of table sums, and phi . b in the
    objective of each lambda column.  Every other bidder has payment
    columns and keeps all IC pairs, and a type keeps its IR rows unless
    it weakly dominates another type that is not an identical table of
    higher index."""
    n = inst.n
    K = len(enumerate_assignments(n, inst.m)) - 1
    profiles = inst.type_profiles()
    nlam = len(profiles) * K
    values = _bundle_values(inst, enumerate_assignments(n, inst.m))
    zero = 0.0 if inst.mode == "float" else F(0)

    def single_parameter(i):
        tables = [[F(x) for x in t.values] for t in inst.types[i]]
        proportional = all(
            a[x] * b[y] == a[y] * b[x]
            for a, b in itertools.combinations(tables, 2)
            for x, y in itertools.combinations(range(len(a)), 2)
        )
        distinct = len(set(map(tuple, tables))) == len(tables)
        return proportional and distinct and any(map(any, tables))

    general = [i for i in range(n) if not single_parameter(i)]

    def lam(t_idx, a_idx):
        return t_idx * K + a_idx - 1

    def pay(t_idx, i):
        return nlam + t_idx * len(general) + general.index(i)

    # an objective entry nothing is added to is the int 0
    objective = [0] * (nlam + len(profiles) * len(general))
    for k, t in enumerate(profiles):
        for i in general:
            objective[pay(k, i)] = inst.support.get(t, 0)
    rows = [({lam(k, a): 1 for a in range(1, K + 1)}, 1) for k in range(len(profiles))]

    def value_coeffs(t_idx, vals, sign, into):
        for a_idx, v in enumerate(vals):
            if v:
                col = lam(t_idx, a_idx)
                into[col] = into.get(col, zero) + sign * v

    for i, _, k, line in lines([len(ts) for ts in inst.types]):
        if k:
            continue
        if i in general:
            for true_t, k_true in enumerate(line):
                for rep_t, k_rep in enumerate(line):
                    if rep_t != true_t:
                        row = {pay(k_rep, i): -1, pay(k_true, i): 1}
                        value_coeffs(k_rep, values[i][true_t], 1, row)
                        value_coeffs(k_true, values[i][true_t], -1, row)
                        rows.append((row, 0))
            continue
        ts = [t.values for t in inst.types[i]]
        first = next(t for t in ts if any(t))
        j = next(c for c, x in enumerate(first) if x)
        b = [first[mask] / first[j] for mask in range(len(first))]
        bvals = [b[bundle_mask(a, i)] for a in enumerate_assignments(n, inst.m)]
        ranked = sorted(range(len(ts)), key=lambda t: sum(ts[t]))
        above = 0
        for r in reversed(range(len(ranked))):
            t = ranked[r]
            nxt = ts[ranked[min(r + 1, len(ranked) - 1)]][j]
            q = inst.support.get(inst.profile_at(line[t]), 0)
            phi = q * ts[t][j] - (nxt - ts[t][j]) * above
            above += q
            for a_idx, v in enumerate(bvals):
                if v:
                    objective[lam(line[t], a_idx)] += phi * v
        for lo, hi in zip(ranked, ranked[1:]):
            row = {}
            value_coeffs(line[lo], bvals, 1, row)
            value_coeffs(line[hi], bvals, -1, row)
            rows.append((row, 0))

    def keeps_ir(i, ti):
        mine = inst.types[i][ti].values
        for s, other in enumerate(inst.types[i]):
            if s != ti and all(x >= y for x, y in zip(mine, other.values)):
                if mine != other.values or s < ti:
                    return False
        return True

    for i in general:
        for k, t in enumerate(profiles):
            if keeps_ir(i, t[i]):
                row = {pay(k, i): 1}
                value_coeffs(k, values[i][t[i]], -1, row)
                rows.append((row, 0))
    lp = LinearProgram(len(objective), objective)
    if allow_negative_payments:
        for k in range(len(profiles)):
            for i in general:
                lp.set_free(pay(k, i))
    for row, rhs in rows:
        lp.add_constraint(row, LEQ, rhs)
    return lp


def test_float_solve_multi_rounds_the_exact_solve():
    # a float instance is solved exactly as its binary copy, whose masses
    # are divided by their exact total: the mechanism is that solve's
    # rounded by the float constructor, the revenue the float sum over the
    # support, and the mechanism passes the float-mode replay
    rng = random.Random(2411)
    instances = [
        random_multi_instance(rng, max_bidders=3, max_items=2, max_types=3)
        for _ in range(16)
    ]
    two = [Valuation(2, [0, F(1, 3), 2, F(7, 3)]), Valuation(2, [0, 1, F(1, 5), 3])]
    instances.append(
        MultiItemInstance(2, [two, two[:1]], {(0, 0): F(1, 3), (1, 0): F(2, 3)})
    )
    assert sum(inst.m == 2 for inst in instances) >= 5
    for inst in instances:
        finst = float_multi_instance(inst)
        mech, revenue = solve_multi(finst)
        want, want_revenue = solve_multi(binary_multi_instance(finst))
        assert mech.lotteries == {
            t: tuple((a, float(w)) for a, w in rows) for t, rows in want.lotteries.items()
        }
        assert mech.payments == {t: tuple(map(float, p)) for t, p in want.payments.items()}
        total = sum((q * sum(mech.payments[t]) for t, q in finst.support.items()), 0.0)
        assert type(revenue) is float and revenue.hex() == total.hex()
        assert abs(revenue - float(want_revenue)) <= 1e-9 * max(1.0, revenue)
        assert check_multi(mech).passed
        assert reference_check_multi(mech).passed


def _typed(values):
    return [(v, type(v)) for v in values]


def test_multi_lp_rows_match_accumulated_rows():
    # every coefficient is written once, so the rows, their column order
    # and the type of every value are those of the accumulating build
    rng = random.Random(1903)
    instances = [
        random_multi_instance(rng, max_bidders=3, max_items=2, max_types=3)
        for _ in range(12)
    ]
    for exact in instances + _row_rule_instances(rng):
        for inst, negative in itertools.product(
            (exact, float_multi_instance(exact)), (False, True)
        ):
            got = build_multi_lp(inst, allow_negative_payments=negative)
            want = _accumulated_multi_lp(inst, negative)
            assert _typed(got.objective) == _typed(want.objective)
            assert got.free == want.free
            assert len(got.constraints) == len(want.constraints)
            for (row, rel, rhs), (wrow, wrel, wrhs) in zip(got.constraints, want.constraints):
                assert (rel, rhs) == (wrel, wrhs)
                assert list(row) == list(wrow)
                assert _typed(row.values()) == _typed(wrow.values())


# (bidders, types), the m = 1 shapes of the benchmark's solve-multi plan,
# with the rows, columns and pivots of the LP that gave every bidder
# payment columns and adjacent IC rows, on _m1_shape_instances' instances
_M1_PAYMENT_FORM = {
    (2, 3): (39, 36, 39), (2, 4): (72, 64, 69), (2, 5): (115, 100, 111),
    (3, 2): (44, 48, 45), (3, 3): (162, 162, 147), (3, 4): (400, 384, 419),
}


def _m1_shape_instances():
    rng = random.Random(313)
    for n, t in _M1_PAYMENT_FORM:
        types = [[unit(v) for v in sorted(rng.sample(range(1, 10), t))] for _ in range(n)]
        yield (n, t), MultiItemInstance(1, types, _random_type_support(rng, types))


def test_m1_lp_is_the_single_item_lp():
    # every m = 1 bidder is single-parameter, so the program is the
    # allocation-only LP of the single-item model, row for row
    for shape, inst in _m1_shape_instances():
        got = build_multi_lp(inst)
        dist = single_item_equivalent(inst)
        want = build_optimal_lp(dist, FeasibilitySystem.single_item(inst.n))
        assert (got.num_vars, got.objective) == (want.num_vars, want.objective)
        assert got.constraints == want.constraints
        rows, cols, pivots = _M1_PAYMENT_FORM[shape]
        assert len(got.constraints) < rows and got.num_vars < cols
        if shape == (3, 3):
            assert (len(got.constraints), got.num_vars) == (81, 81)
        sol = solve(got)
        assert sol.pivots < pivots
        assert sol.objective == solve_optimal(dist).revenue == solve_multi(inst)[1]


@pytest.mark.parametrize("negative", [False, True])
def test_single_parameter_and_general_bidders_share_one_lp(negative):
    # bidder 0's tables are 2b, b and 3b: single-parameter, listed out of
    # alpha order; bidder 1's are not proportional, so only it has
    # payment columns, and the sign switch can matter only to it
    b = [0, 1, 2, 3]
    prop = [Valuation(2, [2 * x for x in b]), Valuation(2, b), Valuation(2, [3 * x for x in b])]
    general = [Valuation(2, [0, 3, 1, 3]), Valuation(2, [0, 1, 2, 4])]
    rng = random.Random(1011)
    for _ in range(6):
        inst = MultiItemInstance(2, [prop, general], _random_type_support(rng, [prop, general]))
        lp = build_multi_lp(inst, allow_negative_payments=negative)
        assert lp.num_vars == 6 * 8 + 6  # lambda per profile and sold assignment, p_1 per profile
        mech, revenue = solve_multi(inst, allow_negative_payments=negative)
        assert revenue == reference_solve(reference_multi_lp(inst, negative)).objective
        assert all(pay[0] >= 0 for pay in mech.payments.rows)
        assert reference_check_multi(mech).passed


def test_identical_tables_keep_a_bidder_general():
    # the tie of build_multi_lp's docstring: a payment column per profile,
    # every IC pair, and IR only at the lower index of the identical pair
    inst = MultiItemInstance(
        1, [[unit(1), unit(1), unit(2)]], {(0,): F(1, 3), (1,): F(1, 6), (2,): F(1, 2)}
    )
    lp = build_multi_lp(inst)
    assert (lp.num_vars, len(lp.constraints)) == (3 + 3, 3 + 6 + 1)
    mech, revenue = solve_multi(inst)
    assert revenue == reference_solve(reference_multi_lp(inst)).objective == 1
    assert reference_check_multi(mech).passed


@pytest.mark.parametrize("negative", [False, True])
def test_an_all_zero_type_is_the_lowest_alpha(negative):
    # alpha = 0 for the zero table, which comes first in alpha order
    # however the types are listed; it pays nothing
    zero = Valuation(2, [0, 0, 0, 0])
    tables = [Valuation(2, [0, 2, 1, 3]), zero, Valuation(2, [0, 4, 2, 6])]
    other = [Valuation(2, [0, 1, 1, 1])]
    rng = random.Random(1012)
    for types in ([tables, other], [[zero, tables[0], tables[2]]]):
        inst = MultiItemInstance(2, types, _random_type_support(rng, types))
        lp = build_multi_lp(inst, allow_negative_payments=negative)
        assert lp.num_vars == inst.cells() * ((inst.n + 1) ** 2 - 1)  # no payment columns
        mech, revenue = solve_multi(inst, allow_negative_payments=negative)
        assert revenue == reference_solve(reference_multi_lp(inst, negative)).objective
        assert all(pay[0] == 0 for t, pay in mech.payments.items() if types[0][t[0]] is zero)
        assert reference_check_multi(mech).passed


def test_size_guard_raises():
    v = Valuation(9, [0] * 511 + [1])
    inst = MultiItemInstance(9, [[v], [v]], {(0, 0): F(1)})
    with pytest.raises(SizeLimitError):
        build_multi_lp(inst)
    with pytest.raises(SizeLimitError):
        solve_multi(inst)


def test_point_mass_type_extracts_best_bundle_value():
    v = Valuation(2, [0, 3, 4, 5])
    inst = MultiItemInstance(2, [[v]], {(0,): F(1)})
    _, revenue = solve_multi(inst)
    assert revenue == F(5)


def test_grand_bundle_pair_reduces_to_single_item():
    g1 = Valuation(2, [0, 0, 0, 1])
    g2 = Valuation(2, [0, 0, 0, 2])
    inst = MultiItemInstance(2, [[g1, g2]], {(0,): F(1, 2), (1,): F(1, 2)})
    _, revenue = solve_multi(inst)
    assert revenue == F(1)


def test_m1_bridge_matches_single_item_solver():
    rng = random.Random(6)
    for _ in range(10):
        inst = random_m1_instance(rng)
        _, revenue = solve_multi(inst)
        dist = single_item_equivalent(inst)
        assert revenue == solve_optimal(dist).revenue


def test_bridge_requires_single_item_and_distinct_values():
    v2 = Valuation(2, [0, 0, 0, 1])
    inst = MultiItemInstance(2, [[v2]], {(0,): F(1)})
    with pytest.raises(InvalidInputError):
        single_item_equivalent(inst)
    dup = MultiItemInstance(
        1, [[unit(3), unit(3)]], {(0,): F(1, 2), (1,): F(1, 2)}
    )
    with pytest.raises(InvalidInputError):
        single_item_equivalent(dup)


def test_revenue_bounded_by_welfare():
    rng = random.Random(10)
    for _ in range(8):
        inst = random_multi_instance(rng)
        _, revenue = solve_multi(inst)
        assert revenue <= max_welfare(inst)


def test_perfect_correlation_extracts_full_surplus():
    # each bidder's type is pinned by the other's: full welfare is revenue
    a1 = Valuation(1, [0, 2])
    a2 = Valuation(1, [0, 5])
    b1 = Valuation(1, [0, 3])
    b2 = Valuation(1, [0, 7])
    inst = MultiItemInstance(
        1,
        [[a1, a2], [b1, b2]],
        {(0, 0): F(1, 2), (1, 1): F(1, 2)},
    )
    _, revenue = solve_multi(inst)
    assert revenue == max_welfare(inst)
    assert revenue == F(5)


def test_solved_mechanism_passes_replay():
    rng = random.Random(14)
    for _ in range(8):
        inst = random_multi_instance(rng)
        mech, _ = solve_multi(inst)
        assert check_multi(mech).passed


def _relabeled(rng, inst):
    """The instance with each bidder's type list shuffled and the
    support's profiles renamed to match."""
    perms = [rng.sample(range(len(ts)), len(ts)) for ts in inst.types]
    types = [[ts[old] for old in perm] for ts, perm in zip(inst.types, perms)]
    new = [{old: k for k, old in enumerate(perm)} for perm in perms]
    support = {
        tuple(new[i][ti] for i, ti in enumerate(t)): q for t, q in inst.support.items()
    }
    return MultiItemInstance(inst.m, types, support, inst.mode)


def test_revenue_does_not_depend_on_type_order():
    # the row rules sort types by scale and break dominance ties by index
    rng = random.Random(1981)
    instances = [random_m1_instance(rng, max_bidders=3, max_types=4) for _ in range(6)]
    instances += [
        random_multi_instance(rng, max_bidders=2, max_items=2, max_types=3)
        for _ in range(10)
    ]
    instances += _row_rule_instances(rng)
    assert {inst.m for inst in instances} == {1, 2}
    for inst in instances:
        _, revenue = solve_multi(inst)
        for _ in range(2):
            assert solve_multi(_relabeled(rng, inst))[1] == revenue


def test_scaling_homogeneity():
    rng = random.Random(15)
    for c in (2, 3, 5):
        inst = random_multi_instance(rng)
        _, revenue = solve_multi(inst)
        _, scaled = solve_multi(scale_multi_instance(inst, F(c)))
        assert scaled == c * revenue


def test_expost_charges_match_interim_payments():
    rng = random.Random(16)
    for _ in range(8):
        inst = random_multi_instance(rng)
        mech, _ = solve_multi(inst)
        ep = multi_expost(mech)
        for t in inst.type_profiles():
            for i in range(inst.n):
                total = sum(w * pays[i] for _, pays, w in ep.outcomes[t])
                assert total == mech.payments[t][i]


def test_expost_never_charges_empty_bundles():
    rng = random.Random(18)
    for _ in range(8):
        inst = random_multi_instance(rng)
        mech, _ = solve_multi(inst)
        ep = multi_expost(mech)
        for t in inst.type_profiles():
            for a_idx, pays, _ in ep.outcomes[t]:
                for i in range(inst.n):
                    if bundle_mask(mech.assignments[a_idx], i) == 0:
                        assert pays[i] == 0


def test_expost_charges_stay_within_realized_value():
    rng = random.Random(19)
    for _ in range(8):
        inst = random_multi_instance(rng)
        mech, _ = solve_multi(inst)
        ep = multi_expost(mech)
        for t in inst.type_profiles():
            for a_idx, pays, _ in ep.outcomes[t]:
                for i in range(inst.n):
                    val = inst.types[i][t[i]].of(
                        bundle_mask(mech.assignments[a_idx], i)
                    )
                    assert pays[i] <= val


def test_expost_rejects_unpayable_tables():
    v = unit(1)
    inst = MultiItemInstance(1, [[v]], {(0,): F(1)})
    bad = MultiMechanism(
        inst, {(0,): [(0, F(1))]}, {(0,): (F(1, 2),)}
    )
    with pytest.raises(NonRepresentableError):
        multi_expost(bad)


def test_deterministic_lottery_single_outcome_charge():
    v = unit(4)
    inst = MultiItemInstance(1, [[v]], {(0,): F(1)})
    mech, revenue = solve_multi(inst)
    assert revenue == F(4)
    ep = multi_expost(mech)
    rows = ep.outcomes[(0,)]
    assert len(rows) == 1
    assert rows[0][1] == (F(4),)


# pairwise coprime denominators near 10**12
_WIDE = [10**12 + k for k in (1, 2, 3, 7, 9)]


def _wide_instance(rng):
    """A random instance whose bundle values are fractions over the
    coprime _WIDE denominators; some bidders have one type."""
    n, m = rng.randint(1, 3), rng.randint(1, 2)
    types = []
    for _ in range(n):
        ts = []
        while len(ts) < rng.choice((1, 1, 2, 3)):
            d = rng.choice(_WIDE)
            t = Valuation(m, [0] + [F(rng.randint(0, 6 * d), d) for _ in range(2**m - 1)])
            if t not in ts:
                ts.append(t)
        types.append(ts)
    profiles = list(itertools.product(*(range(len(ts)) for ts in types)))
    weights = [rng.randint(1, 3) for _ in profiles]
    return MultiItemInstance(
        m, types, {t: F(w, sum(weights)) for t, w in zip(profiles, weights)}
    )


def _edits(rng, inst, lotteries, payments):
    """Copies of the tables with payments shifted up and down at a few
    profiles, and with weight moved between assignments."""
    A = len(enumerate_assignments(inst.n, inst.m))
    profiles = list(lotteries)
    for sign in (1, -1):
        pay = dict(payments)
        for t in rng.sample(profiles, min(3, len(profiles))):
            i = rng.randrange(inst.n)
            step = rng.choice((F(1, 7), F(1, 10**12 + 1), F(1, 10**15)))
            pay[t] = pay[t][:i] + (pay[t][i] + sign * step,) + pay[t][i + 1 :]
        yield lotteries, pay
    lot = dict(lotteries)
    for t in rng.sample(profiles, min(3, len(profiles))):
        rows = dict(lot[t])
        a = rng.choice(list(rows))
        moved = rows[a] * rng.choice((F(1, 3), F(1, 2), F(1)))
        b = rng.randrange(A)
        rows[a] -= moved
        rows[b] = rows.get(b, 0) + moved
        lot[t] = [(c, w) for c, w in rows.items() if w]
    yield lot, payments


def _assert_same_report(got, want, mode):
    """Equal reports, with witness sides of the same types and, in float
    mode, the same bits."""
    assert got == want
    for a, b in zip(got.witnesses, want.witnesses):
        for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
            assert type(x) is type(y)
            if mode == "float":
                assert x.hex() == y.hex()


def test_check_multi_matches_reference():
    # random and solved mechanisms, their edits and wide-denominator
    # instances, each in both modes, against the rational replay
    rng = random.Random(1968)
    seen = set()
    for trial in range(120):
        if trial % 3 == 2:
            inst = _wide_instance(rng)
        else:
            inst = random_multi_instance(rng, max_bidders=3, max_items=2, max_types=3)
        cases = [random_multi_mechanism(rng, inst)]
        if inst.n < 3 or trial % 3 != 2:
            mech, _ = solve_multi(inst)
            cases.append(({t: list(r) for t, r in mech.lotteries.items()}, mech.payments))
        for lotteries, payments in list(cases):
            cases.extend(_edits(rng, inst, lotteries, payments))
        copies = (inst, float_multi_instance(inst))
        mechs = [MultiMechanism(c, lot, pay) for c in copies for lot, pay in cases]
        mechs.append(solve_multi(copies[1])[0])
        for mech in mechs:
            mode = mech.inst.mode
            got, want = check_multi(mech), reference_check_multi(mech)
            _assert_same_report(got, want, mode)
            seen.update((mode, w.check) for w in got.witnesses)
            seen.add((mode, got.passed))
    assert seen == {
        (mode, kind)
        for mode in ("exact", "float")
        for kind in ("multi_ic", "multi_ir", True, False)
    }


def test_multi_tables_are_profile_tables_over_the_type_product():
    """A multi-item mechanism keeps its tables, and its ex-post form its
    outcomes, as ProfileTables over the instance's type product: rows in
    canonical order, KeyError for anything off the product, and equal to
    the dict of the same pairs, from which the same mechanism is built."""
    inst = MultiItemInstance(
        1, [[unit(1), unit(2)], [unit(3)]], {(0, 0): F(1, 3), (1, 0): F(2, 3)}
    )
    mech, _ = solve_multi(inst)
    assert inst.type_profiles() == [(0, 0), (1, 0)] == list(inst.profiles())
    assert [inst.flat_index(t) for t in inst.profiles()] == [0, 1]
    assert [inst.profile_at(k) for k in range(inst.cells())] == [(0, 0), (1, 0)]
    for table in (mech.lotteries, mech.payments, multi_expost(mech).outcomes):
        assert isinstance(table, ProfileTable) and table.grid is inst
        assert list(table) == [(0, 0), (1, 0)]
        assert list(table.values()) == list(table.rows)
        as_dict = dict(zip(inst.profiles(), table.rows))
        assert table == as_dict and dict(table.items()) == as_dict
        assert table[(1, 0)] is table.rows[1]
        for off in [(2, 0), (0, 1), (-1, 0), (0,), (0, 0, 0), [0, 0], ("0", 0)]:
            with pytest.raises(KeyError):
                table[off]
    pairs = reversed(list(mech.lotteries.items()))
    assert MultiMechanism(inst, pairs, dict(mech.payments)).lotteries == mech.lotteries
    with pytest.raises(InvalidInputError, match=r"type profile \(2, 0\) is outside the type"):
        MultiMechanism(inst, {**mech.lotteries, (2, 0): [(0, 1)]}, mech.payments)
    with pytest.raises(InvalidInputError, match=r"payment table missing profile \(1, 0\)"):
        MultiMechanism(inst, mech.lotteries, {(0, 0): mech.payments[(0, 0)]})
    with pytest.raises(InvalidInputError, match=r"lottery table repeats profile \(0, 0\)"):
        MultiMechanism(inst, list(mech.lotteries.items()) * 2, mech.payments)


def _multi_support_case(rng):
    """Type list sizes and a random support over their product, shuffled,
    with at most one fault: a repeated, off-product or wrong-length
    profile, a probability that is not positive, a total other than 1,
    or no support at all.  Types that no profile holds come by chance."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    profiles = list(itertools.product(*map(range, sizes)))
    picked = rng.sample(profiles, rng.randint(1, len(profiles)))
    weights = [rng.randint(1, 4) for _ in picked]
    support = [(t, F(w, sum(weights))) for t, w in zip(picked, weights)]
    rng.shuffle(support)
    at = rng.randrange(len(support))
    t, q = support[at]
    fault = rng.randrange(9)
    if fault == 0:
        support.insert(rng.randrange(len(support) + 1), (t, q))
    elif fault == 1:
        support[at] = (t[:-1] + (sizes[-1] + rng.randint(0, 1),), q)
    elif fault == 2:
        support[at] = (t + (0,) if rng.random() < 0.5 else t[:-1], q)
    elif fault == 3:
        support[at] = (t, rng.choice([F(0), F(-1, 3)]))
    elif fault == 4:
        support[at] = (t, q + F(1, 7))
    elif fault == 5:
        support = []
    return sizes, support


def _multi_wording(exc) -> str:
    """A reference support error on the grid of type indices, in the
    words MultiItemInstance uses for it."""
    text = str(exc)
    unused = re.fullmatch(r"grid value (\d+) (of bidder \d+ appears in no support profile) .*", text)
    if unused:
        return f"type {unused[1]} {unused[2]}"
    off = re.fullmatch(r"(?:support )?profile (.*) (?:is off the grid|has \d+ entries.*)", text)
    if off:
        return f"type profile {off[1]} is outside the type product"
    return text


_MULTI_FAULTS = {
    "duplicate": "duplicate support profile",
    "outside": "is outside the type product",
    "non-positive": "is not positive",
    "sum": "support probabilities sum to",
    "empty": "empty support",
    "unused": "appears in no support profile",
}


def test_multi_support_matches_the_reference():
    """A multi-item support goes through the same check as a single-item
    one: against the profile-keyed reference build on the grid of type
    indices it gives the same support in canonical order, or the same
    error in the multi-item words, whichever fault comes first."""
    rng = random.Random(2029)
    seen = set()
    for _ in range(400):
        sizes, support = _multi_support_case(rng)
        types = [[unit(k + 1) for k in range(size)] for size in sizes]
        grid = ValueGrid([list(range(size)) for size in sizes])
        try:
            want = reference_distribution_support(grid, support)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError) as got:
                MultiItemInstance(1, types, support)
            assert str(got.value) == _multi_wording(exc)
            seen.update(kind for kind, text in _MULTI_FAULTS.items() if text in str(got.value))
            if isinstance(exc, DimensionMismatchError):
                seen.add("length")
            continue
        inst = MultiItemInstance(1, types, support)
        assert list(inst.support.items()) == list(want.items())
        assert inst.flat == tuple(grid.flat_index(v) for v in want)
        assert inst.masses == tuple(want.values())
        assert all(type(k) is int for t in inst.support for k in t)
        seen.add("ok")
    assert seen == set(_MULTI_FAULTS) | {"length", "ok"}

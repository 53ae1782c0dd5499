"""Exact one-phase simplex: classic fixtures, degenerate/cycling cases,
free variables, the rows it refuses (= rows and negative right-hand
sides), a brute-force vertex cross-check on random programs,
pivot-for-pivot parity with the dense reference solver on integer,
rational and tie-heavy programs and under Bland's rule throughout, dual
certificates of every parity optimum, the column index checked against
a full scan at every pivot, and the same pivots and vertex whether rows
are reduced always, never or past the width bound.  A program with float
coefficients is solved exactly at their binary values, pivot for pivot
as the dense reference solves it."""

import itertools
import random
from fractions import Fraction as F

import pytest

import support
from revmax import (
    ExplicitDistribution,
    FeasibilitySystem,
    InvalidInputError,
    LinearProgram,
    PivotLimitError,
    ValueGrid,
    build_multi_lp,
    build_optimal_lp,
    lp as lp_module,
    solve,
)
from revmax.lp import LEQ
from support import random_multi_instance, reference_solve


def test_two_variable_maximum():
    lp = LinearProgram(2, [F(3), F(5)])
    lp.add_constraint({0: F(1)}, LEQ, F(4))
    lp.add_constraint({1: F(2)}, LEQ, F(12))
    lp.add_constraint({0: F(3), 1: F(2)}, LEQ, F(18))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == F(36)
    assert sol.x == (F(2), F(6))


def test_minimization_via_negated_objective():
    # min 3x + 4y - 5z subject to z <= x + y and z <= 2
    lp = LinearProgram(3, [F(-3), F(-4), F(5)])
    lp.add_constraint({0: F(-1), 1: F(-1), 2: F(1)}, LEQ, F(0))
    lp.add_constraint({2: F(1)}, LEQ, F(2))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == F(4)
    assert sol.x == (F(2), F(0), F(2))


def test_equality_constraints():
    # an = row has no slack to start the basis, so it is refused
    lp = LinearProgram(2, [F(1), F(1)])
    with pytest.raises(InvalidInputError):
        lp.add_constraint({0: F(1), 1: F(1)}, "=", F(1))
    assert lp.constraints == []


def test_infeasible_program():
    # x = 0 satisfies every <= row with a nonnegative right-hand side, so
    # only a negative one could make a program infeasible; it is refused
    lp = LinearProgram(1, [F(1)])
    lp.add_constraint({0: F(1)}, LEQ, F(1))
    for rhs in (F(-2), -2, -0.5):
        with pytest.raises(InvalidInputError):
            lp.add_constraint({0: F(-1)}, LEQ, rhs)
    assert len(lp.constraints) == 1
    assert solve(lp).x == (F(1),)


def test_unbounded_program():
    lp = LinearProgram(1, [F(1)])
    lp.add_constraint({0: F(-1)}, LEQ, F(0))
    assert solve(lp).status == "unbounded"


def test_free_variable_split():
    # min x subject to x >= -5, x free
    lp = LinearProgram(1, [F(-1)])
    lp.set_free(0)
    lp.add_constraint({0: F(-1)}, LEQ, F(5))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.x == (F(-5),)
    assert sol.objective == F(5)


def test_shifted_and_boxed_bounds():
    # max x0 + 2 x1 with 1 <= x0 <= 3, -2 <= x1 <= 2 (x1 free) and
    # x0 + x1 <= 4; the lower bound is the shift x0 = 1 + u, u >= 0, which
    # moves 1 into every right-hand side and the objective
    lp = LinearProgram(2, [F(1), F(2)])
    lp.set_free(1)
    lp.add_constraint({0: F(1)}, LEQ, F(2))
    lp.add_constraint({1: F(-1)}, LEQ, F(2))
    lp.add_constraint({1: F(1)}, LEQ, F(2))
    lp.add_constraint({0: F(1), 1: F(1)}, LEQ, F(3))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert (1 + sol.x[0], sol.x[1]) == (F(2), F(2))
    assert 1 + sol.objective == F(6)


def _cycling_lp():
    # the classic cycling example; Dantzig pricing alone can loop forever
    lp = LinearProgram(4, [F(3, 4), F(-150), F(1, 50), F(-6)])
    lp.add_constraint({0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, LEQ, F(0))
    lp.add_constraint({0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, LEQ, F(0))
    lp.add_constraint({2: F(1)}, LEQ, F(1))
    return lp


def test_degenerate_cycling_fixture():
    sol = solve(_cycling_lp())
    assert sol.status == "optimal"
    assert sol.objective == F(1, 20)


def test_redundant_rows_are_harmless():
    # the second row is twice the first: a degenerate pivot ties them
    lp = LinearProgram(2, [F(1), F(1)])
    lp.add_constraint({0: F(1), 1: F(1)}, LEQ, F(1))
    lp.add_constraint({0: F(2), 1: F(2)}, LEQ, F(2))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == F(1)
    assert sum(sol.x) == 1


def test_float_mode_runs():
    # float coefficients are read at their exact values: the answer is exact
    lp = LinearProgram(2, [3.0, 5.0])
    lp.add_constraint({0: 1.0}, LEQ, 4.0)
    lp.add_constraint({1: 2.0}, LEQ, 12.0)
    lp.add_constraint({0: 3.0, 1: 2.0}, LEQ, 18.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == F(36) and type(sol.objective) is F
    assert sol.x == (F(2), F(6))
    lp = LinearProgram(1, [1.0])
    lp.add_constraint({0: 3.0}, LEQ, 0.1)
    assert solve(lp).x == (F(0.1) / 3,)


def _float_program(lp):
    """The same program with every objective entry, coefficient and
    right-hand side rounded to a float."""
    out = LinearProgram(lp.num_vars, [float(c) for c in lp.objective])
    for j, free in enumerate(lp.free):
        if free:
            out.set_free(j)
    for row, rel, rhs in lp.constraints:
        out.add_constraint({j: float(c) for j, c in row.items()}, rel, float(rhs))
    return out


def _assert_float_parity(lp):
    """The program rounded to floats solves exactly, pivot for pivot as
    the dense reference solves it at the floats' binary values."""
    flp = _float_program(lp)
    got, want = solve(flp), reference_solve(flp)
    assert (got.status, got.x, got.objective, got.pivots) == (
        want.status, want.x, want.objective, want.pivots
    )


def _brute_force_optimum(cols, rows, rhs, objective):
    """Enumerate basic solutions of Ax <= b, x >= 0 by intersecting
    constraint boundaries; exact and tiny."""
    m = len(rows)
    n = cols
    best = None
    # vertices arise from choosing n tight constraints among rows + axes
    tight_sets = itertools.combinations(range(m + n), n)
    for tight in tight_sets:
        mat, vec = [], []
        for t in tight:
            if t < m:
                mat.append(rows[t])
                vec.append(rhs[t])
            else:
                mat.append([F(1) if j == t - m else F(0) for j in range(n)])
                vec.append(F(0))
        point = _solve_square(mat, vec)
        if point is None:
            continue
        if any(c < 0 for c in point):
            continue
        if any(
            sum(a * x for a, x in zip(row, point)) > b
            for row, b in zip(rows, rhs)
        ):
            continue
        val = sum(c * x for c, x in zip(objective, point))
        if best is None or val > best:
            best = val
    return best


def _solve_square(mat, vec):
    n = len(vec)
    rows = [list(r) + [v] for r, v in zip(mat, vec)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = rows[c][c]
        rows[c] = [e / inv for e in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [rows[i][n] for i in range(n)]


def test_random_programs_match_vertex_enumeration():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        rows = [
            [F(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)
        ]
        # keep the feasible region bounded
        rows.append([F(1)] * n)
        rhs = [F(rng.randint(1, 9)) for _ in range(m)] + [F(10)]
        objective = [F(rng.randint(-3, 5)) for _ in range(n)]
        lp = LinearProgram(n, objective)
        for row, b in zip(rows, rhs):
            lp.add_constraint({j: c for j, c in enumerate(row) if c}, LEQ, b)
        sol = solve(lp)
        assert sol.status == "optimal"
        expected = _brute_force_optimum(n, rows, rhs, objective)
        assert sol.objective == expected


def test_rejects_malformed_input():
    lp = LinearProgram(2, [F(1), F(1)])
    with pytest.raises(Exception):
        lp.add_constraint({5: F(1)}, LEQ, F(1))
    with pytest.raises(Exception):
        lp.add_constraint({0: F(1)}, "!=", F(1))


@pytest.mark.parametrize(
    "bad", [None, "1", float("nan"), float("inf"), float("-inf")], ids=repr
)
def test_a_number_without_an_exact_finite_value_is_input_error(bad):
    """A coefficient, objective entry or right-hand side that is None, a
    string, NaN or infinite is refused where it is given, naming its
    variable (or row); None used to read as 0, and the others crashed
    inside solve."""
    with pytest.raises(InvalidInputError, match="objective coefficient of variable 1 is"):
        LinearProgram(2, [1, bad])
    lp = LinearProgram(2, [1, 1])
    lp.add_constraint({0: 1}, LEQ, 1)
    with pytest.raises(InvalidInputError, match="coefficient of variable 1 in row 1 is"):
        lp.add_constraint({0: 1, 1: bad}, LEQ, 1)
    with pytest.raises(InvalidInputError, match="right-hand side of row 1 is"):
        lp.add_constraint({0: 1}, LEQ, bad)
    assert len(lp.constraints) == 1
    lp.add_constraint({1: F(1, 2)}, LEQ, 1.5)  # exact values of every kind still pass
    assert solve(lp).objective == 4


def _random_program(rng):
    """Small random program with nonnegative and free variables, <= rows
    with nonnegative right-hand sides, and sometimes a redundant scaled
    copy of a row."""
    n = rng.randint(1, 6)
    lp = LinearProgram(n, [F(rng.randint(-3, 4)) for _ in range(n)])
    for j in range(n):
        if rng.random() < 0.3:
            lp.set_free(j)
    for _ in range(rng.randint(1, 7)):
        coeffs = {
            j: F(rng.randint(-4, 4), rng.randint(1, 2))
            for j in range(n)
            if rng.random() < 0.7
        }
        rhs = F(rng.randint(0, 8))
        lp.add_constraint(coeffs, LEQ, rhs)
        if rng.random() < 0.1:
            k = rng.randint(2, 3)
            lp.add_constraint({j: k * c for j, c in coeffs.items()}, LEQ, k * rhs)
    return lp


def test_sparse_simplex_matches_dense_reference():
    rng = random.Random(20101111)
    programs = [_random_program(rng) for _ in range(240)] + [_cycling_lp()]
    seen = set()
    for lp in programs:
        got, want = solve(lp), reference_solve(lp)
        assert got.status == want.status
        assert got.x == want.x
        assert got.objective == want.objective
        assert got.pivots == want.pivots
        seen.add(got.status)
        _assert_float_parity(lp)
    assert seen == {"optimal", "unbounded"}


def _rational(rng, lo, hi):
    return F(rng.randint(lo, hi), rng.choice((1, 2, 3, 5, 7, 11)))


def _rational_program(rng):
    """Small random program whose objective, coefficients and (nonnegative)
    right-hand sides are fractions over the coprime denominators 1 to
    11."""
    n = rng.randint(1, 6)
    lp = LinearProgram(n, [_rational(rng, -6, 8) for _ in range(n)])
    for j in range(n):
        if rng.random() < 0.3:
            lp.set_free(j)
    for _ in range(rng.randint(1, 7)):
        coeffs = {j: _rational(rng, -9, 9) for j in range(n) if rng.random() < 0.7}
        lp.add_constraint(coeffs, LEQ, _rational(rng, 0, 16))
    return lp


def test_rational_simplex_matches_dense_reference(monkeypatch):
    entries = []
    pivot = lp_module._pivot

    def recording(rows, rhs, den, leave, enter, *rest):
        entries.append(rows[leave][enter])
        return pivot(rows, rhs, den, leave, enter, *rest)

    monkeypatch.setattr(lp_module, "_pivot", recording)
    rng = random.Random(19680101)
    programs = [_rational_program(rng) for _ in range(200)]
    programs += [build_multi_lp(random_multi_instance(rng)) for _ in range(4)]
    seen = set()
    for lp in programs:
        got, want = solve(lp), reference_solve(lp)
        assert got.status == want.status
        assert got.x == want.x
        assert got.objective == want.objective
        assert got.pivots == want.pivots
        seen.add(got.status)
        _assert_float_parity(lp)
    assert seen == {"optimal", "unbounded"}
    # the ratio test only picks positive entries, which _pivot relies on
    assert min(entries) > 0


def test_pivot_count():
    # Dantzig's rule enters x1 (reduced cost 2) and then x0
    lp = LinearProgram(2, [F(1), F(2)])
    lp.add_constraint({0: F(1), 1: F(1)}, LEQ, F(1))
    lp.add_constraint({1: F(1)}, LEQ, F(1, 2))
    sol = solve(lp)
    assert sol.x == (F(1, 2), F(1, 2))
    assert sol.pivots == 2
    lp = LinearProgram(1, [F(1)])
    lp.add_constraint({0: F(1)}, LEQ, F(3))
    assert solve(lp).pivots == 1


def test_pivot_limit_raises_typed_error(monkeypatch):
    monkeypatch.setattr(lp_module, "_MAX_PIVOTS", 1)
    with pytest.raises(PivotLimitError):
        solve(_cycling_lp())


def _integer_programs():
    """The programs of test_sparse_simplex_matches_dense_reference."""
    rng = random.Random(20101111)
    return [_random_program(rng) for _ in range(240)] + [_cycling_lp()]


def _rational_programs():
    """The programs of test_rational_simplex_matches_dense_reference."""
    rng = random.Random(19680101)
    programs = [_rational_program(rng) for _ in range(200)]
    return programs + [build_multi_lp(random_multi_instance(rng)) for _ in range(4)]


def _symmetric_programs():
    """Revenue LPs of exchangeable priors on grids where every bidder has
    the same values (at most 27 profiles): symmetric bidders give equal
    reduced costs, so Dantzig's rule breaks many ties."""
    rng = random.Random(1011)
    programs = []
    for _ in range(10):
        n = rng.choice((2, 3))
        k = 3 if n == 3 else rng.randint(2, 5)
        values = sorted(rng.sample(range(1, 9), k))
        profiles = list(itertools.product(range(k), repeat=n))
        orbit = {}
        for p in profiles:
            orbit.setdefault(tuple(sorted(p)), rng.randint(1, 3))
        w = [orbit[tuple(sorted(p))] for p in profiles]
        prior = {tuple(values[c] for c in p): F(x, sum(w)) for p, x in zip(profiles, w)}
        fs = FeasibilitySystem.single_item(n)
        if n == 3 and rng.random() < 0.5:
            # two units among three bidders
            fs = FeasibilitySystem(n, [v for v in itertools.product((0, 1), repeat=n) if sum(v) < 3])
        programs.append(build_optimal_lp(ExplicitDistribution(ValueGrid([values] * n), prior), fs))
    return programs


def _assert_parity(programs):
    for lp in programs:
        got, want = solve(lp), reference_solve(lp)
        assert (got.status, got.x, got.objective, got.pivots) == (
            want.status, want.x, want.objective, want.pivots
        )
        _assert_float_parity(lp)


def test_tie_heavy_programs_match_dense_reference():
    _assert_parity(_symmetric_programs())


def test_bland_from_the_start_matches_dense_reference(monkeypatch):
    # with no stall allowed, Bland's rule takes over at the first
    # degenerate pivot, on both sides
    programs = _integer_programs() + _rational_programs() + _symmetric_programs()
    dantzig = [solve(lp).pivots for lp in programs]
    monkeypatch.setattr(lp_module, "_STALL_LIMIT", 0)
    monkeypatch.setattr(support, "_STALL_LIMIT", 0)
    _assert_parity(programs)
    assert [solve(lp).pivots for lp in programs] != dantzig


def test_duals_certify_every_parity_optimum():
    # y >= 0, y.A_j >= c_j (equal on free columns) and b.y = objective:
    # weak duality then proves the optimum
    programs = _integer_programs() + _rational_programs() + _symmetric_programs()
    optima = 0
    for lp in programs:
        sol = solve(lp)
        if sol.status != "optimal":
            assert sol.dual is None
            continue
        optima += 1
        y = sol.dual
        assert len(y) == len(lp.constraints)
        assert all(type(v) is F and v >= 0 for v in y)
        column = [F(0)] * lp.num_vars
        for yr, (row, _, _) in zip(y, lp.constraints):
            for j, a in row.items():
                column[j] += yr * a
        for j, c in enumerate(lp.objective):
            assert column[j] == c if lp.free[j] else column[j] >= c
        assert sum(yr * rhs for yr, (_, _, rhs) in zip(y, lp.constraints)) == sol.objective
    assert optima >= 200


def test_column_index_matches_full_scan(monkeypatch):
    pivot = lp_module._pivot
    checked = []

    def checking(rows, rhs, den, leave, enter, column, *rest):
        assert column == {i: r[enter] for i, r in enumerate(rows) if enter in r}
        checked.append(enter)
        return pivot(rows, rhs, den, leave, enter, column, *rest)

    monkeypatch.setattr(lp_module, "_pivot", checking)
    for lp in _integer_programs() + _rational_programs():
        solve(lp)
        solve(_float_program(lp))
    assert len(checked) > 1000


# pairwise coprime denominators near 10**6
_WIDE = (10**6 + 3, 10**6 + 33, 10**6 + 37, 10**6 + 39)


def _wide_program(rng):
    """Random program whose coefficients have the coprime _WIDE
    denominators, so row denominators pass _REDUCE_BITS after a few
    eliminations."""
    n = rng.randint(3, 7)
    lp = LinearProgram(n, [F(rng.randint(-3, 6), rng.choice(_WIDE)) for _ in range(n)])
    for _ in range(rng.randint(3, 7)):
        coeffs = {
            j: F(rng.randint(-9, 9), rng.choice(_WIDE)) for j in range(n) if rng.random() < 0.8
        }
        lp.add_constraint(coeffs, LEQ, F(rng.randint(0, 9), rng.choice(_WIDE)))
    return lp


def _outcome(sol):
    return sol.status, sol.pivots, sol.x, sol.objective


@pytest.mark.parametrize("bits", [-1, 10**9], ids=["always", "never"])
def test_pivot_path_does_not_depend_on_row_reduction(monkeypatch, bits):
    # rows reduced after every elimination, or never, against the default,
    # which reduces a row once its denominator passes _REDUCE_BITS: the
    # wide programs cross that bound in the middle of a run
    rng = random.Random(62)
    programs = _integer_programs() + [_wide_program(rng) for _ in range(40)]
    eliminate = lp_module._eliminate
    wide = []  # per run, whether each elimination's denominator was past the bound

    def recording(row, r, d, *rest):
        wide[-1].add(d.bit_length() > lp_module._REDUCE_BITS)
        return eliminate(row, r, d, *rest)

    monkeypatch.setattr(lp_module, "_eliminate", recording)
    default = []
    for lp in programs:
        wide.append(set())
        default.append(_outcome(solve(lp)))
    assert sum(w == {True, False} for w in wide) >= 20
    monkeypatch.setattr(lp_module, "_REDUCE_BITS", bits)
    assert [_outcome(solve(lp)) for lp in programs] == default
    assert {sol[0] for sol in default} == {"optimal", "unbounded"}

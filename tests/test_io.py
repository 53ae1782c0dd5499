"""File formats: byte-deterministic canonical encoding, lossless round
trips, exact decimal parsing, and rejection of malformed inputs."""

import json
import random
from fractions import Fraction as F

import pytest

from revmax import (
    ExplicitDistribution,
    FeasibilitySystem,
    InvalidInputError,
    ValueGrid,
    canonical_expost,
    first_price,
    second_price,
    solve_multi,
    solve_optimal,
    vickrey,
)
from revmax import io as rio
from revmax.verify import check_ir, check_truthful
from support import random_distribution, random_interim, random_m1_instance

PAIR = ExplicitDistribution.from_support({(1, 1): F(1, 2), (2, 2): F(1, 2)})


def test_lines_are_canonical_and_sorted():
    line = rio.dumps_line({"b": 1, "a": 2})
    assert line == '{"a":2,"b":1}\n'


def test_number_formatting_exact_and_float():
    assert rio.format_number(F(3, 2), "exact") == "3/2"
    assert rio.format_number(F(2), "exact") == "2"
    assert rio.format_number(F(1, 2), "float") == 0.5


def test_instance_round_trip_is_byte_identical():
    text = rio.write_instance(PAIR)
    parsed = rio.read_instance(text)
    assert parsed.model == "single-item"
    assert parsed.dist.support == PAIR.support
    assert rio.write_instance(parsed.dist) == text


def test_instance_round_trip_random():
    rng = random.Random(23)
    for _ in range(20):
        dist = random_distribution(rng)
        text = rio.write_instance(dist)
        parsed = rio.read_instance(text)
        assert parsed.dist.support == dist.support
        assert parsed.dist.grid == dist.grid
        assert rio.write_instance(parsed.dist) == text


def test_single_parameter_instance_keeps_vectors():
    fs = FeasibilitySystem(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    text = rio.write_instance(PAIR, fs)
    parsed = rio.read_instance(text)
    assert parsed.model == "single-parameter"
    assert parsed.fs.vectors == fs.vectors
    assert rio.write_instance(parsed.dist, parsed.fs) == text


def test_decimal_probabilities_parse_exactly():
    text = (
        '{"format":1,"model":"single-item"}\n'
        '{"grid":[["1","2"]]}\n'
        '{"prob":0.1,"support":["1"]}\n'
        '{"prob":"0.9","support":["2"]}\n'
    )
    parsed = rio.read_instance(text)
    assert parsed.dist.prob((1,)) == F(1, 10)
    assert parsed.dist.prob((2,)) == F(9, 10)


def test_mechanism_round_trips():
    result = solve_optimal(PAIR)
    expost = canonical_expost(result.interim, FeasibilitySystem.single_item(2))
    for mech in (result.interim, expost, vickrey(PAIR.grid)):
        text = rio.write_mechanism(mech)
        parsed = rio.read_mechanism(text)
        assert rio.write_mechanism(parsed.mech) == text


def test_interim_parse_preserves_tables():
    result = solve_optimal(PAIR)
    parsed = rio.read_mechanism(rio.write_mechanism(result.interim))
    assert parsed.mech == result.interim


def test_universal_round_trip():
    parts = [(vickrey(PAIR.grid), F(1, 4)), (first_price(PAIR.grid), F(3, 4))]
    text = rio.write_mechanism(None, parts=parts)
    parsed = rio.read_mechanism(text)
    assert parsed.kind == "universal"
    assert [w for _, w in parsed.parts] == [F(1, 4), F(3, 4)]
    assert parsed.parts[0][0].choice == parts[0][0].choice
    assert rio.write_mechanism(None, parts=parsed.parts) == text


def test_multi_round_trips():
    rng = random.Random(29)
    inst = random_m1_instance(rng)
    text = rio.write_instance(inst)
    parsed = rio.read_instance(text)
    assert parsed.multi.support == inst.support
    assert parsed.multi.types == inst.types
    assert rio.write_instance(parsed.multi) == text
    mech, _ = solve_multi(inst)
    mtext = rio.write_mechanism(mech)
    mparsed = rio.read_mechanism(mtext)
    assert mparsed.mech.lotteries == mech.lotteries
    assert mparsed.mech.payments == mech.payments
    assert rio.write_mechanism(mparsed.mech) == mtext


def test_report_round_trip():
    bad = check_truthful(first_price(PAIR.grid).as_interim())
    good = check_ir(vickrey(PAIR.grid).as_interim())
    for report in (bad, good):
        text = rio.write_report(report, "exact")
        passed, checks, witnesses = rio.read_report(text)
        assert passed == report.passed
        assert len(witnesses) == len(report.witnesses)
        assert checks == {k: v for k, v in report.checks.items()}
    # exact mode never emits floating point
    assert "e-" not in rio.write_report(bad, "exact")


def test_mode_override_on_read():
    text = rio.write_instance(PAIR)
    parsed = rio.read_instance(text, mode="float")
    assert parsed.mode == "float"
    assert isinstance(parsed.dist.prob((1.0, 1.0)), float)


def test_rejects_malformed_files():
    with pytest.raises(InvalidInputError):
        rio.read_instance("")
    with pytest.raises(InvalidInputError):
        rio.read_instance("not json\n")
    with pytest.raises(InvalidInputError):
        rio.read_instance('{"format":2,"model":"single-item"}\n')
    with pytest.raises(InvalidInputError):
        rio.read_instance('{"format":1,"model":"nope"}\n{"grid":[["1"]]}\n')
    with pytest.raises(InvalidInputError):
        rio.read_instance(
            '{"format":1,"model":"single-item"}\n{"prob":"1","support":["1"]}\n'
        )
    with pytest.raises(InvalidInputError):
        rio.read_mechanism('{"format":1,"kind":"mystery"}\n{"grid":[["1"]]}\n')


def test_mechanism_line_missing_a_key_is_input_error():
    multi, _ = solve_multi(random_m1_instance(random.Random(29)))
    parts = [(vickrey(PAIR.grid), F(1, 4)), (first_price(PAIR.grid), F(3, 4))]
    result = solve_optimal(PAIR)
    expost = canonical_expost(result.interim, FeasibilitySystem.single_item(2))
    texts = [
        rio.write_mechanism(m)
        for m in (result.interim, expost, vickrey(PAIR.grid), multi)
    ]
    texts.append(rio.write_mechanism(None, parts=parts))
    for text in texts:
        lines = text.splitlines()
        body = next(k for k, line in enumerate(lines) if '"profile"' in line)
        obj = rio.loads_line(lines[body])
        for key in obj:
            cut = dict(obj)
            del cut[key]
            broken = lines[:body] + [rio.dumps_line(cut).strip()] + lines[body + 1 :]
            with pytest.raises(InvalidInputError):
                rio.read_mechanism("\n".join(broken) + "\n")


def test_float_file_round_trip():
    dist = ExplicitDistribution.from_support(
        {(1.0, 1.0): 0.5, (2.0, 2.0): 0.5}, mode="float"
    )
    text = rio.write_instance(dist)
    parsed = rio.read_instance(text)
    assert parsed.mode == "float"
    assert parsed.dist.prob((1.0, 1.0)) == 0.5
    assert rio.write_instance(parsed.dist) == text


def _kind_files(rng, n):
    """Canonical exact and float files of every single-item mechanism
    kind on a seeded grid of n bidders; the first has two or three
    values, the others one to three."""
    grid = ValueGrid(
        [sorted(rng.sample(range(1, 10), rng.randint(2 if i == 0 else 1, 3))) for i in range(n)]
    )
    interim = random_interim(rng, grid)
    parts = [(vickrey(grid), F(1, 3)), (first_price(grid), F(2, 3))]
    exact = [
        rio.write_mechanism(interim),
        rio.write_mechanism(canonical_expost(interim, FeasibilitySystem.single_item(n))),
        rio.write_mechanism(second_price(grid)),
        rio.write_mechanism(None, parts=parts),
    ]
    floats = []
    for text in exact:
        parsed = rio.read_mechanism(text, "float")
        floats.append(rio.write_mechanism(parsed.mech, parts=parsed.parts))
    return exact + floats


def _split(text):
    lines = text.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if '"profile"' in line or '"part"' in line)
    return lines[:k], lines[k:]


def _shuffled(rng, body):
    """The body lines in a random order that keeps the lines of one
    profile (ex-post lottery outcomes) in file order."""
    queues = {}
    for line in body:
        obj = rio.loads_line(line)
        queues.setdefault(repr((obj.get("part"), obj.get("profile"))), []).append(line)
    queues = list(queues.values())
    out = []
    while queues:
        queue = rng.choice(queues)
        out.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return out


def _tables(parsed):
    """Each per-profile table of a parsed mechanism in order, with the
    universal part probabilities."""
    mechs = [m for m, _ in parsed.parts] if parsed.parts else [parsed.mech]
    names = ("x", "p", "outcomes", "choice", "payments")
    tables = [getattr(m, a) for m in mechs for a in names if hasattr(m, a)]
    return tables, [w for _, w in parsed.parts or ()]


def _items(parsed):
    tables, probs = _tables(parsed)
    return [list(t.items()) for t in tables], probs


def _outcome(text):
    try:
        return _items(rio.read_mechanism(text))
    except InvalidInputError as exc:
        return type(exc), str(exc)


def _faults(line, body):
    """The body with the given profile line repeated, dropped, or joined
    by a copy off the grid: one fault each."""
    obj = json.loads(line)
    obj["profile"] = ["100"] + obj["profile"][1:]
    k = body.index(line)
    return [
        body[: k + 1] + [line] + body[k + 1 :],
        body[:k] + body[k + 1 :],
        body + [rio.dumps_line(obj)],
    ]


def _respell(rng, v):
    if type(v) is not str or rng.random() < 0.5:
        return v
    q = F(v)
    if q == 0:
        return "-0"
    if q == F(1, 2):
        return 0.5  # a JSON number
    if q.denominator == 1:
        return "0" + v
    return f"{2 * q.numerator}/{2 * q.denominator}"


def _respelled(rng, text):
    out = []
    for line in text.splitlines():
        obj = rio.loads_line(line)
        for key in ("alloc", "pay", "profile", "prob"):
            if isinstance(obj.get(key), list):
                obj[key] = [_respell(rng, c) for c in obj[key]]
            elif key in obj:
                obj[key] = _respell(rng, obj[key])
        if "grid" in obj:
            obj["grid"] = [[_respell(rng, c) for c in vi] for vi in obj["grid"]]
        out.append(rio.dumps_line(obj))
    return "".join(out)


def _numbers(value):
    if isinstance(value, (tuple, list)):
        for c in value:
            yield from _numbers(c)
    elif type(value) is not int:  # vector indices
        yield value


def test_canonical_tables_match_shuffled():
    """Tables read by position from canonical files equal the tables read
    from the same lines in any order, keyed by the grid's own profiles;
    faulty files fail alike on both paths; respelled numbers read the
    same; and one file read in each mode in turn gives that mode's types."""
    rng = random.Random(31)
    kinds = set()
    for n in [1, 2, 3, 4] * 3:
        for text in _kind_files(rng, n):
            parsed = rio.read_mechanism(text)
            kinds.add((parsed.kind, parsed.mode))
            grid = (parsed.parts[0][0] if parsed.parts else parsed.mech).grid
            tables, _ = _tables(parsed)
            for table in tables:
                assert len(table) == grid.cells()
                for key, profile in zip(table, grid.profiles()):
                    assert all(a is b for a, b in zip(key, profile))
            head, body = _split(text)
            shuffled = _shuffled(rng, body)
            assert _items(rio.read_mechanism("".join(head + shuffled))) == _items(parsed)
            line = rng.choice([line for line in body if '"profile"' in line])
            for canonical, mixed in zip(_faults(line, body), _faults(line, shuffled)):
                want = _outcome("".join(head + canonical))
                assert want[0] is InvalidInputError
                assert _outcome("".join(head + mixed)) == want
            if parsed.mode == "float":
                continue
            assert _items(rio.read_mechanism(_respelled(rng, text))) == _items(parsed)
            for mode, cls in (("exact", F), ("float", float), ("exact", F)):
                values = _items(rio.read_mechanism(text, mode))
                assert {type(c) for c in _numbers(values)} == {cls}
    assert len(kinds) == 8

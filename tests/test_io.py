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
    MultiMechanism,
    ValueGrid,
    canonical_expost,
    first_price,
    second_price,
    solve_multi,
    solve_optimal,
    vickrey,
)
from revmax import io as rio
from revmax.model import convert
from revmax.verify import check_ir, check_truthful
from support import (
    random_distribution,
    random_interim,
    random_m1_instance,
    random_multi_instance,
    random_multi_mechanism,
    reference_read_mechanism,
)

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


def _spell(value, style: int):
    """Another spelling of one number of a file: an exact string as
    2p/2q (style 0) or, when it is an integer, as a decimal such as
    "13.0" (style 1); a JSON number of a float file as an int when it is
    integral (style 0) or as itself."""
    if type(value) is not str:
        return int(value) if style == 0 and value == int(value) else value
    q = F(value)
    if style == 1 and q.denominator == 1:
        return f"{q}.0"
    return f"{2 * q.numerator}/{2 * q.denominator}"


def _variants(rng, text):
    """The file itself, its body lines shuffled (a profile's ex-post
    outcomes and a universal part's lines keep their order, parts
    interleave), and copies whose body profiles, or whose grid line
    alone, spell the numbers otherwise."""
    head, body = _split(text)
    out = [text, "".join(head + _shuffled(rng, body))]
    for style in (0, 1):
        lines = []
        for line in body:
            obj = json.loads(line)
            if "profile" in obj:
                obj["profile"] = [_spell(c, style) for c in obj["profile"]]
            lines.append(rio.dumps_line(obj))
        out.append("".join(head + _shuffled(rng, lines)))
    regrid = []
    for line in head:
        obj = json.loads(line)
        if "grid" in obj:
            obj["grid"] = [[_spell(c, 0) for c in vi] for vi in obj["grid"]]
        regrid.append(rio.dumps_line(obj))
    out.append("".join(regrid + body))
    return out


def _read_items(read, text, mode):
    """The tables read(text, mode) gives, as _items lists them, or the
    input error it raises."""
    try:
        parsed = read(text, mode)
    except InvalidInputError as exc:
        return type(exc), str(exc)
    if isinstance(parsed, list):  # the reference's universal parts
        parsed = rio.ParsedMechanism("universal", mode, parts=tuple(parsed))
    elif not isinstance(parsed, rio.ParsedMechanism):
        parsed = rio.ParsedMechanism(None, mode, mech=parsed)
    return _items(parsed)


def test_reader_matches_reference_reader():
    """Lines in any order and numbers spelled otherwise than on the grid
    line read as the public constructors build the same (profile, row)
    pairs: the same rows with the same number types, in exact and float
    files and in both modes, or the same input error (a float file's
    probabilities need not sum to 1 exactly)."""
    rng = random.Random(41)
    read = 0
    for n in [1, 2, 3, 4] * 2:
        for text in _kind_files(rng, n):
            for variant in _variants(rng, text):
                for mode in (None, "exact", "float"):
                    got = _read_items(rio.read_mechanism, variant, mode)
                    want = _read_items(reference_read_mechanism, variant, mode)
                    assert got == want
                    if isinstance(got[0], type):  # an input error
                        continue
                    read += 1
                    assert [type(c) for c in _numbers(got)] == [
                        type(c) for c in _numbers(want)
                    ]
    assert read > 800


def _fault_files():
    """(name, instance text, mechanism text) for one fault of each kind
    in each single-item mechanism kind on a fixed grid, each with its
    body lines in file order and reversed."""
    grid = ValueGrid([[1, F(5, 2)], [0, 3]])
    fs = FeasibilitySystem.single_item(2)
    inst = rio.write_instance(
        ExplicitDistribution(grid, {v: F(1, 4) for v in grid.profiles()})
    )
    det = second_price(grid)
    texts = {
        "interim": rio.write_mechanism(det.as_interim()),
        "expost": rio.write_mechanism(canonical_expost(det.as_interim(), fs)),
        "deterministic": rio.write_mechanism(det),
        "universal": rio.write_mechanism(
            None, parts=[(det, F(1, 3)), (vickrey(grid), F(2, 3))]
        ),
    }
    out = []
    for kind, text in texts.items():
        head, body = _split(text)
        at = next(k for k, line in enumerate(body) if '"profile"' in line)
        obj = rio.loads_line(body[at])

        def edited(**change):
            line = rio.dumps_line({**obj, **change})
            return "".join(head + body[:at] + [line] + body[at + 1 :])

        off = rio.dumps_line({**obj, "profile": ["100"] + obj["profile"][1:]})
        faults = {
            "duplicate": "".join(head + body[: at + 1] + body[at:]),
            "missing": "".join(head + body[:at] + body[at + 1 :]),
            "off-grid": "".join(head + body + [off]),
            "pay length": edited(pay=obj["pay"] + ["0"]),
        }
        if kind == "interim":
            faults["alloc length"] = edited(alloc=obj["alloc"] + ["0"])
        else:
            faults["vector index"] = edited(vector=7)
        if kind in ("deterministic", "universal"):
            # profile (1, 0): bidder 0 wins, so bidder 1 may not pay
            faults["non-winner charged"] = edited(pay=[obj["pay"][0], "1"])
        if kind == "universal":
            k = next(k for k, line in enumerate(body) if '"profile"' not in line)
            faults["repeated part"] = "".join(head + body[: k + 1] + body[k:])
        for name, mech in faults.items():
            top, lines = _split(mech)
            out.append((f"{kind} {name}", inst, mech))
            out.append((f"{kind} {name}", inst, "".join(top + lines[::-1])))
    return out


# the message of each fault, in whichever order the body lines come
_AT = "(1, 0)"  # the faulty line's profile
_OFF = "[(100, 0)]"
FAULT_MESSAGES = {
    "interim duplicate": "duplicate line for profile ['1', '0']",
    "interim missing": f"allocation table missing profile {_AT}",
    "interim off-grid": f"allocation table has off-grid profiles {_OFF}",
    "interim pay length": f"p row at {_AT} has wrong length",
    "interim alloc length": f"x row at {_AT} has wrong length",
    "expost duplicate": f"outcome probabilities at {_AT} sum to 2, not 1",
    "expost missing": f"outcome table missing profile {_AT}",
    "expost off-grid": f"outcome table has off-grid profiles {_OFF}",
    "expost pay length": f"payment row at {_AT} has wrong length",
    "expost vector index": f"bad vector index 7 at {_AT}",
}
for _kind in ("deterministic", "universal"):
    FAULT_MESSAGES.update({
        f"{_kind} duplicate": "duplicate line for profile ['1', '0']",
        f"{_kind} missing": f"winner table missing profile {_AT}",
        f"{_kind} off-grid": f"winner table has off-grid profiles {_OFF}",
        f"{_kind} pay length": f"payment row at {_AT} has wrong length",
        f"{_kind} vector index": f"bad vector index 7 at {_AT}",
        f"{_kind} non-winner charged": f"non-winner 1 charged 1 at {_AT}",
    })
FAULT_MESSAGES["universal repeated part"] = "duplicate line for part 0"


@pytest.mark.parametrize("command", ["verify", "revenue"])
def test_malformed_mechanism_files_keep_their_messages(tmp_path, capsys, command):
    from revmax.cli import main

    for name, inst, mech in _fault_files():
        ipath, mpath = tmp_path / "inst.ndjson", tmp_path / "mech.ndjson"
        ipath.write_text(inst)
        mpath.write_text(mech)
        code = main([command, str(ipath), str(mpath)])
        captured = capsys.readouterr()
        assert (name, code, captured.out) == (name, 2, "")
        assert (name, captured.err) == (name, f"error: {FAULT_MESSAGES[name]}\n")


def _reference_instance(text, mode=None):
    """The distribution of an instance file built by the public
    constructor from its (profile, probability) pairs in file order, each
    number converted first, or the input error it raises."""
    objs = [json.loads(line, parse_float=F) for line in text.splitlines() if line.strip()]
    mode = mode or objs[0].get("mode", "exact")
    try:
        grid = ValueGrid(next(o["grid"] for o in objs if "grid" in o), mode)
        pairs = [
            (tuple(convert(c, mode) for c in o["support"]), convert(o["prob"], mode))
            for o in objs
            if "support" in o
        ]
        dist = ExplicitDistribution(grid, pairs)
    except InvalidInputError as exc:
        return type(exc), str(exc)
    return list(dist.support.items()), dist.flat


def test_instance_reader_places_support_lines_like_the_constructor():
    """Support lines in any order, spelled otherwise than on the grid
    line, in exact and float files and in both modes, give the support
    table the constructor builds from the same pairs; a repeated,
    off-grid or wrong-length profile raises the constructor's error."""
    rng = random.Random(43)
    read = 0
    for _ in range(60):
        dist = random_distribution(rng)
        exact = rio.write_instance(dist)
        texts = [exact, rio.write_instance(rio.read_instance(exact, "float").dist)]
        for text in texts:
            lines = text.splitlines(keepends=True)
            head, body = lines[:2], lines[2:]
            obj = json.loads(rng.choice(body))
            profile = obj["support"]

            def extra(support):
                return body + [json.dumps({**obj, "support": support}, separators=(",", ":"))]

            faults = [extra(profile), extra(profile + profile[:1]), extra(["100"] + profile[1:])]
            for style in (0, 1):
                lines = []
                for line in body:
                    o = json.loads(line)
                    o["support"] = [_spell(c, style) for c in o["support"]]
                    lines.append(json.dumps(o, sort_keys=True, separators=(",", ":")) + "\n")
                rng.shuffle(lines)
                faults.append(lines)
            for lines in faults:
                variant = "".join(head + lines)
                for mode in (None, "exact", "float"):
                    want = _reference_instance(variant, mode)
                    try:
                        parsed = rio.read_instance(variant, mode).dist
                    except InvalidInputError as exc:
                        assert (type(exc), str(exc)) == want
                        continue
                    assert (list(parsed.support.items()), parsed.flat) == want
                    read += 1
    assert read > 300


def _shuffle_multi(rng, text):
    """The lines of a multi-item file after its header in random order,
    each type profile's assignment lines kept in their order; and the
    assignment lines of a profile with two or more, if one has, in
    reverse order."""
    head, *body = text.splitlines(keepends=True)
    order = rng.sample(range(len(body)), len(body))
    groups = {}
    for k, line in enumerate(body):
        obj = json.loads(line)
        if "assignment" in obj:
            groups.setdefault(tuple(obj["profile"]), []).append(k)
    for ks in groups.values():  # a profile's assignment lines keep their order
        slots = sorted(order[k] for k in ks)
        for k, slot in zip(ks, slots):
            order[k] = slot
    shuffled = [line for _, line in sorted(zip(order, body))]
    flipped = None
    many = next((ks for ks in groups.values() if len(ks) > 1), None)
    if many:
        flipped = list(body)
        for k, j in zip(many, reversed(many)):
            flipped[k] = body[j]
        flipped = head + "".join(flipped)
    return head + "".join(shuffled), flipped


def test_multi_files_read_in_any_line_order():
    """Multi-item instance and mechanism files whose support, bidder,
    assignment and pay lines come in any order (a profile's assignment
    lines apart but in order) read as the same objects as the canonical
    files; a profile's lottery keeps its lines' order."""
    rng = random.Random(61)
    flipped_seen = 0
    for _ in range(40):
        inst = random_multi_instance(rng, max_bidders=3, max_items=2, max_types=3)
        mech = MultiMechanism(inst, *random_multi_mechanism(rng, inst))
        itext, mtext = rio.write_instance(inst), rio.write_mechanism(mech)
        for _ in range(3):
            shuffled, _ = _shuffle_multi(rng, itext)
            assert rio.read_instance(shuffled).multi == inst
            assert rio.write_instance(rio.read_instance(shuffled).multi) == itext
            shuffled, flipped = _shuffle_multi(rng, mtext)
            got = rio.read_mechanism(shuffled).mech
            assert got.inst == inst
            assert got.lotteries == mech.lotteries and got.payments == mech.payments
            assert rio.write_mechanism(got) == mtext
        if flipped:
            got = rio.read_mechanism(flipped).mech
            assert got.payments == mech.payments
            changed = [k for k, (a, b) in enumerate(zip(got.lotteries.rows, mech.lotteries.rows))
                       if a != b]
            assert len(changed) == 1
            assert got.lotteries.rows[changed[0]] == mech.lotteries.rows[changed[0]][::-1]
            flipped_seen += 1
    assert flipped_seen > 10

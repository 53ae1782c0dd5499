"""Command-line interface: subcommands, exit codes, determinism, and the
stdout/stderr split."""

import json
import os
import stat
from fractions import Fraction as F
from pathlib import Path

import pytest

from revmax import (
    DeterministicMechanism,
    ExplicitDistribution,
    ExPostMechanism,
    FeasibilitySystem,
    MultiItemInstance,
    Valuation,
    ValueGrid,
    canonical_expost,
    expected_revenue,
    solve_multi,
    solve_optimal,
)
from revmax import io as rio
from revmax import lp
from revmax.cli import main
from revmax.mechanisms import first_price, posted_price, vickrey, zero_mechanism
from revmax.model import FLOAT
from revmax.multi import multi_revenue

PAIR = ExplicitDistribution.from_support({(1, 1): F(1, 2), (2, 2): F(1, 2)})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def pair_file(tmp_path):
    return write(tmp_path, "pair.ndjson", rio.write_instance(PAIR))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reports_exact_revenue(tmp_path, capsys):
    code, out, err = run(capsys, ["solve", pair_file(tmp_path)])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    report = rio.loads_line(lines[-1])
    assert report["revenue"] == "3/2"
    assert report["command"] == "solve"
    assert report["seed"] is None
    parsed = rio.read_mechanism("\n".join(lines[:-1]))
    assert parsed.kind == "interim"


def test_solve_is_byte_deterministic(tmp_path, capsys):
    path = pair_file(tmp_path)
    _, first, _ = run(capsys, ["solve", path])
    _, second, _ = run(capsys, ["solve", path])
    assert first == second


def test_solve_output_file_and_seed_echo(tmp_path, capsys):
    path = pair_file(tmp_path)
    out_path = str(tmp_path / "mech.ndjson")
    code, out, _ = run(
        capsys, ["solve", path, "--output", out_path, "--seed", "7"]
    )
    assert code == 0
    report = rio.loads_line(out.splitlines()[-1])
    assert report["seed"] == 7
    parsed = rio.read_mechanism((tmp_path / "mech.ndjson").read_text())
    assert parsed.kind == "interim"


def test_output_replaces_a_longer_file_and_writes_to_devices(tmp_path, capsys):
    # a longer old file is replaced whole, and a device takes the write
    path = pair_file(tmp_path)
    _, stdout, _ = run(capsys, ["solve-det", path])
    out_path = tmp_path / "mech.ndjson"
    out_path.write_text("x" * 10_000)
    code, _, _ = run(capsys, ["solve-det", path, "--output", str(out_path)])
    assert code == 0
    assert out_path.read_text() + stdout.splitlines(keepends=True)[-1] == stdout
    code, _, err = run(capsys, ["solve-det", path, "--output", "/dev/null"])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("old_size", [1, 10_000])
def test_output_over_an_existing_file_writes_a_new_file(tmp_path, capsys, old_size):
    # shorter or longer than the new bytes, the old file is replaced whole;
    # a hard link to it keeps the old bytes
    path = pair_file(tmp_path)
    _, stdout, _ = run(capsys, ["solve-det", path])
    out_path = tmp_path / "mech.ndjson"
    out_path.write_text("x" * old_size)
    link = tmp_path / "old.ndjson"
    link.hardlink_to(out_path)
    code, _, err = run(capsys, ["solve-det", path, "--output", str(out_path)])
    assert (code, err) == (0, "")
    assert out_path.read_text() + stdout.splitlines(keepends=True)[-1] == stdout
    assert link.read_text() == "x" * old_size


def test_output_mode_comes_from_the_umask(tmp_path, capsys):
    # a new file and a replaced one alike; the old file's mode is not kept
    path = pair_file(tmp_path)
    old = tmp_path / "old.ndjson"
    old.write_text("x")
    old.chmod(0o600)
    mask = os.umask(0o027)
    try:
        for out_path in (tmp_path / "new.ndjson", old):
            code, _, err = run(capsys, ["solve-det", path, "--output", str(out_path)])
            assert (code, err) == (0, "")
            assert stat.S_IMODE(out_path.stat().st_mode) == 0o640
    finally:
        os.umask(mask)


def test_output_through_a_symlink_writes_the_target(tmp_path, capsys):
    path = pair_file(tmp_path)
    _, stdout, _ = run(capsys, ["solve-det", path])
    target = tmp_path / "target.ndjson"
    target.write_text("x" * 10_000)
    link = tmp_path / "link.ndjson"
    link.symlink_to(target)
    code, _, err = run(capsys, ["solve-det", path, "--output", str(link)])
    assert (code, err) == (0, "")
    assert link.is_symlink()
    assert target.read_text() + stdout.splitlines(keepends=True)[-1] == stdout


NAN_INTERIM = (
    '{"format":1,"kind":"interim","mode":"float"}\n{"grid":[[1]]}\n'
    '{"alloc":[NaN],"pay":[5],"profile":[1]}\n'
)
NAN_EXPOST = (
    '{"format":1,"kind":"expost","mode":"float"}\n{"grid":[[1]]}\n'
    '{"feasible":[0]}\n{"feasible":[1]}\n'
    '{"pay":[1],"prob":NaN,"profile":[1],"vector":1}\n'
)
ONE_BIDDER = '{"format":1,"mode":"float","model":"single-item"}\n{"grid":[[1]]}\n'


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "command, inst, mech, token",
    [
        ("verify", ONE_BIDDER + '{"prob":1,"support":[1]}\n', NAN_INTERIM, "NaN"),
        ("revenue", ONE_BIDDER + '{"prob":1,"support":[1]}\n', NAN_EXPOST, "NaN"),
        ("solve", ONE_BIDDER + '{"prob":1,"support":[Infinity]}\n', None, "Infinity"),
    ],
    ids=["interim-alloc", "expost-prob", "instance-profile"],
)
def test_non_finite_number_tokens_are_input_errors(
    tmp_path, capsys, command, inst, mech, token, mode
):
    # a NaN allocation used to pass verify and a NaN probability made
    # revenue print nan
    argv = [command, write(tmp_path, "inst.ndjson", inst), f"--{mode}"]
    if mech is not None:
        argv.insert(2, write(tmp_path, "mech.ndjson", mech))
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: bad JSON line: {token} is not a finite number\n"


def test_solve_det_matches_lp_on_pair(tmp_path, capsys):
    code, out, _ = run(capsys, ["solve-det", pair_file(tmp_path)])
    assert code == 0
    report = rio.loads_line(out.splitlines()[-1])
    assert report["revenue"] == "3/2"


def test_verify_truthful_mechanism_passes(tmp_path, capsys):
    inst = pair_file(tmp_path)
    mech = write(tmp_path, "vick.ndjson", rio.write_mechanism(vickrey(PAIR.grid)))
    code, out, _ = run(capsys, ["verify", inst, mech])
    assert code == 0
    summary = rio.loads_line(out.splitlines()[-1])
    assert summary["passed"] is True
    assert summary["witnesses"] == 0


def test_verify_first_price_fails_with_witnesses(tmp_path, capsys):
    inst = pair_file(tmp_path)
    mech = write(
        tmp_path, "first.ndjson", rio.write_mechanism(first_price(PAIR.grid))
    )
    code, out, _ = run(capsys, ["verify", inst, mech])
    assert code == 1
    lines = out.splitlines()
    summary = rio.loads_line(lines[-1])
    assert summary["passed"] is False
    assert summary["witnesses"] == len(lines) - 1 > 0


def test_revenue_prints_exact_rational(tmp_path, capsys):
    inst = pair_file(tmp_path)
    mech = write(tmp_path, "vick.ndjson", rio.write_mechanism(vickrey(PAIR.grid)))
    code, out, _ = run(capsys, ["revenue", inst, mech])
    assert code == 0
    assert out == "3/2\n"


def test_ratio_of_optimal_mechanism_is_one(tmp_path, capsys):
    inst = pair_file(tmp_path)
    mech = write(tmp_path, "vick.ndjson", rio.write_mechanism(vickrey(PAIR.grid)))
    code, out, _ = run(capsys, ["ratio", inst, mech])
    assert code == 0
    assert out == "1\n"


def test_ratio_of_zero_mechanism_is_input_error(tmp_path, capsys):
    inst = pair_file(tmp_path)
    mech = write(
        tmp_path, "zero.ndjson", rio.write_mechanism(zero_mechanism(PAIR.grid))
    )
    code, out, err = run(capsys, ["ratio", inst, mech])
    assert code == 2
    assert out == ""
    assert "zero-revenue" in err


def test_decompose_hull_point(tmp_path, capsys):
    point = write(
        tmp_path,
        "point.ndjson",
        '{"format":1,"kind":"point"}\n'
        '{"feasible":[0,0]}\n{"feasible":[1,0]}\n{"feasible":[0,1]}\n'
        '{"point":["1/2","1/4"]}\n',
    )
    code, out, _ = run(capsys, ["decompose", point])
    assert code == 0
    lines = out.splitlines()
    assert rio.loads_line(lines[0]) == {"in_hull": True}
    assert len(lines) <= 4  # at most n+1 terms after the header


def test_decompose_outside_point_gives_certificate(tmp_path, capsys):
    point = write(
        tmp_path,
        "far.ndjson",
        '{"format":1,"kind":"point"}\n'
        '{"feasible":[0,0]}\n{"feasible":[1,0]}\n{"feasible":[0,1]}\n'
        '{"point":["4/5","3/5"]}\n',
    )
    code, out, _ = run(capsys, ["decompose", point])
    assert code == 1
    result = rio.loads_line(out.splitlines()[0])
    assert result["in_hull"] is False
    assert "certificate" in result


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_decompose_negative_coordinate_gives_certificate(tmp_path, capsys, mode):
    # no feasible vector has a negative coordinate: a = e_i / x_i, b = 0
    coords = '["-1/2","1/4"]' if mode == "exact" else "[-0.5,0.25]"
    point = write(
        tmp_path,
        "negative.ndjson",
        f'{{"format":1,"kind":"point","mode":"{mode}"}}\n'
        '{"feasible":[0,0]}\n{"feasible":[1,0]}\n{"feasible":[0,1]}\n'
        f'{{"point":{coords}}}\n',
    )
    code, out, _ = run(capsys, ["decompose", point])
    assert code == 1
    result = rio.loads_line(out)
    assert result["in_hull"] is False
    a = [F(c) for c in result["certificate"]["a"]]
    b = F(result["certificate"]["b"])
    assert (a, b) == ([F(-2), F(0)], F(0))
    assert a[0] * F(-1, 2) + a[1] * F(1, 4) - b == 1
    for vec in [(0, 0), (1, 0), (0, 1)]:
        assert a[0] * vec[0] + a[1] * vec[1] <= b


@pytest.mark.parametrize("line", ['{"feasible":5}', '{"feasible":[true]}'])
def test_decompose_bad_feasible_line_is_input_error(tmp_path, capsys, line):
    # a non-list used to end in a TypeError traceback, and bools passed
    point = write(
        tmp_path,
        "bad.ndjson",
        '{"format":1,"kind":"point"}\n{"feasible":[0]}\n' + line + '\n{"point":["1/2"]}\n',
    )
    code, out, err = run(capsys, ["decompose", point])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "feasible" in err


def test_oracle_stats_counts_materialization(tmp_path, capsys):
    code, out, _ = run(capsys, ["oracle-stats", pair_file(tmp_path)])
    assert code == 0
    stats = rio.loads_line(out)
    assert stats["point_queries"] == 4
    assert stats["conditional_queries"] == 0
    assert stats["budget"] == 576


def test_oracle_stats_budget_exhaustion_is_resource_error(tmp_path, capsys):
    code, out, err = run(
        capsys, ["oracle-stats", pair_file(tmp_path), "--budget", "3"]
    )
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_solve_multi_and_guard(tmp_path, capsys):
    v1 = Valuation(1, [0, 1])
    v2 = Valuation(1, [0, 2])
    inst = MultiItemInstance(
        1, [[v1, v2]], {(0,): F(1, 2), (1,): F(1, 2)}
    )
    path = write(tmp_path, "multi.ndjson", rio.write_instance(inst))
    code, out, _ = run(capsys, ["solve-multi", path])
    assert code == 0
    assert rio.loads_line(out.splitlines()[-1])["revenue"] == "1"

    big = Valuation(9, [0] * 511 + [1])
    huge = MultiItemInstance(9, [[big], [big]], {(0, 0): F(1)})
    hpath = write(tmp_path, "huge.ndjson", rio.write_instance(huge))
    code, out, err = run(capsys, ["solve-multi", hpath])
    assert code == 3
    assert "6561" in err


def test_wrong_model_for_solver_is_input_error(tmp_path, capsys):
    v1 = Valuation(1, [0, 1])
    inst = MultiItemInstance(1, [[v1]], {(0,): F(1)})
    path = write(tmp_path, "m.ndjson", rio.write_instance(inst))
    code, _, err = run(capsys, ["solve", path])
    assert code == 2
    assert "solve-multi" in err
    code, _, err = run(capsys, ["solve-multi", pair_file(tmp_path)])
    assert code == 2


def test_verify_of_full_solver_stdout_is_input_error(tmp_path, capsys):
    # the trailing report line is not a mechanism line
    inst = pair_file(tmp_path)
    _, out, _ = run(capsys, ["solve", inst])
    code, out, err = run(capsys, ["verify", inst, write(tmp_path, "full.ndjson", out)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "'profile'" in err


def test_pivot_limit_is_resource_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 1)
    code, out, err = run(capsys, ["solve", pair_file(tmp_path)])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "pivot" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    code, out, err = run(capsys, ["solve", str(tmp_path / "absent.ndjson")])
    assert code == 2
    assert out == ""
    assert err != ""


def test_verify_universal_mixture(tmp_path, capsys):
    inst = pair_file(tmp_path)
    parts = [(vickrey(PAIR.grid), F(1, 2)), (zero_mechanism(PAIR.grid), F(1, 2))]
    mech = write(tmp_path, "mix.ndjson", rio.write_mechanism(None, parts=parts))
    code, out, _ = run(capsys, ["verify", inst, mech])
    assert code == 0
    assert rio.loads_line(out.splitlines()[-1])["passed"] is True


def test_universal_file_without_parts_is_input_error(tmp_path, capsys):
    # a header and a grid line alone used to end in an IndexError traceback
    text = '{"format":1,"kind":"universal","mode":"exact"}\n{"grid":[["1","2"],["1","2"]]}\n'
    path = write(tmp_path, "empty.ndjson", text)
    for command in ("verify", "revenue", "ratio"):
        code, out, err = run(capsys, [command, pair_file(tmp_path), path])
        assert code == 2
        assert out == ""
        assert err == "error: universal mechanism file has no parts\n"


def test_verify_multi_mechanism(tmp_path, capsys):
    from revmax import solve_multi

    v1 = Valuation(1, [0, 1])
    v2 = Valuation(1, [0, 2])
    inst = MultiItemInstance(1, [[v1, v2]], {(0,): F(1, 2), (1,): F(1, 2)})
    ipath = write(tmp_path, "multi.ndjson", rio.write_instance(inst))
    mech, _ = solve_multi(inst)
    mpath = write(tmp_path, "mm.ndjson", rio.write_mechanism(mech))
    code, out, _ = run(capsys, ["verify", ipath, mpath])
    assert code == 0
    summary = rio.loads_line(out.splitlines()[-1])
    assert summary["checks"] == {"multi_ic": True, "multi_ir": True}


def test_float_flag_switches_arithmetic(tmp_path, capsys):
    path = pair_file(tmp_path)
    code, out, _ = run(capsys, ["solve", path, "--float"])
    assert code == 0
    report = rio.loads_line(out.splitlines()[-1])
    assert report["mode"] == "float"
    assert abs(float(report["revenue"]) - 1.5) < 1e-9


def _multi_files():
    v1 = Valuation(1, [0, 1])
    v2 = Valuation(1, [0, 2])
    inst = MultiItemInstance(1, [[v1, v2]], {(0,): F(1, 2), (1,): F(1, 2)})
    mech, _ = solve_multi(inst)
    return rio.write_instance(inst), rio.write_mechanism(mech)


def _edit(text, key, value):
    """Set key on the first line holding it; value None repeats that line."""
    lines = text.splitlines(keepends=True)
    k = next(n for n, line in enumerate(lines) if key in rio.loads_line(line))
    if value is None:
        lines.insert(k, lines[k])
    else:
        obj = rio.loads_line(lines[k])
        obj[key] = value
        lines[k] = rio.dumps_line(obj)
    return "".join(lines)


@pytest.mark.parametrize(
    "target,key,value",
    [
        ("mechanism", "support", ["a"]),
        ("instance", "support", 0),
        ("mechanism", "assignment", 0),
        ("mechanism", "profile", 0),
        ("mechanism", "bidder", None),
        ("mechanism", "pay", None),
    ],
)
def test_malformed_multi_file_is_input_error(tmp_path, capsys, target, key, value):
    inst, mech = _multi_files()
    if target == "instance":
        path = write(tmp_path, "bad.ndjson", _edit(inst, key, value))
        argv = ["solve-multi", path]
    else:
        ipath = write(tmp_path, "multi.ndjson", inst)
        argv = ["verify", ipath, write(tmp_path, "bad.ndjson", _edit(mech, key, value))]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def _without(text, key):
    """Drop key from the first line holding it."""
    lines = text.splitlines(keepends=True)
    k = next(n for n, line in enumerate(lines) if key in rio.loads_line(line))
    obj = rio.loads_line(lines[k])
    del obj[key]
    lines[k] = rio.dumps_line(obj)
    return "".join(lines)


PAIR_TEXT = rio.write_instance(PAIR)
PAIR_UNITS_TEXT = rio.write_instance(
    PAIR, FeasibilitySystem(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
)


@pytest.mark.parametrize(
    "text",
    [
        _without(PAIR_TEXT, "prob"),
        _edit(PAIR_TEXT, "grid", 5),
        _edit(PAIR_UNITS_TEXT, "feasible", 5),
        _edit(PAIR_UNITS_TEXT, "feasible", [False, False]),
    ],
    ids=["support-without-prob", "grid-not-a-list", "feasible-not-a-list", "feasible-bools"],
)
def test_malformed_single_item_instance_is_input_error(tmp_path, capsys, text):
    code, out, err = run(capsys, ["solve", write(tmp_path, "bad.ndjson", text)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("target", ["instance", "mechanism"])
def test_float_mode_parse_errors_match_exact_mode(tmp_path, capsys, target):
    if target == "instance":
        argv = ["solve", write(tmp_path, "bad.ndjson", _edit(PAIR_TEXT, "prob", "1/0"))]
    else:
        mech = rio.write_mechanism(vickrey(PAIR.grid))
        bad = _edit(mech, "grid", [["1", [2]], ["1", "2"]])
        argv = ["verify", pair_file(tmp_path), write(tmp_path, "bad.ndjson", bad)]
    errors = []
    for mode in ("--exact", "--float"):
        code, out, err = run(capsys, argv + [mode])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        errors.append(err)
    assert errors[0] == errors[1]


def test_allow_negative_payments_only_on_solve_multi(tmp_path, capsys):
    path = pair_file(tmp_path)
    for argv in (["solve", path], ["ratio", path, path]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--allow-negative-payments"])
        assert exc.value.code == 2
    inst, _ = _multi_files()
    mpath = write(tmp_path, "multi.ndjson", inst)
    code, out, _ = run(capsys, ["solve-multi", mpath, "--allow-negative-payments"])
    assert code == 0
    assert rio.loads_line(out.splitlines()[-1])["revenue"] == "1"


@pytest.mark.parametrize("kind", ["deterministic", "expost", "universal"])
@pytest.mark.parametrize("vector", ["a", True, 1.0])
def test_non_integer_vector_index_is_input_error(tmp_path, capsys, kind, vector):
    mech = vickrey(PAIR.grid)
    if kind == "deterministic":
        text = rio.write_mechanism(mech)
    elif kind == "expost":
        text = rio.write_mechanism(mech.as_expost())
    else:
        text = rio.write_mechanism(None, parts=[(mech, F(1))])
    path = write(tmp_path, "bad.ndjson", _edit(text, "vector", vector))
    code, out, err = run(capsys, ["verify", pair_file(tmp_path), path])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "vector" in err


@pytest.mark.parametrize(
    "extra",
    [
        '{"pay":["100"],"profile":[7]}',
        '{"assignment":[0],"prob":"1","profile":[9]}',
    ],
)
def test_multi_mechanism_line_outside_the_product_is_input_error(tmp_path, capsys, extra):
    inst, mech = _multi_files()
    ipath = write(tmp_path, "multi.ndjson", inst)
    mpath = write(tmp_path, "bad.ndjson", mech + extra + "\n")
    code, out, err = run(capsys, ["verify", ipath, mpath])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "outside the type product" in err


def _drop(text, part):
    return "".join(line for line in text.splitlines(keepends=True) if part not in line)


def _support_fault(text, fault):
    """A multi-item file of _multi_files (support (0,) and (1,) at 1/2
    each) with one fault in its support lines."""
    first = next(line for line in text.splitlines(keepends=True) if '"support"' in line)
    if fault == "duplicate":
        return text + first
    if fault == "non-positive":
        return text.replace(first, first.replace('"1/2"', '"0"'))
    if fault == "sum":
        return text.replace(first, first.replace('"1/2"', '"1/3"'))
    assert fault == "unused"
    return _drop(text, '"support":[1]').replace('"prob":"1/2","support"', '"prob":"1","support"')


_SUPPORT_FAULTS = {
    "duplicate": "duplicate support profile (0,)",
    "non-positive": "support probability 0 is not positive",
    "sum": "support probabilities sum to 5/6, not 1",
    "unused": "type 1 of bidder 0 appears in no support profile",
}


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda m: m + '{"pay":["0"],"profile":[0]}\n', "duplicate line for profile [0]"),
        (lambda m: _drop(m, '"profile":[1]'), "lottery table missing profile (1,)"),
        (lambda m: _drop(m, '"pay":["2"],"profile":[1]'), "payment table missing profile (1,)"),
        (lambda m: m + '{"pay":["0"],"profile":[0,0]}\n', "outside the type product"),
        (lambda m: m + '{"assignment":[0],"prob":"1","profile":[-1]}\n',
         "outside the type product"),
    ],
    ids=["duplicate pay", "missing profile", "missing pay", "wrong length", "negative index"],
)
def test_malformed_multi_mechanism_lines_exit_2_through_verify(tmp_path, capsys, edit, message):
    inst, mech = _multi_files()
    assert '"pay":["2"],"profile":[1]' in mech  # the fixture the edits expect
    ipath = write(tmp_path, "multi.ndjson", inst)
    code, out, err = run(capsys, ["verify", ipath, write(tmp_path, "bad.ndjson", edit(mech))])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("target", ["instance", "mechanism"])
@pytest.mark.parametrize("fault", sorted(_SUPPORT_FAULTS))
def test_malformed_multi_support_exits_2_through_verify(tmp_path, capsys, target, fault):
    """A support fault in either file, the instance or the copy of it a
    mechanism file carries, is an input error with the shared support
    check's message; the unused-type message names the type index and,
    unlike the padded-grid message, suggests no strict=False."""
    files = dict(zip(["instance", "mechanism"], _multi_files()))
    files[target] = _support_fault(files[target], fault)
    argv = ["verify", write(tmp_path, "i.ndjson", files["instance"])]
    code, out, err = run(capsys, argv + [write(tmp_path, "m.ndjson", files["mechanism"])])
    assert (code, out) == (2, "")
    assert err == f"error: {_SUPPORT_FAULTS[fault]}\n"
    assert "strict" not in err


def test_mechanism_file_with_two_grid_lines_is_input_error(tmp_path, capsys):
    lines = rio.write_mechanism(vickrey(PAIR.grid)).splitlines(keepends=True)
    lines.insert(1, '{"grid":[["5"],["6"]]}\n')
    path = write(tmp_path, "two.ndjson", "".join(lines))
    for command in ("verify", "revenue"):
        code, out, err = run(capsys, [command, pair_file(tmp_path), path])
        assert code == 2
        assert out == ""
        assert err == "error: duplicate grid line\n"


@pytest.mark.parametrize("kind", ["deterministic", "interim", "universal"])
def test_repeated_profile_line_is_input_error(tmp_path, capsys, kind):
    # a second line for profile (1, 1) used to replace the first silently
    inst = pair_file(tmp_path)
    repeat = {"pay": ["100", "0"], "profile": ["1", "1"], "vector": 1}
    if kind == "universal":
        text = rio.write_mechanism(None, parts=[(vickrey(PAIR.grid), F(1))])
        repeat["part"] = 0
    else:
        _, out, _ = run(capsys, ["solve-det" if kind == "deterministic" else "solve", inst])
        text = "".join(out.splitlines(keepends=True)[:-1])
        if kind == "interim":
            repeat = {"alloc": ["1", "0"], "pay": ["100", "0"], "profile": ["1", "1"]}
    path = write(tmp_path, "repeat.ndjson", text + rio.dumps_line(repeat))
    code, out, err = run(capsys, ["revenue", inst, path])
    assert code == 2
    assert out == ""
    assert err == "error: duplicate line for profile ['1', '1']\n"


def test_repeated_part_line_is_input_error(tmp_path, capsys):
    # a second probability line for part 0 used to replace the first
    # silently: revenue printed 3/4 with exit 0
    parts = [(vickrey(PAIR.grid), F(1, 2)), (zero_mechanism(PAIR.grid), F(1, 2))]
    lines = rio.write_mechanism(None, parts=parts).splitlines(keepends=True)
    lines.insert(lines.index('{"part":0,"prob":"1/2"}\n'), '{"part":0,"prob":"1/4"}\n')
    path = write(tmp_path, "parts.ndjson", "".join(lines))
    for command in ("verify", "revenue"):
        code, out, err = run(capsys, [command, pair_file(tmp_path), path])
        assert code == 2
        assert out == ""
        assert err == "error: duplicate line for part 0\n"


@pytest.mark.parametrize("command", ["solve-det", "solve-multi"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_limits_below_one_is_input_error(tmp_path, capsys, command, cap):
    # 0 used to read as "unset" and -1 as a size refusal (exit 3)
    if command == "solve-det":
        path = pair_file(tmp_path)
    else:
        path = write(tmp_path, "multi.ndjson", _multi_files()[0])
    code, out, err = run(capsys, [command, path, "--limits", cap])
    assert code == 2
    assert out == ""
    assert err == f"error: --limits must be at least 1, not {cap}\n"


def test_limits_caps_both_searches(tmp_path, capsys):
    # the pair grid has 4 cells; the one-item, one-bidder instance 2 assignments
    code, out, err = run(capsys, ["solve-det", pair_file(tmp_path), "--limits", "3"])
    assert (code, out) == (3, "")
    assert "cap of 3" in err
    path = write(tmp_path, "multi.ndjson", _multi_files()[0])
    code, out, err = run(capsys, ["solve-multi", path, "--limits", "1"])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("mech", ["first", "second", "interim"])
def test_verify_report_bytes_are_golden(tmp_path, capsys, mech, mode):
    """Reports on a 3x3 grid with gaps, a 0 value and fractional values:
    first price, textbook second price and a random interim table give
    truthful, IR, feasibility and extension (a)-(d) witnesses.  The
    committed reports were written by `revmax verify` before it compared
    utilities as ints; every later verifier must keep their bytes."""
    out = tmp_path / "report.ndjson"
    argv = ["verify", str(DATA / "golden.ndjson"), str(DATA / f"golden.{mech}.ndjson")]
    code, stdout, err = run(capsys, argv + [f"--{mode}", "--output", str(out)])
    assert (code, stdout, err) == (1, "", "")
    golden = (DATA / f"golden.{mech}.{mode}.report.ndjson").read_text()
    assert out.read_text() == golden


def test_golden_reports_cover_every_interim_witness_kind():
    kinds = set()
    for path in DATA.glob("golden.*.exact.report.ndjson"):
        _, _, witnesses = rio.read_report(path.read_text())
        kinds.update((w["check"], w["detail"][:11]) for w in witnesses)
    assert {("truthful", ""), ("ir", ""), ("feasible", "separating ")} <= kinds
    for cond in "abcd":
        assert ("extension", f"condition {cond}") in kinds


UNIFORM = ExplicitDistribution(
    ValueGrid([["1", "2"], ["1", "2"]]),
    {v: F(1, 4) for v in [(1, 1), (1, 2), (2, 1), (2, 2)]},
)


def _both_win_files(kind):
    """A mechanism over the feasible vectors [0,0] and [1,1] that sells to
    both bidders at price 1 at every profile, in the given file kind."""
    fs = FeasibilitySystem(2, [(0, 0), (1, 1)])
    profiles = list(UNIFORM.grid.profiles())
    det = DeterministicMechanism(
        UNIFORM.grid, fs, {v: 1 for v in profiles}, {v: (F(1), F(1)) for v in profiles}
    )
    if kind == "deterministic":
        return rio.write_mechanism(det)
    if kind == "expost":
        return rio.write_mechanism(det.as_expost())
    return rio.write_mechanism(None, parts=[(det, F(1))])


@pytest.mark.parametrize("command", ["verify", "revenue", "ratio"])
@pytest.mark.parametrize("kind", ["deterministic", "expost", "universal"])
def test_single_item_instance_rejects_other_feasible_vectors(tmp_path, capsys, kind, command):
    # a single-item instance allows one winner; a file that declares its
    # own vectors may not sell to two bidders at once
    inst = write(tmp_path, "inst.ndjson", rio.write_instance(UNIFORM))
    mech = write(tmp_path, "mech.ndjson", _both_win_files(kind))
    code, out, err = run(capsys, [command, inst, mech])
    assert code == 2
    assert out == ""
    assert err == "error: mechanism and instance disagree on the feasible vectors\n"


@pytest.mark.parametrize("command", ["verify", "revenue"])
def test_feasible_vectors_compare_as_sets(tmp_path, capsys, command):
    # the same vectors in another order are the same system; a missing
    # vector is not
    vectors = [(0, 0), (1, 0), (0, 1), (1, 1)]
    fs = FeasibilitySystem(2, vectors)
    inst = write(tmp_path, "inst.ndjson", rio.write_instance(UNIFORM, fs))
    for order, rc in ((vectors[::-1], 0), (vectors[:3], 2)):
        mech = vickrey(UNIFORM.grid)
        sub = FeasibilitySystem(2, order)
        moved = DeterministicMechanism(
            mech.grid, sub,
            {v: sub.vectors.index(mech.fs.vectors[c]) for v, c in mech.choice.items()},
            mech.payments,
        )
        path = write(tmp_path, "mech.ndjson", rio.write_mechanism(moved))
        code, out, err = run(capsys, [command, inst, path])
        assert code == rc
        assert (err == "") == (rc == 0)


def test_float_lottery_just_over_one_is_input_error(tmp_path, capsys):
    # the reader allows a profile's probabilities to sum to 1 within 1e-12,
    # but a bidder cannot win with probability above 1
    grid = ValueGrid([[1]], FLOAT)
    fs = FeasibilitySystem.single_item(1)
    win = fs.winner_index(0)
    dist = ExplicitDistribution(grid, {(1.0,): 1.0})
    mech = ExPostMechanism(
        grid, fs, {(1.0,): [(win, (0.0,), 0.5), (win, (0.0,), 0.5 + 4e-13)]}
    )
    inst = write(tmp_path, "inst.ndjson", rio.write_instance(dist))
    path = write(tmp_path, "mech.ndjson", rio.write_mechanism(mech))
    for command in ("verify", "revenue"):
        code, out, err = run(capsys, [command, inst, path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: allocation outside [0,1] at ")


def _two_item_instance(first=F(1, 3)):
    t = Valuation(2, [0, 1, 1, 3])
    u = Valuation(2, [0, 2, 1, 2])
    return MultiItemInstance(2, [[t, u], [t]], {(0, 0): first, (1, 0): 1 - first})


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_revenue_and_ratio_of_a_multi_mechanism_file(tmp_path, capsys, mode):
    # revenue reads the file's payments by the rule solve-multi reports
    # with, to the last bit in float mode; the optimum's ratio is one
    inst = write(tmp_path, "multi.ndjson", rio.write_instance(_two_item_instance()))
    mech = str(tmp_path / "mech.ndjson")
    code, out, err = run(capsys, ["solve-multi", inst, "--output", mech, f"--{mode}"])
    assert (code, err) == (0, "")
    reported = json.loads(out)["revenue"]
    code, out, err = run(capsys, ["revenue", inst, mech, f"--{mode}"])
    assert (code, err) == (0, "")
    assert out == f"{reported}\n"
    parsed = rio.read_mechanism(Path(mech).read_text(), mode)
    assert out == f"{rio.format_number(multi_revenue(parsed.mech), mode)}\n"
    code, out, err = run(capsys, ["ratio", inst, mech, f"--{mode}"])
    assert (code, err) == (0, "")
    assert out == ("1\n" if mode == "exact" else "1.0\n")


def test_revenue_of_a_universal_file(tmp_path, capsys):
    inst = write(tmp_path, "inst.ndjson", rio.write_instance(UNIFORM))
    parts = [
        (vickrey(UNIFORM.grid), F(1, 3)),
        (posted_price(UNIFORM.grid, [2, None]), F(2, 3)),
    ]
    mech = write(tmp_path, "mix.ndjson", rio.write_mechanism(None, parts=parts))
    code, out, err = run(capsys, ["revenue", inst, mech])
    assert (code, err) == (0, "")
    want = sum(w * expected_revenue(part, UNIFORM) for part, w in parts)
    assert want == F(1, 3) * F(3, 2) + F(2, 3) * 1
    assert out == f"{want}\n"


def test_verify_of_an_expost_file_checks_every_outcome(tmp_path, capsys):
    inst = pair_file(tmp_path)
    fs = FeasibilitySystem.single_item(2)
    optimum = canonical_expost(solve_optimal(PAIR).interim, fs)
    path = write(tmp_path, "opt.ndjson", rio.write_mechanism(optimum))
    code, out, err = run(capsys, ["verify", inst, path])
    assert (code, err) == (0, "")
    assert rio.loads_line(out.splitlines()[-1])["checks"]["expost_ir"] is True

    # a loser charged under one coin outcome
    nothing = (fs.zero_index, (F(0), F(0)), F(1))
    outcomes = {v: [nothing] for v in PAIR.grid.profiles()}
    outcomes[(F(2), F(2))] = [(fs.zero_index, (F(1), F(0)), F(1))]
    bad = ExPostMechanism(PAIR.grid, fs, outcomes)
    path = write(tmp_path, "bad.ndjson", rio.write_mechanism(bad))
    code, out, err = run(capsys, ["verify", inst, path])
    assert (code, err) == (1, "")
    lines = [rio.loads_line(line) for line in out.splitlines()]
    assert lines[-1]["checks"]["expost_ir"] is False
    assert lines[0]["check"] == "expost_ir"
    assert lines[0]["detail"] == "outcome 0: non-winner charged"


@pytest.mark.parametrize("command", ["verify", "revenue", "ratio"])
def test_multi_mechanism_of_another_instance_is_input_error(tmp_path, capsys, command):
    inst = write(tmp_path, "multi.ndjson", rio.write_instance(_two_item_instance()))
    other, _ = solve_multi(_two_item_instance(F(1, 4)))
    mech = write(tmp_path, "other.ndjson", rio.write_mechanism(other))
    code, out, err = run(capsys, [command, inst, mech])
    assert (code, out) == (2, "")
    assert err == "error: mechanism embeds a different multi-item instance\n"


def _third_pair(mode):
    return ExplicitDistribution.from_support({(1, 1): "1/3", (2, 2): "2/3"}, mode=mode)


@pytest.mark.parametrize("command", ["revenue", "ratio"])
def test_files_of_different_modes_are_read_in_float(tmp_path, capsys, command):
    # a float-header instance with an exact mechanism file: both files are
    # read in float, so no float result is printed as a rational
    inst = write(tmp_path, "inst.ndjson", rio.write_instance(_third_pair(FLOAT)))
    optimum = solve_optimal(_third_pair("exact")).interim
    mech = write(tmp_path, "mech.ndjson", rio.write_mechanism(optimum))
    code, out, err = run(capsys, [command, inst, mech])
    assert (code, err) == (0, "")
    assert "/" not in out and out != "3752999689475413/2251799813685248\n"
    assert (code, out, err) == run(capsys, [command, inst, mech, "--float"])


def _third_multi(mode):
    types = [[Valuation(1, [0, 1], mode), Valuation(1, [0, 2], mode)]]
    return MultiItemInstance(1, types, {(0,): F(1, 3), (1,): F(2, 3)}, mode)


@pytest.mark.parametrize("command", ["verify", "revenue", "ratio"])
def test_float_mechanism_of_an_exact_instance_is_read_in_float(tmp_path, capsys, command):
    # values and probabilities that are not dyadic differ between the two
    # modes, so reading each file in its own mode compared different
    # instances; both files are read in float, as with --float
    grid = ValueGrid([[F(1, 3), 1]], FLOAT)
    single = ExplicitDistribution(grid, {(1 / 3,): 0.5, (1.0,): 0.5})
    cases = [
        (rio.write_instance(_third_multi("exact")),
         rio.write_mechanism(solve_multi(_third_multi(FLOAT))[0])),
        (rio.write_instance(ExplicitDistribution.from_support(
            {(F(1, 3),): F(1, 2), (1,): F(1, 2)})),
         rio.write_mechanism(solve_optimal(single).interim)),
    ]
    for k, (inst_text, mech_text) in enumerate(cases):
        inst = write(tmp_path, f"inst{k}.ndjson", inst_text)
        mech = write(tmp_path, f"mech{k}.ndjson", mech_text)
        code, out, err = run(capsys, [command, inst, mech])
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, [command, inst, mech, "--float"])


def test_an_unknown_mode_in_either_header_is_input_error(tmp_path, capsys):
    inst = pair_file(tmp_path)
    mech = write(tmp_path, "mech.ndjson", rio.write_mechanism(vickrey(PAIR.grid)))
    bad_inst = write(tmp_path, "bad-inst.ndjson", _edit(PAIR_TEXT, "mode", "decimal"))
    bad_mech = write(
        tmp_path, "bad-mech.ndjson", _edit(Path(mech).read_text(), "mode", "decimal")
    )
    for argv in (["revenue", inst, bad_mech], ["verify", bad_inst, mech]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "error: unknown mode 'decimal'\n")


@pytest.mark.parametrize("flag", ["--exact", "--float"])
def test_input_errors_quote_profiles_as_the_file_mode_writes_them(tmp_path, capsys, flag):
    # a repeated support line, a missing table row and a lottery whose
    # probabilities miss 1 name the profile entry by entry, never as reprs
    dist = ExplicitDistribution.from_support({(1,): F(1, 2), (2,): F(1, 2)})
    interim = solve_optimal(dist).interim
    inst = rio.write_instance(dist)
    top = '"profile":["2"]'
    mechs = {
        "interim": rio.write_mechanism(interim),
        "expost": rio.write_mechanism(canonical_expost(interim, FeasibilitySystem.single_item(1))),
    }
    assert all(top in text for text in mechs.values())  # the fixture the edits expect
    at, half = ("(2,)", "1/2") if flag == "--exact" else ("(2.0,)", "0.5")
    ipath = write(tmp_path, "inst.ndjson", inst)
    missing = _drop(mechs["interim"], top)
    short = mechs["expost"].replace('"prob":"1",' + top, '"prob":"1/2",' + top)
    cases = [
        (["solve", write(tmp_path, "dup.ndjson", inst + '{"prob":"1/2","support":["2"]}\n')],
         "duplicate support profile " + at),
        (["verify", ipath, write(tmp_path, "missing.ndjson", missing)],
         "allocation table missing profile " + at),
        (["verify", ipath, write(tmp_path, "short.ndjson", short)],
         f"outcome probabilities at {at} sum to {half}, not 1"),
    ]
    for argv, message in cases:
        assert run(capsys, argv + [flag]) == (2, "", f"error: {message}\n")

"""Command-line front end.

Subcommands: solve, solve-det, solve-multi, verify, revenue, ratio,
decompose, oracle-stats.  Results go to stdout (or --output for file
artifacts), diagnostics to stderr.  Exit codes: 0 success/pass, 1
verification failed (witnesses reported) or point outside the hull
(certificate reported), 2 input error, 3 resource limit, query budget or
simplex pivot limit.

Runs are fully deterministic: identical inputs and flags give
byte-identical output, with every quantity an exact rational string in
exact mode.

--output over an existing regular file removes that file and writes a
new one, which is cheaper than truncating it in place on filesystems
that flush a truncated file when it is closed (ext4's auto_da_alloc).
So a hard link to the old output keeps the old bytes, and the new
file's mode comes from the umask.  A symlink or a device is written
through.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from typing import Optional

from . import io
from .brute import EnumLimits, enumerate_deterministic_optimal
from .errors import BudgetError, InvalidInputError, PivotLimitError, SizeLimitError
from .model import (
    EXACT, FLOAT, FeasibilitySystem, approximation_ratio, expected_revenue, interim_of
)
from .multi import MAX_ASSIGNMENTS, check_multi, multi_revenue, solve_multi
from .optimal import decompose_allocation, solve_optimal
from .oracle import ExplicitOracle, materialize, with_budget
from .verify import (
    VerifyReport,
    check_expost_ir,
    check_extension,
    check_feasible,
    check_ir,
    check_truthful,
    check_universal,
)


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _emit(text: str, output: Optional[str]) -> None:
    """Write to --output (see the module docstring) or stdout.  The file
    is opened as open(output, "w") opens it, and the ASCII text is
    written as bytes, which skips the text layer."""
    if output:
        try:
            if stat.S_ISREG(os.lstat(output).st_mode):
                os.unlink(output)
        except OSError:
            pass  # the write below truncates, or reports the error
        fd = os.open(output, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        with open(fd, "wb") as f:
            f.write(text.encode())
    else:
        sys.stdout.write(text)


def _report(command: str, mode: str, seed: Optional[int], **extra) -> None:
    obj = {"command": command, "mode": mode, "seed": seed}
    obj.update(extra)
    sys.stdout.write(io.dumps_line(obj))


def _instance(args) -> io.ParsedInstance:
    return io.read_instance(_read(args.instance), args.mode)


def _instance_and_mechanism(args) -> tuple:
    """The instance and the mechanism file, read in one arithmetic mode:
    the one --exact/--float forces, else the one both headers declare,
    else float, so a rational result is printed only when both files are
    exact."""
    inst_text, mech_text = _read(args.instance), _read(args.mechanism)
    mode = args.mode
    if mode is None:
        ours, theirs = io.header_mode(inst_text), io.header_mode(mech_text)
        mode = ours if ours == theirs else FLOAT
    return io.read_instance(inst_text, mode), io.read_mechanism(mech_text, mode)


def _single(args) -> io.ParsedInstance:
    inst = _instance(args)
    if inst.model == io.MULTI_ITEM:
        raise InvalidInputError(
            f"{args.command} does not take multi-item instances; see solve-multi"
        )
    return inst


def _cmd_solve(args) -> int:
    inst = _single(args)
    result = solve_optimal(inst.dist, inst.fs)
    _emit(io.write_mechanism(result.interim), args.output)
    _report(
        "solve",
        inst.mode,
        args.seed,
        expost=True,
        revenue=io.format_number(result.revenue, inst.mode),
    )
    return 0


def _limit(args, default: int) -> int:
    """--limits when given, else default; a cap below 1 is an input error."""
    if args.limits is None:
        return default
    if args.limits < 1:
        raise InvalidInputError(f"--limits must be at least 1, not {args.limits}")
    return args.limits


def _cmd_solve_det(args) -> int:
    inst = _single(args)
    limits = EnumLimits(max_cells=_limit(args, EnumLimits.max_cells))
    mech, revenue = enumerate_deterministic_optimal(inst.dist, inst.fs, limits)
    _emit(io.write_mechanism(mech), args.output)
    _report(
        "solve-det",
        inst.mode,
        args.seed,
        revenue=io.format_number(revenue, inst.mode),
    )
    return 0


def _cmd_solve_multi(args) -> int:
    inst = _instance(args)
    if inst.model != io.MULTI_ITEM:
        raise InvalidInputError("solve-multi needs a multi-item instance")
    mech, revenue = solve_multi(
        inst.multi,
        allow_negative_payments=args.allow_negative_payments,
        max_assignments=_limit(args, MAX_ASSIGNMENTS),
    )
    _emit(io.write_mechanism(mech), args.output)
    _report(
        "solve-multi",
        inst.mode,
        args.seed,
        revenue=io.format_number(revenue, inst.mode),
    )
    return 0


def _as_interim(parsed: io.ParsedMechanism):
    if parsed.kind == io.INTERIM:
        return parsed.mech
    if parsed.kind == io.EXPOST:
        return interim_of(parsed.mech)
    if parsed.kind == io.DETERMINISTIC:
        return parsed.mech.as_interim()
    raise InvalidInputError(f"no interim form for mechanism kind {parsed.kind!r}")


def _require_same_grid(grid, inst: io.ParsedInstance) -> None:
    if inst.dist is None or grid != inst.dist.grid:
        raise InvalidInputError("mechanism and instance disagree on the value grid")


def _require_same_multi(mech_inst, inst: io.ParsedInstance) -> None:
    if inst.multi is None or mech_inst != inst.multi:
        raise InvalidInputError("mechanism embeds a different multi-item instance")


def _pick_fs(mech: io.ParsedMechanism, inst: io.ParsedInstance) -> FeasibilitySystem:
    """The mechanism file's feasibility system, which must hold the
    instance's vectors (in any order), else the instance's."""
    if mech.fs is not None and set(mech.fs.vectors) != set(inst.fs.vectors):
        raise InvalidInputError(
            "mechanism and instance disagree on the feasible vectors"
        )
    return mech.fs or inst.fs


def _cmd_verify(args) -> int:
    inst, mech = _instance_and_mechanism(args)
    if mech.kind == io.MULTI:
        if inst.model != io.MULTI_ITEM:
            raise InvalidInputError("a multi mechanism needs a multi-item instance")
        _require_same_multi(mech.mech.inst, inst)
        report = check_multi(mech.mech)
    elif mech.kind == io.UNIVERSAL:
        _require_same_grid(mech.parts[0][0].grid, inst)
        _pick_fs(mech, inst)
        report = check_universal(mech.parts)
    else:
        interim = _as_interim(mech)
        _require_same_grid(interim.grid, inst)
        fs = _pick_fs(mech, inst)
        parts = []
        if mech.kind == io.EXPOST:
            parts.append(check_expost_ir(mech.mech))
        truthful = check_truthful(interim)
        parts.extend(
            [
                truthful,
                check_ir(interim, truthful),
                check_feasible(interim, fs),
                check_extension(interim, truthful),
            ]
        )
        report = VerifyReport.merge(*parts)
    _emit(io.write_report(report, mech.mode), args.output)
    return 0 if report.passed else 1


def _mechanism_revenue(mech: io.ParsedMechanism, inst: io.ParsedInstance):
    if mech.kind == io.MULTI:
        if inst.model != io.MULTI_ITEM:
            raise InvalidInputError("a multi mechanism needs a multi-item instance")
        _require_same_multi(mech.mech.inst, inst)
        return multi_revenue(mech.mech)
    if mech.kind == io.UNIVERSAL:
        _require_same_grid(mech.parts[0][0].grid, inst)
        _pick_fs(mech, inst)
        return sum(w * expected_revenue(part, inst.dist) for part, w in mech.parts)
    _require_same_grid(mech.mech.grid, inst)
    _pick_fs(mech, inst)
    return expected_revenue(mech.mech, inst.dist)


def _cmd_revenue(args) -> int:
    inst, mech = _instance_and_mechanism(args)
    revenue = _mechanism_revenue(mech, inst)
    sys.stdout.write(f"{io.format_number(revenue, mech.mode)}\n")
    return 0


def _cmd_ratio(args) -> int:
    inst, mech = _instance_and_mechanism(args)
    revenue = _mechanism_revenue(mech, inst)
    if inst.model == io.MULTI_ITEM:
        _, opt = solve_multi(inst.multi)
    else:
        opt = solve_optimal(inst.dist, inst.fs).revenue
    alpha = approximation_ratio(revenue, opt)
    sys.stdout.write(f"{io.format_number(alpha, mech.mode)}\n")
    return 0


def _cmd_decompose(args) -> int:
    text = _read(args.point)
    point, fs = io.read_point(text, args.mode)
    mode = args.mode or io.header_mode(text)
    dec = decompose_allocation(point, fs, mode)
    _emit(io.write_decomposition(dec, mode), args.output)
    return 0 if dec.in_hull else 1


def _cmd_oracle_stats(args) -> int:
    inst = _single(args)
    oracle = with_budget(ExplicitOracle(inst.dist), args.budget)
    materialize(oracle)
    _emit(io.ledger_line(oracle.ledger), args.output)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--exact",
        dest="mode",
        action="store_const",
        const=EXACT,
        help="force exact rational arithmetic (default: the file's mode)",
    )
    group.add_argument(
        "--float",
        dest="mode",
        action="store_const",
        const=FLOAT,
        help="force float numbers (solvers still solve exactly and round)",
    )
    p.set_defaults(mode=None)
    p.add_argument("--seed", type=int, default=None, help="echoed into run reports")
    p.add_argument("--output", metavar="PATH", help="write the file artifact here")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The revmax argument parser, built once per process: parsing leaves
    it unchanged, and building it costs more than most small commands."""
    ap = argparse.ArgumentParser(
        prog="revmax",
        description="Compute, verify, and benchmark revenue-optimal truthful "
        "auctions over correlated bidder distributions.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("solve", help="revenue-optimal truthful-in-expectation LP")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("solve-det", help="best deterministic truthful mechanism")
    p.add_argument("instance")
    p.add_argument("--limits", type=int, metavar="CELLS", help="grid-cell cap")
    _add_common(p)
    p.set_defaults(fn=_cmd_solve_det)

    p = sub.add_parser("solve-multi", help="multi-item assignment-lottery LP")
    p.add_argument("instance")
    p.add_argument("--allow-negative-payments", action="store_true")
    p.add_argument("--limits", type=int, metavar="COUNT", help="assignment cap")
    _add_common(p)
    p.set_defaults(fn=_cmd_solve_multi)

    p = sub.add_parser("verify", help="run every applicable check, report witnesses")
    p.add_argument("instance")
    p.add_argument("mechanism")
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("revenue", help="expected revenue of a mechanism file")
    p.add_argument("instance")
    p.add_argument("mechanism")
    _add_common(p)
    p.set_defaults(fn=_cmd_revenue)

    p = sub.add_parser("ratio", help="approximation ratio against the LP optimum")
    p.add_argument("instance")
    p.add_argument("mechanism")
    _add_common(p)
    p.set_defaults(fn=_cmd_ratio)

    p = sub.add_parser("decompose", help="convex decomposition or hull certificate")
    p.add_argument("point", help='file with {"kind":"point"} header')
    _add_common(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("oracle-stats", help="materialize through the query interface")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=None, help="query cap")
    _add_common(p)
    p.set_defaults(fn=_cmd_oracle_stats)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SizeLimitError, BudgetError, PivotLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

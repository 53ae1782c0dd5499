"""Seeded end-to-end benchmark of the revmax CLI.

Run from the repository root:

    python3 bench/run.py --workload solve-ladder --seed 1 --seconds 20 --trace 0

Set-up imports revmax from ./src, generates the workload's instance and
mechanism files from the seed under .bench_work/, and is repeated at
least SETUP_REPEATS times and for SETUP_SECONDS (setup_s is the median).
The timed loop then calls revmax.cli.main(argv) in this process, one
command at a time (a closed loop with one client), walking the
workload's plan in whole passes and checking every output, for about
--seconds (at least MIN_PASSES passes, stopping at the nearest pass
boundary).  After the loop, each solver output is replayed through
`revmax verify` and deterministic optima are compared with the LP.

The host may change speed for tens of seconds at a time (for example
when other virtual machines share its cores), so every timing is taken
between two slices of a fixed calibration loop (exact fraction
arithmetic and dict churn, stdlib only) and scaled to a machine on which
one slice takes CAL_REF_S.  The scaled times are the metrics; the raw
wall times are printed next to them.

--trace 0 reports the end-to-end metrics; --trace 1 runs whole passes
untraced for half the time and traced for the other half and reports the
per-layer metrics (per pass over the plan) and the tracing overhead.
The last stdout line is one JSON object; the exit code is 0 when every
output checked out, 1 when some did not, 2 when the benchmark could not
run at all.  With --seed 0 outputs are also compared with pins.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ".bench_work"
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
PIN_SEED = 0
PINS = HERE / "pins.json"
# the span self times of a traced pass must add up to the untraced wall
# time of the same commands (each command's median over its repeats,
# scaled) within this share.  Single commands are not held to it: on a
# shared 2-vCPU virtual machine one command's repeats differed by up to
# 2x, a whole pass by at most 11% in twelve traced runs (once 33%)
TRACE_GAP = 0.4
# and at most this share of traced time may be left in cli.main's own
# self time, outside every wrapped function
CLI_SELF_MAX = 0.10
# the tail is the highest of PERCENTILES with at least TAIL_BEYOND samples
# above it in the smallest run a plan allows (MIN_PASSES passes), so the
# percentile reported does not depend on how many passes the host's speed
# allowed
TAIL_BEYOND = 10
MIN_PASSES = 2
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
CAL_REF_S = 0.005


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program, or nondeterministic inputs)."""


def calibrate() -> float:
    """Duration of one slice of fixed work resembling the program's own
    (exact fractions, tuples, a dict); it tracks the host's current speed."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 900):
        acc += Fraction(i % 7 + 1, i + 2) * Fraction(i + 1, 3 * i + 5)
        if acc.denominator > 10**24:
            acc = Fraction(acc.numerator % 9973, acc.denominator % 9967 + 1)
        table[(i, i % 5)] = acc
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibration slices to
    the reference machine."""
    return CAL_REF_S / ((before + after) / 2)


def import_revmax() -> dict:
    """Import revmax from ./src afresh; returns its modules by name."""
    for name in [m for m in sys.modules if m == "revmax" or m.startswith("revmax.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        importlib.import_module("revmax.cli")
        importlib.import_module("revmax.mechanisms")
    except ImportError as exc:
        raise SetupError(f"cannot import revmax from {SRC}: {exc}") from exc
    mods = {m: sys.modules[m] for m in sys.modules if m == "revmax" or m.startswith("revmax.")}
    origin = Path(mods["revmax"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"revmax was imported from {origin}, not from {SRC}")
    return mods


def set_up(workload: str, seed: int):
    """Import and generate at least SETUP_REPEATS times and until
    SETUP_SECONDS have been spent; the files must come out byte-identical
    every time.  Returns the median scaled set-up time."""
    work = Path(WORK) / f"{workload}-s{seed}"
    times, digest = [], None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < 25):
        shutil.rmtree(work, ignore_errors=True)
        before = calibrate()
        start = time.perf_counter()
        mods = import_revmax()
        rx = SimpleNamespace(model=mods["revmax.model"], io=mods["revmax.io"],
                             mechanisms=mods["revmax.mechanisms"])
        plan = workloads.PLANS[workload](seed, str(work), rx)
        work.mkdir(parents=True)
        for path, text in plan.files.items():
            Path(path).write_text(text)
        elapsed = time.perf_counter() - start
        times.append(elapsed * scale(before, calibrate()))
        h = hashlib.sha256()
        for path in sorted(plan.files):
            h.update(path.encode() + b"\0" + plan.files[path].encode() + b"\0")
        if digest is not None and h.hexdigest() != digest:
            raise SetupError("the same seed generated different files")
        digest = h.hexdigest()
    plan.compute_expectations()  # the benchmark's own references, not set-up
    keys = [c.key for c in plan.cmds]
    if len(set(keys)) != len(keys):
        raise SetupError("duplicate command keys in the plan")
    return statistics.median(times), plan, mods, work


def execute(main, argv: list):
    """One in-process CLI call; returns (wall seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, the loop goes on
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return wall, rc, out.getvalue()


class Ledger:
    """Every execution's scaled and raw wall time and verdict, and the
    first value seen per command key (later repeats must reproduce it)."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.walls: list = []
        self.raw: list = []
        self.scales: list = []
        self.keys: list = []
        self.bad: list = []
        self.values: dict = {}
        self.problems: list = []

    def record(self, cmd, wall: float, factor: float, rc, stdout: str) -> None:
        value, problems = workloads.observe(cmd, rc, stdout)
        first = self.values.setdefault(cmd.key, value)
        if value != first:
            problems.append(f"output changed between repeats: {first} then {value}")
        if self.pins is not None:
            pin = self.pins.get(cmd.key)
            if pin != value:
                problems.append(f"pinned {pin}, got {value}")
        self.walls.append(wall * factor)
        self.raw.append(wall)
        self.scales.append(factor)
        self.keys.append(cmd.key)
        self.bad.append(bool(problems))
        self.problems.extend(f"{cmd.key}: {p}" for p in problems)

    def fail_key(self, key: str, why: str) -> None:
        self.problems.append(f"{key}: {why}")
        self.bad = [b or k == key for b, k in zip(self.bad, self.keys)]

    @property
    def failed(self) -> int:
        return sum(self.bad)


def run_loop(main, plan, ledger: Ledger, seconds: float, min_passes: int,
             tracer=None) -> tuple:
    """Walk the plan in whole passes, at least min_passes, stopping at the
    pass boundary nearest to `seconds`; returns (commands run, scaled
    seconds inside commands, passes completed)."""
    cmds = plan.cmds
    start = last = time.perf_counter()
    i, busy = 0, 0.0
    before = calibrate()
    while True:
        if i and i % len(cmds) == 0:
            now = time.perf_counter()
            enough = i >= min_passes * len(cmds)
            if enough and now - start + (now - last) / 2 >= seconds:
                break
            last = now
        cmd = cmds[i % len(cmds)]
        if tracer is not None:
            tracer.command = len(ledger.walls)
        wall, rc, stdout = execute(main, cmd.argv)
        after = calibrate()
        factor = scale(before, after)
        ledger.record(cmd, wall, factor, rc, stdout)
        busy += wall * factor
        before = after
        i += 1
    return i, busy, i // len(cmds)


def post_check(main, plan, ledger: Ledger) -> None:
    for key, argv, ok, why in workloads.post_checks(plan, ledger.values):
        _, rc, stdout = execute(main, argv)
        if not ok(rc, stdout):
            ledger.fail_key(key, why)


def _rank(pct: float, n: int) -> int:
    return max(math.ceil(pct * n / 100), 1)  # nearest rank, 1-based


def tail_percentile(plan_len: int) -> float:
    """The highest of PERCENTILES with at least TAIL_BEYOND samples above
    it in a run of MIN_PASSES passes over a plan of plan_len commands."""
    n = MIN_PASSES * plan_len
    return next(p for p in PERCENTILES if n - _rank(p, n) >= TAIL_BEYOND)


def end_to_end(ledger: Ledger, busy: float, setup_s: float, plan_len: int) -> tuple:
    walls = ledger.walls
    pct, ordered = tail_percentile(plan_len), sorted(walls)
    n = len(ordered)
    value, beyond = ordered[_rank(pct, n) - 1], n - _rank(pct, n)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cmd_p50_ms": (1000 * statistics.median(walls), "ms"),
        "cmd_tail_ms": (1000 * value, "ms"),
        "cmds_per_s": (len(walls) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = ledger.raw
    notes = {
        "cmd_tail_ms": f"p{pct:g} of {n} commands, {beyond} above it",
        "raw wall time": f"p50 {1000 * statistics.median(raw):.1f} ms, "
                         f"{len(raw) / sum(raw):.3f} commands/s unscaled",
        "fail_ratio": f"{ledger.failed}/{len(walls)} = {ledger.failed / len(walls):.4f}",
    }
    return metrics, notes


def traced(main, plan, ledger: Ledger, mods: dict, seconds: float, out: Path,
           required: list) -> tuple:
    """Untraced whole passes, then traced whole passes, half the time
    each.  Returns (per-layer metrics, notes, problems)."""
    count, busy, _ = run_loop(main, plan, ledger, seconds / 2, 1)
    plain_rate = count / busy
    first_id = len(ledger.walls)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        count, busy, passes = run_loop(mods["revmax.cli"].main, plan, ledger, seconds / 2,
                                       1, tracer)
    finally:
        tracer.remove()
    scales = dict(enumerate(ledger.scales))
    metrics = tracing.layer_metrics(tracer.spans, passes,
                                    set(range(first_id, first_id + len(plan.cmds))), scales)
    metrics = {k: (v, _unit(k)) for k, v in metrics.items()}
    metrics["trace.overhead_ratio"] = ((count / busy) / plain_rate, "ratio")
    tracer.dump(str(out / "trace.jsonl"))

    # per command key: summed span self times of its traced repeats against
    # its untraced wall times, both scaled, medians over repeats
    plain, spanned = defaultdict(list), defaultdict(list)
    for cmd_id, key in enumerate(ledger.keys[:first_id]):
        plain[key].append(ledger.walls[cmd_id])
    for cmd_id, per_name in tracing.self_times(tracer.spans).items():
        spanned[ledger.keys[cmd_id]].append(sum(per_name.values()) * scales[cmd_id])
    plain_pass = sum(statistics.median(plain[key]) for key in spanned)
    spanned_pass = sum(statistics.median(spanned[key]) for key in spanned)
    gap = abs(spanned_pass - plain_pass) / plain_pass
    cli_share = metrics["cli.self_s"][0] / sum(v for k, (v, u) in metrics.items()
                                               if k in tracing.TIMES.values())
    problems = []
    if gap > TRACE_GAP:
        problems.append(f"span self times of a pass miss its untraced wall time by "
                        f"{gap:.1%}, over {TRACE_GAP:.0%}")
    if cli_share > CLI_SELF_MAX:
        problems.append(f"{cli_share:.1%} of traced time is cli.main's own, over "
                        f"{CLI_SELF_MAX:.0%}: a wrapper is missing")
    for name in required:
        if not any(span[3] == name for span in tracer.spans):
            problems.append(f"no {name} span in the traced passes")
    notes = {"trace": f"{passes} traced passes; self times of a pass match its untraced "
                      f"wall time within {gap:.1%} (limit {TRACE_GAP:.0%}); cli.main self "
                      f"time {cli_share:.1%} of traced time (limit {CLI_SELF_MAX:.0%})"}
    return metrics, notes, problems


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "lp.ms_per_solve":
        return "ms"
    if name.startswith("io.bytes"):
        return "B"
    return "count"


def write_results(plan, ledger: Ledger, out: Path) -> None:
    """Each instance's P, K and support size next to its results."""
    walls: dict = {}
    for key, wall in zip(ledger.keys, ledger.walls):
        walls.setdefault(key, []).append(wall)
    with open(out / "results.jsonl", "w") as fh:
        for cmd in plan.cmds:
            row = {"key": cmd.key, **cmd.inst.describe(), "value": ledger.values.get(cmd.key),
                   "runs": len(walls.get(cmd.key, [])),
                   "median_ms": 1000 * statistics.median(walls[cmd.key]) if cmd.key in walls
                   else None}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pins = None
    if args.seed == PIN_SEED:
        with open(PINS) as fh:
            pins = json.load(fh).get(args.workload, {})
    try:
        setup_s, plan, mods, out = set_up(args.workload, args.seed)
        cli_main = mods["revmax.cli"].main
        ledger = Ledger(pins)
        problems = []
        if args.trace:
            metrics, notes, problems = traced(cli_main, plan, ledger, mods, args.seconds, out,
                                              workloads.TRACED[args.workload])
        else:
            _, busy, _ = run_loop(cli_main, plan, ledger, args.seconds, MIN_PASSES)
            metrics, notes = end_to_end(ledger, busy, setup_s, len(plan.cmds))
    except (SetupError, tracing.MissingNameError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    post_check(cli_main, plan, ledger)
    write_results(plan, ledger, out)
    problems = ledger.problems + problems
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not problems
    print(f"workload {args.workload} seed {args.seed}: {len(plan.cmds)} commands per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    for name, note in notes.items():
        print(f"  {name:<24} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ledger.walls),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

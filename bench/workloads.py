"""The four workloads: what each runs, the files it writes at set-up, and
how each command's output is checked.

A workload's plan is a list of CLI commands in a fixed order that
interleaves small, medium and large inputs.  Every command carries the
checks that hold for any seed; pinned values for the default seed live
in pins.json.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import gen
import refs
from gen import CORRELATED as C
from gen import DENSE as D
from gen import SPARSE as S

SOLVE_LADDER = "solve-ladder"
SOLVE_MULTI = "solve-multi"
VERIFY_GRID = "verify-grid"
DET_SEARCH = "det-search"

UNITS2_3 = gen.units(3, 2)
UNITS2_4 = gen.units(4, 2)
# three bidders, one unit each, plus one pair that may share: 5 vectors
PAIR_3 = gen.units(3, 1) + [(1, 1, 0)]

# Each plan is 20-25 commands taking 4-10 s per pass with today's solver, with
# shapes chosen for a small seed-to-seed spread in cost, and tiers sized so
# that the median and the upper quartile of a pass fall inside a tier of
# similar commands rather than between two tiers.

# (n, per-bidder grid sizes, feasible vectors or None, support kind);
# plans take one entry per tier in turn
LADDER_TIERS = [
    [(2, [4, 4], None, C), (3, [3, 3, 2], None, S), (3, [3, 3, 2], None, C),
     (3, [3, 3, 2], UNITS2_3, S), (3, [3, 3, 2], UNITS2_3, C), (4, [2] * 4, UNITS2_4, S),
     (4, [2] * 4, UNITS2_4, C), (4, [3, 2, 2, 2], None, C), (3, [4, 3, 2], None, C),
     (3, [3, 3, 2], None, D)],
    [(3, [3] * 3, None, D), (3, [3] * 3, None, S), (3, [3] * 3, None, C),
     (3, [4, 3, 2], None, D), (3, [3] * 3, UNITS2_3, S), (4, [3, 2, 2, 2], None, D),
     (3, [3, 3, 2], UNITS2_3, D), (3, [4, 3, 2], None, S)],
    [(4, [3, 3, 2, 2], None, S), (3, [4, 3, 3], None, D), (3, [4, 3, 3], None, S),
     (3, [3] * 3, UNITS2_3, C), (4, [3, 3, 2, 2], None, C)],
    [(3, [4, 4, 3], None, S)],
]

# (n, items, types per bidder, support kind); the median and upper
# quartile fall in groups of a repeated shape whose cost varies little
# between seeds (three bidders, one item, three types)
MULTI_TIERS = [
    [(3, 1, 2, D), (2, 3, 2, D), (2, 2, 2, C), (2, 2, 3, S), (2, 1, 3, S), (2, 2, 3, C),
     (3, 2, 2, S), (2, 3, 2, C), (2, 1, 4, C)],
    [(3, 1, 3, C)] * 7,
    [(3, 1, 3, D)] * 6,
    [(2, 1, 5, S), (3, 2, 3, S), (3, 1, 4, S)],
]

# grids of at most 12 cells, the brute-force search's cap
DET_TIERS = [
    [(2, [3, 4], None, S), (2, [4, 3], None, C), (3, [2, 2, 2], None, S), (2, [2, 6], None, S),
     (4, [2, 2, 1, 1], UNITS2_4, S), (2, [3, 4], None, C), (2, [4, 3], None, S),
     (2, [2, 6], None, C), (3, [2, 2, 2], None, S)],
    [(2, [4, 3], None, D), (2, [3, 4], None, D), (4, [2, 2, 1, 1], UNITS2_4, C),
     (4, [2, 2, 1, 1], UNITS2_4, D), (3, [2, 2, 2], None, C), (3, [2, 2, 2], None, D),
     (2, [2, 6], None, D)],
    [(3, [2, 2, 2], PAIR_3, S), (3, [2, 3, 1], UNITS2_3, S), (3, [3, 2, 1], UNITS2_3, S),
     (3, [2, 3, 1], UNITS2_3, C), (3, [3, 2, 1], UNITS2_3, C)],
    [(3, [2, 3, 1], UNITS2_3, D), (3, [2, 2, 2], PAIR_3, D), (4, [2, 2, 2, 1], None, C)],
]

# (n, values per bidder, support kind, mechanisms to verify, mechanisms
# whose revenue to read, whether to run oracle-stats): 400, 512 and 400
# profiles.  Verify is two thirds of the commands, so the median and the
# upper quartile of a pass are verify commands.
VERIFY_GRIDS = [
    (2, [20, 20], S, ["vickrey", "first", "second", "mix", "universal"], ["first", "mix"], True),
    (3, [8, 8, 8], C, ["posted", "first", "second", "mixpost", "vickrey"], ["mixpost"], True),
    (4, [5, 5, 4, 4], D, ["vickrey", "first", "mixpost", "second"], ["first", "mixpost"], False),
]
# verify must pass (exit 0) on truthful mechanisms and fail (exit 1) on
# first price and on textbook second price over grids with gaps
VERIFY_RC = {"vickrey": 0, "posted": 0, "mix": 0, "mixpost": 0, "universal": 0,
             "first": 1, "second": 1}


@dataclass
class Cmd:
    """One CLI invocation and what its output must satisfy: `reference`
    computes the expected values, which Plan.compute_expectations stores
    in `expect` once set-up is over."""

    key: str
    argv: list
    kind: str
    inst: gen.Instance
    reference: Callable[[], dict]
    output: Optional[str] = None
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    cmds: list
    files: dict  # relative path -> text, written at set-up

    def compute_expectations(self) -> None:
        for cmd in self.cmds:
            cmd.expect = cmd.reference()


def interleave(tiers: list) -> list:
    out = []
    for r in range(max(len(t) for t in tiers)):
        out.extend(t[r] for t in tiers if r < len(t))
    return out


def _name(prefix: str, spec: tuple) -> str:
    n, sizes, vectors, kind = spec
    shape = "x".join(map(str, sizes))
    k = len(vectors) if vectors else n + 1
    return f"{prefix}-n{n}-{shape}-K{k}-{kind}"


def _unique(seen: dict, name: str) -> str:
    """Number repeated shapes: the second draw of a shape gets '-2'."""
    seen[name] = seen.get(name, 0) + 1
    return name if seen[name] == 1 else f"{name}-{seen[name]}"


def _single_bounds(inst: gen.Instance) -> dict:
    return {"lower": refs.vickrey_revenue(inst), "upper": refs.max_welfare(inst)}


def _plan_single(workload: str, seed: int, work: str, tiers: list, command: str) -> Plan:
    rng = gen.stream(workload, seed)
    cmds, files = [], {}
    seen: dict = {}
    for spec in interleave(tiers):
        n, sizes, vectors, kind = spec
        name = _unique(seen, _name(command, spec))
        inst = gen.single(rng, name, sizes, kind, vectors=vectors)
        ipath = os.path.join(work, f"{name}.ndjson")
        files[ipath] = inst.text()
        out = os.path.join(work, f"{name}.mech.ndjson")
        cmds.append(
            Cmd(name, [command, ipath, "--exact", "--output", out], command, inst,
                lambda inst=inst: _single_bounds(inst), output=out)
        )
    return Plan(cmds, files)


def plan_solve_ladder(seed: int, work: str, rx) -> Plan:
    return _plan_single(SOLVE_LADDER, seed, work, LADDER_TIERS, "solve")


def plan_det_search(seed: int, work: str, rx) -> Plan:
    return _plan_single(DET_SEARCH, seed, work, DET_TIERS, "solve-det")


def plan_solve_multi(seed: int, work: str, rx) -> Plan:
    rng = gen.stream(SOLVE_MULTI, seed)
    cmds, files = [], {}
    seen: dict = {}
    for n, m, t, kind in interleave(MULTI_TIERS):
        name = _unique(seen, f"multi-n{n}-m{m}-t{t}-{kind}")
        inst = gen.multi(rng, name, n, m, t, kind)
        ipath = os.path.join(work, f"{name}.ndjson")
        files[ipath] = inst.text()
        out = os.path.join(work, f"{name}.mech.ndjson")
        cmds.append(
            Cmd(name, ["solve-multi", ipath, "--exact", "--output", out], "solve-multi",
                inst, lambda inst=inst: {"lower": Fraction(0), "upper": refs.max_welfare(inst)},
                output=out)
        )
    return Plan(cmds, files)


def _fails_first_price(grid: list) -> bool:
    """Some bidder still wins at his second-highest value against everyone
    else's lowest, so first price is strictly manipulable there."""
    return any(
        g[-2] > max(h[0] for j, h in enumerate(grid) if j != i)
        for i, g in enumerate(grid)
    )


def _fails_second_price(grid: list) -> bool:
    """Some competing high bid m falls strictly between two consecutive
    grid values of a bidder, so just below the upper one he profits from
    overbidding under the round-down extension."""
    n = len(grid)
    for i, g in enumerate(grid):
        for j in range(n):
            if j == i:
                continue
            floor = max((grid[l][0] for l in range(n) if l not in (i, j)), default=None)
            for m in grid[j]:
                if floor is not None and m <= floor:
                    continue
                if any(a < m < b for a, b in zip(g, g[1:])):
                    return True
    return False


def _verify_grid_instance(rng, name: str, sizes: list, kind: str) -> gen.Instance:
    for _ in range(100):
        inst = gen.single(rng, name, sizes, kind, disjoint=True)
        if _fails_first_price(inst.grid) and _fails_second_price(inst.grid):
            return inst
    raise RuntimeError(f"no grid for {name} on which first and second price both fail")


def _mixture(rx, parts: list, weights: list):
    """Interim and ex-post forms of a convex mixture of deterministic
    mechanisms; a mixture of truthful mechanisms stays truthful."""
    grid, fs = parts[0].grid, parts[0].fs
    n = grid.n
    interims = [p.as_interim() for p in parts]
    x, pay, outcomes = {}, {}, {}
    for v in grid.profiles():
        x[v] = tuple(sum(w * m.x[v][i] for w, m in zip(weights, interims)) for i in range(n))
        pay[v] = tuple(sum(w * m.p[v][i] for w, m in zip(weights, interims)) for i in range(n))
        merged: dict = {}
        for w, part in zip(weights, parts):
            key = (part.choice[v], part.payments[v])
            merged[key] = merged.get(key, 0) + w
        outcomes[v] = [(c, p, w) for (c, p), w in merged.items()]
    interim = rx.model.InterimMechanism(grid, x, pay)
    expost = rx.model.ExPostMechanism(grid, fs, outcomes)
    return interim, expost


def plan_verify_grid(seed: int, work: str, rx) -> Plan:
    """Instances plus reference and random mechanism files; rx is the
    imported revmax package, used here only to build and write those
    files."""
    rng = gen.stream(VERIFY_GRID, seed)
    files, per_grid = {}, []
    for gi, (n, sizes, kind, verify, revenue, oracle) in enumerate(VERIFY_GRIDS):
        name = f"grid{gi}-n{n}-{'x'.join(map(str, sizes))}-{kind}"
        inst = _verify_grid_instance(rng, name, sizes, kind)
        ipath = os.path.join(work, f"{name}.ndjson")
        files[ipath] = inst.text()
        grid = rx.model.ValueGrid(inst.grid)
        prices = [[rng.choice(g) for g in inst.grid] for _ in range(2)]
        vickrey = rx.mechanisms.vickrey(grid)
        posted = rx.mechanisms.posted_price(grid, prices[0])
        parts = [vickrey, posted, rx.mechanisms.posted_price(grid, prices[1])]
        raw = [rng.randint(1, 6) for _ in parts]
        weights = [Fraction(w, sum(raw)) for w in raw]
        mix, mixpost = _mixture(rx, parts, weights)
        used = list(dict.fromkeys(verify + revenue))
        mechs = {"vickrey": vickrey, "posted": posted, "mix": mix, "mixpost": mixpost}
        makers = {"first": rx.mechanisms.first_price, "second": rx.mechanisms.second_price}
        for m in used:
            if m in makers:
                mechs[m] = makers[m](grid)
        mpaths = {}
        for m in used:
            mpaths[m] = os.path.join(work, f"{name}.{m}.ndjson")
            if m == "universal":
                # two parts keep this check near the cost of the others
                pair = [Fraction(w, raw[0] + raw[1]) for w in raw[:2]]
                files[mpaths[m]] = rx.io.write_mechanism(None, parts=list(zip(parts, pair)))
            else:
                files[mpaths[m]] = rx.io.write_mechanism(mechs[m])
        checks, quick = [], []
        for m in verify:
            report = os.path.join(work, f"{name}.{m}.report.ndjson")
            checks.append(
                Cmd(f"verify:{name}:{m}", ["verify", ipath, mpaths[m], "--output", report],
                    "verify", inst, lambda rc=VERIFY_RC[m]: {"rc": rc}, output=report)
            )
        for m in revenue:
            pays = mix.p if m in ("mix", "mixpost") else mechs[m].payments
            quick.append(
                Cmd(f"revenue:{name}:{m}", ["revenue", ipath, mpaths[m]], "revenue", inst,
                    lambda inst=inst, pays=pays: {
                        "revenue": refs.mechanism_revenue(inst, pays)})
            )
        if oracle:
            budget = 16 * (inst.n + sum(len(g) for g in inst.grid)) ** 2
            line = gen.dumps_line({"budget": budget, "conditional_queries": 0,
                                   "point_queries": inst.cells, "total": inst.cells})
            quick.append(Cmd(f"oracle:{name}", ["oracle-stats", ipath], "oracle", inst,
                             lambda line=line: {"line": line}))
        grid_cmds = interleave([checks, quick])
        per_grid.append(grid_cmds)
    return Plan(interleave(per_grid), files)


PLANS = {
    SOLVE_LADDER: plan_solve_ladder,
    SOLVE_MULTI: plan_solve_multi,
    VERIFY_GRID: plan_verify_grid,
    DET_SEARCH: plan_det_search,
}

# spans a traced run of each workload must record: the layer it exists to
# measure, so that work moved out of a wrapped function fails the run
# rather than showing as a cut to zero
TRACED = {
    SOLVE_LADDER: ["lp.solve", "optimal.build"],
    SOLVE_MULTI: ["lp.solve", "multi.build", "multi.replay"],
    VERIFY_GRID: ["verify.truthful", "io.parse", "io.serialize"],
    DET_SEARCH: ["brute.search"],
}

# ---------------------------------------------------------------------------
# checks


def _revenue_line(stdout: str) -> tuple:
    """(revenue, report object) from a solver's report line, or Nones."""
    try:
        obj = json.loads(stdout.strip().splitlines()[-1])
        return Fraction(obj["revenue"]), obj
    except (ValueError, IndexError, KeyError, TypeError):
        return None, None


def observe(cmd: Cmd, rc, stdout: str) -> tuple:
    """Check one execution's exit code and output against the facts that
    hold for any seed.  Returns (value, problems); value is the short
    string compared across repeats and with the pins."""
    problems = []
    if cmd.kind in ("solve", "solve-det", "solve-multi"):
        if rc != 0:
            return f"rc={rc}", [f"exit code {rc}"]
        revenue, obj = _revenue_line(stdout)
        if revenue is None:
            return "unparsed", [f"bad report line {stdout!r:.200}"]
        if obj.get("command") != cmd.kind:
            problems.append(f"report names command {obj.get('command')!r}")
        lo, hi = cmd.expect["lower"], cmd.expect["upper"]
        if not lo <= revenue <= hi:
            problems.append(f"revenue {revenue} outside [{lo}, {hi}]")
        return str(revenue), problems
    if cmd.kind == "verify":
        try:
            with open(cmd.output) as fh:
                text = fh.read()
        except OSError as exc:
            return f"rc={rc}", [f"no report: {exc}"]
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        value = f"{rc}:{digest}"
        if rc != cmd.expect["rc"]:
            problems.append(f"exit code {rc}, expected {cmd.expect['rc']}")
        lines = text.splitlines()
        try:
            summary = json.loads(lines[-1])
            if summary["passed"] != (rc == 0):
                problems.append("summary verdict disagrees with the exit code")
            if summary["witnesses"] != len(lines) - 1:
                problems.append("witness count disagrees with the witness lines")
        except (ValueError, IndexError, KeyError, TypeError):
            problems.append("report lacks a summary line")
        return value, problems
    if cmd.kind == "revenue":
        got = stdout.strip()
        if rc != 0:
            problems.append(f"exit code {rc}")
        elif got != str(cmd.expect["revenue"]):
            problems.append(f"revenue {got}, expected {cmd.expect['revenue']}")
        return got, problems
    if cmd.kind == "oracle":
        if rc != 0:
            problems.append(f"exit code {rc}")
        elif stdout != cmd.expect["line"]:
            problems.append(f"ledger {stdout.strip()}, expected {cmd.expect['line'].strip()}")
        return stdout.strip(), problems
    raise ValueError(f"unknown command kind {cmd.kind!r}")


def post_checks(plan: Plan, values: dict) -> list:
    """Checks run once after the timed loop, outside it, as (key, argv,
    predicate on (rc, stdout), message) tuples.  Every solver output must
    pass verify; each deterministic optimum must not beat the LP optimum."""
    out = []
    for cmd in plan.cmds:
        if cmd.kind not in ("solve", "solve-det", "solve-multi"):
            continue
        ipath = cmd.argv[1]
        out.append((cmd.key, ["verify", ipath, cmd.output],
                    lambda rc, stdout: rc == 0, "output fails verify"))
        if cmd.kind == "solve-det":
            try:
                det = Fraction(values[cmd.key])
            except (KeyError, ValueError):
                continue  # the command itself failed and is already counted

            def lp_not_below(rc, stdout, det=det):
                lp, _ = _revenue_line(stdout)
                return rc == 0 and lp is not None and det <= lp

            out.append((cmd.key, ["solve", ipath, "--exact"], lp_not_below,
                        "deterministic optimum above the LP optimum"))
    return out

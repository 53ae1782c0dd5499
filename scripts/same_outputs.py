"""Check that two source trees give the same outputs on the benchmark plans.

    python3 scripts/same_outputs.py PARENT_TREE CHANGE_TREE [--seeds 0-3]

Each tree is a checkout of this repository (for example one made with
`git archive`).  The plans and their input files come from PARENT_TREE:
its bench/workloads.py lays out every workload's commands for each seed
and its src/ writes the generated mechanism files, once, into a
temporary directory; nothing under bench/ is written.  Every plan command
then runs twice per tree, once with --exact and once with --float (any
mode flag of the plan is replaced), through revmax.cli.main in one worker
process per tree that imports that tree's src/.  Output paths are
relative to the worker's own directory, so both trees see the same argv.

Each solve, solve-det and solve-multi command is followed by a verify of
the mechanism it wrote, in the same mode.  Each solve-multi output is also
verified once more as a copy whose first pay line is raised by 1 in
every entry, which fails the replay and so compares the failing
multi-item reports too, and once as a copy with its support, assignment
and pay lines in reverse order, which compares the multi-item reader's
placement of lines out of order.  Each solve output is likewise verified as a
copy whose first profile's allocation is all 1s, which lies outside the
hull of a single-item system with two or more bidders, so failing
`feasible` witnesses and their certificates are compared too.  Each
verify and revenue command of a plan runs once more on a copy of its
mechanism file whose body lines come in reverse order and spell the
first bidder's lowest grid value as another fraction, so the readers'
placement of lines out of order and of numbers not spelled as on the
grid line is compared too.

For each command the exit code, stdout, stderr and the bytes written to
--output are compared.  A differing --float solve, solve-det or
solve-multi command is labelled `rounded` when both trees' revenues agree
within 1e-9 relative and the change tree's verify of its output exits 0,
and `changed` otherwise: a float answer may be rounded from another
computation of the same optimum.  A differing --exact solve-multi command
is labelled `tied` when both trees report the same revenue and both
trees' verify of its output exits 0, and `changed` otherwise: the LP
optimum can be tied, and then another optimal mechanism may be printed.

A differing verify command is labelled `certificate` when both trees
give the same exit code, the same checks and witness count, the same
witness lines apart from `feasible` ones, `feasible` witnesses at the
same profiles, and every certificate the change tree alters separates
its profile's allocation from the feasible vectors: a hull point has
many separating certificates.  A differing --float verify command that
meets all of these but the same witness lines is labelled `rounded` when
its witness lines differ only in lhs and rhs, within 1e-9 times
max(1, |lhs|, |rhs|): it verifies a rounded answer, or an edited copy of
one.  A differing verify of an edited copy (verify-ones, verify-raised,
verify-reversed) of a solver output labelled `rounded` or `tied` that is
not labelled so far takes the solver's label when both trees give the
same exit code and the same verdict for each check: the copies differ
because the outputs do, and a tied optimum's copy fails at other lines.
The verify-raised copy of a `tied` output is instead labelled `tied`
when each tree's verdicts are those that raising its own first pay line
must give (raised_verdicts): two tied optima may charge differently at
that profile, so their raised copies may break different checks.  Any
other differing verify command is `changed`.  Exit code 0 when every command
agrees, 1 when some differ (each is listed), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
MODES = ("--exact", "--float")
SOLVERS = ("solve", "solve-det", "solve-multi")
# the verify commands of an edited copy of a solver's output
EDITED = (" verify-ones", " verify-raised", " verify-reversed")


def _digest(data) -> str:
    if data is None:
        return "absent"
    if isinstance(data, str):
        data = data.encode()
    return f"{hashlib.sha256(data).hexdigest()[:16]}:{len(data)}"


def raise_first_pay(source: str, target: str) -> None:
    """Copy a multi-item mechanism file, adding 1 to every entry of its
    first pay line."""
    lines = Path(source).read_text().splitlines(keepends=True)
    for k, line in enumerate(lines):
        obj = json.loads(line)
        if "pay" in obj:
            obj["pay"] = [str(Fraction(c) + 1) if isinstance(c, str) else c + 1
                          for c in obj["pay"]]
            lines[k] = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
            break
    Path(target).write_text("".join(lines))


def ones_first_alloc(source: str, target: str) -> None:
    """Copy an interim mechanism file, setting every entry of its first
    alloc line to 1."""
    lines = Path(source).read_text().splitlines(keepends=True)
    for k, line in enumerate(lines):
        obj = json.loads(line)
        if "alloc" in obj:
            obj["alloc"] = ["1" if isinstance(c, str) else 1.0 for c in obj["alloc"]]
            lines[k] = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
            break
    Path(target).write_text("".join(lines))


def reverse_respell(source: str, target: str) -> None:
    """Copy a single-item mechanism file with its body lines (those with
    a profile or a part index) in reverse order, and the first bidder's
    lowest grid value spelled as 2p/2q wherever a profile quotes it."""
    objs = _records(source)
    value = next(obj["grid"] for obj in objs if "grid" in obj)[0][0]
    q = Fraction(value)
    spelled = f"{2 * q.numerator}/{2 * q.denominator}"
    head = [obj for obj in objs if "profile" not in obj and "part" not in obj]
    body = [obj for obj in objs if "profile" in obj or "part" in obj]
    for obj in body:
        if obj.get("profile", [None])[0] == value:
            obj["profile"][0] = spelled
    lines = [json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
             for obj in head + body[::-1]]
    Path(target).write_text("".join(lines))


def reverse_multi(source: str, target: str) -> None:
    """Copy a multi-item mechanism file with its support, assignment and
    pay lines in reverse order, after the header and bidder lines."""
    head, body = [], []
    for line in Path(source).read_text().splitlines(keepends=True):
        keys = set(json.loads(line))
        (body if keys & {"support", "assignment", "pay"} else head).append(line)
    Path(target).write_text("".join(head + body[::-1]))


def raised_verdicts(source: str) -> dict:
    """The verdict of each check that verify must give the raise_first_pay
    copy of source, a multi-item mechanism file that itself verifies.
    Raising every bidder's payment at the first pay line's profile t by 1
    lowers only the utility of reporting truthfully at t, so bidder i's
    rationality at t breaks iff its expected value there is below its
    raised payment, and its truthfulness at t breaks iff some misreport
    beats the raised truthful utility; no other constraint can break.
    Exact files compare rationals, float files within 1e-9 times
    max(1, |lhs|, |rhs|), the verifier's tolerance."""
    objs = _records(source)
    exact = objs[0].get("mode") != "float"
    tables = {o["bidder"]: [[Fraction(c) for c in t] for t in o["tables"]]
              for o in objs if "tables" in o}
    lots, pays = {}, {}
    for o in objs:
        if "assignment" in o:
            lots.setdefault(tuple(o["profile"]), []).append((o["assignment"], Fraction(o["prob"])))
        elif "pay" in o:
            pays[tuple(o["profile"])] = [Fraction(c) for c in o["pay"]]
    first = next(tuple(o["profile"]) for o in objs if "pay" in o)

    def worth(i: int, ti: int, profile: tuple) -> Fraction:
        table = tables[i][ti]
        return sum((w * table[sum(1 << j for j, o in enumerate(owners) if o == i)]
                    for owners, w in lots.get(profile, [])), Fraction(0))

    def fails(lhs, rhs) -> bool:
        """Whether lhs >= rhs fails."""
        if exact:
            return lhs < rhs
        return rhs - lhs > Fraction(1e-9) * max(1, abs(lhs), abs(rhs))

    ic = ir = True
    for i, ti in enumerate(first):
        paid = pays[first][i] + 1
        own = worth(i, ti, first)
        ir = ir and not fails(own, paid)
        for j in range(len(tables[i])):
            if j != ti:
                lie = first[:i] + (j,) + first[i + 1:]
                ic = ic and not fails(own - paid, worth(i, ti, lie) - pays[lie][i])
    return {"multi_ic": ic, "multi_ir": ir}


EDITS = {
    "raise_first_pay": raise_first_pay,
    "ones_first_alloc": ones_first_alloc,
    "reverse_respell": reverse_respell,
    "reverse_multi": reverse_multi,
}


def _records(path: str) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def separates(detail: str, profile, argv: list) -> bool:
    """Whether the certificate (a, b) quoted in a feasible witness's
    detail has a.x > b >= a.F for every feasible vector F of the
    instance (single-item when it lists none), x being the allocation at
    profile in the verified interim mechanism file; in float mode within
    1e-9.  False when the mechanism is not an interim file."""
    exact = argv[-1] != "--float"
    num, tol = (Fraction, 0) if exact else (float, 1e-9)
    text_a, _, text_b = detail.partition("a=")[2].rpartition(", b=")
    a = [num(c) for c in ast.literal_eval(text_a)]
    b = num(text_b)
    inst, mech = _records(argv[1]), _records(argv[2])
    alloc = [row["alloc"] for row in mech if row.get("profile") == profile]
    if mech[0].get("kind") != "interim" or len(alloc) != 1:
        return False
    x = [num(c) for c in alloc[0]]
    vectors = [row["feasible"] for row in inst if "feasible" in row]
    if not vectors:
        vectors = [[int(i == j) for i in range(len(x))] for j in range(-1, len(x))]
    dot = lambda u: sum(c * v for c, v in zip(a, u))
    return dot(x) - b > tol and all(dot(f) <= b + tol for f in vectors)


def report_summary(text: str, argv: list) -> dict:
    """The parts of a verify report that cert_label compares: the summary
    line, the witness lines other than feasible ones, and per feasible
    witness its profile, its certificate and whether that separates."""
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not rows or "passed" not in rows[-1]:
        return {"summary": None, "other": None, "feasible": []}
    witnesses = rows[:-1]
    other = [w for w in witnesses if w.get("check") != "feasible"]
    feasible = [
        {"profile": w["profile"], "certificate": w["detail"],
         "separates": separates(w["detail"], w["profile"], argv)}
        for w in witnesses if w.get("check") == "feasible"
    ]
    return {"summary": rows[-1], "other": other, "feasible": feasible}


def worker(tree: str) -> None:
    """Run the commands read from stdin (a JSON list of [key, argv,
    output, edit]) with the tree's revmax; write one JSON result per
    command.  edit, when set, is a [name, source, target] triple: target
    is written by EDITS[name] from source before the command runs."""
    src = Path(tree, "src").resolve()
    sys.path.insert(0, str(src))
    import revmax
    from revmax.cli import main

    if src not in Path(revmax.__file__).resolve().parents:
        raise SystemExit(f"revmax was imported from {revmax.__file__}, not from {src}")

    results = {}
    for key, argv, output, edit in json.load(sys.stdin):
        if edit and Path(edit[1]).exists():
            EDITS[edit[0]](*edit[1:])
        if output:
            Path(output).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is an outcome to compare
                rc = f"{type(exc).__name__}: {exc}"
        written = Path(output).read_bytes() if output and Path(output).exists() else None
        results[key] = {
            "rc": rc,
            "stdout": _digest(out.getvalue()),
            "stderr": _digest(err.getvalue()),
            "output": _digest(written) if output else None,
        }
        if argv[0] in SOLVERS:
            results[key]["revenue"] = _revenue(out.getvalue())
        if argv[0] == "verify":
            text = written.decode() if written is not None else out.getvalue()
            results[key]["report"] = report_summary(text, argv)
        if edit and edit[0] == "raise_first_pay" and Path(edit[1]).exists():
            try:
                results[key]["expected"] = raised_verdicts(edit[1])
            except (ValueError, KeyError, IndexError, TypeError, StopIteration):
                results[key]["expected"] = None  # not a readable multi-item file
    json.dump(results, sys.__stdout__)


def _revenue(stdout: str):
    """The revenue of a solver's report line (its last stdout line), or
    None."""
    try:
        return json.loads(stdout.splitlines()[-1])["revenue"]
    except (ValueError, IndexError, KeyError, TypeError):
        return None


def tie_label(key: str, parent: dict, change: dict) -> str:
    """`tied` or `changed` for a differing --exact solve-multi command
    (see the module docstring)."""
    revenues = [side[key]["revenue"] for side in (parent, change)]
    if None in revenues:
        return "changed"
    same = Fraction(revenues[0]) == Fraction(revenues[1])
    verified = all(side.get(f"{key} verify", {}).get("rc") == 0 for side in (parent, change))
    return "tied" if same and verified else "changed"


def rounded_label(key: str, parent: dict, change: dict) -> str:
    """`rounded` or `changed` for a differing --float solver command (see
    the module docstring)."""
    revenues = [side[key]["revenue"] for side in (parent, change)]
    if None in revenues:
        return "changed"
    a, b = (float(Fraction(r)) for r in revenues)
    close = abs(a - b) <= 1e-9 * max(abs(a), abs(b))
    verified = change.get(f"{key} verify", {}).get("rc") == 0
    return "rounded" if close and verified else "changed"


def _rounded_apart(old: dict, new: dict) -> bool:
    """Whether two witness lines agree in every field but lhs and rhs, and
    those numbers agree within 1e-9 times max(1, |lhs|, |rhs|), the
    verifier's float tolerance."""
    sides = ("lhs", "rhs")
    if {k: v for k, v in old.items() if k not in sides} != {
        k: v for k, v in new.items() if k not in sides
    }:
        return False
    for k in sides:
        a, b = old.get(k), new.get(k)
        if not all(isinstance(x, (int, float)) for x in (a, b)):
            if a != b:
                return False
        elif abs(a - b) > 1e-9 * max(1, abs(a), abs(b)):
            return False
    return True


def cert_label(key: str, parent: dict, change: dict, mode: str = "--exact") -> str:
    """`certificate`, `rounded` or `changed` for a differing verify
    command (see the module docstring)."""
    p, c = parent[key], change[key]
    if p["rc"] != c["rc"] or "report" not in p or "report" not in c:
        return "changed"
    pr, cr = p["report"], c["report"]
    if pr["summary"] is None or pr["summary"] != cr["summary"]:
        return "changed"
    if [w["profile"] for w in pr["feasible"]] != [w["profile"] for w in cr["feasible"]]:
        return "changed"
    for old, new in zip(pr["feasible"], cr["feasible"]):
        if old["certificate"] != new["certificate"] and not new["separates"]:
            return "changed"
    if pr["other"] == cr["other"]:
        return "certificate"
    if mode == "--float" and len(pr["other"]) == len(cr["other"]) and all(
        map(_rounded_apart, pr["other"], cr["other"])
    ):
        return "rounded"
    return "changed"


def edited_label(key: str, source: str, parent: dict, change: dict) -> str:
    """The label of a differing verify of an edited copy of a solver's
    output, given the solver command's label source (see the module
    docstring)."""
    p, c = parent[key], change[key]
    checks = [(side.get("report", {}).get("summary") or {}).get("checks") for side in (p, c)]
    if source == "tied" and key.endswith(" verify-raised"):
        # each tied optimum's copy breaks what raising its own pay line must
        own = all(got is not None and got == side.get("expected")
                  for got, side in zip(checks, (p, c)))
        return "tied" if own else "changed"
    same = p["rc"] == c["rc"] and checks[0] is not None and checks[0] == checks[1]
    return source if same and source in ("rounded", "tied") else "changed"


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def plan_commands(tree: Path, seeds: list, inputs: Path) -> list:
    """[key, argv, output, edit] for every plan command of the seeds in
    both modes, and the verify replays of the solvers' outputs, with the
    input files written under inputs."""
    sys.path[:0] = [str(tree / "bench"), str(tree / "src")]
    import workloads
    from revmax import io as rio
    from revmax import mechanisms, model

    rx = SimpleNamespace(model=model, io=rio, mechanisms=mechanisms)
    commands = []
    for workload, make in workloads.PLANS.items():
        for seed in seeds:
            work = inputs / f"{workload}-s{seed}"
            plan = make(seed, str(work), rx)
            work.mkdir(parents=True)
            for path, text in plan.files.items():
                Path(path).write_text(text)
            for cmd in plan.cmds:
                for mode in MODES:
                    argv = [a for a in cmd.argv if a not in MODES] + [mode]
                    output = None
                    if "--output" in argv:
                        at = argv.index("--output") + 1
                        output = f"out/{workload}-s{seed}-{Path(argv[at]).name}"
                        argv[at] = output
                    key = f"{workload} s{seed} {mode} {cmd.key}"
                    commands.append([key, argv, output, None])
                    if argv[0] in ("verify", "revenue"):
                        mixed = f"out/{workload}-s{seed}-{Path(argv[2]).name}.mixed"
                        commands.append([f"{key} mixed", argv[:2] + [mixed] + argv[3:],
                                         output, ["reverse_respell", argv[2], mixed]])
                    if cmd.kind not in SOLVERS or output is None:
                        continue
                    ipath = argv[1]
                    commands.append([f"{key} verify", ["verify", ipath, output, mode],
                                     None, None])
                    if cmd.kind == "solve-multi":
                        raised = f"{output}.raised"
                        commands.append([f"{key} verify-raised",
                                         ["verify", ipath, raised, mode],
                                         None, ["raise_first_pay", output, raised]])
                        reversed_ = f"{output}.reversed"
                        commands.append([f"{key} verify-reversed",
                                         ["verify", ipath, reversed_, mode],
                                         None, ["reverse_multi", output, reversed_]])
                    elif cmd.kind == "solve":
                        ones = f"{output}.ones"
                        commands.append([f"{key} verify-ones",
                                         ["verify", ipath, ones, mode],
                                         None, ["ones_first_alloc", output, ones]])
    return commands


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="tree whose plans and src/ make the inputs")
    ap.add_argument("change", type=Path, help="tree to compare with it")
    ap.add_argument("--seeds", default="0-3", help="seed range, e.g. 0-3 or 2")
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "revmax").is_dir():
            ap.error(f"{tree} has no src/revmax")
    if not (args.parent / "bench" / "workloads.py").is_file():
        ap.error(f"{args.parent} has no bench/workloads.py")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        root = Path(tmp)
        commands = plan_commands(args.parent.resolve(), _seeds(args.seeds), root / "inputs")
        procs = []
        for tag, tree in (("parent", args.parent), ("change", args.change)):
            cwd = root / tag
            (cwd / "out").mkdir(parents=True)
            code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                    f"import same_outputs; same_outputs.worker({str(tree.resolve())!r})")
            proc = subprocess.Popen(
                [sys.executable, "-c", code],
                cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            procs.append(proc)
        for proc in procs:
            proc.stdin.write(json.dumps(commands))
            proc.stdin.close()
        outs = [proc.stdout.read() for proc in procs]
        codes = [proc.wait() for proc in procs]
    if any(codes):
        print(f"the workers exited {codes}", file=sys.stderr)
        return 1
    parent, change = [json.loads(out) for out in outs]
    differ = [(key, argv) for key, argv, *_ in commands if parent[key] != change[key]]
    labels = {"rounded": 0, "tied": 0, "certificate": 0, "changed": 0}
    given = {}  # label of each differing command so far
    for key, argv in differ:
        fields = [f for f in parent[key] if parent[key][f] != change[key][f]]
        line = f"DIFFERS {key}: {', '.join(fields)}"
        label = None
        if argv[0] in SOLVERS and argv[-1] == "--float":
            label = rounded_label(key, parent, change)
        elif argv[0] == "solve-multi":
            label = tie_label(key, parent, change)
        elif argv[0] == "verify":
            label = cert_label(key, parent, change, argv[-1])
            source = key.rpartition(" ")[0]
            if label == "changed" and key.endswith(EDITED) and source in given:
                label = edited_label(key, given[source], parent, change)
        given[key] = label
        if label:
            labels[label] += 1
            line += f" [{label}]"
        print(line)
    print(f"{len(commands)} commands, {len(commands) - len(differ)} identical, "
          f"{len(differ)} differ; {labels['rounded']} rounded, {labels['tied']} tied, "
          f"{labels['certificate']} certificate, {labels['changed']} changed")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

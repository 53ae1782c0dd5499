"""Repository hygiene: the benchmark tracer's names resolve in the
package, no package module imports a name it does not use or annotates
with a name it does not bind, and the output comparison script labels
rounded float answers, tied optima and changed certificates."""

import ast
import builtins
import importlib
import json
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "revmax"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # a traced benchmark run stops when a wrapped name is gone; a rename
    # fails here first
    wraps = _load("bench_spans", ROOT / "bench" / "spans.py").WRAPS
    assert wraps
    for modname, attr, _span, _counter in wraps:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"


def _unused_imports(source: str) -> list:
    """Names bound by the module's imports that no Name node reads and
    __all__ does not list."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Any, Union\n"
        "x: Any = sys\n"
    )
    assert _unused_imports(source) == [(2, "os"), (3, "Union")]
    assert _unused_imports("from .a import b\n__all__ = ['b']\n") == []


def test_no_unused_imports_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def _unbound_annotation_names(source: str) -> list:
    """(line, name) for each name read in an annotation, string
    annotations included, that the module binds nowhere (by an import, a
    def, a class or an assignment) and that is no builtin.  Dotted names
    count by their first part."""
    tree = ast.parse(source)
    bound = set(dir(builtins))
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    unbound = set()
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names = [n for n in ast.walk(parsed) if isinstance(n, ast.Name)]
                unbound.update((ann.lineno, n.id) for n in names if n.id not in bound)
            elif isinstance(node, ast.Name) and node.id not in bound:
                unbound.add((node.lineno, node.id))
    return sorted(unbound)


def test_unbound_annotation_finder():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Optional\n"
        "class Box: ...\n"
        "def f(a: Box, b: os.PathLike, *c: Missing, d: 'Optional[Gone]' = None) -> int:\n"
        "    e: Later = 1\n"
        "    return e\n"
        "Later = int\n"
    )
    assert _unbound_annotation_names(source) == [(5, "Gone"), (5, "Missing")]
    assert _unbound_annotation_names("def g(x) -> Absent: ...\n") == [(1, "Absent")]


def test_annotation_names_are_bound_in_the_package():
    # under from __future__ import annotations an unbound name in an
    # annotation is never evaluated, so only this check sees it
    modules = sorted(PACKAGE.glob("*.py"))
    found = {p.name: _unbound_annotation_names(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_same_outputs_labels_tied_optima():
    tie_label = _load("same_outputs", ROOT / "scripts" / "same_outputs.py").tie_label
    key = "solve-multi s0 --exact multi-n2-m1-t3-dense"

    def side(revenue, verify_rc=0):
        return {key: {"revenue": revenue}, f"{key} verify": {"rc": verify_rc}}

    assert tie_label(key, side("3/2"), side("3/2")) == "tied"
    assert tie_label(key, side("3/2"), side("7/5")) == "changed"
    assert tie_label(key, side("3/2"), side("3/2", 1)) == "changed"
    assert tie_label(key, side(None), side("3/2")) == "changed"


def test_same_outputs_labels_rounded_float_answers():
    rounded_label = _load("same_outputs", ROOT / "scripts" / "same_outputs.py").rounded_label
    key = "solve-ladder s0 --float solve-n2"

    def side(revenue, verify_rc=0):
        return {key: {"revenue": revenue}, f"{key} verify": {"rc": verify_rc}}

    parent = side(1.5, verify_rc=1)  # only the change tree's verify counts
    assert rounded_label(key, parent, side(1.5000000000000002)) == "rounded"
    assert rounded_label(key, side(1e6), side(1e6 + 1e-4)) == "rounded"
    assert rounded_label(key, side(0.0), side(0.0)) == "rounded"
    assert rounded_label(key, side(1e-12), side(2e-12)) == "changed"
    assert rounded_label(key, parent, side(1.500001)) == "changed"
    assert rounded_label(key, side(1.5), side(1.5, verify_rc=1)) == "changed"
    assert rounded_label(key, side(None), side(1.5)) == "changed"
    assert rounded_label(key, side(1.5), {key: {"revenue": 1.5}}) == "changed"


def test_same_outputs_labels_edited_copies_of_rounded_outputs():
    edited_label = _load("same_outputs", ROOT / "scripts" / "same_outputs.py").edited_label
    key = "solve-ladder s2 --float solve-n4 verify-ones"

    def side(rc=1, witnesses=16, ir=True):
        checks = {"ir": ir, "truthful": False}
        summary = {"checks": checks, "passed": False, "witnesses": witnesses}
        return {key: {"rc": rc, "report": {"summary": summary}}}

    # a tied optimum's edited copy may fail at other lines
    assert edited_label(key, "rounded", side(), side(witnesses=15)) == "rounded"
    assert edited_label(key, "tied", side(), side()) == "tied"
    assert edited_label(key, "changed", side(), side()) == "changed"
    assert edited_label(key, "certificate", side(), side()) == "changed"
    assert edited_label(key, "rounded", side(), side(rc=0)) == "changed"
    assert edited_label(key, "rounded", side(), side(ir=False)) == "changed"
    assert edited_label(key, "rounded", {key: {"rc": 1}}, {key: {"rc": 1}}) == "changed"


def test_same_outputs_labels_certificates(tmp_path):
    so = _load("same_outputs", ROOT / "scripts" / "same_outputs.py")
    inst = tmp_path / "inst.ndjson"
    inst.write_text('{"format":1,"model":"single-item"}\n{"grid":[[1],[1]]}\n')
    source, mech = tmp_path / "mech.ndjson", str(tmp_path / "ones.ndjson")
    source.write_text(
        '{"format":1,"kind":"interim","mode":"exact"}\n{"grid":[[1],[1]]}\n'
        '{"alloc":["1/2","0"],"pay":["0","0"],"profile":["1","1"]}\n'
    )
    so.ones_first_alloc(str(source), mech)
    argv = ["verify", str(inst), mech, "--exact"]
    good, bad = "separating certificate a=('1', '1'), b=1", "separating certificate a=('1', '0'), b=1"
    assert so.separates(good, ["1", "1"], argv)
    assert not so.separates(bad, ["1", "1"], argv)
    key = "solve-ladder s0 --exact solve-n2 verify-ones"

    def side(detail, rc=1, other=(), witnesses=1):
        lines = [{"check": "feasible", "detail": detail, "profile": ["1", "1"]}, *other]
        lines.append({"checks": {"feasible": False}, "passed": False, "witnesses": witnesses})
        text = "".join(json.dumps(line) + "\n" for line in lines)
        return {key: {"rc": rc, "report": so.report_summary(text, argv)}}

    parent = side("separating certificate a=('2', '2'), b=2")
    assert so.cert_label(key, parent, side(good)) == "certificate"
    assert so.cert_label(key, parent, side(bad)) == "changed"
    assert so.cert_label(key, parent, side(good, rc=0)) == "changed"
    assert so.cert_label(key, parent, side(good, witnesses=2)) == "changed"
    ir = {"check": "ir", "detail": "", "profile": ["1", "1"]}
    assert so.cert_label(key, parent, side(good, other=[ir])) == "changed"

    # in float mode, witness lines whose lhs and rhs moved by rounding only
    def ic(lhs, rhs, bidder=0):
        return {"bidder": bidder, "check": "ic", "lhs": lhs, "profile": ["1", "1"], "rhs": rhs}

    base = side(good, other=[ic(-1.0, 7.2e-16), ic(7.0, 8.000000000000007)], witnesses=3)
    near = side(good, other=[ic(-1.0, -5.5e-17), ic(7.0, 8.0)], witnesses=3)
    far = side(good, other=[ic(-1.0, 1e-6), ic(7.0, 8.0)], witnesses=3)
    moved = side(good, other=[ic(-1.0, 0.0, bidder=1), ic(7.0, 8.0)], witnesses=3)
    fewer = side(good, other=[ic(-1.0, 0.0)], witnesses=3)
    assert so.cert_label(key, base, near, "--float") == "rounded"
    assert so.cert_label(key, base, near) == "changed"
    assert so.cert_label(key, base, base, "--float") == "certificate"
    for other in (far, moved, fewer):
        assert so.cert_label(key, base, other, "--float") == "changed"


def test_same_outputs_reverses_multi_item_lines(tmp_path):
    """The reverse_multi edit keeps the header and bidder lines and
    reverses the support, assignment and pay lines; the copy still
    verifies, and its verify is an edited copy of a solver output."""
    so = _load("same_outputs", ROOT / "scripts" / "same_outputs.py")
    from revmax import MultiItemInstance, Valuation, solve_multi
    from revmax import io as rio
    from revmax.cli import main

    types = [[Valuation(1, [0, 1]), Valuation(1, [0, 3])], [Valuation(1, [0, 2])]]
    inst = MultiItemInstance(1, types, {(0, 0): "1/3", (1, 0): "2/3"})
    source, target = tmp_path / "mech.ndjson", tmp_path / "reversed.ndjson"
    source.write_text(rio.write_mechanism(solve_multi(inst)[0]))
    so.reverse_multi(str(source), str(target))
    lines = source.read_text().splitlines(keepends=True)
    kept = [line for line in lines if '"bidder"' in line or '"kind"' in line]
    assert len(kept) == 3
    assert target.read_text() == "".join(kept + [l for l in lines if l not in kept][::-1])
    assert so.EDITS["reverse_multi"] is so.reverse_multi
    assert "solve-multi s0 --exact multi verify-reversed".endswith(so.EDITED)
    ipath = tmp_path / "inst.ndjson"
    ipath.write_text(rio.write_instance(inst))
    assert main(["verify", str(ipath), str(target)]) == 0


def test_same_outputs_labels_raised_copies_of_tied_optima(tmp_path, capsys):
    """Two verified mechanisms on the seed-1 multi-n3-m1-t3-dense-6 shape
    (three bidders, one item, three types each, every type profile in
    the support): the LP optimum charges nothing at the first profile and
    a mechanism selling to bidder 0 at price 1 charges 1 there, so their
    raise_first_pay copies break different checks.  raised_verdicts
    predicts each copy's verdicts, and a tied output's raised copy is
    labelled tied when each tree's copy breaks what its own must."""
    import itertools
    from fractions import Fraction

    so = _load("same_outputs", ROOT / "scripts" / "same_outputs.py")
    from revmax import MultiItemInstance, MultiMechanism, Valuation, solve_multi
    from revmax import io as rio
    from revmax.cli import main

    types = [[Valuation(1, [0, v]) for v in vs] for vs in ([1, 2, 3], [1, 5, 6], [1, 5, 6])]
    weights = [3, 2, 8, 2, 2, 3, 6, 8, 7, 2, 3, 9, 7, 7, 1, 9, 5, 4, 1, 1, 6, 7, 7, 6, 8, 3, 1]
    profiles = itertools.product(range(3), repeat=3)
    inst = MultiItemInstance(
        1, types, {t: Fraction(w, 128) for t, w in zip(profiles, weights)}
    )
    ipath = tmp_path / "inst.ndjson"
    ipath.write_text(rio.write_instance(inst))
    optimum = solve_multi(inst)[0]
    posted = MultiMechanism(
        inst, {t: [(1, 1)] for t in inst.type_profiles()}, {t: (1, 0, 0) for t in inst.type_profiles()}
    )
    key = "solve-multi s1 --exact multi-n3-m1-t3-dense-6 verify-raised"

    def side(name, mech, mode):
        source = tmp_path / f"{name}-{mode}.ndjson"
        source.write_text(rio.write_mechanism(rio.read_mechanism(rio.write_mechanism(mech), mode).mech))
        assert main(["verify", str(ipath), str(source)]) == 0
        raised = f"{source}.raised"
        so.raise_first_pay(str(source), raised)
        capsys.readouterr()
        rc = main(["verify", str(ipath), raised])
        report = so.report_summary(capsys.readouterr().out, ["verify", str(ipath), raised])
        return {key: {"rc": rc, "report": report, "expected": so.raised_verdicts(str(source))}}

    for mode in ("exact", "float"):
        a, b = side("optimum", optimum, mode), side("posted", posted, mode)
        for s, want in ((a, {"multi_ic": True, "multi_ir": False}),
                        (b, {"multi_ic": False, "multi_ir": False})):
            assert s[key]["rc"] == 1
            assert s[key]["report"]["summary"]["checks"] == s[key]["expected"] == want
        assert so.edited_label(key, "tied", a, b) == "tied"
        assert so.edited_label(key, "tied", b, a) == "tied"
        # a copy that breaks other than its own raise must is changed
        wrong = {key: dict(b[key], expected=a[key]["expected"])}
        assert so.edited_label(key, "tied", a, wrong) == "changed"
        assert so.edited_label(key, "tied", a, {key: dict(b[key], expected=None)}) == "changed"
        # other edits and rounded outputs still need the same verdicts
        assert so.edited_label(key, "rounded", a, b) == "changed"
        ones = key.replace("verify-raised", "verify-ones")
        assert so.edited_label(ones, "tied", {ones: a[key]}, {ones: b[key]}) == "changed"

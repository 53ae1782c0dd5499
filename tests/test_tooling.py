"""Repository hygiene: the benchmark tracer's names resolve in the
package, no package module imports a name it does not use, and the
output comparison script labels tied optima and changed certificates."""

import ast
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


def test_same_outputs_labels_tied_optima():
    tie_label = _load("same_outputs", ROOT / "scripts" / "same_outputs.py").tie_label
    key = "solve-multi s0 --exact multi-n2-m1-t3-dense"

    def side(revenue, verify_rc=0):
        return {key: {"revenue": revenue}, f"{key} verify": {"rc": verify_rc}}

    assert tie_label(key, "--exact", side("3/2"), side("3/2")) == "tied"
    assert tie_label(key, "--exact", side("3/2"), side("7/5")) == "changed"
    assert tie_label(key, "--exact", side("3/2"), side("3/2", 1)) == "changed"
    assert tie_label(key, "--exact", side(None), side("3/2")) == "changed"
    assert tie_label(key, "--float", side("1.5"), side("1.5000000000000002")) == "tied"
    assert tie_label(key, "--float", side("1.5"), side("1.500001")) == "changed"


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

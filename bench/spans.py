"""Spans recorded from outside the program.

The traced run wraps each public function once, taking it from the
module that defines it, and puts the wrapper in place of every name in
any revmax module that refers to that same function (the defining
module, revmax.cli's imports, re-exports), so a call is traced whichever
module it comes from.  Each call records a span with its name, start,
end, the enclosing span and the command it belongs to, plus counts read
from its arguments or result.  Spans stay in memory and are written out
at the end.  No private name of the program is touched; if a wrapped name
is missing the run fails rather than report zero for that layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# counts read from a call: (args, result) -> {count name: value}


def _lp_size(args, result):
    lp = args[0]
    return {
        "lp.rows": len(lp.constraints),
        "lp.cols": lp.num_vars,
        "lp.nnz": sum(len(row) for row, _, _ in lp.constraints),
    }


def _bytes_read(args, result):
    return {"io.bytes_read": len(args[0])}  # the formats are ASCII JSON


def _bytes_written(args, result):
    return {"io.bytes_written": len(result)}


def _witnesses(args, result):
    return {"verify.witnesses": len(result.witnesses)}


def _cells(args, result):
    return {"brute.cells": args[0].grid.cells()}


def _point_queries(args, result):
    return {"oracle.point_queries": args[0].ledger.point_queries}


# (defining module, attribute, span name, counts); attribute
# "Class.method" wraps a method on the class
WRAPS = [
    ("revmax.cli", "main", "cli", None),
    ("revmax.io", "read_instance", "io.parse", _bytes_read),
    ("revmax.io", "read_mechanism", "io.parse", _bytes_read),
    ("revmax.io", "write_mechanism", "io.serialize", _bytes_written),
    ("revmax.io", "write_report", "io.serialize", _bytes_written),
    ("revmax.io", "ledger_line", "io.serialize", _bytes_written),
    ("revmax.lp", "solve", "lp.solve", _lp_size),
    ("revmax.optimal", "solve_optimal", "optimal.unpack", None),
    ("revmax.optimal", "build_optimal_lp", "optimal.build", None),
    ("revmax.optimal", "decompose_allocation", "optimal.decompose", None),
    ("revmax.multi", "solve_multi", "multi.unpack", None),
    ("revmax.multi", "build_multi_lp", "multi.build", None),
    ("revmax.multi", "check_multi", "multi.replay", None),
    ("revmax.brute", "enumerate_deterministic_optimal", "brute.search", _cells),
    ("revmax.verify", "check_truthful", "verify.truthful", _witnesses),
    ("revmax.verify", "check_ir", "verify.ir", _witnesses),
    ("revmax.verify", "check_expost_ir", "verify.expost_ir", _witnesses),
    ("revmax.verify", "check_feasible", "verify.feasible", _witnesses),
    ("revmax.verify", "check_extension", "verify.extension", _witnesses),
    ("revmax.verify", "check_universal", "verify.universal", _witnesses),
    ("revmax.model", "expected_revenue", "model.revenue", None),
    ("revmax.model", "interim_of", "model.interim", None),
    ("revmax.model", "DeterministicMechanism.as_interim", "model.interim", None),
    ("revmax.oracle", "materialize", "oracle.materialize", _point_queries),
]

# per-layer metrics that are span self times, by span name
TIMES = {
    "cli": "cli.self_s",
    "io.parse": "io.parse_s",
    "io.serialize": "io.serialize_s",
    "optimal.build": "optimal.build_s",
    "optimal.unpack": "optimal.unpack_s",
    "optimal.decompose": "optimal.decompose_s",
    "lp.solve": "lp.solve_s",
    "multi.build": "multi.build_s",
    "multi.unpack": "multi.unpack_s",
    "multi.replay": "multi.replay_s",
    "brute.search": "brute.search_s",
    "verify.truthful": "verify.truthful_s",
    "verify.ir": "verify.ir_s",
    "verify.expost_ir": "verify.expost_ir_s",
    "verify.feasible": "verify.feasible_s",
    "verify.extension": "verify.extension_s",
    "verify.universal": "verify.universal_s",
    "model.revenue": "model.revenue_s",
    "model.interim": "model.interim_s",
    "oracle.materialize": "oracle.materialize_s",
}

COUNTS = [
    "lp.solve_calls", "lp.rows", "lp.cols", "lp.nnz", "brute.cells",
    "verify.witnesses", "io.bytes_read", "io.bytes_written", "oracle.point_queries",
]


class MissingNameError(RuntimeError):
    """A name the tracer wraps no longer exists in the program."""


class Tracer:
    """Records spans while installed; install() and remove() swap the
    wrappers in and out."""

    def __init__(self):
        # (span id, parent id, command id, name, start, end, counts or None)
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.command = None  # id of the command now running, set by the loop

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.command, name, start, end, None)
            if counter is not None:
                tracer.spans[sid] = tracer.spans[sid][:-1] + (counter(args, result),)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        for modname, attr, name, counter in WRAPS:
            owner = modules.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if not callable(original):
                self.remove()
                raise MissingNameError(f"{modname}.{attr} is gone; the trace cannot wrap it")
            wrapper = self._wrap(original, name, counter)
            targets = [(owner, leaf)] if path else [
                (mod, ref) for mod in modules.values()
                for ref, value in vars(mod).items() if value is original
            ]
            for target, ref in targets:
                self._saved.append((target, ref, original))
                setattr(target, ref, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, cmd, name, start, end, counts in self.spans:
                row = {"id": sid, "parent": parent, "cmd": cmd, "name": name,
                       "start": start, "end": end}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans: list) -> dict:
    """Per command id: {span name: summed self time}, where a span's self
    time is its duration minus its children's durations."""
    child = defaultdict(float)
    for _sid, parent, _cmd, _name, start, end, _counts in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(float))
    for sid, _parent, cmd, name, start, end, _counts in spans:
        out[cmd][name] += (end - start) - child[sid]
    return out


def layer_metrics(spans: list, passes: int, first_pass: set, scales: dict) -> dict:
    """Per-layer metrics per pass: self times (each scaled by its
    command's factor) averaged over the traced passes, counts taken from
    the first traced pass (they repeat exactly).  A span called from
    inside a span of the same layer adds no counts (check_extension's
    inner check_truthful reports no witnesses of its own)."""
    totals = defaultdict(float)
    for cmd, per_name in self_times(spans).items():
        for name, secs in per_name.items():
            totals[name] += secs * scales[cmd]
    metrics = {TIMES[name]: totals[name] / passes for name in TIMES}
    layer = {sid: name.split(".")[0] for sid, _p, _c, name, _s, _e, _x in spans}
    counts = defaultdict(int)
    for sid, parent, cmd, name, _start, _end, extra in spans:
        if cmd not in first_pass:
            continue
        if name == "lp.solve":
            counts["lp.solve_calls"] += 1
        if parent is not None and layer[parent] == layer[sid]:
            continue
        for key, value in (extra or {}).items():
            counts[key] += value
    for key in COUNTS:
        metrics[key] = counts[key]
    calls = metrics["lp.solve_calls"]
    metrics["lp.ms_per_solve"] = 1000 * metrics["lp.solve_s"] / calls if calls else 0.0
    return metrics

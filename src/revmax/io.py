"""Line-structured JSON formats for instances, mechanisms, and reports.

One JSON object per line, keys sorted, no spaces: identical inputs give
byte-identical files.  Every quantity is carried as an exact rational
string "p/q" in exact mode (integers print bare, e.g. "2"); float mode
writes plain JSON numbers.  Decimal literals in input files are parsed
exactly, never through binary floating point.

Instance files open with {"format":1,"model":...,"mode":...} and carry
grid/feasible/support lines (or bidder type tables for the multi-item
model); mechanism files open with {"format":1,"kind":...,"mode":...},
and point files, the input of decompose, with {"kind":"point"}.  Writers
emit profiles in canonical order, walking each table's rows and each
prior's flat support.  Readers accept body lines in any order: each is
placed at its profile's flat index on the grid (see _Placer) or the type
product, and a mechanism gets its tables as model.ProfileTables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Optional, Sequence

from .errors import InvalidInputError
from .model import (
    EXACT,
    FLOAT,
    DeterministicMechanism,
    ExplicitDistribution,
    ExPostMechanism,
    FeasibilitySystem,
    InterimMechanism,
    ProfileTable,
    ValueGrid,
    _placed_support,
    _Rows,
    convert,
)
from .multi import (
    UNSOLD,
    MultiItemInstance,
    MultiMechanism,
    Valuation,
    enumerate_assignments,
)
from .oracle import QueryLedger
from .verify import VerifyReport

FORMAT_VERSION = 1

SINGLE_ITEM = "single-item"
SINGLE_PARAMETER = "single-parameter"
MULTI_ITEM = "multi-item"


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_line(obj: dict) -> str:
    """Canonical one-line encoding: sorted keys, compact separators."""
    return _ENCODER.encode(obj) + "\n"


def _reject_constant(token: str):
    raise InvalidInputError(f"bad JSON line: {token} is not a finite number")


# decimals parse exactly; NaN and +-Infinity are input errors in either mode
_DECODER = json.JSONDecoder(parse_float=Fraction, parse_constant=_reject_constant)


def loads_line(line: str) -> dict:
    try:
        obj = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON line: {line!r}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"expected a JSON object, got {line!r}")
    return obj


def format_number(x, mode: str):
    """One number as it appears on the wire for the given mode.  An exact
    Fraction is written as str(x), any other exact number as the Fraction
    it equals."""
    if mode == FLOAT:
        return float(x)
    if type(x) is Fraction:
        return str(x)
    return str(Fraction(x))


def parse_number(v, mode: str):
    if isinstance(v, bool) or v is None:
        raise InvalidInputError(f"expected a number, got {v!r}")
    return convert(v, mode)


def _records(text: str) -> list:
    rows = [loads_line(line) for line in text.splitlines() if line.strip()]
    if not rows:
        raise InvalidInputError("empty file")
    return rows


def header_mode(text: str) -> str:
    """The arithmetic mode a file's header declares, exact when it names
    none.  Only the first non-blank line is decoded: the line _records
    would take as the header, since a newline ends a line for both."""
    start = 0
    while True:
        end = text.find("\n", start)
        for line in text[start:end if end >= 0 else len(text)].splitlines():
            if line.strip():
                mode = loads_line(line).get("mode", EXACT)
                if mode not in (EXACT, FLOAT):
                    raise InvalidInputError(f"unknown mode {mode!r}")
                return mode
        if end < 0:
            raise InvalidInputError("empty file")
        start = end + 1


def _header(rows: list, key: str, force_mode: Optional[str] = None) -> tuple:
    head = rows[0]
    if head.get("format") != FORMAT_VERSION:
        raise InvalidInputError(
            f"first line must declare format {FORMAT_VERSION}, got {head}"
        )
    if key not in head:
        raise InvalidInputError(f"header lacks {key!r}: {head}")
    mode = force_mode or head.get("mode", EXACT)
    if mode not in (EXACT, FLOAT):
        raise InvalidInputError(f"unknown mode {mode!r}")
    return head, mode


def _fmt_row(row, mode: str) -> list:
    return [format_number(c, mode) for c in row]


def _number(v, mode: str, memo: dict):
    """parse_number(v, mode), converting each distinct string of a file
    once: memo maps the strings read so far from one file, in one mode,
    to their values.  JSON numbers, bools and null go to parse_number
    every time, and a string it rejects is never stored."""
    if type(v) is not str:
        return parse_number(v, mode)
    x = memo.get(v)
    if x is None:
        x = memo[v] = parse_number(v, mode)
    return x


def _parse_row(row, mode: str, memo: dict) -> tuple:
    if not isinstance(row, list):
        raise InvalidInputError(f"expected a list of numbers, got {row!r}")
    return tuple([_number(c, mode, memo) for c in row])


def _grid_line(grid: ValueGrid, mode: str) -> str:
    return dumps_line({"grid": [_fmt_row(vi, mode) for vi in grid.values]})


def _parse_grid(obj, mode: str, memo: dict) -> ValueGrid:
    if not isinstance(obj, list):
        raise InvalidInputError(f"expected a list of value lists, got {obj!r}")
    return ValueGrid([_parse_row(vi, mode, memo) for vi in obj], mode)


class _Placer:
    """Places a body line's profile at its flat index in canonical order.
    An entry spelled as on the file's grid line is one lookup of its
    string in that bidder's map to index * stride; any other spelling (or
    a JSON number) is converted and placed through the grid's positions.
    place returns the flat index, or the converted profile when it is no
    grid profile; a malformed entry raises as _parse_row does."""

    __slots__ = ("grid", "axes", "mode", "memo")

    def __init__(self, raw: list, grid: ValueGrid, mode: str, memo: dict):
        stride = grid.cells()
        self.axes = []
        for spelled, at in zip(raw, grid._positions):
            stride //= len(at)
            wire = {c: k * stride for k, c in enumerate(spelled) if type(c) is str}
            self.axes.append((wire, at, stride))
        self.grid = grid
        self.mode = mode
        self.memo = memo

    def place(self, raw):
        if type(raw) is list and len(raw) == len(self.axes):
            idx = 0
            for (wire, at, stride), c in zip(self.axes, raw):
                step = wire.get(c) if type(c) is str else None
                if step is None:
                    k = at.get(_number(c, self.mode, self.memo))
                    if k is None:
                        break
                    step = k * stride
                idx += step
            else:
                return idx
        return _parse_row(raw, self.mode, self.memo)


def _read_grid(obj: dict, mode: str, memo: dict) -> tuple:
    """A grid line's ValueGrid and the _Placer of the body lines."""
    grid = _parse_grid(obj["grid"], mode, memo)
    return grid, _Placer(obj["grid"], grid, mode, memo)


def _feasible(obj: dict) -> list:
    """A feasible line's vector of ints (not bools, which would be echoed
    back as true/false); FeasibilitySystem checks its length and that
    each entry is 0 or 1."""
    raw = obj["feasible"]
    if not isinstance(raw, list) or not all(type(c) is int for c in raw):
        raise InvalidInputError(f"feasible {raw!r} in line {obj} must be a 0/1 list")
    return raw


# ---------------------------------------------------------------------------
# instances


def write_instance(inst, fs: Optional[FeasibilitySystem] = None) -> str:
    """Serialize an ExplicitDistribution (with an optional non-default
    feasibility system) or a MultiItemInstance."""
    if isinstance(inst, MultiItemInstance):
        head = {"format": FORMAT_VERSION, "items": inst.m, "model": MULTI_ITEM, "mode": inst.mode}
        return "".join([dumps_line(head)] + _multi_instance_lines(inst))
    if not isinstance(inst, ExplicitDistribution):
        raise InvalidInputError(f"cannot serialize {type(inst).__name__} as an instance")
    mode = inst.mode
    model = SINGLE_ITEM
    if fs is not None and not fs.is_single_item():
        model = SINGLE_PARAMETER
    out = [dumps_line({"format": FORMAT_VERSION, "model": model, "mode": mode})]
    out.append(_grid_line(inst.grid, mode))
    if model == SINGLE_PARAMETER:
        for vec in fs.vectors:
            out.append(dumps_line({"feasible": list(vec)}))
    for idx, prob in zip(inst.flat, inst.masses):
        profile = _fmt_row(inst.grid.profile_at(idx), mode)
        out.append(dumps_line({"prob": format_number(prob, mode), "support": profile}))
    return "".join(out)


def _multi_instance_lines(inst: MultiItemInstance) -> list:
    """The bidder type-table and support lines shared by multi-item
    instance and mechanism files."""
    mode = inst.mode
    out = [
        dumps_line({"bidder": i, "tables": [_fmt_row(t.values, mode) for t in ts]})
        for i, ts in enumerate(inst.types)
    ]
    for idx, prob in zip(inst.flat, inst.masses):
        t = list(inst.profile_at(idx))
        out.append(dumps_line({"prob": format_number(prob, mode), "support": t}))
    return out


@dataclass
class ParsedInstance:
    """Decoded instance file: exactly one of dist/multi is set; fs is the
    feasibility system (explicit or the single-item default)."""

    model: str
    mode: str
    dist: Optional[ExplicitDistribution] = None
    fs: Optional[FeasibilitySystem] = None
    multi: Optional[MultiItemInstance] = None


def read_instance(text: str, mode: Optional[str] = None) -> ParsedInstance:
    """Decode an instance file; mode, when given, overrides the header's
    arithmetic mode."""
    rows = _records(text)
    head, mode = _header(rows, "model", mode)
    model = head["model"]
    memo: dict = {}
    if model == MULTI_ITEM:
        multi, rest = _read_multi_body(rows, head, mode, memo)
        if rest:
            raise InvalidInputError(f"unrecognized instance line {rest[0]}")
        return ParsedInstance(MULTI_ITEM, mode, multi=multi)
    if model not in (SINGLE_ITEM, SINGLE_PARAMETER):
        raise InvalidInputError(f"unknown model {model!r}")
    grid = placer = None
    vectors = []
    support = []
    for obj in rows[1:]:
        if "grid" in obj:
            if grid is not None:
                raise InvalidInputError("duplicate grid line")
            grid, placer = _read_grid(obj, mode, memo)
        elif "feasible" in obj:
            vectors.append(_feasible(obj))
        elif "support" in obj:
            support.append(obj)
        else:
            raise InvalidInputError(f"unrecognized instance line {obj}")
    if grid is None:
        raise InvalidInputError("instance file lacks a grid line")
    dist = ExplicitDistribution._from_placed(grid, _support_entries(support, placer))
    if model == SINGLE_PARAMETER:
        if not vectors:
            raise InvalidInputError("single-parameter instance lacks feasible lines")
        fs = FeasibilitySystem(grid.n, vectors)
    else:
        if vectors:
            raise InvalidInputError("feasible lines require the single-parameter model")
        fs = FeasibilitySystem.single_item(grid.n)
    return ParsedInstance(model, mode, dist=dist, fs=fs)


def _support_entries(lines: list, placer: _Placer):
    """The support lines placed by their flat index, for
    ExplicitDistribution._from_placed; a profile off the grid goes through
    the constructor's own placement, which rejects it."""
    mode, memo = placer.mode, placer.memo
    for obj in lines:
        at = placer.place(obj["support"])
        prob = _number(_field(obj, "prob"), mode, memo)
        if type(at) is int:
            yield at, prob
        else:
            yield from _placed_support(placer.grid, [(at, prob)])


def _index_list(obj: dict, key: str) -> tuple:
    """A line's list of type indices (support, profile) or item owners
    (assignment, where null marks an unsold item and reads as -1)."""
    raw = _field(obj, key)
    if isinstance(raw, list):
        out = tuple(UNSOLD if c is None and key == "assignment" else c for c in raw)
        if all(type(c) is int for c in out):
            return out
    raise InvalidInputError(f"{key} {raw!r} in line {obj} must be a list of indices")


def _read_multi_body(rows: list, head: dict, mode: str, memo: dict):
    """Parse the item count, bidder type-table and support lines of a
    multi-item file into its instance; returns (instance, other lines)."""
    m = head.get("items")
    if type(m) is not int or m < 1:
        raise InvalidInputError(f"multi-item header needs a positive item count: {head}")
    tables = {}
    support = []
    rest = []
    for obj in rows[1:]:
        if "bidder" in obj:
            i, ts = obj["bidder"], _field(obj, "tables")
            if type(i) is not int or not isinstance(ts, list):
                raise InvalidInputError(f"malformed type line {obj}")
            if i in tables:
                raise InvalidInputError(f"duplicate type line for bidder {i}")
            tables[i] = [Valuation(m, _parse_row(t, mode, memo), mode) for t in ts]
        elif "support" in obj:
            support.append(
                (_index_list(obj, "support"), _number(_field(obj, "prob"), mode, memo))
            )
        else:
            rest.append(obj)
    if sorted(tables) != list(range(len(tables))):
        raise InvalidInputError("bidder type lines must cover 0..n-1")
    types = [tables[i] for i in range(len(tables))]
    return MultiItemInstance(m, types, support, mode), rest


# ---------------------------------------------------------------------------
# mechanisms

INTERIM = "interim"
EXPOST = "expost"
DETERMINISTIC = "deterministic"
UNIVERSAL = "universal"
MULTI = "multi"


def write_mechanism(mech, parts: Optional[Sequence[tuple]] = None) -> str:
    """Serialize one mechanism, or a universal decomposition given as
    parts = [(DeterministicMechanism, probability), ...]."""
    if parts is not None:
        return _write_universal(parts)
    if isinstance(mech, InterimMechanism):
        out = [_mech_header(INTERIM, mech.mode), _grid_line(mech.grid, mech.mode)]
        for v, x, p in zip(mech.grid.profiles(), mech.x.rows, mech.p.rows):
            out.append(
                dumps_line(
                    {
                        "alloc": _fmt_row(x, mech.mode),
                        "pay": _fmt_row(p, mech.mode),
                        "profile": _fmt_row(v, mech.mode),
                    }
                )
            )
        return "".join(out)
    if isinstance(mech, ExPostMechanism):
        out = [_mech_header(EXPOST, mech.mode), _grid_line(mech.grid, mech.mode)]
        out.extend(_feasible_lines(mech.fs))
        for v, outcomes in zip(mech.grid.profiles(), mech.outcomes.rows):
            for vec_idx, pay, prob in outcomes:
                out.append(
                    dumps_line(
                        {
                            "pay": _fmt_row(pay, mech.mode),
                            "prob": format_number(prob, mech.mode),
                            "profile": _fmt_row(v, mech.mode),
                            "vector": vec_idx,
                        }
                    )
                )
        return "".join(out)
    if isinstance(mech, DeterministicMechanism):
        out = [_mech_header(DETERMINISTIC, mech.mode), _grid_line(mech.grid, mech.mode)]
        out.extend(_feasible_lines(mech.fs))
        out.extend(_det_rows(mech))
        return "".join(out)
    if isinstance(mech, MultiMechanism):
        return _write_multi_mechanism(mech)
    raise InvalidInputError(f"cannot serialize {type(mech).__name__} as a mechanism")


def _mech_header(kind: str, mode: str, **extra) -> str:
    head = {"format": FORMAT_VERSION, "kind": kind, "mode": mode}
    head.update(extra)
    return dumps_line(head)


def _feasible_lines(fs: FeasibilitySystem) -> list:
    return [dumps_line({"feasible": list(vec)}) for vec in fs.vectors]


def _det_rows(mech: DeterministicMechanism, part: Optional[int] = None) -> list:
    out = []
    for v, idx, pay in zip(mech.grid.profiles(), mech.choice.rows, mech.payments.rows):
        row = {
            "pay": _fmt_row(pay, mech.mode),
            "profile": _fmt_row(v, mech.mode),
            "vector": idx,
        }
        if part is not None:
            row["part"] = part
        out.append(dumps_line(row))
    return out


def _write_universal(parts: Sequence[tuple]) -> str:
    if not parts:
        raise InvalidInputError("universal decomposition needs at least one part")
    first = parts[0][0]
    for mech, _ in parts:
        if not isinstance(mech, DeterministicMechanism):
            raise InvalidInputError("universal parts must be deterministic mechanisms")
        if mech.grid != first.grid or mech.fs.vectors != first.fs.vectors:
            raise InvalidInputError("universal parts must share one grid and system")
    mode = first.mode
    out = [_mech_header(UNIVERSAL, mode), _grid_line(first.grid, mode)]
    out.extend(_feasible_lines(first.fs))
    for k, (mech, prob) in enumerate(parts):
        out.append(dumps_line({"part": k, "prob": format_number(prob, mode)}))
        out.extend(_det_rows(mech, part=k))
    return "".join(out)


def _write_multi_mechanism(mech: MultiMechanism) -> str:
    inst = mech.inst
    mode = inst.mode
    out = [_mech_header(MULTI, mode, items=inst.m)] + _multi_instance_lines(inst)
    for t, lottery, pay in zip(inst.profiles(), mech.lotteries.rows, mech.payments.rows):
        profile = list(t)
        for a_idx, w in lottery:
            owners = [o if o >= 0 else None for o in mech.assignments[a_idx]]
            out.append(
                dumps_line(
                    {"assignment": owners, "prob": format_number(w, mode), "profile": profile}
                )
            )
        out.append(dumps_line({"pay": _fmt_row(pay, mode), "profile": profile}))
    return "".join(out)


@dataclass
class ParsedMechanism:
    """Decoded mechanism file: mech is set for all kinds except
    universal, which fills parts instead."""

    kind: str
    mode: str
    mech: Optional[object] = None
    fs: Optional[FeasibilitySystem] = None
    parts: Optional[tuple] = None


def _field(obj: dict, key: str):
    """A required key of a body line; a line without it (such as a
    solver's trailing report line in a mechanism file) is an input error,
    not a KeyError."""
    if key not in obj:
        raise InvalidInputError(f"line {obj} lacks {key!r}")
    return obj[key]


_REPEAT = "duplicate line for profile {}".format


def _vector(obj: dict) -> int:
    """A body line's feasible-vector index; the mechanism checks its
    range."""
    raw = _field(obj, "vector")
    if type(raw) is not int:
        raise InvalidInputError(f"vector {raw!r} in line {obj} must be an index")
    return raw


def _pair(rows: _Rows, grid: ValueGrid, what: str) -> tuple:
    """The two tables of rows put as pairs (interim x and p, or choice and payments)."""
    return tuple(ProfileTable(grid, table) for table in zip(*rows.table(grid, what).rows))


def read_mechanism(text: str, mode: Optional[str] = None) -> ParsedMechanism:
    """Decode a mechanism file; mode, when given, overrides the header's
    arithmetic mode.  Each distinct number string is converted once, each
    body line is placed at its profile's flat index (see _Placer), in any
    order, and the mechanism receives its tables as ProfileTables, whose
    rows its constructor checks."""
    rows = _records(text)
    head, mode = _header(rows, "kind", mode)
    kind = head["kind"]
    memo: dict = {}
    if kind == MULTI:
        return _read_multi_mechanism(rows, head, mode, memo)
    grid = placer = None
    vectors = []
    body = []
    for obj in rows[1:]:
        if "grid" in obj:
            if grid is not None:
                raise InvalidInputError("duplicate grid line")
            grid, placer = _read_grid(obj, mode, memo)
        elif "feasible" in obj:
            vectors.append(_feasible(obj))
        else:
            body.append(obj)
    if grid is None:
        raise InvalidInputError("mechanism file lacks a grid line")
    cells = grid.cells()
    if kind == INTERIM:
        table = _Rows(cells, _REPEAT)
        for o in body:
            at = placer.place(_field(o, "profile"))
            x = _parse_row(_field(o, "alloc"), mode, memo)
            table.put(at, (x, _parse_row(_field(o, "pay"), mode, memo)), o["profile"])
        mech = InterimMechanism(grid, *_pair(table, grid, "allocation table"))
        return ParsedMechanism(kind, mode, mech=mech)
    fs = (
        FeasibilitySystem(grid.n, vectors)
        if vectors
        else FeasibilitySystem.single_item(grid.n)
    )
    if kind == EXPOST:
        # a profile's outcome lines may be apart; each joins its profile's row
        outcomes = _Rows(cells, _REPEAT)
        for o in body:
            at = placer.place(_field(o, "profile"))
            vec, pay = _vector(o), _parse_row(_field(o, "pay"), mode, memo)
            outcomes.join(at, (vec, pay, _number(_field(o, "prob"), mode, memo)))
        mech = ExPostMechanism(grid, fs, outcomes.table(grid, "outcome table"))
        return ParsedMechanism(kind, mode, mech=mech, fs=fs)
    if kind == DETERMINISTIC:
        table = _Rows(cells, _REPEAT)
        for o in body:
            at = placer.place(_field(o, "profile"))
            table.put(at, (_vector(o), _parse_row(_field(o, "pay"), mode, memo)), o["profile"])
        mech = DeterministicMechanism(grid, fs, *_pair(table, grid, "winner table"))
        return ParsedMechanism(kind, mode, mech=mech, fs=fs)
    if kind == UNIVERSAL:
        probs: dict = {}
        tables: dict = {}  # part index -> _Rows
        for o in body:
            k = o.get("part")
            if not isinstance(k, int):
                raise InvalidInputError(f"universal line lacks a part index: {o}")
            if "profile" not in o:
                if k in probs:
                    raise InvalidInputError(f"duplicate line for part {k}")
                probs[k] = _number(_field(o, "prob"), mode, memo)
                continue
            at = placer.place(o["profile"])
            if k not in tables:
                tables[k] = _Rows(cells, _REPEAT)
            tables[k].put(at, (_vector(o), _parse_row(_field(o, "pay"), mode, memo)), o["profile"])
        if sorted(probs) != list(range(len(probs))) or sorted(tables) != sorted(probs):
            raise InvalidInputError("universal parts must be numbered 0..k-1")
        if not probs:
            raise InvalidInputError("universal mechanism file has no parts")
        parts = []
        for k in range(len(probs)):
            choice, payments = _pair(tables[k], grid, "winner table")
            parts.append((DeterministicMechanism(grid, fs, choice, payments), probs[k]))
        return ParsedMechanism(kind, mode, fs=fs, parts=tuple(parts))
    raise InvalidInputError(f"unknown mechanism kind {kind!r}")


def _read_multi_mechanism(rows: list, head: dict, mode: str, memo: dict) -> ParsedMechanism:
    """The mechanism of a multi-item file: each assignment and pay line is
    placed at its type profile's flat index, a profile's assignment lines
    joining its lottery in file order."""
    inst, rest = _read_multi_body(rows, head, mode, memo)
    index = {a: k for k, a in enumerate(enumerate_assignments(inst.n, inst.m))}
    lotteries, payments = _Rows(inst.cells(), _REPEAT), _Rows(inst.cells(), _REPEAT)
    for obj in rest:
        if "assignment" in obj:
            owners = _index_list(obj, "assignment")
            if owners not in index:
                raise InvalidInputError(f"assignment {obj['assignment']} is invalid")
            at = inst.flat_index(inst._key(_index_list(obj, "profile")))
            lotteries.join(at, (index[owners], _number(_field(obj, "prob"), mode, memo)))
        elif "pay" in obj:
            at = inst.flat_index(inst._key(_index_list(obj, "profile")))
            payments.put(at, _parse_row(obj["pay"], mode, memo), obj["profile"])
        else:
            raise InvalidInputError(f"unrecognized mechanism line {obj}")
    tables = lotteries.table(inst, "lottery table"), payments.table(inst, "payment table")
    return ParsedMechanism(MULTI, mode, mech=MultiMechanism(inst, *tables))


# ---------------------------------------------------------------------------
# points and their decompositions


def read_point(text: str, mode: Optional[str] = None) -> tuple:
    """Decode a point file, a {"kind":"point"} header followed by feasible
    lines and one point line, into (point, FeasibilitySystem); mode, when
    given, overrides the header's arithmetic mode."""
    rows = _records(text)
    head, mode = _header(rows, "kind", mode)
    if head["kind"] != "point":
        raise InvalidInputError(f'decompose needs a {{"kind":"point"}} file, got {head}')
    vectors = []
    point = None
    for obj in rows[1:]:
        if "feasible" in obj:
            vectors.append(_feasible(obj))
        elif "point" in obj:
            if point is not None:
                raise InvalidInputError("duplicate point line")
            point = _parse_row(obj["point"], mode, {})
        else:
            raise InvalidInputError(f"unrecognized line {obj}")
    if point is None or not vectors:
        raise InvalidInputError("decompose needs feasible lines and one point line")
    return point, FeasibilitySystem(len(point), vectors)


def write_decomposition(dec, mode: str) -> str:
    """An optimal.HullDecomposition: an in_hull line and a (vector, weight)
    line per term, or the certificate (a, b) of a point outside the hull."""
    if dec.in_hull:
        terms = [dumps_line({"vector": f, "weight": format_number(w, mode)}) for f, w in dec.terms]
        return dumps_line({"in_hull": True}) + "".join(terms)
    a, b = dec.certificate
    cert = {"a": _fmt_row(a, mode), "b": format_number(b, mode)}
    return dumps_line({"certificate": cert, "in_hull": False})


# ---------------------------------------------------------------------------
# reports


def _witness_json(v, mode: str) -> str:
    """The JSON text of one witness field in mode: an exact-mode Fraction
    as its quoted string, a finite float-mode float by float.__repr__, an
    int by int.__repr__, None as null, a str through the encoder's ASCII
    escaping, a tuple as an array of its entries.  Other ints and strs
    (bools, subclasses) go to the encoder as they are, any other number
    as format_number gives it, so every field reads as the sorted-key
    encoder writes it."""
    t = type(v)
    if t is Fraction and mode != FLOAT:
        return f'"{v!s}"'
    if t is float and mode == FLOAT and isfinite(v):
        return float.__repr__(v)
    if t is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    if t is str:
        return encode_basestring_ascii(v)
    if isinstance(v, tuple):
        return "[" + ",".join([_witness_json(c, mode) for c in v]) + "]"
    return _ENCODER.encode(v if isinstance(v, (int, str)) else format_number(v, mode))


def write_report(report: VerifyReport, mode: str) -> str:
    """Witness lines followed by one summary line.

    A witness line is the object {"bidder","check","detail","deviation",
    "lhs","profile","relation","rhs"} in that (sorted) key order, with no
    spaces, exactly as dumps_line writes it: numbers on the wire of mode
    (an exact quantity as the string "p/q" or "n", a float as a JSON
    number), profiles as arrays, a missing bidder or deviation as null,
    strings ASCII-escaped.  The summary line is
    {"checks":{...},"passed":...,"witnesses":N} with the checks sorted by
    name.  Each witness line is written from one template.  The text of
    every field but lhs and rhs is kept by object identity for the rest
    of the report, since witnesses repeat the same profile tuples, grid
    values and strings; an identity key, unlike a value key, never mixes
    1, 1.0 and Fraction(1), which are equal but written differently, and
    needs no Fraction hash."""
    memo = {}

    def cached(v) -> str:
        text = memo.get(id(v))
        if text is None:
            text = memo[id(v)] = _witness_json(v, mode)
        return text

    out = [
        f'{{"bidder":{cached(w.bidder)},"check":{cached(w.check)},'
        f'"detail":{cached(w.detail)},"deviation":{cached(w.deviation)},'
        f'"lhs":{_witness_json(w.lhs, mode)},"profile":{cached(w.profile)},'
        f'"relation":{cached(w.relation)},"rhs":{_witness_json(w.rhs, mode)}}}\n'
        for w in report.witnesses
    ]
    out.append(
        dumps_line(
            {
                "checks": {k: bool(v) for k, v in sorted(report.checks.items())},
                "passed": report.passed,
                "witnesses": len(report.witnesses),
            }
        )
    )
    return "".join(out)


def read_report(text: str) -> tuple:
    """Decode a verify report into (passed, checks, raw witness dicts)."""
    rows = _records(text)
    summary = rows[-1]
    if "passed" not in summary:
        raise InvalidInputError("report lacks a summary line")
    return bool(summary["passed"]), dict(summary.get("checks", {})), rows[:-1]


def ledger_line(ledger: QueryLedger) -> str:
    snap = ledger.snapshot()
    return dumps_line(
        {
            "budget": snap["budget"],
            "conditional_queries": snap["conditional"],
            "point_queries": snap["point"],
            "total": snap["point"] + snap["conditional"],
        }
    )

"""Seeded instance generator for the benchmark.

Instances are built with the standard library only and written in the
revmax NDJSON instance format (sorted keys, compact separators, exact
rational strings), so the inputs a workload sees depend on the seed and
on nothing in the program under test.  The same seed gives
byte-identical files.

Three support shapes cover the cases the solver's cost depends on:

- dense: every grid profile has positive mass;
- sparse: about a third of the profiles, still covering every grid value;
- correlated: mass on a band around the diagonal of value indices, so
  the bidders' values move together.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

DENSE = "dense"
SPARSE = "sparse"
CORRELATED = "correlated"


def dumps_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def fmt(x) -> str:
    return str(Fraction(x))


def stream(workload: str, seed: int) -> random.Random:
    """One independent random stream per (workload, seed)."""
    return random.Random(f"revmax-bench:{workload}:{seed}")


@dataclass
class Instance:
    """A single-item, single-parameter or multi-item instance.

    Single-item and single-parameter instances carry a value grid (one
    increasing integer list per bidder) and a support over grid profiles;
    multi-item instances carry per-bidder bundle-value tables and a
    support over type-index profiles.
    """

    name: str
    model: str
    support: dict
    grid: Optional[list] = None
    vectors: Optional[list] = None
    items: int = 0
    types: Optional[list] = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.grid) if self.grid is not None else len(self.types)

    @property
    def cells(self) -> int:
        """P: grid profiles (type profiles for multi-item)."""
        sizes = [len(g) for g in (self.grid or self.types)]
        out = 1
        for s in sizes:
            out *= s
        return out

    @property
    def k(self) -> int:
        """K: feasible vectors, or (n+1)^m assignments for multi-item."""
        if self.model == "multi-item":
            return (self.n + 1) ** self.items
        if self.vectors is not None:
            return len(self.vectors)
        return self.n + 1

    def describe(self) -> dict:
        return {
            "instance": self.name,
            "model": self.model,
            "n": self.n,
            "P": self.cells,
            "K": self.k,
            "support": len(self.support),
            **self.meta,
        }

    def text(self) -> str:
        if self.model == "multi-item":
            head = {"format": 1, "items": self.items, "model": self.model, "mode": "exact"}
            out = [dumps_line(head)]
            for i, tables in enumerate(self.types):
                out.append(
                    dumps_line({"bidder": i, "tables": [[fmt(v) for v in t] for t in tables]})
                )
            for t, q in self.support.items():
                out.append(dumps_line({"prob": fmt(q), "support": list(t)}))
            return "".join(out)
        out = [dumps_line({"format": 1, "mode": "exact", "model": self.model})]
        out.append(dumps_line({"grid": [[fmt(v) for v in g] for g in self.grid]}))
        for vec in self.vectors or ():
            out.append(dumps_line({"feasible": list(vec)}))
        for v, q in self.support.items():
            out.append(dumps_line({"prob": fmt(q), "support": [fmt(c) for c in v]}))
        return "".join(out)


def _normalize(weights: dict) -> dict:
    total = sum(weights.values())
    return {v: Fraction(w, total) for v, w in sorted(weights.items())}


def _grid(rng: random.Random, sizes: list, disjoint: bool = False) -> list:
    """Per-bidder increasing integer values with gaps, sizes[i] for bidder
    i.  disjoint=True puts bidder i on residue i mod n, so no two bidders
    share a value."""
    n, k = len(sizes), max(sizes)
    out = []
    for i in range(n):
        picks = sorted(rng.sample(range(3 * k), k))[: sizes[i]]
        out.append([n * s + i + 1 for s in picks] if disjoint else [s + 1 for s in picks])
    return out


def _support_indices(rng: random.Random, sizes: list, kind: str) -> list:
    """Index profiles carrying mass, covering every index of every bidder."""
    cells = list(itertools.product(*[range(s) for s in sizes]))
    if kind == DENSE:
        return cells
    if kind == CORRELATED:
        top = max(sizes) - 1
        # the scaled diagonal covers every index; keep a band of width 1 around it
        band = {tuple(r * (s - 1) // top for s in sizes) for r in range(top + 1)}
        for c in cells:
            pos = [ci * top // max(s - 1, 1) for ci, s in zip(c, sizes)]
            if max(pos) - min(pos) <= 1:
                band.add(c)
        return sorted(band)
    if kind != SPARSE:
        raise ValueError(f"unknown support kind {kind!r}")
    perms = [rng.sample(range(s), s) for s in sizes]
    chosen = {
        tuple(perms[i][r % s] for i, s in enumerate(sizes)) for r in range(max(sizes))
    }
    target = max(len(chosen), len(cells) // 3)
    rest = [c for c in cells if c not in chosen]
    rng.shuffle(rest)
    chosen.update(rest[: target - len(chosen)])
    return sorted(chosen)


def _weights(rng: random.Random, idx: list, kind: str) -> dict:
    out = {}
    for c in idx:
        w = rng.randint(1, 9)
        if kind == CORRELATED and len(set(c)) == 1:
            w *= 4  # the diagonal carries most of the mass
        out[c] = w
    return out


def single(
    rng: random.Random,
    name: str,
    sizes: list,
    kind: str,
    vectors: Optional[list] = None,
    disjoint: bool = False,
) -> Instance:
    """Single-item instance (vectors None) or single-parameter instance
    over the given feasible vectors, with sizes[i] grid values for
    bidder i."""
    n = len(sizes)
    grid = _grid(rng, sizes, disjoint)
    idx = _support_indices(rng, sizes, kind)
    weights = _weights(rng, idx, kind)
    support = _normalize(
        {tuple(grid[i][c[i]] for i in range(n)): w for c, w in weights.items()}
    )
    model = "single-item" if vectors is None else "single-parameter"
    return Instance(name, model, support, grid=grid, vectors=vectors, meta={"kind": kind})


def units(n: int, u: int) -> list:
    """All 0/1 vectors with at most u ones: u identical units, unit demand."""
    vecs = [v for v in itertools.product((0, 1), repeat=n) if sum(v) <= u]
    return sorted(vecs, key=lambda v: (sum(v), [-c for c in v]))


def multi(rng: random.Random, name: str, n: int, m: int, t: int, kind: str) -> Instance:
    """Multi-item instance: t distinct types per bidder, each a table over
    the 2^m bundles built from item values plus a small complementarity
    or substitutability term on bundles of two or more items."""
    types = []
    for _ in range(n):
        tables = set()
        while len(tables) < t:
            item = [rng.randint(1, 6) for _ in range(m)]
            table = []
            for mask in range(2**m):
                members = [item[j] for j in range(m) if mask >> j & 1]
                extra = rng.randint(-1, 2) if len(members) > 1 else 0
                table.append(max(sum(members) + extra, max(members, default=0)))
            tables.add(tuple(table))
        types.append(sorted(tables))
    idx = _support_indices(rng, [t] * n, kind)
    support = _normalize(_weights(rng, idx, kind))
    return Instance(name, "multi-item", support, items=m, types=types, meta={"kind": kind})

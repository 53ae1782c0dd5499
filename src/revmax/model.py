"""Core model: value grids, explicit joint distributions, feasibility
systems, and the three mechanism representations (interim, ex-post,
deterministic), plus the operations tying them together.

Quantities are exact fractions.Fraction in the default mode.  Float mode
is an input and output format: the objects here keep plain floats, only
construction-time sanity checks apply a tolerance here (1e-12 on
probability totals), and the verifier owns the constraint tolerance.
The solvers (revmax.optimal, revmax.multi, revmax.brute) convert a float
instance to its exact binary values at their boundary, solve exactly,
and round the result to float when they hand it back.

The mode is chosen once, where raw numbers are first converted: by
ValueGrid (and ExplicitDistribution.from_support, which builds one).
Every object built on a grid (distribution and mechanisms) takes the
grid's mode and converts its own entries with it.

A ValueGrid and a revmax.multi.MultiItemInstance are _Products, whose
profiles are numbered in canonical (lexicographic) order by flat index.
Every per-profile table of a mechanism is a ProfileTable over one, a row
per profile in that order, and a prior keeps its support as flat (the
support profiles' flat indices, in order) and masses, both checked by
_support; the conversions, revenues, writers and checkers walk these
rows and place no profile.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from collections.abc import ItemsView, Mapping, ValuesView
from fractions import Fraction
from math import prod
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NonRepresentableError,
    UndefinedRatioError,
)

EXACT = "exact"
FLOAT = "float"

Number = Union[Fraction, int, float]
Profile = tuple


def _rational(s: str) -> Fraction:
    """Fraction(s).  The plain forms every writer emits, ASCII -?digits
    and -?digits/digits with a nonzero denominator, skip Fraction's
    regex; every other string goes through Fraction(s) itself, so the
    accepted strings, values and errors are Fraction's."""
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if s.isascii() and digits.isdigit() and (den.isdigit() or not slash):
        d = int(den) if slash else 1
        if d:
            return Fraction(int(num), d)
    return Fraction(s)


def convert(x: object, mode: str = EXACT):
    """Coerce one numeric input to the arithmetic of the given mode.

    A string is read as Fraction(x) reads it (plain integers and p/q
    without its regex); float mode then rounds that rational once."""
    if mode == FLOAT:
        try:
            return float(_rational(x) if isinstance(x, str) else x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse rational {x!r}") from exc
        except (TypeError, OverflowError) as exc:
            raise InvalidInputError(f"cannot interpret {x!r} as a number") from exc
    if mode != EXACT:
        raise InvalidInputError(f"unknown arithmetic mode {mode!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return _rational(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse rational {x!r}") from exc
    if isinstance(x, float):
        raise InvalidInputError(
            f"float {x!r} in exact mode; pass a Fraction, int, or string"
        )
    raise InvalidInputError(f"cannot interpret {x!r} as a number")


_MODE_TYPE = {EXACT: {Fraction}, FLOAT: {float}}


def _convert_row(row: Iterable, mode: str) -> tuple:
    """tuple(convert(c, mode) for c in row), without a call per entry
    when every entry already has the mode's type, as a reader's rows do."""
    vals = tuple(row)
    if {*map(type, vals)} == _MODE_TYPE.get(mode):
        return vals
    return tuple([convert(c, mode) for c in vals])


def _items(table) -> Iterable[tuple]:
    """The (profile, value) pairs of a mapping, or an iterable of such
    pairs itself."""
    return table.items() if hasattr(table, "items") else table


def _check_unit_total(total, mode: str, what: str, grid=None, idx: int = 0) -> None:
    """total must be 1 (within 1e-12 in float mode).  Given a grid, what
    is formatted with the profile at flat index idx, only for the error."""
    if mode == FLOAT:
        if abs(total - 1.0) <= 1e-12:
            return
        total = repr(total)
    elif total == 1:
        return
    if grid is not None:
        what = what.format(grid.quote(idx))
    raise InvalidInputError(f"{what} sum to {total}, not 1")


def lines(sizes: Sequence[int]) -> Iterator[tuple]:
    """Walk the lines of a product of per-bidder axes of the given sizes.

    Profiles are numbered by their flat index in canonical (lexicographic)
    order.  For each bidder i, then each flat index idx, yields
    (i, idx, k, line): k is the profile's entry for bidder i, and line is
    the range of flat indices of the profiles that differ from it only in
    that entry, in increasing entry order, so line[k] == idx.  A line's
    first profile (k == 0) comes first in canonical order.
    """
    total = 1
    for size in sizes:
        total *= size
    stride = total
    for i, size in enumerate(sizes):
        stride //= size
        for idx in range(total):
            k = idx // stride % size
            base = idx - k * stride
            yield i, idx, k, range(base, base + size * stride, stride)


def _quote(profile: tuple) -> str:
    """A profile as a tuple of its entries' str (1/2, 2.0, an index), not reprs."""
    return f"({', '.join(map(str, profile))}{',' if len(profile) == 1 else ''})"


class _Product:
    """A product of per-bidder type sets: _axes[i] lists bidder i's types
    (grid values, or type indices) and _positions[i] maps each to its
    index.  Profiles are tuples of one type per bidder, numbered by their
    flat index in lexicographic order by index."""

    __slots__ = ("_axes", "_positions")

    def _lay_out(self, axes: Sequence[Sequence]) -> None:
        self._axes = tuple(axes)
        self._positions = [{x: k for k, x in enumerate(ts)} for ts in self._axes]

    @property
    def n(self) -> int:
        return len(self._axes)

    def cells(self) -> int:
        return prod([len(ts) for ts in self._axes])

    def profiles(self) -> Iterator[Profile]:
        """All profiles in canonical (lexicographic) order."""
        return itertools.product(*self._axes)

    def flat_index(self, profile: Profile) -> int:
        """The profile's position in canonical order, one hash per entry;
        KeyError when it is no profile of the product (not a tuple, wrong
        length, an entry not among its bidder's types, or unhashable)."""
        try:
            if isinstance(profile, tuple) and len(profile) == len(self._positions):
                idx = 0
                for at, v in zip(self._positions, profile):
                    idx = idx * len(at) + at[v]
                return idx
        except (KeyError, TypeError):
            pass
        raise KeyError(profile)

    def profile_at(self, idx: int) -> Profile:
        """The profile at a flat index in canonical order."""
        out = []
        for ts in reversed(self._axes):
            idx, k = divmod(idx, len(ts))
            out.append(ts[k])
        return tuple(reversed(out))

    def quote(self, idx: int) -> str:
        """The profile at a flat index as an input error quotes it."""
        return _quote(self.profile_at(idx))


class ValueGrid(_Product):
    """Per-bidder strictly increasing value supports.

    The grid is the common domain of every mechanism table: profiles are
    tuples with one grid value per bidder, enumerated lexicographically
    by value index.
    """

    __slots__ = ("values", "mode")

    def __init__(self, values: Sequence[Sequence[Number]], mode: str = EXACT):
        rows = []
        for vi in values:
            row = tuple(convert(x, mode) for x in vi)
            if not row:
                raise InvalidInputError("bidder with empty value support")
            if any(x < 0 for x in row):
                raise InvalidInputError("negative value in grid")
            if any(row[k] >= row[k + 1] for k in range(len(row) - 1)):
                raise InvalidInputError("grid values must be strictly increasing")
            rows.append(row)
        if not rows:
            raise InvalidInputError("grid needs at least one bidder")
        self.values = tuple(rows)
        self.mode = mode
        self._lay_out(rows)

    def index(self, bidder: int, value) -> int:
        try:
            return self._positions[bidder][value]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(
                f"value {value} not on bidder {bidder}'s grid"
            ) from exc

    def _key(self, profile) -> Profile:
        """A given profile, its entries converted in the grid's mode."""
        return _convert_row(profile, self.mode)

    def on_grid(self, profile: Profile) -> bool:
        """Every entry is on its bidder's grid (see flat_index)."""
        try:
            self.flat_index(tuple(profile))
        except (KeyError, TypeError):  # TypeError: profile is not iterable
            return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, ValueGrid) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"ValueGrid({[list(map(str, vi)) for vi in self.values]})"


class ExplicitDistribution:
    """Joint distribution over grid profiles given as an explicit table.

    Correlation is arbitrary: the table is simply a map from profiles to
    positive probabilities summing to one.  By default the grid must
    coincide with the marginal supports; strict=False admits analysis
    grids padded with zero-mass values.

    support is a mapping from profiles to probabilities or an iterable of
    (profile, probability) pairs, converted in the grid's mode.  Each
    profile is placed by its flat index (one grid lookup per entry), and
    _support checks and orders the entries on those ints into flat and
    masses.
    """

    __slots__ = ("grid", "flat", "masses", "mode")

    def __init__(
        self,
        grid: ValueGrid,
        support: Union[Mapping[Profile, Number], Iterable[tuple]],
        *,
        strict: bool = True,
    ):
        self._fill(grid, _placed_support(grid, support), strict)

    @classmethod
    def _from_placed(cls, grid: ValueGrid, entries: Iterable[tuple]) -> "ExplicitDistribution":
        """The distribution of support entries a reader placed itself, as
        _placed_support yields them; the checks are the constructor's."""
        self = object.__new__(cls)
        self._fill(grid, entries, True)
        return self

    def _fill(self, grid: ValueGrid, entries: Iterable[tuple], strict: bool) -> None:
        unused = strict and (
            "grid value {t} of bidder {i} appears in no support profile "
            "(pass strict=False for padded grids)"
        )
        self.grid = grid
        self.flat, self.masses = _support(grid, entries, unused)
        self.mode = grid.mode

    @property
    def support(self) -> dict:
        """A dict from support profiles to probabilities, built on access."""
        return dict(zip(map(self.grid.profile_at, self.flat), self.masses))

    @classmethod
    def from_support(
        cls, support: Union[Mapping[Profile, Number], Iterable[tuple]], mode: str = EXACT
    ) -> "ExplicitDistribution":
        """Build the grid from the marginal supports of the table itself."""
        items = list(_items(support))
        if not items:
            raise InvalidInputError("empty support")
        n = len(items[0][0])
        columns = [sorted({convert(p[i], mode) for p, _ in items}) for i in range(n)]
        return cls(ValueGrid(columns, mode), items)

    def prob(self, profile: Profile):
        try:
            idx = self.grid.flat_index(tuple(profile))
        except KeyError:
            raise InvalidInputError(f"profile {profile} is off the grid") from None
        k = bisect_left(self.flat, idx)
        found = k < len(self.flat) and self.flat[k] == idx
        return self.masses[k] if found else 0.0 if self.mode == FLOAT else Fraction(0)

    def __repr__(self) -> str:
        return f"ExplicitDistribution({len(self.flat)} profiles, n={self.grid.n})"


def _placed_support(space: _Product, support) -> Iterator[tuple]:
    """(flat index, probability) for each support entry in the given
    order; a profile outside the product raises."""
    for profile, prob in _items(support):
        key = space._key(profile)
        if len(key) != space.n:
            raise DimensionMismatchError(
                f"profile {profile} has {len(key)} entries, grid has {space.n} bidders"
            )
        try:
            idx = space.flat_index(key)
        except KeyError:
            raise InvalidInputError(f"support profile {profile} is off the grid") from None
        yield idx, prob


def _support(space: _Product, entries: Iterable[tuple], unused) -> tuple:
    """(flat, masses) of a prior's support over space, from entries of
    (flat index, probability), summed in the given order.  A repeated
    profile, a probability that is not positive, an empty support, a
    total other than 1 and, given the message unused (formatted with
    bidder i and type t, its index k), a type that no support profile
    holds are input errors."""
    mode = space.mode
    table = {}  # flat index -> probability, in the given order
    for idx, prob in entries:
        if idx in table:
            raise InvalidInputError(f"duplicate support profile {space.quote(idx)}")
        q = convert(prob, mode)
        if q <= 0:
            raise InvalidInputError(f"support probability {prob} is not positive")
        table[idx] = q
    if not table:
        raise InvalidInputError("empty support")
    _check_unit_total(sum(table.values()), mode, "support probabilities")
    if unused:
        stride = space.cells()
        for i, ts in enumerate(space._axes):
            size = len(ts)
            stride //= size
            seen = {idx // stride % size for idx in table}
            if len(seen) < size:
                k = next(k for k in range(size) if k not in seen)
                raise InvalidInputError(unused.format(i=i, k=k, t=ts[k]))
    flat = sorted(table)
    return tuple(flat), tuple([table[idx] for idx in flat])


class FeasibilitySystem:
    """Finite set of 0/1 allocation vectors; randomized mechanisms live
    in its convex hull."""

    __slots__ = ("n", "vectors", "zero_index")

    def __init__(self, n: int, vectors: Sequence[Sequence[int]]):
        if n < 1:
            raise InvalidInputError("need at least one bidder")
        vecs = []
        for vec in vectors:
            t = tuple(vec)
            if len(t) != n:
                raise DimensionMismatchError(f"vector {vec} does not have length {n}")
            if any(c not in (0, 1) for c in t):
                raise InvalidInputError(f"vector {vec} is not 0/1")
            if t in vecs:
                raise InvalidInputError(f"duplicate feasible vector {vec}")
            vecs.append(t)
        zero = (0,) * n
        if zero not in vecs:
            raise InvalidInputError("the all-zero vector must be feasible")
        self.n = n
        self.vectors = tuple(vecs)
        self.zero_index = vecs.index(zero)

    @classmethod
    def single_item(cls, n: int) -> "FeasibilitySystem":
        vecs = [(0,) * n]
        for i in range(n):
            vecs.append(tuple(1 if j == i else 0 for j in range(n)))
        return cls(n, vecs)

    def is_single_item(self) -> bool:
        # the constructor guarantees distinct 0/1 vectors including zero,
        # so n + 1 vectors with at most one 1 each are zero and every unit
        return len(self.vectors) == self.n + 1 and all(
            sum(vec) <= 1 for vec in self.vectors
        )

    def winner_index(self, bidder: int) -> int:
        """Index of the vector allocating exactly to one bidder."""
        target = tuple(1 if j == bidder else 0 for j in range(self.n))
        try:
            return self.vectors.index(target)
        except ValueError as exc:
            raise InvalidInputError(f"no unit vector for bidder {bidder}") from exc

    def __repr__(self) -> str:
        return f"FeasibilitySystem(n={self.n}, {len(self.vectors)} vectors)"


class ProfileTable(Mapping):
    """A read-only per-profile table over a _Product grid: rows[k] belongs
    to the k-th profile of grid.profiles().  t[v] places v (one position
    lookup per entry) and raises KeyError for anything that is no profile
    of grid; iteration, items() and values() follow canonical order and
    place nothing.  A ProfileTable equals any mapping with the same
    pairs, a dict included."""

    __slots__ = ("grid", "rows")

    def __init__(self, grid: ValueGrid, rows: Iterable):
        rows = tuple(rows)
        if len(rows) != grid.cells():
            raise DimensionMismatchError(
                f"{len(rows)} rows for {grid.cells()} grid profiles"
            )
        self.grid = grid
        self.rows = rows

    def __getitem__(self, profile):
        return self.rows[self.grid.flat_index(profile)]

    def __iter__(self) -> Iterator[Profile]:
        return self.grid.profiles()

    def __len__(self) -> int:
        return len(self.rows)

    def items(self) -> "_RowItems":
        return _RowItems(self)

    def values(self) -> "_RowValues":
        return _RowValues(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, ProfileTable):
            return self.grid == other.grid and self.rows == other.rows
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"ProfileTable({dict(self.items())!r})"


class _RowItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping.grid.profiles(), self._mapping.rows)


class _RowValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping.rows)


_UNSET = object()  # the row of a profile no entry has placed yet


class _Rows:
    """The rows of one per-profile table, filled entry by entry at flat
    indices (at): put gives a profile its row, and a second row raises
    the message repeat(quoted), quoted being how put's caller names the
    profile; join appends an item to a profile's row, the list of its
    entries' items in order.  An at that is no int is an off-grid
    profile, kept for table(), which raises for a missing profile first
    and then for off-grid ones."""

    __slots__ = ("rows", "placed", "extra", "repeat")

    def __init__(self, cells: int, repeat: Callable[[object], str]):
        self.rows = [_UNSET] * cells
        self.placed = 0
        self.extra: set = set()
        self.repeat = repeat

    def put(self, at, row, quoted) -> None:
        if type(at) is int:
            if self.rows[at] is not _UNSET:
                raise InvalidInputError(self.repeat(quoted))
            self.rows[at] = row
            self.placed += 1
        elif at in self.extra:
            raise InvalidInputError(self.repeat(quoted))
        else:
            self.extra.add(at)

    def join(self, at, item) -> None:
        if type(at) is not int:
            self.extra.add(at)
        elif self.rows[at] is _UNSET:
            self.rows[at] = [item]
            self.placed += 1
        else:
            self.rows[at].append(item)

    def table(self, grid: _Product, what: str) -> ProfileTable:
        if self.placed < len(self.rows):
            missing = grid.quote(next(k for k, r in enumerate(self.rows) if r is _UNSET))
            raise InvalidInputError(f"{what} missing profile {missing}")
        if self.extra:
            off = ", ".join(map(_quote, sorted(self.extra)[:3]))
            raise InvalidInputError(f"{what} has off-grid profiles [{off}]")
        return ProfileTable(grid, self.rows)


def _check_table_domain(grid: _Product, table, what: str) -> list:
    """The rows of a per-profile table in canonical order, requiring every
    profile of grid.  A ProfileTable on this grid gives its rows as they
    are.  Any other table is a mapping or an iterable of (profile, row)
    pairs, which may not repeat a profile; each profile is keyed by
    grid._key and placed by value.  A pair at the position canonical
    order gives it, as every writer emits them, is placed by comparing it
    with the grid's profile there (identical entries compare without a
    call); only the others are hashed."""
    if isinstance(table, ProfileTable) and table.grid == grid:
        return list(table.rows)
    profiles = list(grid.profiles())

    def repeat(at) -> str:
        return f"{what} repeats profile {grid.quote(at) if type(at) is int else _quote(at)}"

    rows = _Rows(len(profiles), repeat)
    k = 0
    for profile, row in _items(table):
        key = grid._key(profile)
        if k < len(profiles) and key == profiles[k]:
            at = k
        else:
            try:
                at = grid.flat_index(key)
            except KeyError:
                at = key
        rows.put(at, row, at)
        k = at + 1 if type(at) is int else k
    return list(rows.table(grid, what).rows)


class InterimMechanism:
    """Expected allocations x_i(v) in [0,1] and payments p_i(v), one row
    per grid profile.  Feasibility (hull membership) is a verifier check,
    not a construction invariant.

    x and p are ProfileTables on the grid, or mappings from profiles to
    rows or iterables of (profile, row) pairs, which may not repeat a
    profile (see _check_table_domain).  Either way the rows then pass the
    same checks, and the mechanism keeps x and p as ProfileTables."""

    __slots__ = ("grid", "x", "p", "mode")

    def __init__(
        self,
        grid: ValueGrid,
        x: Union[Mapping[Profile, Sequence[Number]], Iterable[tuple]],
        p: Union[Mapping[Profile, Sequence[Number]], Iterable[tuple]],
    ):
        mode = grid.mode
        n = grid.n
        xs = _check_table_domain(grid, x, "allocation table")
        for k, row in enumerate(xs):
            vals = xs[k] = _convert_row(row, mode)
            if len(vals) != n:
                raise DimensionMismatchError(f"x row at {grid.quote(k)} has wrong length")
            if any(c < 0 or c > 1 for c in vals):
                raise InvalidInputError(f"allocation outside [0,1] at {grid.quote(k)}")
        ps = _check_table_domain(grid, p, "payment table")
        for k, row in enumerate(ps):
            vals = ps[k] = _convert_row(row, mode)
            if len(vals) != n:
                raise DimensionMismatchError(f"p row at {grid.quote(k)} has wrong length")
        self.grid = grid
        self.x = ProfileTable(grid, xs)
        self.p = ProfileTable(grid, ps)
        self.mode = mode

    @classmethod
    def _from_tables(cls, grid: ValueGrid, x: Sequence, p: Sequence) -> "InterimMechanism":
        """An InterimMechanism over rows already in the form the
        constructor builds, checking nothing: x and p hold one row per
        grid profile in canonical order, each a tuple of n numbers of the
        grid's mode (Fraction or float), x in [0,1].  For the conversions
        in this module, whose inputs were checked when they were
        constructed."""
        self = object.__new__(cls)
        self.grid = grid
        self.x = ProfileTable(grid, x)
        self.p = ProfileTable(grid, p)
        self.mode = grid.mode
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InterimMechanism)
            and self.grid == other.grid
            and self.x == other.x
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.grid, self.x.rows, self.p.rows))

    def __repr__(self) -> str:
        return f"InterimMechanism(n={self.grid.n}, {self.grid.cells()} profiles)"


class ExPostMechanism:
    """Per profile, a lottery over feasible vectors with per-outcome
    payment vectors.

    Outcome rows are (vector index, payments, probability).  Probabilities
    are positive and sum to one per profile.  The losers-pay-zero rule is
    enforced by the verifier (check_expost_ir), so violating tables remain
    expressible; every constructor in this package emits conforming ones.
    outcomes is a ProfileTable on the grid, a mapping from profiles to
    outcome rows or an iterable of (profile, rows) pairs, which may not
    repeat a profile (see _check_table_domain); the mechanism keeps it as
    a ProfileTable of tuples of outcome rows.
    """

    __slots__ = ("grid", "fs", "outcomes", "mode")

    def __init__(
        self,
        grid: ValueGrid,
        fs: FeasibilitySystem,
        outcomes: Union[Mapping[Profile, Sequence[tuple]], Iterable[tuple]],
    ):
        mode = grid.mode
        if fs.n != grid.n:
            raise DimensionMismatchError("feasibility system and grid disagree on n")
        K = len(fs.vectors)
        table = _check_table_domain(grid, outcomes, "outcome table")
        for k, rows in enumerate(table):
            clean = []
            total = 0
            for vec_idx, pays, prob in rows:
                if not 0 <= vec_idx < K:
                    raise InvalidInputError(
                        f"bad vector index {vec_idx} at {grid.quote(k)}"
                    )
                pay = _convert_row(pays, mode)
                if len(pay) != grid.n:
                    raise DimensionMismatchError(
                        f"payment row at {grid.quote(k)} has wrong length"
                    )
                q = convert(prob, mode)
                if q <= 0:
                    raise InvalidInputError(f"outcome probability {prob} is not positive")
                total += q
                clean.append((vec_idx, pay, q))
            _check_unit_total(total, mode, "outcome probabilities at {}", grid, k)
            table[k] = tuple(clean)
        self.grid = grid
        self.fs = fs
        self.outcomes = ProfileTable(grid, table)
        self.mode = mode

    def __repr__(self) -> str:
        return f"ExPostMechanism(n={self.grid.n}, {self.grid.cells()} profiles)"


class DeterministicMechanism:
    """One feasible vector and one payment vector per profile.

    Non-winners pay zero by construction; the winner map generalizes the
    single-item none/bidder choice to an index into the feasibility system.
    choice and payments are each a ProfileTable on the grid, a mapping
    from profiles or an iterable of (profile, value) pairs, which may not
    repeat a profile (see _check_table_domain); the mechanism keeps them
    as ProfileTables.
    """

    __slots__ = ("grid", "fs", "choice", "payments", "mode")

    def __init__(
        self,
        grid: ValueGrid,
        fs: FeasibilitySystem,
        choice: Union[Mapping[Profile, int], Iterable[tuple]],
        payments: Union[Mapping[Profile, Sequence[Number]], Iterable[tuple]],
    ):
        mode = grid.mode
        if fs.n != grid.n:
            raise DimensionMismatchError("feasibility system and grid disagree on n")
        K = len(fs.vectors)
        ch = _check_table_domain(grid, choice, "winner table")
        for k, idx in enumerate(ch):
            if not 0 <= idx < K:
                raise InvalidInputError(f"bad vector index {idx} at {grid.quote(k)}")
        ps = _check_table_domain(grid, payments, "payment table")
        losers = [[i for i, c in enumerate(vec) if c == 0] for vec in fs.vectors]
        for k, (row, idx) in enumerate(zip(ps, ch)):
            pay = ps[k] = _convert_row(row, mode)
            if len(pay) != grid.n:
                raise DimensionMismatchError(
                    f"payment row at {grid.quote(k)} has wrong length"
                )
            for i in losers[idx]:
                if pay[i] != 0:
                    raise InvalidInputError(
                        f"non-winner {i} charged {pay[i]} at {grid.quote(k)}"
                    )
        self.grid = grid
        self.fs = fs
        self.choice = ProfileTable(grid, ch)
        self.payments = ProfileTable(grid, ps)
        self.mode = mode

    def winner(self, profile: Profile) -> Optional[int]:
        """Allocated bidder at this profile, or None (single-winner vectors)."""
        vec = self.fs.vectors[self.choice[tuple(profile)]]
        winners = [i for i, c in enumerate(vec) if c == 1]
        if not winners:
            return None
        if len(winners) > 1:
            raise InvalidInputError("profile allocates more than one bidder")
        return winners[0]

    def as_interim(self) -> InterimMechanism:
        """The same mechanism as expected allocations and payments: x is
        the chosen 0/1 vector of each profile, p the payment table.  The
        tables are built directly: this mechanism's constructor checked
        everything the interim form requires."""
        rows = [_convert_row(vec, self.mode) for vec in self.fs.vectors]
        x = [rows[idx] for idx in self.choice.rows]
        return InterimMechanism._from_tables(self.grid, x, self.payments.rows)

    def as_expost(self) -> ExPostMechanism:
        one = 1.0 if self.mode == FLOAT else Fraction(1)
        rows = [
            [(idx, pay, one)] for idx, pay in zip(self.choice.rows, self.payments.rows)
        ]
        return ExPostMechanism(self.grid, self.fs, ProfileTable(self.grid, rows))

    def __repr__(self) -> str:
        return f"DeterministicMechanism(n={self.grid.n}, {self.grid.cells()} profiles)"


# ---------------------------------------------------------------------------
# operations


def _payment_rows(mech, flat: Sequence[int]) -> Sequence:
    """The mechanism's expected payment rows in canonical order, at least
    at the given flat indices."""
    if isinstance(mech, InterimMechanism):
        return mech.p.rows
    if isinstance(mech, DeterministicMechanism):
        return mech.payments.rows
    if isinstance(mech, ExPostMechanism):
        return _expost_payments(mech, flat)
    raise InvalidInputError(f"cannot read payments from {type(mech).__name__}")


def expected_revenue(mech, dist: ExplicitDistribution):
    """Expected total payment under truthful play, summed over the support
    in canonical order, each payment row read at the support profile's
    flat index.  An ex-post lottery's payments are summed at the
    support's profiles only, as interim_of sums them."""
    if mech.grid != dist.grid:
        raise DimensionMismatchError("mechanism and distribution grids differ")
    rows = _payment_rows(mech, dist.flat)
    zero = 0.0 if dist.mode == FLOAT else Fraction(0)
    return sum((q * sum(rows[idx]) for idx, q in zip(dist.flat, dist.masses)), zero)


def approximation_ratio(mech_revenue, opt_revenue):
    """The factor opt/mech by which the mechanism trails the optimum.

    Both revenues zero compare as equal performance (ratio 1); a zero
    mechanism against a positive optimum has no finite ratio.
    """
    if mech_revenue == 0:
        if opt_revenue == 0:
            return Fraction(1)
        raise UndefinedRatioError(
            f"zero-revenue mechanism against optimum {opt_revenue}"
        )
    if isinstance(mech_revenue, float) or isinstance(opt_revenue, float):
        return opt_revenue / mech_revenue
    return Fraction(opt_revenue) / Fraction(mech_revenue)


def interim_of(mech: ExPostMechanism) -> InterimMechanism:
    """Project an ex-post lottery to expected allocations and payments.

    The rows are built directly in canonical order.  The one check the
    constructor would add that the lottery does not already guarantee is
    that each winning probability lies in [0,1]: in float mode the
    probabilities of one profile may sum to just over 1 (the lottery's
    tolerance is 1e-12), and such an allocation is an input error."""
    zero = 0.0 if mech.mode == FLOAT else Fraction(0)
    n = mech.grid.n
    vectors = mech.fs.vectors
    x, p = [], []
    for k, rows in enumerate(mech.outcomes.rows):
        xa = [zero] * n
        pa = [zero] * n
        for vec_idx, pay, prob in rows:
            vec = vectors[vec_idx]
            for i in range(n):
                if vec[i]:
                    xa[i] += prob
                if pay[i]:
                    pa[i] += prob * pay[i]
        if any(c < 0 or c > 1 for c in xa):
            raise InvalidInputError(f"allocation outside [0,1] at {mech.grid.quote(k)}")
        x.append(tuple(xa))
        p.append(tuple(pa))
    return InterimMechanism._from_tables(mech.grid, x, p)


def _expost_payments(mech: ExPostMechanism, flat: Sequence[int]) -> Sequence:
    """interim_of(mech).p.rows, at least at the given flat indices.
    interim_of's [0,1] check can fail only in float mode, where outcome
    probabilities may sum to just over 1, so float mode takes interim_of
    itself; exact mode sums the payments of those profiles' outcomes
    alone, as interim_of sums them, and leaves the other rows None."""
    if mech.mode == FLOAT:
        return interim_of(mech).p.rows
    n = mech.grid.n
    outcomes = mech.outcomes.rows
    p = [None] * len(outcomes)
    for idx in flat:
        pa = [Fraction(0)] * n
        for _vec_idx, pay, prob in outcomes[idx]:
            for i in range(n):
                if pay[i]:
                    pa[i] += prob * pay[i]
        p[idx] = pa
    return p


def canonical_expost(mech: InterimMechanism, fs: FeasibilitySystem) -> ExPostMechanism:
    """The one-winner lottery carrying an interim single-item mechanism:
    bidder i wins with probability x_i(v) and then pays p_i(v)/x_i(v),
    leftover mass sells to nobody for free.

    A bidder with x_i = 0 but p_i != 0 cannot be charged this way."""
    if fs.n != mech.grid.n or not fs.is_single_item():
        raise InvalidInputError("canonical ex-post form needs single-item feasibility")
    zero = 0.0 if mech.mode == FLOAT else Fraction(0)
    one = 1.0 if mech.mode == FLOAT else Fraction(1)
    table = []
    for v, xs, ps in zip(mech.grid.profiles(), mech.x.rows, mech.p.rows):
        rows = []
        total = zero
        for i in range(mech.grid.n):
            if xs[i] == 0:
                if ps[i] != 0:
                    raise NonRepresentableError(
                        f"bidder {i} pays {ps[i]} with zero allocation at {_quote(v)}"
                    )
                continue
            pay = [zero] * mech.grid.n
            pay[i] = ps[i] / xs[i]
            rows.append((fs.winner_index(i), tuple(pay), xs[i]))
            total += xs[i]
        if total > 1:
            raise InvalidInputError(f"allocations at {_quote(v)} sum to {total} > 1")
        if total < 1:
            rows.append((fs.zero_index, (zero,) * mech.grid.n, one - total))
        table.append(rows)
    return ExPostMechanism(mech.grid, fs, ProfileTable(mech.grid, table))


def execute(mech: ExPostMechanism, bids: Sequence[Number], seed: int):
    """Run the mechanism on real-valued bids with the round-down rule.

    Each bid maps to the largest grid value not above it.  A bid below the
    bidder's whole grid excludes him: the profile is looked up at his lowest
    grid value, and every outcome that would allocate to him moves its mass
    to the all-zero vector with no charges.  Returns the sampled
    (allocation vector, payment vector); the draw is fixed by the seed.
    """
    if len(bids) != mech.grid.n:
        raise DimensionMismatchError(f"got {len(bids)} bids for {mech.grid.n} bidders")
    profile = []
    null_bidders = []
    for i, bid in enumerate(bids):
        b = Fraction(bid)
        if b < 0:
            raise InvalidInputError(f"negative bid {bid}")
        below = [g for g in mech.grid.values[i] if Fraction(g) <= b]
        if below:
            profile.append(below[-1])
        else:
            profile.append(mech.grid.values[i][0])
            null_bidders.append(i)
    zero = 0.0 if mech.mode == FLOAT else Fraction(0)
    zero_pay = (zero,) * mech.grid.n
    rows = []
    for vec_idx, pay, prob in mech.outcomes[tuple(profile)]:
        vec = mech.fs.vectors[vec_idx]
        if any(vec[i] == 1 for i in null_bidders):
            rows.append((mech.fs.zero_index, zero_pay, prob))
        else:
            pay = tuple(zero if i in null_bidders else c for i, c in enumerate(pay))
            rows.append((vec_idx, pay, prob))
    r = Fraction(random.Random(seed).random())
    acc = Fraction(0)
    for vec_idx, pay, prob in rows:
        acc += Fraction(prob)
        if r < acc:
            return mech.fs.vectors[vec_idx], pay
    vec_idx, pay, _ = rows[-1]
    return mech.fs.vectors[vec_idx], pay

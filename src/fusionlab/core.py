"""Data model for fusion rules and the level-resolution engine.

A fusion rule declares prototiles (level-0 tiles) and guarded definitions
that say how each level-n supertile is fused from level-(n-1) supertiles.
Guards are boolean predicates over the level variable n, so a single rule
text covers every level; resolving a level evaluates the guards and all
integer expressions (repeats, offsets) into concrete placements.

Rules are immutable. What is kept of a rule level by level (its
resolutions, tile/cell counts, volumes and, for 2D rules, bounding boxes)
lives in a private table on the rule object, lists filled by one loop up
to the highest level asked for and freed with the rule. Every other
bottom-up pass (matrices, row runs, word counts and ends, expansions) is
one fold, _fold_levels. Neither costs a stack frame per level. All
arithmetic is exact: Python integers for counts and sizes,
fractions.Fraction for volumes.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Optional, Union

from .errors import (
    EmptyLevelError,
    InvalidRepeatError,
    NegativeExponentError,
    UndefinedLabelError,
    UnknownDimensionError,
    UnknownLabelError,
)

# ---------------------------------------------------------------------------
# Integer expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    """Integer literal."""

    value: int


@dataclass(frozen=True)
class Var:
    """The level variable n."""


@dataclass(frozen=True)
class Dim:
    """Width or height accessor w(label) / h(label).

    Evaluates to the bounding-box extent, in cells, of the named supertile
    one level below the definition being resolved.
    """

    axis: str  # "w" or "h"
    label: str


@dataclass(frozen=True)
class BinOp:
    """Binary arithmetic node; op is one of + - * ^."""

    op: str
    left: "IntExpr"
    right: "IntExpr"


IntExpr = Union[Lit, Var, Dim, BinOp]


def eval_expr(expr: IntExpr, n: int, dims: Optional[Mapping[str, tuple[int, int]]] = None) -> int:
    """Evaluate an integer expression at level n.

    dims maps a label to its (width, height) one level below; it is only
    consulted for w()/h() nodes. Exponents must evaluate >= 0.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return n
    if isinstance(expr, Dim):
        if dims is None or expr.label not in dims:
            raise UnknownDimensionError(expr.label)
        w, h = dims[expr.label]
        return w if expr.axis == "w" else h
    if isinstance(expr, BinOp):
        a = eval_expr(expr.left, n, dims)
        b = eval_expr(expr.right, n, dims)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "^":
            if b < 0:
                raise NegativeExponentError(b)
            return a**b
        raise ValueError(f"unknown operator {expr.op!r}")
    raise TypeError(f"not an IntExpr: {expr!r}")


def _has_dim(e: IntExpr) -> bool:
    return isinstance(e, Dim) or isinstance(e, BinOp) and (_has_dim(e.left) or _has_dim(e.right))


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Always:
    """The guard that holds at every level (spelled `default`/`otherwise`)."""


@dataclass(frozen=True)
class Cmp:
    op: str  # == != < <= > >=
    left: IntExpr
    right: IntExpr


@dataclass(frozen=True)
class IsPow:
    """ispow(base, e): true iff e evaluates to base**m for some m >= 1.

    Note the m >= 1: ispow(3, 1) is false because 1 = 3**0.
    """

    base: int
    exponent: IntExpr


@dataclass(frozen=True)
class Not:
    operand: "Guard"


@dataclass(frozen=True)
class And:
    left: "Guard"
    right: "Guard"


@dataclass(frozen=True)
class Or:
    left: "Guard"
    right: "Guard"


Guard = Union[Always, Cmp, IsPow, Not, And, Or]

_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_guard(guard: Guard, n: int) -> bool:
    """Evaluate a guard at level n. Guards see only n, never dimensions."""
    if isinstance(guard, Always):
        return True
    if isinstance(guard, Cmp):
        return _CMP[guard.op](eval_expr(guard.left, n), eval_expr(guard.right, n))
    if isinstance(guard, IsPow):
        v = eval_expr(guard.exponent, n)
        b = guard.base
        if b < 2:
            # base 1 would loop forever below and base 0 divide by zero
            raise ValueError(f"ispow base must be >= 2, got {b}")
        if v < b:
            return False
        while v % b == 0:
            v //= b
        return v == 1
    if isinstance(guard, Not):
        return not eval_guard(guard.operand, n)
    if isinstance(guard, And):
        return eval_guard(guard.left, n) and eval_guard(guard.right, n)
    if isinstance(guard, Or):
        return eval_guard(guard.left, n) or eval_guard(guard.right, n)
    raise TypeError(f"not a Guard: {guard!r}")


# ---------------------------------------------------------------------------
# Rule structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prototile:
    """A level-0 tile.

    In dimension 1 every tile is one cell, so a supertile's length is its
    tile count, and cells stays None. In dimension 2 the prototile is its
    cells, a polyomino sorted by (x, y) and anchored at min x = min y = 0;
    validate_rule rejects a 2D prototile whose cells are None or empty.
    volume defaults to 1 in 1D and to the cell count in 2D.
    """

    name: str
    volume: Fraction = Fraction(1)
    cells: Optional[tuple[tuple[int, int], ...]] = None

    def size(self) -> tuple[int, int]:
        """Bounding-box (width, height) of a 2D prototile's cells."""
        xs = [c[0] for c in self.cells]
        ys = [c[1] for c in self.cells]
        return (max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)


@dataclass(frozen=True)
class Placement:
    """One child in a definition body.

    In dimension 1: a child and a repeat that evaluates >= 1, concatenated
    in list order; offset is None. In dimension 2: one child at one offset,
    where its bounding-box min corner goes; repeat is 1.
    """

    child: str
    repeat: IntExpr = Lit(1)
    offset: Optional[tuple[IntExpr, IntExpr]] = None


@dataclass(frozen=True)
class SupertileDef:
    """A guarded definition `label = body if guard`."""

    label: str
    body: tuple[Placement, ...]
    guard: Guard = Always()


@dataclass(frozen=True)
class FusionRule:
    name: str
    dimension: int
    prototiles: tuple[Prototile, ...]
    definitions: tuple[SupertileDef, ...]

    def prototile_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.prototiles)

    def prototile(self, name: str) -> Prototile:
        for p in self.prototiles:
            if p.name == name:
                return p
        raise KeyError(name)

    @cached_property
    def _levels(self) -> dict[object, list]:
        # derived lists keyed by what they hold, each indexed by level; not
        # a dataclass field, so it takes no part in eq, hash or repr
        return {}

    @cached_property
    def _uses_dims(self) -> bool:
        # whether a repeat or offset reads w()/h(), so that resolving a level
        # needs the bounding boxes of the level below
        return any(_has_dim(e) for d in self.definitions for p in d.body for e in (p.repeat, *(p.offset or ())))


# Keeps threads that share a rule from appending one level twice.
_FILL_LOCK = threading.RLock()


def _level_rows(rule: FusionRule, key, n: int, row: Callable[[int, Any], Any]) -> list:
    """The rule's list `key`, filled through index n.

    Missing entries are appended in order, entry k built by row(k, entry
    k - 1) (None for k == 0), so any level costs a loop, not stack frames.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    rows = rule._levels.setdefault(key, [])
    if len(rows) <= n:
        with _FILL_LOCK:
            for k in range(len(rows), n + 1):
                rows.append(row(k, rows[-1] if rows else None))
    return rows


# ---------------------------------------------------------------------------
# Level resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedPlacement:
    child: str
    repeat: int
    offset: Optional[tuple[int, int]]


@dataclass(frozen=True)
class ResolvedSupertile:
    label: str
    body: tuple[ResolvedPlacement, ...]


@dataclass(frozen=True)
class LevelResolution:
    """The concrete supertile definitions active at one level.

    Level 0 lists the prototiles as degenerate supertiles with empty
    bodies. Supertile order is canonical: declaration order of the winning
    definitions, which fixes matrix row/column order everywhere else.
    """

    level: int
    supertiles: tuple[ResolvedSupertile, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.supertiles)

    def supertile(self, label: str) -> ResolvedSupertile:
        for s in self.supertiles:
            if s.label == label:
                return s
        raise KeyError(label)


def resolve_level(rule: FusionRule, n: int) -> LevelResolution:
    """Resolve the definitions active at level n.

    Among several definitions for the same label, the first whose guard
    holds wins. Repeats and offsets see the previous level's bounding boxes
    through w()/h(); the boxes are computed only for rules that use them.
    """

    def row(k: int, prev: LevelResolution) -> LevelResolution:
        if k == 0:
            return LevelResolution(0, tuple(ResolvedSupertile(p.name, ()) for p in rule.prototiles))
        children = set(prev.labels)
        dims = level_sizes(rule, k - 1) if rule._uses_dims else None
        taken: dict[str, ResolvedSupertile] = {}
        for d in rule.definitions:
            if d.label in taken or not eval_guard(d.guard, k):
                continue
            body = []
            for p in d.body:
                if p.child not in children:
                    raise UndefinedLabelError(p.child, k)
                r = eval_expr(p.repeat, k, dims)
                if r < 1:
                    raise InvalidRepeatError(d.label, k, r)
                off = None
                if p.offset is not None:
                    off = (eval_expr(p.offset[0], k, dims), eval_expr(p.offset[1], k, dims))
                body.append(ResolvedPlacement(p.child, r, off))
            taken[d.label] = ResolvedSupertile(d.label, tuple(body))
        if not taken:
            raise EmptyLevelError(k)
        return LevelResolution(k, tuple(taken.values()))

    return _level_rows(rule, "resolutions", n, row)[n]


def _fold_levels(rule: FusionRule, top: int, row: dict, fuse: Callable, bottom: int = 0, keep: Optional[list] = None):
    """Yield row, the values of the level-`bottom` supertiles, then per level
    k = bottom+1..top the row {label: fuse(body, level k-1 row)} over the
    level-k supertiles, or those in keep[k]. A loop holding two levels."""
    yield row
    for k in range(bottom + 1, top + 1):
        prev = row
        supertiles = resolve_level(rule, k).supertiles
        row = {s.label: fuse(s.body, prev) for s in supertiles if keep is None or s.label in keep[k]}
        yield row


def _entry(row: Mapping[str, Any], label: str, level: int) -> Any:
    """row[label] of a level's row; UnknownLabelError if the level lacks it."""
    if label not in row:
        raise UnknownLabelError(label, level, tuple(row))
    return row[label]


def level_sizes(rule: FusionRule, n: int) -> Mapping[str, tuple[int, int]]:
    """Bounding boxes (width, height) of every level-n supertile.

    A 1D box is (tile count, 1), as every tile is one cell. A 2D child spans
    [offset, offset + size) on each axis. Computed without expanding cells,
    so this stays cheap where expansions would be astronomically large.
    """
    if rule.dimension == 1:
        return {label: (count, 1) for label, count in _weighted_sums(rule, n, "tiles").items()}

    def row(k: int, prev) -> dict[str, tuple[int, int]]:
        if k == 0:
            return {p.name: p.size() for p in rule.prototiles}
        return {
            s.label: tuple(
                max(p.offset[a] + prev[p.child][a] for p in s.body) - min(p.offset[a] for p in s.body)
                for a in (0, 1)
            )
            for s in resolve_level(rule, k).supertiles
        }

    return _level_rows(rule, "sizes", n, row)[n]


# The level-0 weight of each list of per-label totals on the rule, in one
# table, so a key always sums the same weight.
_WEIGHTS = {"tiles": lambda p: 1, "cells": lambda p: len(p.cells), "volume": lambda p: p.volume}


def _weighted_sums(rule: FusionRule, n: int, key: str) -> dict[str, Any]:
    """Per-label totals of the prototile weight _WEIGHTS[key] over the
    level-n supertiles, kept in the rule's list `key`: tile counts, 2D cell
    counts or volumes.

    Level 0 is the weight of each prototile; each higher level sums repeat
    x child total over each body.
    """

    def row(k: int, prev) -> dict[str, Any]:
        if k == 0:
            return {p.name: _WEIGHTS[key](p) for p in rule.prototiles}
        return {
            s.label: sum(p.repeat * prev[p.child] for p in s.body)
            for s in resolve_level(rule, k).supertiles
        }

    return _level_rows(rule, key, n, row)[n]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    """A validation finding; level/label localize it when applicable."""

    code: str
    message: str
    level: Optional[int] = None
    label: Optional[str] = None

    def __str__(self) -> str:
        where = ""
        if self.level is not None:
            where += f" at level {self.level}"
        if self.label is not None:
            where += f" (label {self.label})"
        return f"{self.code}: {self.message}{where}"


# Row runs of a set of cells: row y -> its maximal x-runs (x0, x1), sorted.
# The one 2D geometry: validate_rule reads prototile shapes from them, and
# expand and analysis read expansions and van Hove bands.
Runs = dict[int, tuple[tuple[int, int], ...]]

# The row runs of the single cell (0, 0).
_UNIT: Runs = {0: ((0, 0),)}


def _join_runs(pieces) -> Optional[Runs]:
    """Row runs of the union of pieces (runs, dx, dy), each a set of cells
    moved by (dx, dy), connected or not; None if a piece's runs are None or
    if two pieces share a cell.

    Each row's runs are sorted by x0: one overlaps the runs before it if it
    starts at or before the end of the previous one, and joins it if it
    starts just after that end. The cost grows with the pieces' runs, not
    with their cells.
    """
    rows: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for runs, dx, dy in pieces:
        if runs is None:
            return None
        for y, row in runs.items():
            rows[y + dy].extend((x0 + dx, x1 + dx) for x0, x1 in row)
    out: Runs = {}
    for y in sorted(rows):
        row = sorted(rows[y])
        merged = [row[0]]
        for (_, end), (x0, x1) in zip(row, row[1:]):
            if x0 <= end:
                return None
            if x0 == end + 1:
                merged[-1] = (merged[-1][0], x1)
            else:
                merged.append((x0, x1))
        out[y] = tuple(merged)
    return out


def _runs_of(cells: Iterable[tuple[int, int]]) -> Optional[Runs]:
    """Row runs of a set of cells; None if a cell repeats."""
    return _join_runs([(_UNIT, x, y) for x, y in cells])


def _component_sizes(runs: Runs) -> list[int]:
    """Sizes of the edge-connected components of the cells with these runs.

    Runs of one row never touch, as they are maximal, so two runs are joined
    only where they overlap in x across adjacent rows, found by a merge of
    the two sorted rows. A union-find over the runs sums their lengths per
    class. The cost grows with the runs, not with the cells.
    """
    root: list[int] = []
    size: list[int] = []

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    start = 0
    for y in sorted(runs):
        below, start, row = start, len(root), runs[y]
        for x0, x1 in row:
            root.append(len(root))
            size.append(x1 - x0 + 1)
        if y - 1 in runs:
            prev = runs[y - 1]
            a = b = 0
            while a < len(prev) and b < len(row):
                (a0, a1), (b0, b1) = prev[a], row[b]
                if a0 <= b1 and b0 <= a1:
                    i, j = find(below + a), find(start + b)
                    if i != j:
                        root[i] = j
                        size[j] += size[i]
                if a1 < b1:
                    a += 1
                else:
                    b += 1
    return [size[i] for i in range(len(root)) if root[i] == i]


def _ispow_bases(guard: Guard) -> list[int]:
    if isinstance(guard, IsPow):
        return [guard.base]
    return [b for part in vars(guard).values() if isinstance(part, Guard) for b in _ispow_bases(part)]


def validate_rule(rule: FusionRule, depth: int = 64) -> list[Diagnostic]:
    """Check the structural invariants and resolve levels 1..depth.

    Returns diagnostics instead of raising so a caller can report several
    problems at once. Resolution stops at the first level that fails, since
    later levels depend on its label set.
    """
    out: list[Diagnostic] = []

    if rule.dimension not in (1, 2):
        out.append(Diagnostic("bad-dimension", f"dimension must be 1 or 2, got {rule.dimension}"))
        return out
    if not rule.prototiles:
        out.append(Diagnostic("no-prototiles", "rule declares no prototiles"))
    seen_names: set[str] = set()
    for p in rule.prototiles:
        if p.name in seen_names:
            out.append(Diagnostic("duplicate-prototile", f"prototile {p.name!r} declared twice"))
        seen_names.add(p.name)
        if p.volume <= 0:
            out.append(Diagnostic("bad-volume", f"prototile {p.name!r} has volume {p.volume}"))
        if rule.dimension == 1:
            if p.cells is not None:
                out.append(Diagnostic("bad-shape", f"1D prototile {p.name!r} must not declare cells"))
        else:
            if not p.cells:
                out.append(Diagnostic("bad-shape", f"prototile {p.name!r} has no cells"))
                continue
            if len(set(p.cells)) != len(p.cells):
                out.append(Diagnostic("bad-shape", f"prototile {p.name!r} repeats a cell"))
            elif len(_component_sizes(_runs_of(p.cells))) > 1:
                out.append(Diagnostic("bad-shape", f"prototile {p.name!r} is not edge-connected"))
            if min(x for x, _ in p.cells) != 0 or min(y for _, y in p.cells) != 0:
                out.append(Diagnostic("bad-shape", f"cells of prototile {p.name!r} are not anchored at min x = min y = 0"))

    for d in rule.definitions:
        if not d.body:
            out.append(Diagnostic("empty-body", f"definition of {d.label!r} has no placements", label=d.label))
        for base in _ispow_bases(d.guard):
            if base < 2:
                # eval_guard raises on such a base; report it with the rest
                out.append(Diagnostic("bad-ispow", f"ispow base must be >= 2, got {base}", label=d.label))
        for p in d.body:
            if rule.dimension == 1 and p.offset is not None:
                out.append(Diagnostic("offset-in-1d", f"1D placement of {p.child!r} carries an offset", label=d.label))
            if rule.dimension == 2 and p.repeat != Lit(1):
                out.append(Diagnostic("repeat-in-2d", f"2D placement of {p.child!r} carries a repeat", label=d.label))
            if rule.dimension == 2 and p.offset is None:
                out.append(Diagnostic("no-offset-in-2d", f"2D placement of {p.child!r} has no offset", label=d.label))

    if out:
        return out

    for n in range(1, depth + 1):
        try:
            resolve_level(rule, n)
        except EmptyLevelError:
            out.append(Diagnostic("empty-level", "no definition fires", level=n))
            break
        except UndefinedLabelError as e:
            out.append(Diagnostic("undefined-label", f"child {e.label!r} is not defined one level below", level=n, label=e.label))
            break
        except InvalidRepeatError as e:
            out.append(Diagnostic("invalid-repeat", f"repeat evaluates to {e.value}", level=n, label=e.label))
            break
        except NegativeExponentError as e:
            out.append(Diagnostic("negative-exponent", str(e), level=n))
            break
        except UnknownDimensionError as e:
            out.append(Diagnostic("unknown-dimension", f"w()/h() of unknown label {e.label!r}", level=n, label=e.label))
            break
    return out

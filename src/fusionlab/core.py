"""Data model for fusion rules and the level-resolution engine.

A fusion rule declares prototiles (level-0 tiles) and guarded definitions
that say how each level-n supertile is fused from level-(n-1) supertiles.
Guards are boolean predicates over the level variable n, so a single rule
text covers every level; resolving a level evaluates the guards and all
integer expressions (repeats, offsets) into concrete placements.

Building a rule compiles each of these trees into a flat postfix program
(_compile), which is also the check that the tree is well formed. One loop
(_run) evaluates a program and dsl writes it out, so no tree depth costs a
stack frame.

Rules are immutable. What is kept of a rule level by level (its
resolutions, tile/cell counts, volumes and, for 2D rules, bounding boxes)
lives in a private table on the rule object, lists filled by one loop up
to the highest level asked for and freed with the rule. Every other
bottom-up pass (matrices, row runs, word counts and ends, expansions) is
one fold, _fold_levels. Neither costs a stack frame per level. A
level-free rule (FusionRule._level_free) resolves every level from 2 up as
level 2, so its table stops at level 2: a fold reads level 2's supertiles
for every later level, and its counts and volumes are level 2's times a
power of the step into level 2 (_times_power). All arithmetic is exact:
Python integers for counts and sizes, fractions.Fraction for volumes.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Any, Callable, Iterable, Mapping, Optional, Union, get_args

from .errors import (
    EmptyLevelError,
    InvalidRepeatError,
    NegativeExponentError,
    UndefinedLabelError,
    UnknownDimensionError,
    UnknownLabelError,
    ValidationError,
    _frac_str,
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

    def __post_init__(self) -> None:
        if self.base < 2:
            # base 1 would loop forever in _run and base 0 divide by zero
            raise ValueError(f"ispow base must be >= 2, got {self.base}")


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


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def _pow(a: int, b: int) -> int:
    if b < 0:
        raise NegativeExponentError(b)
    return a**b


_NODES = get_args(IntExpr) + get_args(Guard)
_ARITHMETIC = ("+", "-", "*", "^")
_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
# The binary operators of programs, the only operator table.
_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "^": _pow,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compile(tree, guard: bool) -> tuple[tuple[str, Any], ...]:
    """The program of an expression, or of a guard when guard is True: its
    nodes in postfix order as (op, arg), read from an explicit stack, so
    depth costs no stack frames. ("lit", int), ("var", None), ("default",
    True) and ("dim", (label, 0 for w or 1 for h)) push a value, ("not",
    None) and ("ispow", base) replace it, and an operator of _OPS pops two.
    ("and", k) and ("or", k) stand between their operands, k being the
    length of the right one, skipped when the left one decides.

    It checks every tree of a rule: ValueError names the first node of the
    wrong kind, with an unknown operator, a literal or ispow base that is
    not an int (a bool is not) or a base below 2, or a malformed w()/h() or
    one in a guard.
    """
    program: list = []
    todo: list = [(tree, guard)]  # (node, whether a guard stands there), or (op, None/"open"/"close")
    while todo:
        node, kind = todo.pop()
        cls = type(node)
        if kind is None:  # an op whose operands are in place
            program.append(node)
        elif cls is Lit and not kind and type(node.value) is int:
            program.append(("lit", node.value))
        elif cls is Var and not kind:
            program.append(("var", None))
        elif cls is Dim and not kind and not guard and node.axis in ("w", "h") and type(node.label) is str:
            program.append(("dim", (node.label, "wh".index(node.axis))))
        elif cls is BinOp and not kind and node.op in _ARITHMETIC or cls is Cmp and kind and node.op in _COMPARISONS:
            todo += ((node.op, None), None), (node.right, False), (node.left, False)
        elif cls is Always and kind:
            program.append(("default", True))
        elif cls is IsPow and kind and type(node.base) is int and node.base >= 2:
            todo += (("ispow", node.base), None), (node.exponent, False)
        elif cls is Not and kind:
            todo += (("not", None), None), (node.operand, True)
        elif (cls is And or cls is Or) and kind:
            todo += (node.right, True), (cls.__name__.lower(), "open"), (node.left, True)
        elif kind == "open":  # an "and"/"or", closed where its right operand, next on todo, ends
            todo.insert(-1, (len(program), "close"))
            program.append(node)
        elif kind == "close":
            program[node] = (program[node], len(program) - node - 1)
        else:  # named without its subtrees, as a repr walks the whole tree
            fields = ", ".join("…" if type(v) in _NODES else repr(v) for v in vars(node).values()) if cls in _NODES else ""
            shown = f"{cls.__name__}({fields})" if cls in _NODES else repr(node)
            raise ValueError(f"{shown} cannot stand in {'a guard' if guard else 'an integer expression'}")
    return tuple(program)


def _run(program: tuple, n: int, dims: Optional[Mapping[str, tuple[int, int]]] = None):
    """The value of a program (see _compile) at level n; dims as for eval_expr.
    The top of the stack is held in `top`, the rest on `stack`."""
    stack: list = []
    top = None
    ops = iter(program)
    for op, arg in ops:
        if op == "lit" or op == "var" or op == "default":
            stack.append(top)
            top = n if op == "var" else arg
        elif op in _OPS:
            top = _OPS[op](stack.pop(), top)
        elif op == "dim":
            if dims is None or arg[0] not in dims:
                raise UnknownDimensionError(arg[0])
            stack.append(top)
            top = dims[arg[0]][arg[1]]
        elif op == "ispow":  # base**m for some m >= 1
            v = top
            while v >= arg and v % arg == 0:
                v //= arg
            top = v == 1 and top >= arg
        elif op == "not":
            top = not top
        elif top is (op == "or"):  # an "and"/"or" whose left operand decides: skip the right one
            next(islice(ops, arg, arg), None)
        else:
            top = stack.pop()
    return top


def eval_expr(expr: IntExpr, n: int, dims: Optional[Mapping[str, tuple[int, int]]] = None) -> int:
    """Evaluate an integer expression at level n.

    dims maps a label to its (width, height) one level below; it is only
    consulted for w()/h() nodes. Exponents must evaluate >= 0. A malformed
    tree raises ValueError (see _compile).
    """
    return _run(_compile(expr, False), n, dims)


def eval_guard(guard: Guard, n: int) -> bool:
    """Evaluate a guard at level n. Guards see only n, never dimensions."""
    return _run(_compile(guard, True), n)


def _has_dim(program: tuple) -> bool:
    return any(op == "dim" for op, _ in program)

# ---------------------------------------------------------------------------
# Rule structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prototile:
    """A level-0 tile.

    In dimension 1 every tile is one cell, so a supertile's length is its
    tile count, and cells stays None. In dimension 2 the prototile is its
    cells, a polyomino sorted by (x, y) and anchored at min x = min y = 0;
    a FusionRule rejects a 2D prototile whose cells are None or empty,
    repeat a cell, are not edge-connected or are not so anchored.
    volume is an int or Fraction, stored as a Fraction, and a FusionRule
    rejects any other type, a bool included; left None, it becomes the
    cell count of a prototile with cells (2D) and 1 otherwise, as the
    parser reads an omitted volume.
    """

    name: str
    volume: Optional[Fraction] = None
    cells: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        volume = self.volume
        if volume is None:
            volume = len(self.cells) if self.cells else 1
        if type(volume) is int:  # not a bool, which _structure rejects
            object.__setattr__(self, "volume", Fraction(volume))

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
    """A fusion rule whose structure is valid: building one, directly or by
    dataclasses.replace, raises ValidationError with every structural
    Diagnostic (see _structure). Whether each level resolves is a question
    for validate_rule, as it depends on the level.
    """

    name: str
    dimension: int
    prototiles: tuple[Prototile, ...]
    definitions: tuple[SupertileDef, ...]

    def __post_init__(self) -> None:
        diagnostics, programs = _structure(self)
        if diagnostics:
            raise ValidationError(diagnostics)
        # per definition, the programs of its guard and of each placement's
        # repeat and offset; not a field, so outside eq, hash and repr
        object.__setattr__(self, "_programs", programs)

    def prototile_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.prototiles)

    def prototile(self, name: str) -> Prototile:
        for p in self.prototiles:
            if p.name == name:
                return p
        raise KeyError(name)

    @cached_property
    def _levels(self) -> dict[object, list]:
        # derived lists keyed by what they hold, each indexed by level, and
        # for a level-free rule the (level, totals) that _weighted_sums last
        # powered to, under (key, "last"); not a dataclass field, so it
        # takes no part in eq, hash or repr
        return {}

    @cached_property
    def _uses_dims(self) -> bool:
        # whether a repeat or offset reads w()/h(), so that resolving a level
        # needs the bounding boxes of the level below
        return any(_has_dim(e) for _, _, body in self._programs for _, repeat, offset in body for e in (repeat, *(offset or ())))

    @cached_property
    def _level_free(self) -> bool:
        # whether no guard, repeat or offset reads n or w()/h(), so that every
        # level from 2 up resolves as level 2 does, as a substitution's levels
        # do: the rule's guards pick the same definitions at every level, and
        # level 2's children are level 1's labels, as each later level's are
        return not any(
            op == "var" or op == "dim"
            for _, guard, body in self._programs
            for program in (guard, *(e for _, repeat, offset in body for e in (repeat, *(offset or ()))))
            for op, _ in program
        )


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
    A level-free rule (FusionRule._level_free) keeps levels 0..2 only, and
    any level above 2 is level 2's supertiles under its own number.
    """

    def row(k: int, prev: LevelResolution) -> LevelResolution:
        if k == 0:
            return LevelResolution(0, tuple(ResolvedSupertile(p.name, ()) for p in rule.prototiles))
        children = {s.label for s in prev.supertiles}
        dims = level_sizes(rule, k - 1) if rule._uses_dims else None
        taken: dict[str, ResolvedSupertile] = {}
        for label, guard, programs in rule._programs:
            if label in taken or not _run(guard, k):
                continue
            body = []
            for child, repeat, offset in programs:
                if child not in children:
                    raise UndefinedLabelError(child, k)
                r = _run(repeat, k, dims)
                if r < 1:
                    raise InvalidRepeatError(label, k, r)
                off = None
                if offset is not None:
                    off = (_run(offset[0], k, dims), _run(offset[1], k, dims))
                body.append(ResolvedPlacement(child, r, off))
            taken[label] = ResolvedSupertile(label, tuple(body))
        if not taken:
            raise EmptyLevelError(k)
        return LevelResolution(k, tuple(taken.values()))

    if rule._level_free and n > 2:
        # levels 0..2 resolve in order, so a failure raises from its own level
        return LevelResolution(n, _level_rows(rule, "resolutions", 2, row)[2].supertiles)
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
    [offset, offset + size) on each axis; every body places a child, as
    FusionRule checks. Computed without expanding cells, so this stays
    cheap where expansions would be astronomically large.
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
    x child total over each body. A level-free rule keeps levels 0..2, and
    its level-n totals are level k's times S^(n-k), S the step into level
    2, from k = 2 or from the level it was last asked for, if that is not
    above n, kept as one entry (level, totals) under (key, "last"): a sweep
    up the levels, as van_hove_diagnostic's, then costs one product per
    level, and a single deep level about log2(n) products.
    """

    def row(k: int, prev) -> dict[str, Any]:
        if k == 0:
            return {p.name: _WEIGHTS[key](p) for p in rule.prototiles}
        return {
            s.label: sum(p.repeat * prev[p.child] for p in s.body)
            for s in resolve_level(rule, k).supertiles
        }

    if not rule._level_free or n <= 2:
        return _level_rows(rule, key, n, row)[n]
    k, sums = rule._levels.get((key, "last"), (2, None))
    if k > n or sums is None:
        k, sums = 2, _level_rows(rule, key, 2, row)[2]
    if k < n:
        sums = dict(zip(sums, _times_power((tuple(sums.values()),), _step_rows(rule, 2), n - k)[0]))
        rule._levels[key, "last"] = (n, sums)
    return sums


def _step_rows(rule: FusionRule, k: int) -> list[list[int]]:
    """The step matrix S from level k-1 into level k (k >= 1), as fresh row
    lists: S[i][j] sums the repeats of level-(k-1) label i in the body of
    level-k supertile j, so M[n -> k] = M[n -> k-1] . S."""
    index = {label: i for i, label in enumerate(resolve_level(rule, k - 1).labels)}
    supertiles = resolve_level(rule, k).supertiles
    rows = [[0] * len(supertiles) for _ in index]
    for j, s in enumerate(supertiles):
        for p in s.body:
            rows[index[p.child]][j] += p.repeat
    return rows


def _product(a, b) -> tuple[tuple[Any, ...], ...]:
    """Entries of the matrix product a . b, each matrix given by its rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def _times_power(m, s, p: int) -> tuple:
    """Entries of m . s^p (p >= 0), squaring s once per bit of p."""
    while p:
        if p & 1:
            m = _product(m, s)
        p >>= 1
        if p:
            s = _product(s, s)
    return m


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
# The one 2D geometry: FusionRule checks prototile shapes with them, and
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


def _structure(rule: FusionRule) -> tuple[list[Diagnostic], Optional[tuple]]:
    """The structural faults of a rule, which no level changes: its
    dimension, prototiles (names, volumes, shapes), empty bodies, children
    that are not labels, placements with an offset or a repeat the
    dimension does not have, trees that do not compile and h() in dimension
    1; and the programs FusionRule keeps, compiled on the way.
    """
    out: list[Diagnostic] = []

    def compiled(tree, guard: bool, label):
        try:
            program = _compile(tree, guard)
        except ValueError as e:
            out.append(Diagnostic("bad-guard" if guard else "bad-expr", str(e), label=label))
            return None
        if rule.dimension == 1 and not guard and any(op == "dim" and arg[1] for op, arg in program):
            out.append(Diagnostic("bad-expr", "h() is only available in dimension 2", label=label))
        return program

    if rule.dimension not in (1, 2):
        out.append(Diagnostic("bad-dimension", f"dimension must be 1 or 2, got {rule.dimension}"))
        return out, None
    if not rule.prototiles:
        out.append(Diagnostic("no-prototiles", "rule declares no prototiles"))
    seen_names: set[str] = set()
    for p in rule.prototiles:
        if p.name in seen_names:
            out.append(Diagnostic("duplicate-prototile", f"prototile {p.name!r} declared twice"))
        seen_names.add(p.name)
        v = p.volume
        if not isinstance(v, Fraction) or v <= 0:
            # a float or bool is named by the rational it holds, anything else by repr
            number = isinstance(v, (Fraction, bool)) or isinstance(v, float) and math.isfinite(v)
            kind = "" if number and v <= 0 else f", a {type(v).__name__}, not an int or Fraction"
            out.append(Diagnostic("bad-volume", f"prototile {p.name!r} has volume {_frac_str(Fraction(v)) if number else repr(v)}{kind}"))
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

    programs = []
    for d in rule.definitions:
        if not d.body:
            out.append(Diagnostic("empty-body", f"definition of {d.label!r} has no placements", label=d.label))
        body = []
        for p in d.body:
            if type(p.child) is not str:
                out.append(Diagnostic("bad-child", f"placement child {p.child!r} is not a label", label=d.label))
            offset = None if p.offset is None else tuple([compiled(e, False, d.label) for e in p.offset])
            body.append((p.child, compiled(p.repeat, False, d.label), offset))
            if rule.dimension == 1 and p.offset is not None:
                out.append(Diagnostic("offset-in-1d", f"1D placement of {p.child!r} carries an offset", label=d.label))
            if rule.dimension == 2 and p.repeat != Lit(1):
                out.append(Diagnostic("repeat-in-2d", f"2D placement of {p.child!r} carries a repeat", label=d.label))
            if rule.dimension == 2 and p.offset is None:
                out.append(Diagnostic("no-offset-in-2d", f"2D placement of {p.child!r} has no offset", label=d.label))
        programs.append((d.label, compiled(d.guard, True, d.label), tuple(body)))

    return out, tuple(programs)


def validate_rule(rule: FusionRule, depth: int = 64) -> list[Diagnostic]:
    """Resolve levels 1..depth of a rule whose structure its constructor
    has checked (see FusionRule).

    Returns diagnostics instead of raising so a caller can report the
    failing level and label. Resolution stops at the first level that
    fails, since later levels depend on its label set. A level-free rule
    (FusionRule._level_free) serves every level above 2 from level 2's
    resolution, so it keeps three resolved levels at any depth.
    """
    out: list[Diagnostic] = []
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

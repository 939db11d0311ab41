"""Data model for fusion rules and the level-resolution engine.

A fusion rule declares prototiles (level-0 tiles) and guarded definitions
that say how each level-n supertile is fused from level-(n-1) supertiles.
Guards are boolean predicates over the level variable n, so a single rule
text covers every level; resolving a level evaluates the guards and all
integer expressions (repeats, offsets) into concrete placements.

Rules are immutable. What is derived from a rule level by level (its
resolutions, bounding boxes, tile/cell counts and volumes) lives in a
private table on the rule object, as lists indexed by level. A list is
filled by a loop up to the highest level asked for, so no level costs a
stack frame, and the table is freed with its rule. All arithmetic is exact:
Python integers for counts and sizes, fractions.Fraction for volumes.
"""

from __future__ import annotations

import threading
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

    In dimension 1 the shape is a cell length (the file format always
    yields 1; other lengths are reachable programmatically). In dimension 2
    the shape is a polyomino given as cells sorted by (x, y); constructors
    should pass cells with min x = min y = 0.
    volume defaults to 1 in 1D and to the cell count in 2D.
    """

    name: str
    volume: Fraction = Fraction(1)
    cells: Optional[tuple[tuple[int, int], ...]] = None
    length: int = 1

    def size(self) -> tuple[int, int]:
        """Bounding-box (width, height) in cells."""
        if self.cells is None:
            return (self.length, 1)
        xs = [c[0] for c in self.cells]
        ys = [c[1] for c in self.cells]
        return (max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)


@dataclass(frozen=True)
class Placement:
    """One child in a definition body: child label, repeat, optional offset.

    offset is None exactly in dimension 1, where list order is the
    concatenation order. repeat must evaluate >= 1 wherever the enclosing
    definition is active.
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
    holds wins. Repeats and offsets are evaluated with the previous level's
    bounding boxes available through w()/h().
    """

    def row(k: int, _) -> LevelResolution:
        if k == 0:
            return LevelResolution(0, tuple(ResolvedSupertile(p.name, ()) for p in rule.prototiles))
        dims = level_sizes(rule, k - 1)
        taken: dict[str, ResolvedSupertile] = {}
        for d in rule.definitions:
            if d.label in taken or not eval_guard(d.guard, k):
                continue
            body = []
            for p in d.body:
                if p.child not in dims:
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


def level_sizes(rule: FusionRule, n: int) -> Mapping[str, tuple[int, int]]:
    """Bounding boxes (width, height) of every level-n supertile.

    Computed from placements without expanding cells, so this stays cheap
    even where expansions would be astronomically large.
    """

    def row(k: int, prev) -> dict[str, tuple[int, int]]:
        if k == 0:
            return {p.name: p.size() for p in rule.prototiles}
        out: dict[str, tuple[int, int]] = {}
        for s in resolve_level(rule, k).supertiles:
            if rule.dimension == 1:
                out[s.label] = (sum(p.repeat * prev[p.child][0] for p in s.body), 1)
            else:
                # children are anchored at their bbox min corner, so each spans
                # [off, off + size) per axis
                xs = []
                ys = []
                for p in s.body:
                    ox, oy = p.offset if p.offset is not None else (0, 0)
                    w, h = prev[p.child]
                    xs.append((ox, ox + w))
                    ys.append((oy, oy + h))
                out[s.label] = (
                    max(b for _, b in xs) - min(a for a, _ in xs),
                    max(b for _, b in ys) - min(a for a, _ in ys),
                )
        return out

    return _level_rows(rule, "sizes", n, row)[n]


def _weighted_sums(rule: FusionRule, n: int, key: str, weight: Callable[[Prototile], Any]) -> dict[str, Any]:
    """Per-label totals of a prototile weight over the level-n supertiles,
    kept in the rule's list `key`: tile counts, cell counts or volumes.

    Level 0 is the weight of each prototile; each higher level sums repeat
    x child total over each body.
    """

    def row(k: int, prev) -> dict[str, Any]:
        if k == 0:
            return {p.name: weight(p) for p in rule.prototiles}
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


def _component_sizes(cells: Iterable[tuple[int, int]]) -> list[int]:
    """Sizes of the edge-connected components of a set of cells."""
    rest = set(cells)
    sizes = []
    while rest:
        stack = [rest.pop()]
        size = 0
        while stack:
            x, y = stack.pop()
            size += 1
            for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if c in rest:
                    rest.remove(c)
                    stack.append(c)
        sizes.append(size)
    return sizes


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
            if p.length < 1:
                out.append(Diagnostic("bad-shape", f"1D prototile {p.name!r} has length {p.length}"))
        else:
            cells = p.cells if p.cells is not None else ((0, 0),)
            if not cells:
                out.append(Diagnostic("bad-shape", f"prototile {p.name!r} has no cells"))
                continue
            if len(set(cells)) != len(cells):
                out.append(Diagnostic("bad-shape", f"prototile {p.name!r} repeats a cell"))
            elif len(_component_sizes(cells)) > 1:
                out.append(Diagnostic("bad-shape", f"prototile {p.name!r} is not edge-connected"))
            if min(x for x, _ in cells) != 0 or min(y for _, y in cells) != 0:
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

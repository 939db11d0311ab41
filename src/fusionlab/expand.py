"""Materialize supertiles as label sequences (1D) or cell grids (2D).

Expansions are exact and validated: a 2D result must cover every cell at
most once (tiles meet only along edges) and must be edge-connected. Sizes
are predicted from counts before anything is allocated, so asking for an
astronomically large supertile fails fast instead of exhausting memory.

A 2D patch is stored two ways at once: as placed tiles (anchor position +
label, the faithful notion for counting occurrences) and as the derived
cell->label map (useful for rendering and boundary geometry). 1D patches
are plain label sequences; words are counted and searched for without
expanding anything (see _word_rows).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Optional, Union

from .core import FusionRule, _component_sizes, _weighted_sums, resolve_level
from .errors import (
    DisconnectedError,
    ExpansionTooLargeError,
    OverlapError,
)

Cell = tuple[int, int]


@dataclass(frozen=True)
class ExpansionBudget:
    """Cap on the number of cells an expansion may touch."""

    max_cells: int = 10**7


DEFAULT_BUDGET = ExpansionBudget()

# Characters assigned to labels, in declaration order, when prototile names
# are not single characters themselves.
_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

# Fill colors for renderSVG, cycled by label index.
_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759",
    "#b07aa1", "#edc948", "#76b7b2", "#ff9da7",
    "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)


@dataclass(frozen=True)
class CellPatch:
    """A finite patch: 1D label sequence or 2D labeled cells.

    2D patches are anchored (min x = min y = 0). tiles records the placed
    prototiles as (anchor, label) pairs when the decomposition is known
    (always, for expansions); cells is the per-cell label map derived from
    it. Patches built directly from unit cells get one tile per cell.
    """

    dimension: int
    labels: Optional[tuple[str, ...]] = None
    cells: Optional[tuple[tuple[Cell, str], ...]] = None
    tiles: Optional[tuple[tuple[Cell, str], ...]] = None

    @staticmethod
    def from_word(labels) -> "CellPatch":
        labels = tuple(labels)
        if not labels:
            raise ValueError("empty patch")
        return CellPatch(1, labels=labels)

    @staticmethod
    def from_cells(cells: Mapping[Cell, str]) -> "CellPatch":
        """2D patch of unit tiles, one per labeled cell; normalized and
        validated connected."""
        if not cells:
            raise ValueError("empty patch")
        minx = min(x for x, _ in cells)
        miny = min(y for _, y in cells)
        norm = tuple(sorted(((x - minx, y - miny), lab) for (x, y), lab in cells.items()))
        _check_connected(c for c, _ in norm)
        return CellPatch(2, cells=norm, tiles=norm)

    @staticmethod
    def from_tiles(rule: FusionRule, tiles) -> "CellPatch":
        """2D patch from placed prototiles (anchor, label); overlap-checked,
        connectivity-checked, anchor-normalized."""
        tiles = tuple(tiles)
        if not tiles:
            raise ValueError("empty patch")
        minx = min(x for (x, _), _ in tiles)
        miny = min(y for (_, y), _ in tiles)
        tiles = tuple(((x - minx, y - miny), lab) for (x, y), lab in tiles)
        cells = _paint_cells(rule, tiles)
        _check_connected(c for c, _ in cells)
        return CellPatch(2, cells=cells, tiles=tiles)

    def cell_count(self) -> int:
        return len(self.labels) if self.dimension == 1 else len(self.cells)

    def grid(self) -> dict[Cell, str]:
        if self.dimension != 2:
            raise ValueError("grid() is for 2D patches")
        return dict(self.cells)

    def size(self) -> tuple[int, int]:
        """Bounding box (width, height); 1D height is 1."""
        if self.dimension == 1:
            return (len(self.labels), 1)
        xs = [c[0] for c, _ in self.cells]
        ys = [c[1] for c, _ in self.cells]
        return (max(xs) + 1, max(ys) + 1)


def _prototile_cells(rule: FusionRule, label: str) -> tuple[Cell, ...]:
    p = rule.prototile(label)
    return p.cells if p.cells is not None else ((0, 0),)


def _paint_cells(rule: FusionRule, tiles) -> tuple[tuple[Cell, str], ...]:
    """Cell map of placed tiles; OverlapError names the two tile indices
    that claim the same cell."""
    seen: dict[Cell, int] = {}
    out = []
    for idx, ((ax, ay), lab) in enumerate(tiles):
        for cx, cy in _prototile_cells(rule, lab):
            cell = (ax + cx, ay + cy)
            if cell in seen:
                raise OverlapError(seen[cell], idx, cell)
            seen[cell] = idx
            out.append((cell, lab))
    return tuple(sorted(out))


def _check_connected(cells: Iterable[Cell]) -> None:
    sizes = _component_sizes(cells)
    if len(sizes) > 1:
        raise DisconnectedError(tuple(sorted(sizes, reverse=True)))


def tile_count(rule: FusionRule, level: int, label: str) -> int:
    """Number of level-0 tiles in the supertile, without expanding."""
    return _weighted_sums(rule, level, "tiles", lambda p: 1)[label]


def cell_count(rule: FusionRule, level: int, label: str) -> int:
    """Number of cells the expanded supertile would occupy."""
    return _weighted_sums(rule, level, "cells", lambda p: len(p.cells) if p.cells is not None else p.length)[label]


def expand_supertile(
    rule: FusionRule,
    level: int,
    label: str,
    budget: Optional[ExpansionBudget] = None,
) -> CellPatch:
    """Fully expand one supertile into a concrete patch.

    One loop over levels, like _word_rows: walking down collects the labels
    each level must supply, then level k is built from level k-1 only, so a
    call holds two levels and no level costs a stack frame. A 2D child is
    translated by its offset minus the body's smallest offset on each axis,
    so every supertile is anchored at its bounding-box min corner, the box
    that level_sizes and w()/h() measure.
    """
    budget = budget or DEFAULT_BUDGET
    predicted = cell_count(rule, level, label)
    if predicted > budget.max_cells:
        raise ExpansionTooLargeError(predicted, budget.max_cells)

    needed = [{label}]  # labels per level, from the top down
    for k in range(level, 0, -1):
        res = resolve_level(rule, k)
        needed.append({p.child for lab in needed[-1] for p in res.supertile(lab).body})
    needed.reverse()
    if rule.dimension == 1:
        fuse, row = _fuse_words, {lab: (lab,) for lab in needed[0]}
    else:
        fuse, row = _fuse_tiles, {lab: (((0, 0), lab),) for lab in needed[0]}
    for k in range(1, level + 1):
        res = resolve_level(rule, k)
        row = {lab: fuse(res.supertile(lab).body, row) for lab in needed[k]}
    if rule.dimension == 1:
        return CellPatch(1, labels=row[label])
    return CellPatch.from_tiles(rule, row[label])


def _fuse_words(body, prev) -> tuple[str, ...]:
    return tuple(chain.from_iterable(prev[p.child] * p.repeat for p in body))


def _fuse_tiles(body, prev) -> tuple[tuple[Cell, str], ...]:
    offsets = [p.offset or (0, 0) for p in body]
    minx, miny = map(min, zip(*offsets))
    out = []
    for p, (ox, oy) in zip(body, offsets):
        dx, dy = ox - minx, oy - miny
        for _ in range(p.repeat):
            out.extend(((x + dx, y + dy), lab) for (x, y), lab in prev[p.child])
    return tuple(out)


def tile_census(patch: CellPatch) -> dict[str, int]:
    """How many tiles of each label the patch contains."""
    seq = patch.labels if patch.dimension == 1 else patch.tiles
    if seq is None:
        raise ValueError("patch has no tile decomposition")
    if patch.dimension == 1:
        return dict(Counter(seq))
    return dict(Counter(lab for _, lab in seq))


# ---------------------------------------------------------------------------
# Words and characters
# ---------------------------------------------------------------------------


def label_chars(rule: FusionRule) -> dict[str, str]:
    """Deterministic label -> single character table.

    Prototile names that are already single characters name themselves;
    otherwise characters are assigned by declaration order.
    """
    names = rule.prototile_names()
    if all(len(n) == 1 for n in names):
        return {n: n for n in names}
    if len(names) > len(_ALPHABET):
        raise ValueError("too many prototiles for a character table")
    return {n: _ALPHABET[i] for i, n in enumerate(names)}


def word_string(rule: FusionRule, labels) -> str:
    """Render a label sequence as a word over the rule's character table."""
    table = label_chars(rule)
    return "".join(table[lab] for lab in labels)


def parse_word(rule: FusionRule, text: str) -> tuple[str, ...]:
    """Inverse of word_string; also accepts whitespace-separated label names."""
    if not text.strip():
        raise ValueError("empty word")
    if any(ch.isspace() for ch in text.strip()):
        names = set(rule.prototile_names())
        out = []
        for part in text.split():
            if part not in names:
                raise ValueError(f"unknown label {part!r}")
            out.append(part)
        return tuple(out)
    inverse = {ch: lab for lab, ch in label_chars(rule).items()}
    out = []
    for ch in text:
        if ch not in inverse:
            raise ValueError(f"unknown label character {ch!r}")
        out.append(inverse[ch])
    return tuple(out)


# ---------------------------------------------------------------------------
# Prefixes, suffixes and word counts without expansion
# ---------------------------------------------------------------------------


def _cross_count(left: tuple[str, ...], right: tuple[str, ...], word: tuple[str, ...]) -> tuple[int, Optional[int]]:
    """Occurrences of word inside left+right that straddle the boundary, and
    the start of the first one (None if there is none)."""
    window = left + right
    m = len(word)
    cut = len(left)
    starts = [i for i in range(max(0, cut - m + 1), min(cut, len(window) - m + 1)) if window[i : i + m] == word]
    return len(starts), (starts[0] if starts else None)


def _word_rows(rule: FusionRule, word: Union[str, tuple[str, ...]], top: int):
    """Yield, per level 0..top, each supertile's (occurrences of the word,
    start of the first occurrence or None); nothing is expanded.

    A level is a left fold over each body that reads the children's rows and
    their first and last |word|-1 labels. At each seam it adds the windows
    that start left of the seam and end in the new piece, using the running
    suffix, so a window across several short children is counted once, at
    the seam where its last piece begins. Within a run of copies the suffix
    stops changing after at most |word| copies, and from then on each copy
    adds the same count: 10^300 copies cost one multiplication. tile_count
    places the first occurrence, once per supertile. The fold builds the
    supertile's own ends as it goes, so nothing is kept on the rule and a
    call holds two levels at a time.
    """
    labels = parse_word(rule, word) if isinstance(word, str) else tuple(word)
    if not labels:
        raise ValueError("empty word")
    keep = len(labels) - 1
    row = {lab: (1, 0) if labels == (lab,) else (0, None) for lab in rule.prototile_names()}
    ends = {lab: ((lab,)[:keep], (lab,)[:keep]) for lab in row}
    if top >= 0:
        yield row
    for k in range(1, top + 1):
        prev, prev_ends, row, ends = row, ends, {}, {}
        for s in resolve_level(rule, k).supertiles:
            count, first, head, tail = 0, None, (), ()
            for j, p in enumerate(s.body):
                inside, at = prev[p.child]
                child_head, child_tail = prev_ends[p.child]
                for copy in range(p.repeat):
                    crossing, cross_at = _cross_count(tail, child_head, labels)
                    if first is None and (crossing or inside):
                        # where this copy starts; summed only here, as the
                        # sizes can be huge and are needed just this once
                        start = copy * tile_count(rule, k - 1, p.child)
                        start += sum(q.repeat * tile_count(rule, k - 1, q.child) for q in s.body[:j])
                        first = start + (cross_at - len(tail) if crossing else at)
                    count += crossing + inside
                    head = (head + child_head)[:keep]
                    joined = tail + child_tail
                    joined = joined[max(0, len(joined) - keep) :]
                    if joined == tail:
                        # the next copies see this same suffix, and the
                        # head is full by now
                        count += (p.repeat - copy - 1) * (crossing + inside)
                        break
                    tail = joined
            row[s.label] = (count, first)
            ends[s.label] = (head, tail)
        yield row


def prefix_suffix(rule: FusionRule, level: int, label: str, length: int) -> tuple[str, str]:
    """First and last min(length, size) labels of the expansion, as words.

    Built level by level from the children's ends, so it works at levels
    whose full expansion is far beyond any budget. A call holds two levels
    at a time and keeps nothing on the rule.
    """
    if rule.dimension != 1:
        raise ValueError("prefix_suffix is for 1D rules")
    if length < 1:
        raise ValueError("length must be >= 1")
    if level < 0:
        raise ValueError("level must be >= 0")

    def head(parts) -> tuple[str, ...]:
        # the first `length` labels of the (piece, repeat) runs; every copy
        # adds a label, so no run needs more than `length` copies
        out: list[str] = []
        for piece, repeat in parts:
            for _ in range(min(repeat, length)):
                out.extend(piece)
                if len(out) >= length:
                    return tuple(out[:length])
        return tuple(out)

    ends = {lab: ((lab,), (lab,)) for lab in rule.prototile_names()}
    for k in range(1, level + 1):
        ends = {
            # a suffix is the reversed head of the reversed children
            s.label: (
                head((ends[p.child][0], p.repeat) for p in s.body),
                head((ends[p.child][1][::-1], p.repeat) for p in reversed(s.body))[::-1],
            )
            for s in resolve_level(rule, k).supertiles
        }
    pre, suf = ends[label]
    return (word_string(rule, pre), word_string(rule, suf))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityResult:
    found: bool
    level: Optional[int] = None
    label: Optional[str] = None
    position: Optional[tuple[int, ...]] = None  # (index,) in 1D, (x, y) in 2D
    searched_levels: int = 0


def occurrences_2d(patch: CellPatch, inside: CellPatch) -> list[Cell]:
    """Translations t with patch + t contained in inside.

    Matches placed tiles against placed tiles when both decompositions are
    known (faithful counting even where same-label tiles touch); otherwise
    falls back to matching the cell maps.
    """
    if patch.tiles is not None and inside.tiles is not None:
        have = set(inside.tiles)
        (ax, ay), alab = patch.tiles[0]
        rest = patch.tiles[1:]
        hits = []
        for (bx, by), blab in inside.tiles:
            if blab != alab:
                continue
            t = (bx - ax, by - ay)
            if all(((x + t[0], y + t[1]), lab) in have for (x, y), lab in rest):
                hits.append(t)
        return sorted(hits)
    grid = inside.grid()
    (ax, ay), alab = patch.cells[0]
    rest = patch.cells[1:]
    hits = []
    for (bx, by), blab in grid.items():
        if blab != alab:
            continue
        t = (bx - ax, by - ay)
        if all(grid.get((x + t[0], y + t[1])) == lab for (x, y), lab in rest):
            hits.append(t)
    return sorted(hits)


def is_admissible(
    rule: FusionRule,
    patch: Union[CellPatch, str],
    max_level: int,
    budget: Optional[ExpansionBudget] = None,
) -> AdmissibilityResult:
    """Search the supertiles, level by level and in label order, for the patch.

    A 1D word is found from the word counts of one bottom-up pass, never by
    expanding, and its position is the first occurrence (as str.find). A 2D
    patch is matched against each supertile's expansion, within budget. A
    miss only means "not found up to max_level"; it is not a proof of
    inadmissibility.
    """
    if isinstance(patch, str):
        if rule.dimension != 1:
            raise ValueError("word admissibility is for 1D rules")
        patch = CellPatch.from_word(parse_word(rule, patch))
    if patch.dimension != rule.dimension:
        raise ValueError("patch dimension does not match the rule")
    if patch.dimension == 1:
        for level, row in enumerate(_word_rows(rule, word_string(rule, patch.labels), max_level)):
            for label, (count, first) in row.items():
                if count:
                    return AdmissibilityResult(True, level, label, (first,), level + 1)
        return AdmissibilityResult(False, searched_levels=max_level + 1)
    for level in range(0, max_level + 1):
        for label in resolve_level(rule, level).labels:
            hits = occurrences_2d(patch, expand_supertile(rule, level, label, budget))
            if hits:
                return AdmissibilityResult(True, level, label, hits[0], level + 1)
    return AdmissibilityResult(False, searched_levels=max_level + 1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _patch_table(patch: CellPatch, rule: Optional[FusionRule]) -> dict[str, str]:
    if rule is not None:
        return label_chars(rule)
    if patch.dimension == 1:
        labs = sorted(set(patch.labels))
    else:
        labs = sorted({lab for _, lab in patch.cells})
    if all(len(lab) == 1 for lab in labs):
        return {lab: lab for lab in labs}
    return {lab: _ALPHABET[i] for i, lab in enumerate(labs)}


def render_text(patch: CellPatch, rule: Optional[FusionRule] = None) -> str:
    """1D: the word itself. 2D: one text row per y (top = max y), `.` for
    empty cells."""
    table = _patch_table(patch, rule)
    if patch.dimension == 1:
        return "".join(table[lab] for lab in patch.labels)
    grid = patch.grid()
    width, height = patch.size()
    rows = []
    for y in range(height - 1, -1, -1):
        rows.append("".join(
            table[grid[(x, y)]] if (x, y) in grid else "."
            for x in range(width)
        ))
    return "\n".join(rows)


def render_svg(
    patch: CellPatch,
    cell_size: int = 16,
    rule: Optional[FusionRule] = None,
) -> str:
    """SVG document: one unit square per cell, deterministic fill per label,
    black cell borders, tight canvas. 1D patches render as a 1 x n strip."""
    if patch.dimension == 1:
        cells = tuple(((i, 0), lab) for i, lab in enumerate(patch.labels))
    else:
        cells = patch.cells
    if rule is not None:
        order = {lab: i for i, lab in enumerate(rule.prototile_names())}
    else:
        order = {lab: i for i, lab in enumerate(sorted({lab for _, lab in cells}))}
    width = max(x for (x, _), _ in cells) + 1
    height = max(y for (_, y), _ in cells) + 1
    s = cell_size
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * s}" '
        f'height="{height * s}" viewBox="0 0 {width * s} {height * s}">'
    ]
    for (x, y), lab in sorted(cells):
        color = _PALETTE[order[lab] % len(_PALETTE)]
        lines.append(
            f'<rect x="{x * s}" y="{(height - 1 - y) * s}" width="{s}" height="{s}" '
            f'fill="{color}" stroke="black" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

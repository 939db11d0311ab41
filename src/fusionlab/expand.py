"""Materialize supertiles as label sequences (1D) or cell grids (2D).

Expansions are exact and validated: a 2D result must cover every cell at
most once (tiles meet only along edges) and must be edge-connected. Sizes
are predicted from counts before anything is allocated, so asking for an
astronomically large supertile fails fast instead of exhausting memory.

Every pass here is one fold over the levels (core._fold_levels), which
builds each level's values from the level below, one fusion step at a
time: an expansion, the row runs of every supertile (_run_rows), word
counts (_word_rows) and word ends (prefix_suffix). A word count adds a
run of copies of a child in one multiplication and walks the copies only
for the small counts across their seams; analysis._word_counts stops the
fold of a level-free rule once its supertiles' ends repeat and raises the
rest by repeated squaring.

A 2D expansion carries each supertile it needs as three flat lists, the
anchor x, anchor y and label of each tile, so the fold allocates no tuple
per tile, and checks it from row runs: the maximal x-runs of each of its
rows, which grow with its perimeter, not its area. A parent's runs are its
children's shifted runs merged (core._join_runs), exact for any children,
connected or not, and None only where two children share a cell. The
expansion's own runs then say whether it is edge-connected, and only an
overlap is traced back cell by cell to the two tiles that cause it. The
same runs, built for every label without tiles, give van Hove ratios their
boundary geometry.

A 2D patch is its placed tiles (anchor position + label, the faithful
notion for counting occurrences) together with the cells those tiles
paint. An expansion builds both tuples once, from the top level's lists,
before it returns; a cell at a shape's (0, 0) is its tile's own pair. 1D
patches are plain label sequences; words are counted and searched for
without expanding anything (see _word_rows).

Every coordinate of a 2D patch is an entry of one table, ints, built once
per patch from its box (see _int_table): a shifted coordinate x + dx is
only an index into the table, freed at once, and the patch keeps the
entry, so equal coordinates are one int object. Kept, each x + dx would
be a new int above CPython's cached 256, over a million of them in
chair's level-9 patch.
The table is list(range(side)) only when side, the box's longer edge, is
at most the patch's cell count, as it always is for a connected patch;
otherwise it is range(side), which shares nothing but costs nothing, so
an expansion with a far-flung child still fails as fast as before.

Every builder of (cell, label) pairs builds all the (x, y) pairs first, in
one list, and only then the pairs that hold them. CPython stops tracking a
tuple of untracked items (ints, strs, such tuples) only when a collection
examines it, and it examines a fresh pair before the fresh (x, y) inside
it, so a pair built with its (x, y) stays tracked, is promoted, and a
large patch starts full collections that walk every cell again and again.
Built in this order, chair's level-9 expansion starts at most one full
collection where it started 17 (CPython 3.11); nothing here touches the
collector's settings.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Mapping, Optional, Sequence, Union

from .core import (
    FusionRule,
    Runs,
    _component_sizes,
    _entry,
    _fold_levels,
    _join_runs,
    _runs_of,
    _weighted_sums,
    level_sizes,
    resolve_level,
)
from .errors import (
    DisconnectedError,
    ExpansionTooLargeError,
    OverlapError,
    UnknownLabelError,
)

Cell = tuple[int, int]


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
    """A finite patch: 1D label sequence or 2D placed tiles.

    A 1D patch is its labels, one cell each. A 2D patch is its tiles, the
    placed prototiles as (anchor, label) pairs anchored at min x = min y =
    0, and its cells, the (cell, label) pairs they paint, in no set order;
    a 2D patch without either raises ValueError. Patches built directly
    from unit cells get one tile per cell, with tiles and cells sorted.
    """

    dimension: int
    labels: Optional[tuple[str, ...]] = None
    cells: Optional[tuple[tuple[Cell, str], ...]] = None
    tiles: Optional[tuple[tuple[Cell, str], ...]] = None

    def __post_init__(self) -> None:
        if self.dimension == 2 and (self.tiles is None or self.cells is None):
            raise ValueError("a 2D patch needs its tiles and cells")

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
        box = (max(x for x, _ in cells) - minx + 1, max(y for _, y in cells) - miny + 1)
        ints = _int_table(box, len(cells))
        points = [(ints[x - minx], ints[y - miny]) for x, y in cells]
        norm = tuple(sorted(zip(points, cells.values())))
        _check_connected(_runs_of(c for c, _ in norm))
        return CellPatch(2, cells=norm, tiles=norm)

    @staticmethod
    def from_tiles(rule: FusionRule, tiles) -> "CellPatch":
        """2D patch from placed prototiles (anchor, label), copied to move
        the smallest anchor to 0 through the patch's coordinate table (see
        _int_table), and checked as an expansion is, from the row runs of
        the prototiles they place (see _checked_patch). A label the rule
        lacks raises UnknownLabelError; a 1D rule raises ValueError."""
        if rule.dimension != 2:
            raise ValueError(f"CellPatch.from_tiles is for 2D rules, got a {rule.dimension}D rule")
        tiles = tuple(tiles)
        if not tiles:
            raise ValueError("empty patch")
        shapes = _prototile_runs(rule)
        for lab in (lab for _, lab in tiles if lab not in shapes):
            raise UnknownLabelError(lab, 0, tuple(shapes))
        minx = min(x for (x, _), _ in tiles)
        miny = min(y for (_, y), _ in tiles)
        # the cells' box, as every shape has a cell at x = 0 and one at y = 0
        extent = {p.name: p.size() for p in rule.prototiles}
        count = {p.name: len(p.cells) for p in rule.prototiles}
        box = (
            max(x + extent[lab][0] for (x, _), lab in tiles) - minx,
            max(y + extent[lab][1] for (_, y), lab in tiles) - miny,
        )
        ints = _int_table(box, sum(count[lab] for _, lab in tiles))
        anchors = [(ints[x - minx], ints[y - miny]) for (x, y), _ in tiles]
        tiles = tuple(zip(anchors, [lab for _, lab in tiles]))
        return _checked_patch(rule, tiles, _join_runs([(shapes[lab], x, y) for (x, y), lab in tiles]), ints)

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
        _, _, width, height = _corners(self.cells)
        return (width + 1, height + 1)


def _corners(cells) -> tuple[int, int, int, int]:
    """(min x, min y, max x, max y) of 2D (cell, label) pairs, in one pass."""
    if not cells:
        raise ValueError("empty patch")
    ((lowx, lowy), _), ((highx, highy), _) = cells[0], cells[0]
    for (x, y), _ in cells:
        if x > highx:
            highx = x
        elif x < lowx:
            lowx = x
        if y > highy:
            highy = y
        elif y < lowy:
            lowy = y
    return lowx, lowy, highx, highy


def _int_table(box: tuple[int, int], cells: int) -> Sequence[int]:
    """The coordinate table of a 2D patch with this (width, height) box and
    this many cells: list(range(side)) for the box's longer side, or
    range(side) where side exceeds the cell count, which only a patch that
    is not connected can have (see the module docstring)."""
    side = max(box)
    return list(range(side)) if side <= cells else range(side)


def _paint_cells(rule: FusionRule, tiles, ints: Sequence[int]) -> tuple[tuple[Cell, str], ...]:
    """(cell, label) pairs of placed tiles, in tile order then shape order.

    A shape's cell at (0, 0) is painted as the tile's own (anchor, label)
    pair, so only the other cells cost a new pair: a rule of single-cell
    prototiles paints its tiles themselves. A cell (cx, cy) of a tile at
    (ax, ay) is (sx[ax], sy[ay]), where sx and sy are the patch's table
    ints shifted by cx and cy, one slice per distinct offset, so every
    coordinate is an entry of ints and painting allocates no int (see the
    module docstring); a range table gives range slices. Every new
    (x, y) is built, in one list, before the pairs that hold them, so the
    collector untracks them all on first sight. It checks nothing:
    _checked_patch paints only tiles whose row runs show them overlap-free
    and edge-connected.
    """
    # each shape's cells with None for the anchor cell
    shapes = {p.name: tuple(None if c == (0, 0) else c for c in p.cells) for p in rule.prototiles}
    shifted = {d: ints[d:] for cells in shapes.values() for c in cells if c is not None for d in c}
    moved = {lab: [(shifted[c[0]], shifted[c[1]]) for c in cells if c is not None] for lab, cells in shapes.items()}
    points = iter([(sx[ax], sy[ay]) for (ax, ay), lab in tiles for sx, sy in moved[lab]])
    return tuple([
        tile if c is None else (next(points), tile[1])
        for tile in tiles
        for c in shapes[tile[1]]
    ])


def _check_overlap(rule: FusionRule, tiles) -> None:
    """OverlapError naming the first tile, in tile then shape order, that
    claims a cell already claimed, the tile that claimed it and the cell."""
    shapes = {p.name: p.cells for p in rule.prototiles}
    seen: dict[Cell, int] = {}
    for idx, ((ax, ay), lab) in enumerate(tiles):
        for cx, cy in shapes[lab]:
            cell = (ax + cx, ay + cy)
            if cell in seen:
                raise OverlapError(seen[cell], idx, cell)
            seen[cell] = idx


def _check_connected(runs: Runs) -> None:
    """DisconnectedError, with the component sizes largest first, unless
    the cells with these row runs are edge-connected."""
    sizes = _component_sizes(runs)
    if len(sizes) > 1:
        raise DisconnectedError(tuple(sorted(sizes, reverse=True)))


def _checked_patch(rule: FusionRule, tiles, runs: Optional[Runs], ints: Sequence[int]) -> CellPatch:
    """The 2D patch of anchored tiles whose cells have these row runs (None
    where two tiles share a cell), painted once, through the coordinate
    table ints, after an OverlapError that names the first two tiles
    claiming one cell or a DisconnectedError."""
    if runs is None:
        _check_overlap(rule, tiles)
    _check_connected(runs)
    return CellPatch(2, cells=_paint_cells(rule, tiles, ints), tiles=tiles)


def tile_count(rule: FusionRule, level: int, label: str) -> int:
    """Number of level-0 tiles in the supertile, without expanding."""
    return _entry(_weighted_sums(rule, level, "tiles"), label, level)


def cell_count(rule: FusionRule, level: int, label: str) -> int:
    """Number of cells the expanded supertile would occupy; in 1D, where a
    tile is one cell, the tile count."""
    return _entry(_weighted_sums(rule, level, "tiles" if rule.dimension == 1 else "cells"), label, level)


def expand_supertile(
    rule: FusionRule,
    level: int,
    label: str,
    max_cells: Optional[int] = None,
) -> CellPatch:
    """Fully expand one supertile into a concrete patch.

    Walking down collects the labels each level must supply; then one fold
    over the levels (core._fold_levels), kept to those labels, builds level
    k from level k-1 only, so a call holds two levels and no level costs a
    stack frame. A 2D child is translated by its offset minus the body's
    smallest offset on each axis, so every supertile is anchored at its
    bounding-box min corner, the box that level_sizes and w()/h() measure.

    Each 2D supertile is carried as flat lists of its tiles' anchor x,
    anchor y and label (see _fuse_tiles), beside its row runs, merged from
    its children's (see core._join_runs). Every coordinate is an entry of
    one table, built before the fold from the box level_sizes gives and
    the predicted cell count (see _int_table and the module
    docstring). The patch's tiles tuple is built once from the top level's
    lists, the anchor (x, y) list first and then the pairs that hold them,
    and its cells painted once, both before the call returns. The
    expansion is checked from its runs as from_tiles checks any tiles: an
    overlap raises OverlapError and a disconnected expansion
    DisconnectedError (see _checked_patch), as fast from a range table as
    from a list. A label the level does not define raises
    UnknownLabelError. max_cells (default 10^7) caps the cells.
    """
    max_cells = _cap(max_cells)
    predicted = cell_count(rule, level, label)
    if predicted > max_cells:
        raise ExpansionTooLargeError(predicted, max_cells)

    needed = [{label}]  # labels per level, from the top down
    for k in range(level, 0, -1):
        supertiles = [s for s in resolve_level(rule, k).supertiles if s.label in needed[-1]]
        needed.append({p.child for s in supertiles for p in s.body})
    needed.reverse()
    if rule.dimension == 1:
        fuse, row = _fuse_words, {lab: (lab,) for lab in needed[0]}
    else:
        ints = _int_table(level_sizes(rule, level)[label], predicted)
        runs = _prototile_runs(rule)
        fuse = partial(_fuse_tiles, ints)
        row = {lab: ([0], [0], [lab], runs[lab]) for lab in needed[0]}
    fused = deque(_fold_levels(rule, level, row, fuse, keep=needed), maxlen=1)[0][label]
    if rule.dimension == 1:
        return CellPatch(1, labels=fused)
    xs, ys, labels, runs = fused
    anchors = list(zip(xs, ys))
    del fused, xs, ys
    tiles = tuple(zip(anchors, labels))
    # freed before painting, to keep them out of its peak memory
    del anchors, labels
    return _checked_patch(rule, tiles, runs, ints)


def _cap(max_cells: Optional[int]) -> int:
    """The cell cap of an expansion: max_cells, 10^7 when it is None."""
    if max_cells is None:
        return 10**7
    if max_cells < 1:
        raise ValueError(f"max_cells must be >= 1, got {max_cells}")
    return max_cells


def _fuse_words(body, prev) -> tuple[str, ...]:
    return tuple(chain.from_iterable(prev[p.child] * p.repeat for p in body))


def _fuse_tiles(ints: Sequence[int], body, prev) -> tuple[list[int], list[int], list[str], Optional[Runs]]:
    """A 2D supertile's tiles, as flat lists of anchor x, anchor y and label,
    and its row runs, from its children's; the runs are None where two
    children share a cell or a child's are None.

    A child is shifted only on an axis where it moves, each coordinate x
    replaced by the entry ints[x + dx] of the expansion's table, so the
    patch keeps no int of its own (see the module docstring). No tile gets
    a tuple.
    """
    xs: list[int] = []
    ys: list[int] = []
    labels: list[str] = []
    pieces = []
    for child, dx, dy in _shifts(body):
        cxs, cys, clabels, runs = prev[child]
        xs += [ints[x + dx] for x in cxs] if dx else cxs
        ys += [ints[y + dy] for y in cys] if dy else cys
        labels += clabels
        pieces.append((runs, dx, dy))
    return xs, ys, labels, _join_runs(pieces)


def _shifts(body) -> list[tuple[str, int, int]]:
    """(child, dx, dy) per 2D placement: its offset minus the body's smallest
    offset on each axis, so the supertile is anchored at its box corner.
    Every body places a child, as FusionRule checks."""
    minx, miny = map(min, zip(*(p.offset for p in body)))
    return [(p.child, p.offset[0] - minx, p.offset[1] - miny) for p in body]


def _prototile_runs(rule: FusionRule) -> dict[str, Runs]:
    """Each 2D prototile's row runs, those of the edge-connected cells that
    FusionRule checks it has."""
    return {p.name: _runs_of(p.cells) for p in rule.prototiles}


def _run_rows(rule: FusionRule, top: int):
    """Yield, per level 0..top, every 2D supertile's row runs, None where
    two of its tiles share a cell. Each child is moved as _fuse_tiles moves
    it, so the runs are exactly those of the cells that expand_supertile
    would paint, connected or not; a level costs its supertiles' perimeters.
    """
    return _fold_levels(rule, top, _prototile_runs(rule), _fuse_runs)


def _fuse_runs(body, prev) -> Optional[Runs]:
    return _join_runs([(prev[child], dx, dy) for child, dx, dy in _shifts(body)])


def tile_census(patch: CellPatch) -> dict[str, int]:
    """How many tiles of each label the patch contains."""
    if patch.dimension == 1:
        return dict(Counter(patch.labels))
    return dict(Counter(lab for _, lab in patch.tiles))


# ---------------------------------------------------------------------------
# Words and characters
# ---------------------------------------------------------------------------


def label_chars(rule: FusionRule) -> dict[str, str]:
    """Deterministic label -> single character table.

    Prototile names that are already single characters name themselves;
    otherwise characters are assigned by declaration order.
    """
    return _char_table(rule.prototile_names())


def _char_table(names) -> dict[str, str]:
    """One character per name, by position in names, as label_chars says."""
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


def _word_rows(rule: FusionRule, word: Union[str, tuple[str, ...]], top: int, place: bool = False):
    """Yield, per level 0..top, each supertile's (occurrences of the word,
    start of the first occurrence or None, tile count, first and last
    |word|-1 labels); nothing is expanded. The start and the tile count,
    whose products can run to thousands of digits, are summed only when
    place is true (is_admissible); counts alone cost no size arithmetic.
    The word is text (parse_word) or a sequence of prototile names; a name
    the rule lacks raises ValueError either way.

    Each supertile is a left fold over its body. A run of R copies of a
    child adds R times the child's count in one multiplication. The copies
    are walked only for the seams: at each seam the fold counts the windows
    that start left of it and end in the new piece, using the running
    suffix, so a window across several short children is counted once, at
    the seam where its last piece begins. Within a run the suffix stops
    changing after at most |word| copies, and from then on each seam adds
    the same count, so 10^300 copies cost one more multiplication, of a
    small seam count. The seam counts are summed apart and added to the
    count once per supertile, so a level costs about what its counts'
    integers cost. The running tile count places the first occurrence.
    """
    labels = parse_word(rule, word) if isinstance(word, str) else tuple(word)
    if not labels:
        raise ValueError("empty word")
    names = rule.prototile_names()
    for lab in labels:
        if lab not in names:
            raise ValueError(f"unknown label {lab!r}")
    keep = len(labels) - 1

    def fuse(body, prev):
        count, seams, first, size, head, tail = 0, 0, None, 0, (), ()
        for p in body:
            inside, at, child_size, child_head, child_tail = prev[p.child]
            count += p.repeat * inside
            for copy in range(p.repeat):
                crossing, cross_at = _cross_count(tail, child_head, labels)
                if place and first is None and (crossing or inside):
                    first = size + copy * child_size + (cross_at - len(tail) if crossing else at)
                seams += crossing
                head = (head + child_head)[:keep]
                joined = tail + child_tail
                joined = joined[max(0, len(joined) - keep) :]
                if joined == tail:
                    # the next copies see this same suffix, and the head
                    # is full by now
                    seams += (p.repeat - copy - 1) * crossing
                    break
                tail = joined
            if place:
                size += p.repeat * child_size
        return count + seams, first, size, head, tail

    row = {
        lab: ((1, 0) if labels == (lab,) else (0, None)) + (1, (lab,)[:keep], (lab,)[:keep])
        for lab in rule.prototile_names()
    }
    return _fold_levels(rule, top, row, fuse)


def prefix_suffix(rule: FusionRule, level: int, label: str, length: int) -> tuple[str, str]:
    """First and last min(length, size) labels of the expansion, as words.

    Built from the children's ends, so it works at levels whose full
    expansion is far beyond any budget, and keeps nothing on the rule. A
    label the level does not define raises UnknownLabelError.
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

    def fuse(body, prev) -> tuple[tuple[str, ...], tuple[str, ...]]:
        # a suffix is the reversed head of the reversed children
        return (
            head((prev[p.child][0], p.repeat) for p in body),
            head((prev[p.child][1][::-1], p.repeat) for p in reversed(body))[::-1],
        )

    ends = {lab: ((lab,), (lab,)) for lab in rule.prototile_names()}
    pre, suf = _entry(deque(_fold_levels(rule, level, ends, fuse), maxlen=1)[0], label, level)
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

    Matches placed tiles against placed tiles, so two same-label tiles that
    touch are never mistaken for one larger tile.
    """
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


def is_admissible(
    rule: FusionRule,
    patch: Union[CellPatch, str],
    max_level: int,
    max_cells: Optional[int] = None,
) -> AdmissibilityResult:
    """Search the supertiles, level by level and in label order, for the patch.

    A 1D word is found from the word counts of one bottom-up pass, never by
    expanding, and its position is the first occurrence (as str.find). A 2D
    patch is matched against each supertile's expansion, within max_cells. A
    miss only means "not found up to max_level"; it is not a proof of
    inadmissibility. max_level must be at least 0.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    if isinstance(patch, str):
        if rule.dimension != 1:
            raise ValueError("word admissibility is for 1D rules")
        patch = CellPatch.from_word(parse_word(rule, patch))
    if patch.dimension != rule.dimension:
        raise ValueError("patch dimension does not match the rule")
    if patch.dimension == 1:
        for level, row in enumerate(_word_rows(rule, patch.labels, max_level, place=True)):
            for label, (count, first, *_) in row.items():
                if count:
                    return AdmissibilityResult(True, level, label, (first,), level + 1)
        return AdmissibilityResult(False, searched_levels=max_level + 1)
    for level in range(0, max_level + 1):
        for label in resolve_level(rule, level).labels:
            hits = occurrences_2d(patch, expand_supertile(rule, level, label, max_cells))
            if hits:
                return AdmissibilityResult(True, level, label, hits[0], level + 1)
    return AdmissibilityResult(False, searched_levels=max_level + 1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _patch_table(patch: CellPatch, rule: Optional[FusionRule]) -> dict[str, str]:
    if rule is not None:
        return label_chars(rule)
    labels = patch.labels if patch.dimension == 1 else (lab for _, lab in patch.cells)
    return _char_table(sorted(set(labels)))


def _canvas(cells) -> tuple[int, int]:
    """(width, height) of the canvas from (0, 0) to the top corner of 2D
    (cell, label) pairs, read in one _corners pass. A cell at x or y < 0,
    which no canvas holds, raises ValueError."""
    lowx, lowy, highx, highy = _corners(cells)
    if lowx < 0 or lowy < 0:
        raise ValueError(f"rendering needs coordinates >= 0, got min x {lowx} and min y {lowy}")
    return highx + 1, highy + 1


def render_text(patch: CellPatch, rule: Optional[FusionRule] = None) -> str:
    """1D: the word itself. 2D: one text row per y (top = max y), `.` for
    empty cells.

    A 2D patch is painted into one list of characters per row, each cell's
    character written once, with no grid dict. Its coordinates, in an
    expansion entries of one shared table (see the module docstring), only
    index the rows, so rendering allocates text, not cells. A patch built
    by hand with a negative coordinate, which no row can hold, raises
    ValueError.
    """
    table = _patch_table(patch, rule)
    if patch.dimension == 1:
        return "".join(table[lab] for lab in patch.labels)
    width, height = _canvas(patch.cells)
    rows = [["."] * width for _ in range(height)]
    for (x, y), lab in patch.cells:
        rows[y][x] = table[lab]
    return "\n".join(map("".join, reversed(rows)))


def render_svg(
    patch: CellPatch,
    cell_size: int = 16,
    rule: Optional[FusionRule] = None,
) -> str:
    """SVG document: one unit square per cell, deterministic fill per label,
    black cell borders, a canvas from (0, 0) to the top corner. 1D patches
    render as a 1 x n strip. A patch built by hand with a negative
    coordinate, which the canvas cannot hold, raises ValueError, as
    render_text does."""
    if patch.dimension == 1:
        cells = tuple(((i, 0), lab) for i, lab in enumerate(patch.labels))
    else:
        cells = patch.cells
    if rule is not None:
        order = {lab: i for i, lab in enumerate(rule.prototile_names())}
    else:
        order = {lab: i for i, lab in enumerate(sorted({lab for _, lab in cells}))}
    width, height = _canvas(cells)
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

"""Diagnostics over fusion rules: primitivity, van Hove boundary ratios,
frequency hulls, ergodicity verdicts, and patch-frequency estimation.

Everything here is exact rational arithmetic on top of the transition
matrices, which primitivity and ergodicity read horizon by horizon from
one fold of columns; floats appear only when callers pass float
tolerances (compared against Fractions, which Python does exactly).

The frequency hull at (n, N) is the set of volume-normalized columns of
M_{n,N}: every achievable level-n frequency vector, as seen from horizon N,
is a convex combination of these vertices. A hull shrinking to a point is
evidence (never proof, at finite depth) of a unique frequency measure.

A 2D van Hove ratio is read from the supertile's row runs, which one
fold over the levels merges from the children's runs, so its cost grows
with the boundary and not with the area; a supertile is expanded only to
name the tiles of an overlap. 1D word counts likewise come from one fold
over the children's ends, never from an expansion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from typing import Optional, Union

from .core import FusionRule, Runs, _entry, resolve_level
from .errors import InvalidRangeError
from .expand import (
    CellPatch,
    _cap,
    _check_connected,
    _run_rows,
    _word_rows,
    cell_count,
    expand_supertile,
    occurrences_2d,
)
from .transition import TransitionMatrix, _column_rows, _matrix, transition_matrix, volumes


# ---------------------------------------------------------------------------
# Primitivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimitivityResult:
    level: int
    max_offset: int
    minimal_offset: Optional[int]
    # (row_label, col_label, horizon) of a zero entry at the largest
    # checked horizon, when minimal_offset is absent
    witness_zero: Optional[tuple[str, str, int]] = None

    @property
    def primitive_within_horizon(self) -> bool:
        return self.minimal_offset is not None


def primitivity_check(rule: FusionRule, n: int, max_offset: int) -> PrimitivityResult:
    """Smallest d <= max_offset with M_{n,n+d} entrywise positive.

    Positivity persists once reached (every step matrix has a nonzero in
    every column), so scanning stops at the first success.
    """
    if max_offset < 1:
        raise InvalidRangeError(n, n + max_offset)
    if n < 0:
        raise InvalidRangeError(n, n)
    for d, cols in enumerate(_column_rows(rule, n, n + max_offset)):
        if d and all(e > 0 for col in cols.values() for e in col):
            return PrimitivityResult(n, max_offset, d)
    # no positive matrix, so some count is 0: the first in row-major order
    rows = enumerate(resolve_level(rule, n).labels)
    zero = next((r, c) for i, r in rows for c, col in cols.items() if col[i] == 0)
    return PrimitivityResult(n, max_offset, None, (*zero, n + max_offset))


# ---------------------------------------------------------------------------
# van Hove boundary ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VanHoveReport:
    depth: int
    r: int
    levels: tuple[int, ...]
    # per level: max over supertiles of Vol(boundary band) / Vol(supertile)
    ratios: tuple[Fraction, ...]
    max_labels: tuple[str, ...]  # which supertile attains each max
    verdict: str  # "consistent with van Hove" | "inconclusive"


def _boundary_band_2d(runs: Runs, r: int) -> int:
    """Cells within graph distance r of the boundary of a cell set, on both
    sides, from its row runs (row y -> its maximal x-runs, sorted): the
    set's cells within r of the complement plus the complement's cells
    within r of the set.

    A shortest lattice path from a cell to the nearest cell on the other
    side stays on its own side, so graph distance is L1 distance and the
    band is |dilate_r| - |erode_r| under the L1 ball of radius r. Row y of
    the dilation is the union over |dy| <= r of row y+dy's runs widened by
    r-|dy| on each side. A cell is in the erosion when its whole ball is in
    the set; as the runs are maximal, row y of the erosion is the
    intersection over |dy| <= r of row y+dy's runs narrowed by r-|dy|. The
    cost grows with the runs times r, not with the cells.
    """
    reach = [(dy, r - abs(dy)) for dy in range(-r, r + 1)]
    grown = 0
    for y in range(min(runs) - r, max(runs) + r + 1):
        end = None
        for x0, x1 in sorted([(x0 - s, x1 + s) for dy, s in reach for x0, x1 in runs.get(y + dy, ())]):
            if end is None or x0 > end:
                grown += x1 - x0 + 1
                end = x1
            elif x1 > end:
                grown += x1 - end
                end = x1
    kept = 0
    for y, row in runs.items():
        inner = _narrow(row, r)
        for dy, s in reach:
            if dy and inner:
                inner = _intersect(inner, _narrow(runs.get(y + dy, ()), s))
        kept += sum(x1 - x0 + 1 for x0, x1 in inner)
    return grown - kept


def _narrow(row, s: int) -> list[tuple[int, int]]:
    """The runs of a row narrowed by s on each side; runs that vanish go."""
    return [(x0 + s, x1 - s) for x0, x1 in row if x1 - x0 >= 2 * s]


def _intersect(a, b) -> list[tuple[int, int]]:
    """The intersection of two sorted lists of disjoint closed intervals."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def van_hove_diagnostic(
    rule: FusionRule,
    depth: int,
    r: int = 1,
    max_cells: Optional[int] = None,
    threshold: Fraction = Fraction(1, 2),
) -> VanHoveReport:
    """Boundary-to-volume ratios for levels 1..depth.

    1D: 2r / length. 2D: the two-sided r-band around the supertile's
    boundary divided by its cell count. The band is read from the row runs
    of one bottom-up pass (expand._run_rows), so no supertile is expanded
    to be measured, at any size. A disconnected supertile raises
    DisconnectedError, as its expansion would. Only a supertile whose tiles
    overlap is expanded, within max_cells, to raise the OverlapError that
    names the tiles; max_cells caps nothing else. Each level reports the
    worst (largest) supertile ratio. depth and r must be at least 1.
    """
    if depth < 1 or r < 1:
        raise ValueError(f"depth and r must be >= 1, got depth {depth} and r {r}")
    levels = tuple(range(1, depth + 1))
    if rule.dimension == 2:
        _cap(max_cells)  # rejects a cap below 1, as an expansion would
        run_rows = islice(_run_rows(rule, depth), 1, None)
    else:
        run_rows = repeat(None)
    ratios = []
    max_labels = []
    for lv, level_runs in zip(levels, run_rows):
        best: Optional[Fraction] = None
        best_label = ""
        for label in resolve_level(rule, lv).labels:
            if rule.dimension == 1:
                band = 2 * r
            else:
                runs = level_runs[label]
                if runs is None:
                    expand_supertile(rule, lv, label, max_cells)  # raises the OverlapError
                _check_connected(runs)
                band = _boundary_band_2d(runs, r)
            ratio = Fraction(band, cell_count(rule, lv, label))
            if best is None or ratio > best:
                best = ratio
                best_label = label
        ratios.append(best)
        max_labels.append(best_label)
    tail = ratios[-3:]
    decreasing = all(a > b for a, b in zip(tail, tail[1:]))
    verdict = (
        "consistent with van Hove"
        if decreasing and ratios[-1] < threshold
        else "inconclusive"
    )
    return VanHoveReport(depth, r, levels, tuple(ratios), tuple(max_labels), verdict)


# ---------------------------------------------------------------------------
# Frequency hulls and ergodicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyHull:
    level: int
    horizon: int
    labels: tuple[str, ...]  # level-n supertile labels (coordinate order)
    vertex_labels: tuple[str, ...]  # level-N supertile labels
    vertices: tuple[tuple[Fraction, ...], ...]  # one per horizon supertile
    diameter: Fraction  # volume-weighted L1
    centroid: tuple[Fraction, ...]


def _widest_pair(vertices, vol_n) -> tuple[Fraction, int, int]:
    """The largest volume-weighted L1 distance between two vertices and the
    first pair (a, b) attaining it; (0, 0, 0) for a single vertex."""
    pairs = (
        (sum(vol_n[i] * abs(vertices[a][i] - vertices[b][i]) for i in range(len(vol_n))), a, b)
        for a in range(len(vertices))
        for b in range(a + 1, len(vertices))
    )
    return max(pairs, key=lambda pair: pair[0], default=(Fraction(0), 0, 0))


def _hull(m: TransitionMatrix, vol_n, vol_N) -> tuple[FrequencyHull, int, int]:
    """The hull of M_{n,N} and the pair of vertices realizing its diameter."""
    vertices = tuple(
        tuple(m.entries[i][j] / vol_N[j] for i in range(len(m.row_labels)))
        for j in range(len(m.col_labels))
    )
    diameter, a, b = _widest_pair(vertices, vol_n)
    k = len(vertices)
    centroid = tuple(
        sum((v[i] for v in vertices), Fraction(0)) / k for i in range(len(vol_n))
    )
    hull = FrequencyHull(m.from_level, m.to_level, m.row_labels, m.col_labels, vertices, diameter, centroid)
    return hull, a, b


def frequency_hull(rule: FusionRule, n: int, N: int) -> FrequencyHull:
    """Volume-normalized columns of M_{n,N} plus diameter and centroid."""
    if N <= n:
        raise InvalidRangeError(n, N)
    m = transition_matrix(rule, n, N)
    return _hull(m, volumes(rule, n).values, volumes(rule, N).values)[0]


@dataclass(frozen=True)
class ErgodicityReport:
    level: int
    depth: int
    tol: Fraction
    horizons: tuple[int, ...]
    diameters: tuple[Fraction, ...]
    verdict: str  # "unique" | "multiple" | "undecided"
    hull: FrequencyHull  # the hull at the last horizon, depth
    # when "multiple": two sequences of (vertex label, vertex) over horizons,
    # following the pair of vertices realizing each diameter
    trajectories: Optional[
        tuple[
            tuple[tuple[str, tuple[Fraction, ...]], ...],
            tuple[tuple[str, tuple[Fraction, ...]], ...],
        ]
    ] = None


def ergodicity_report(
    rule: FusionRule,
    n: int,
    depth: int,
    tol: Union[Fraction, float] = Fraction(1, 10**6),
    window: int = 3,
    floor: Union[Fraction, float] = Fraction(1, 100),
) -> ErgodicityReport:
    """Verdict from the hull-diameter sequence at horizons n+1..depth.

    unique: the final diameter is below tol. multiple: every diameter in
    the trailing window stays above floor (slow contractions stay
    undecided). Verdicts are finite-depth diagnostics, not proofs.
    """
    if depth <= n:
        raise InvalidRangeError(n, depth)
    horizons = tuple(range(n + 1, depth + 1))
    vol_n = volumes(rule, n).values
    labels = resolve_level(rule, n).labels
    hulls = [  # (hull, a, b) per horizon, from one fold of columns
        _hull(_matrix(n, N, labels, cols), vol_n, volumes(rule, N).values)
        for N, cols in enumerate(_column_rows(rule, n, depth), n)
        if N > n
    ]
    diameters = tuple(h.diameter for h, _, _ in hulls)
    if diameters[-1] < tol:
        verdict = "unique"
        trajectories = None
    elif all(d > floor for d in diameters[-window:]):
        verdict = "multiple"
        trajectories = (
            tuple((h.vertex_labels[a], h.vertices[a]) for h, a, _ in hulls),
            tuple((h.vertex_labels[b], h.vertices[b]) for h, _, b in hulls),
        )
    else:
        verdict = "undecided"
        trajectories = None
    tol_frac = tol if isinstance(tol, Fraction) else Fraction(str(tol))
    return ErgodicityReport(n, depth, tol_frac, horizons, diameters, verdict, hulls[-1][0], trajectories)


# ---------------------------------------------------------------------------
# Word counting (1D), patch counting (2D)
# ---------------------------------------------------------------------------


def word_count(
    rule: FusionRule,
    word: Union[str, tuple[str, ...]],
    level: int,
    label: str,
) -> int:
    """Exact occurrences of the word in the supertile's expansion.

    Counted bottom-up over the levels, never by expanding: occurrences
    inside children plus occurrences across seams, read off the children's
    prefixes and suffixes of length |word|-1 (see expand._word_rows). There
    is no budget: supertiles with 10^n children or at level 2000 stay cheap.
    """
    return _entry(_word_counts(rule, word, level), label, level)


def _word_counts(rule: FusionRule, word: Union[str, tuple[str, ...]], level: int) -> dict[str, int]:
    """Occurrences of the word in every level-n supertile, from one pass."""
    if rule.dimension != 1:
        raise ValueError("word_count is for 1D rules")
    if level < 0:
        raise ValueError("level must be >= 0")
    row = deque(_word_rows(rule, word, level), maxlen=1)[0]
    return {label: count for label, (count, *_) in row.items()}


def patch_count_2d(
    rule: FusionRule,
    patch: CellPatch,
    level: int,
    label: str,
    max_cells: Optional[int] = None,
) -> int:
    """Translated occurrences of the patch in the expanded supertile."""
    if rule.dimension != 2 or patch.dimension != 2:
        raise ValueError("patch_count_2d is for 2D rules and patches")
    expansion = expand_supertile(rule, level, label, max_cells)
    return len(occurrences_2d(patch, expansion))


# ---------------------------------------------------------------------------
# Patch frequency intervals and universality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyInterval:
    description: str
    level: int
    horizon: int
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def patch_frequency_estimate(
    rule: FusionRule,
    patch: Union[str, tuple[str, ...], CellPatch],
    n: int,
    N: int,
    max_cells: Optional[int] = None,
) -> FrequencyInterval:
    """Range of the per-volume patch frequency over the hull at (n, N).

    lo/hi are the min/max over hull vertices rho of
    sum_i count(patch, P_n(i)) * rho_i; exact rationals. A word is counted
    for every label in one pass, without expanding; max_cells caps the
    expansions that count a 2D patch.
    """
    labels_n = resolve_level(rule, n).labels
    if isinstance(patch, CellPatch) and patch.dimension == 2:
        counts = [patch_count_2d(rule, patch, n, lab, max_cells) for lab in labels_n]
        description = f"patch[{patch.cell_count()} cells]"
    else:
        word = patch if isinstance(patch, (str, tuple)) else tuple(patch.labels)
        by_label = _word_counts(rule, word, n)
        counts = [by_label[lab] for lab in labels_n]
        description = word if isinstance(word, str) else "".join(word)
    hull = frequency_hull(rule, n, N)
    values = [
        sum((counts[i] * v[i] for i in range(len(counts))), Fraction(0))
        for v in hull.vertices
    ]
    return FrequencyInterval(description, n, N, min(values), max(values))


def patch_universality(
    rule: FusionRule,
    word: Union[str, tuple[str, ...]],
    max_level: int,
) -> Optional[int]:
    """Smallest level at which every supertile contains the word, if any.

    One bottom-up pass of word counts (see word_count); nothing is expanded.
    max_level must be at least 0.
    """
    if rule.dimension != 1:
        raise ValueError("patch_universality is for 1D rules")
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    for N, row in enumerate(_word_rows(rule, word, max_level)):
        if all(count for count, *_ in row.values()):
            return N
    return None

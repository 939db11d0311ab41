"""Diagnostics over fusion rules: primitivity, van Hove boundary ratios,
frequency hulls, ergodicity verdicts, and patch-frequency estimation.

Everything here is exact rational arithmetic on top of the transition
matrices; floats appear only when callers pass float tolerances (compared
against Fractions, which Python does exactly).

The frequency hull at (n, N) is the set of volume-normalized columns of
M_{n,N}: every achievable level-n frequency vector, as seen from horizon N,
is a convex combination of these vertices. A hull shrinking to a point is
evidence (never proof, at finite depth) of a unique frequency measure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import FusionRule, resolve_level
from .errors import InvalidRangeError
from .expand import (
    CellPatch,
    ExpansionBudget,
    _word_rows,
    cell_count,
    expand_supertile,
    occurrences_2d,
)
from .transition import TransitionMatrix, compose, step_matrix, transition_matrix, volumes


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
    m = transition_matrix(rule, n, n)
    for d in range(1, max_offset + 1):
        m = compose(m, step_matrix(rule, n + d))
        if m.is_positive():
            return PrimitivityResult(n, max_offset, d)
    for i, row_label in enumerate(m.row_labels):
        for j, col_label in enumerate(m.col_labels):
            if m.entries[i][j] == 0:
                return PrimitivityResult(
                    n, max_offset, None, (row_label, col_label, n + max_offset)
                )
    raise AssertionError("unreachable: non-positive matrix with no zero entry")


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


def _boundary_band_2d(cells: set[tuple[int, int]], r: int) -> int:
    """Cells within graph distance r of the patch boundary, on both sides:
    patch cells within r of the complement plus complement cells within r
    of the patch."""
    neighbors = ((1, 0), (-1, 0), (0, 1), (0, -1))
    # complement cells adjacent to the patch are at distance 1 from it;
    # patch cells adjacent to the complement are at distance 1 from it
    inside_frontier = set()
    outside_frontier = set()
    for (x, y) in cells:
        for dx, dy in neighbors:
            c = (x + dx, y + dy)
            if c not in cells:
                inside_frontier.add((x, y))
                outside_frontier.add(c)
    count = 0
    for frontier, member in ((inside_frontier, True), (outside_frontier, False)):
        seen = set(frontier)
        layer = frontier
        count += len(frontier)
        for _ in range(r - 1):
            nxt = set()
            for (x, y) in layer:
                for dx, dy in neighbors:
                    c = (x + dx, y + dy)
                    if c in seen or (c in cells) != member:
                        continue
                    nxt.add(c)
            seen |= nxt
            count += len(nxt)
            layer = nxt
    return count


def van_hove_diagnostic(
    rule: FusionRule,
    depth: int,
    r: int = 1,
    budget: Optional[ExpansionBudget] = None,
    threshold: Fraction = Fraction(1, 2),
) -> VanHoveReport:
    """Boundary-to-volume ratios for levels 1..depth.

    1D: 2r / length. 2D: the two-sided r-band around the patch boundary
    divided by the cell count, measured on the expanded supertile. Each
    level reports the worst (largest) supertile ratio. depth and r must be
    at least 1.
    """
    if depth < 1 or r < 1:
        raise ValueError(f"depth and r must be >= 1, got depth {depth} and r {r}")
    levels = tuple(range(1, depth + 1))
    ratios = []
    max_labels = []
    for lv in levels:
        best: Optional[Fraction] = None
        best_label = ""
        for label in resolve_level(rule, lv).labels:
            if rule.dimension == 1:
                ratio = Fraction(2 * r, cell_count(rule, lv, label))
            else:
                patch = expand_supertile(rule, lv, label, budget)
                cells = {c for c, _ in patch.cells}
                ratio = Fraction(_boundary_band_2d(cells, r), len(cells))
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
    hulls = []  # (hull, a, b): one product step per horizon
    m = transition_matrix(rule, n, n)
    for N in horizons:
        m = compose(m, step_matrix(rule, N))
        hulls.append(_hull(m, vol_n, volumes(rule, N).values))
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
    if rule.dimension != 1:
        raise ValueError("word_count is for 1D rules")
    if level < 0:
        raise ValueError("level must be >= 0")
    return deque(_word_rows(rule, word, level), maxlen=1)[0][label][0]


def patch_count_2d(
    rule: FusionRule,
    patch: CellPatch,
    level: int,
    label: str,
    budget: Optional[ExpansionBudget] = None,
) -> int:
    """Translated occurrences of the patch in the expanded supertile."""
    if rule.dimension != 2 or patch.dimension != 2:
        raise ValueError("patch_count_2d is for 2D rules and patches")
    expansion = expand_supertile(rule, level, label, budget)
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
    budget: Optional[ExpansionBudget] = None,
) -> FrequencyInterval:
    """Range of the per-volume patch frequency over the hull at (n, N).

    lo/hi are the min/max over hull vertices rho of
    sum_i count(patch, P_n(i)) * rho_i; exact rationals. A word is counted
    without expanding; budget caps the expansions that count a 2D patch.
    """
    labels_n = resolve_level(rule, n).labels
    if isinstance(patch, CellPatch) and patch.dimension == 2:
        counts = [patch_count_2d(rule, patch, n, lab, budget) for lab in labels_n]
        description = f"patch[{patch.cell_count()} cells]"
    else:
        word = patch if isinstance(patch, (str, tuple)) else tuple(patch.labels)
        counts = [word_count(rule, word, n, lab) for lab in labels_n]
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
    """
    if rule.dimension != 1:
        raise ValueError("patch_universality is for 1D rules")
    for N, row in enumerate(_word_rows(rule, word, max_level)):
        if all(count for count, _ in row.values()):
            return N
    return None

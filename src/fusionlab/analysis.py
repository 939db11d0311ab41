"""Diagnostics over fusion rules: primitivity, van Hove boundary ratios,
frequency hulls, ergodicity verdicts, and patch-frequency estimation.

Everything here is exact arithmetic on top of the transition matrices,
which primitivity and ergodicity read horizon by horizon from one fold of
integer columns. A float tolerance is read as the Fraction of its decimal
text before anything is compared with it.

The frequency hull at (n, N) is the set of volume-normalized columns of
M_{n,N}: every achievable level-n frequency vector, as seen from horizon N,
is a convex combination of these vertices. A hull shrinking to a point is
evidence (never proof, at finite depth) of a unique frequency measure.
A vertex does not change when the whole matrix is scaled, as a column and
its volume scale together, so the hulls read M_{n,N} with the gcd of its
entries divided out: frequency_hull divides transition_matrix's entries
once, and the ergodicity sweep reads every horizon from one reduced fold.
Each horizon's volumes are summed from those reduced columns, never read
from the rule's volume table past level n. The hull sweep compares pair
distances in integers and normalizes one Fraction per horizon, its
diameter; vertex Fractions are built only where a result returns them.

The sweep reads M[n -> k] up to scale only, so its fold
(_reduced_column_rows) divides each level's matrix by its content, the gcd
of its entries. As M[n -> k+1] = M[n -> k] . S for the step matrix S, the
content of one level divides the content of the next, and the reduced
matrix can be carried forward in its place. When S is square, the content
of M' . S for a reduced M' also divides det S (M' . S . adj S = det S . M'),
so each level's gcd starts from |det S|, found by fraction-free elimination
(_det), and reduces every large entry by that small number.

A 2D van Hove ratio is read from the supertile's row runs, which one
fold over the levels merges from the children's runs, so its cost grows
with the boundary and not with the area; a supertile is expanded only to
name the tiles of an overlap. 1D word counts likewise come from one fold
over the children's ends, never from an expansion; on a level-free rule
the fold stops once the ends repeat, and the counts of the requested
level are a power of one period's affine recurrence (_word_counts).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice, repeat
from math import gcd, lcm
from typing import Optional, Union

from .core import FusionRule, Runs, _entry, _product, _step_rows, _times_power, resolve_level
from .errors import InvalidRangeError, _frac_str
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
from .transition import _column_rows, transition_matrix, volumes


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
        raise InvalidRangeError(n, n + max_offset, "0 <= from < to")
    if n < 0:
        raise InvalidRangeError(n, n, "0 <= from < to")
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
        for s in resolve_level(rule, lv).supertiles:
            label = s.label
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


def _over_one_denominator(vol_n) -> tuple[int, list[int]]:
    """The level-n volumes over their least common denominator L: (L, w)
    with vol_n[i] = w[i]/L."""
    L = lcm(*(v.denominator for v in vol_n))
    return L, [v.numerator * (L // v.denominator) for v in vol_n]


def _scaled_volumes(cols, w) -> tuple[int, ...]:
    """sum_i w_i M_ij for each column j: the level-N volumes times L, over
    the same common factor as the columns."""
    return tuple(sum(wi * x for wi, x in zip(w, col)) for col in cols)


def _widest_pair(cols, w, vols) -> tuple[Fraction, int, int]:
    """The largest volume-weighted L1 distance between two vertices of the
    hull of the columns cols and the first pair (a, b) attaining it;
    (0, 0, 0) for a single vertex.

    The columns are M_{n,N} over any common factor c, and vols are their
    _scaled_volumes, s_j = c L vol_N[j] for vol_n[i] = w_i/L: a level-N
    volume is the sum of the level-n volumes it holds. Vertex j is
    M_ij/vol_N[j] = L M_ij/s_j, in which c cancels, so a matrix reduced by
    its content has the hull of the full one. The distance of (a, b) is
        sum_i w_i |M_ia s_b' - M_ib s_a'| / (g s_a' s_b')
    where g = gcd(s_a, s_b), s_a = g s_a' and s_b = g s_b'; L cancels too.
    Pairs are compared in integers by cross-multiplication, and only the
    widest becomes a Fraction.
    """
    best = None
    for a in range(len(cols)):
        for b in range(a + 1, len(cols)):
            g = gcd(vols[a], vols[b])
            sa, sb = vols[a] // g, vols[b] // g
            num = sum(wi * abs(x * sb - y * sa) for wi, x, y in zip(w, cols[a], cols[b]))
            den = g * sa * sb
            if best is None or num * best[1] > best[0] * den:
                best = (num, den, a, b)
    if best is None:
        return Fraction(0), 0, 0
    num, den, a, b = best
    return Fraction(num, den), a, b


def _vertex(col, s: int, L: int, vol_n, memo: dict) -> tuple[Fraction, ...]:
    """A column over its supertile's volume, s/L over the column's common
    factor (see _widest_pair). Equal (count, s) pairs of one horizon share
    the Fraction kept in memo. A vertex is volume normalized,
    sum_i vol_n[i] v_i = 1, so the second of two coordinates is
    (1 - vol_n[0] v_0) / vol_n[1], with no gcd at the size of the column."""
    out = []
    for i, x in enumerate(col):
        if (x, s) not in memo:
            if i == 1 and len(col) == 2:
                memo[x, s] = (1 - vol_n[0] * out[0]) / vol_n[1]
            else:
                memo[x, s] = Fraction(x * L, s)
        out.append(memo[x, s])
    return tuple(out)


def _hull(n: int, N: int, labels, cols: dict, vol_n, L: int, vols, diameter: Fraction) -> FrequencyHull:
    """The hull of M_{n,N} from its columns by label, their scaled volumes
    and its diameter."""
    memo: dict = {}
    vertices = tuple(_vertex(col, s, L, vol_n, memo) for col, s in zip(cols.values(), vols))
    k = len(vertices)
    centroid = tuple(sum((v[i] for v in vertices), Fraction(0)) / k for i in range(len(labels)))
    return FrequencyHull(n, N, labels, tuple(cols), vertices, diameter, centroid)


def frequency_hull(rule: FusionRule, n: int, N: int) -> FrequencyHull:
    """Volume-normalized columns of M_{n,N} plus diameter and centroid.

    M_{n,N} is read from transition_matrix and its content divided out
    once, with no gcd per level.
    """
    if N <= n or n < 0:
        raise InvalidRangeError(n, N, "0 <= from < to")
    m = transition_matrix(rule, n, N)
    cols = dict(zip(m.col_labels, zip(*m.entries)))
    _divide(cols, _content(cols, 0))
    vol_n = volumes(rule, n).values
    L, w = _over_one_denominator(vol_n)
    cols_N = tuple(cols.values())
    vols = _scaled_volumes(cols_N, w)
    diameter, _, _ = _widest_pair(cols_N, w, vols)
    return _hull(n, N, m.row_labels, cols, vol_n, L, vols, diameter)


def _reduced_column_rows(rule: FusionRule, n: int, N: int):
    """Yield, per level k = n..N, the columns of M[n -> k] by label divided
    by the matrix's content, so that their entries have gcd 1.

    _fold_levels folds the next level from the very dict it yielded, so the
    division, done in that dict, carries the reduced matrix forward. The
    content of a level's product divides |det S| of its step S, so once
    its entries are longer than _DET_BITS the gcd starts from |det S|
    (_step_det). It starts from 0, a full gcd, on shorter entries, where S
    is not square and where det S = 0. A level-free rule's steps from
    level 2 up are all the step into level 2, so its determinant is found
    once.
    """
    rows = _column_rows(rule, n, N)
    yield next(rows)  # the identity, of content 1
    free = None  # a level-free rule's |det S| for every step from level 2 up
    for k, cols in enumerate(rows, n + 1):
        det = 0
        if next(iter(cols.values()))[0].bit_length() > _DET_BITS:
            if rule._level_free and k >= 2:
                free = det = _step_det(rule, 2) if free is None else free
            else:
                det = _step_det(rule, k)
        _divide(cols, _content(cols, det))
        yield cols


# The length, in bits, of a level's first entry above which its gcd starts
# from the determinant of its step. Below it a full gcd costs less than
# finding det S (about 4 us, as a gcd of two 350-bit entries in Euclid's
# worst case does). Any value gives the same contents.
_DET_BITS = 512


def _divide(cols: dict, g: int) -> None:
    """Divide every column, in place, by g, a common factor of the entries."""
    if g > 1:
        for label, col in cols.items():
            cols[label] = tuple(e // g for e in col)


def _content(cols: dict, g: int) -> int:
    """The gcd of g and every entry of the columns, stopping once it is 1:
    the content of the matrix for g = 0 or a multiple of the content. Each
    gcd with a small g first reduces the large entry modulo g."""
    for col in cols.values():
        for e in col:
            if g == 1:
                return 1
            g = gcd(g, e)
    return g


def _step_det(rule: FusionRule, k: int) -> int:
    """|det S| of the step from level k-1 into level k, 0 if not square."""
    rows = _step_rows(rule, k)
    return abs(_det(rows)) if len(rows) == len(rows[0]) else 0


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, given as a list of row lists
    that it overwrites, by fraction-free elimination (Bareiss, Math. Comp.
    22, 1968): step k replaces each entry below and right of the pivot by a
    2 x 2 minor divided exactly by the previous pivot, so every entry stays
    an integer, a minor of the matrix."""
    sign, prev = 1, 1
    m = len(rows)
    for k in range(m - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
        prev = pivot
    return sign * rows[-1][-1]


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


def _exact(x: Union[Fraction, float]) -> Fraction:
    """A tolerance as the Fraction of its decimal text: 0.1 is 1/10."""
    return x if isinstance(x, Fraction) else Fraction(str(x))


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
    undecided). A float tol or floor is read as its decimal text (0.1 is
    1/10), and the report stores that tol. Verdicts are finite-depth
    diagnostics, not proofs. window must be at least 1, and tol and floor
    at least 0.

    Each horizon costs the gcd that reduces its columns, started from
    |det S| of its step S where S is square (_reduced_column_rows), and
    one Fraction, its diameter (_widest_pair). Vertex Fractions are built
    for the hull at depth and, when the verdict is multiple, for the two
    trajectory vertices of every horizon.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if depth <= n:
        raise InvalidRangeError(n, depth, "0 <= from < to")
    tol, floor = _exact(tol), _exact(floor)
    if tol < 0 or floor < 0:
        raise ValueError(f"tol and floor must be >= 0, got tol {_frac_str(tol)} and floor {_frac_str(floor)}")
    vol_n = volumes(rule, n).values
    L, w = _over_one_denominator(vol_n)
    diameters = []
    ends = []  # per horizon, (label, column, scaled volume) of both ends of the widest pair
    for cols in islice(_reduced_column_rows(rule, n, depth), 1, None):
        labels_N, cols_N = tuple(cols), tuple(cols.values())
        vols = _scaled_volumes(cols_N, w)
        diameter, a, b = _widest_pair(cols_N, w, vols)
        diameters.append(diameter)
        ends.append(tuple((labels_N[j], cols_N[j], vols[j]) for j in (a, b)))
    # the loop leaves the last horizon's columns, volumes and diameter
    hull = _hull(n, depth, resolve_level(rule, n).labels, cols, vol_n, L, vols, diameter)
    trajectories = None
    if diameters[-1] < tol:
        verdict = "unique"
    elif all(d > floor for d in diameters[-window:]):
        verdict = "multiple"
        steps = []
        for step in ends:
            memo: dict = {}  # shared by both ends of one horizon
            steps.append(tuple((label, _vertex(col, s, L, vol_n, memo)) for label, col, s in step))
        trajectories = tuple(zip(*steps))
    else:
        verdict = "undecided"
    horizons = tuple(range(n + 1, depth + 1))
    return ErgodicityReport(n, depth, tol, horizons, tuple(diameters), verdict, hull, trajectories)


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
    is no budget: supertiles with 10^n children cost what their counts'
    integers cost, and a level-free rule's counts at level 100000 take
    about log2(level) matrix products (see _word_counts).
    """
    return _entry(_word_counts(rule, word, level), label, level)


def _word_counts(rule: FusionRule, word: Union[str, tuple[str, ...]], level: int) -> dict[str, int]:
    """Occurrences of the word in every level-n supertile, from one pass.

    A level-free rule fuses every level k >= 2 by level 2's bodies, so its
    counts obey c_k = c_{k-1} . S + s_k, S the step into level 2 and s_k
    the seam term, the occurrences across the seams of the level-k bodies,
    read off the heads and tails of the level-(k-1) supertiles. Those ends,
    the state of a level, fix the next level's state and seam term. The
    walk keeps each level's state from level 1 up, and at the first level
    k whose state is that of an earlier level j, s repeats with period
    p = k - j from level j + 1 on. One period is the affine map
    (c, 1) -> (c, 1) . B_{j+1} ... B_k, B_i = [[S, 0], [s_i, 1]], so the
    counts at level j + q p + r are (c_j, 1) . P^q . B_{j+1} ... B_{j+r}:
    about log2(level) products of (m+1) x (m+1) matrices for m labels,
    and no level above k is fused. A walk that reaches level first returns
    its row, as a rule that is not level-free always does.
    """
    if rule.dimension != 1:
        raise ValueError("word_count is for 1D rules")
    if level < 0:
        raise ValueError("level must be >= 0")
    rows = _word_rows(rule, word, level)
    if not rule._level_free:
        row = deque(rows, maxlen=1)[0]
        return {label: count for label, (count, *_) in row.items()}
    counts = []  # per level walked, its counts in label order
    seen: dict = {}  # state -> the first level from 1 up that had it
    for k, row in enumerate(rows):
        counts.append([count for count, *_ in row.values()])
        if k:
            state = tuple((head, tail) for *_, head, tail in row.values())
            if state in seen:
                break
            seen[state] = k
    else:
        return dict(zip(row, counts[-1]))
    j = seen[state]
    step = _step_rows(rule, 2)

    def affine(i: int) -> list[list[int]]:
        # B_i, whose last row is (s_i, 1)
        seam = [c - e for c, e in zip(counts[i], _product((counts[i - 1],), step)[0])]
        return [row + [0] for row in step] + [seam + [1]]

    period = [affine(i) for i in range(j + 1, k + 1)]
    q, r = divmod(level - j, k - j)
    x = _times_power((counts[j] + [1],), reduce(_product, period), q)
    for b in period[:r]:
        x = _product(x, b)
    return dict(zip(row, x[0][:-1]))


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

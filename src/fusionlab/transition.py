"""Exact transition matrices between supertile levels and volume vectors.

The (i, j) entry of the level-(n, N) matrix counts, hierarchically through
the fusion tree, how many level-n supertiles of type i occur inside the
level-N supertile of type j. Everything is exact: entries are Python
integers (arbitrary precision), volumes are rationals. Row and column order
is the canonical supertile order of the respective levels.

A matrix is built by one fold of columns over the levels: column j of
M[n -> k] sums repeat x child column of M[n -> k-1] over the body of
level-k supertile j. A level-free rule (FusionRule._level_free, whose
guards, repeats and offsets read neither n nor w()/h()) is a substitution:
every level from 2 up resolves as level 2 does, so its matrices fold only
up to level 2 and reach M[n -> N] by repeated squaring of the step S into
level 2. compose multiplies through the same entry product,
core._product.

The hulls read M[n -> k] up to scale only, so their fold
(_reduced_column_rows) divides each level's matrix by its content, the gcd
of its entries. As M[n -> k+1] = M[n -> k] . S for the step matrix S, the
content of one level divides the content of the next, and the reduced
matrix can be carried forward in its place. When S is square, the content
of M' . S for a reduced M' also divides det S (M' . S . adj S = det S . M'),
so each level's gcd starts from |det S|, found by fraction-free elimination
(_det), and reduces every large entry by that small number.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import FusionRule, _fold_levels, _product, _step_rows, _times_power, _weighted_sums, resolve_level
from .errors import InvalidRangeError, UnknownLabelError


@dataclass(frozen=True)
class TransitionMatrix:
    from_level: int
    to_level: int
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]  # rows x cols

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def entry(self, row_label: str, col_label: str) -> int:
        i = _index(self.row_labels, row_label, self.from_level)
        return self.entries[i][_index(self.col_labels, col_label, self.to_level)]

    def column(self, col_label: str) -> tuple[int, ...]:
        j = _index(self.col_labels, col_label, self.to_level)
        return tuple(row[j] for row in self.entries)

    def is_positive(self) -> bool:
        return all(e > 0 for row in self.entries for e in row)


@dataclass(frozen=True)
class VolumeVector:
    level: int
    labels: tuple[str, ...]
    values: tuple[Fraction, ...]

    def value(self, label: str) -> Fraction:
        return self.values[_index(self.labels, label, self.level)]


def _index(labels: tuple[str, ...], label: str, level: int) -> int:
    """Position of label among a level's labels; UnknownLabelError if the
    level lacks it."""
    if label not in labels:
        raise UnknownLabelError(label, level, labels)
    return labels.index(label)


def compose(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    """Matrix product a . b, counting through the intermediate level, which
    a's columns and b's rows must both be (InvalidRangeError otherwise)."""
    if a.to_level != b.from_level or a.col_labels != b.row_labels:
        raise InvalidRangeError(
            a.to_level, b.from_level, "a.to_level == b.from_level and a.col_labels == b.row_labels",
            f"a.to_level={a.to_level} b.from_level={b.from_level} a.col_labels={a.col_labels} b.row_labels={b.row_labels}",
        )
    return TransitionMatrix(a.from_level, b.to_level, a.row_labels, b.col_labels, _product(a.entries, b.entries))


def step_matrix(rule: FusionRule, k: int) -> TransitionMatrix:
    """One-level matrix from level k-1 to level k (k >= 1)."""
    return transition_matrix(rule, k - 1, k)


def transition_matrix(rule: FusionRule, n: int, N: int) -> TransitionMatrix:
    """Counts of level-n supertiles inside level-N supertiles (n <= N).

    N == n yields the identity. One fold of columns over levels n..N that
    holds two levels at a time (_column_rows), or for a level-free rule a
    fold to level 2 at most and a power of one step (_top_columns); only
    the level resolutions are kept on the rule.
    """
    labels, cols = _top_columns(rule, n, N, False)
    return _matrix(n, N, labels, cols)


def _top_columns(rule: FusionRule, n: int, N: int, reduced: bool) -> tuple[tuple[str, ...], dict]:
    """The level-n labels and the columns by label of M[n -> N], divided by
    its content when reduced: the last level of _column_rows, or of
    _reduced_column_rows when reduced.

    A level-free rule resolves every level from 2 up as level 2, so
    M[n -> N] is M[b -> t] . S^(N - n + b - t) for b = min(n, 2), t =
    min(N - n + b, 2) and S the step from level 1 into level 2. Only levels
    up to t <= N are resolved, so a failing level raises as the walk raises
    it, and a level above N never does. The powered matrix is divided by
    its content once.
    """
    if N < n or n < 0:
        raise InvalidRangeError(n, N)
    if not rule._level_free:
        fold = _reduced_column_rows if reduced else _column_rows
        return resolve_level(rule, n).labels, deque(fold(rule, n, N), maxlen=1)[0]
    b = min(n, 2)
    top = N - n + b
    cols = deque(_column_rows(rule, b, min(top, 2)), maxlen=1)[0]
    if top > 2:
        cols = dict(zip(cols, zip(*_times_power(tuple(zip(*cols.values())), _step_rows(rule, 2), top - 2))))
    if reduced:
        _divide(cols, _content(cols, 0))
    return resolve_level(rule, b).labels, cols


def _column_rows(rule: FusionRule, n: int, N: int):
    """Yield, per level k = n..N, the columns of M[n -> k] by label."""
    if N < n or n < 0:
        raise InvalidRangeError(n, N)
    labels = resolve_level(rule, n).labels
    unit = {lab: tuple(int(i == j) for i in range(len(labels))) for j, lab in enumerate(labels)}

    def column(body, prev) -> tuple[int, ...]:
        parts = [prev[p.child] if p.repeat == 1 else [p.repeat * e for e in prev[p.child]] for p in body]
        return tuple(map(sum, zip(*parts)))

    return _fold_levels(rule, N, unit, column, bottom=n)


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


def _matrix(n: int, N: int, row_labels: tuple[str, ...], cols: dict) -> TransitionMatrix:
    """M[n -> N] from its columns by label."""
    return TransitionMatrix(n, N, row_labels, tuple(cols), tuple(zip(*cols.values())))


def volumes(rule: FusionRule, n: int) -> VolumeVector:
    """Exact volumes of the level-n supertiles.

    Level 0 reads the prototile declarations; level n sums repeat x child
    volume over each body, or for a level-free rule is level 2's volumes
    times a power of the step into level 2 (core._weighted_sums).
    """
    sums = _weighted_sums(rule, n, "volume")
    return VolumeVector(n, tuple(sums), tuple(sums.values()))

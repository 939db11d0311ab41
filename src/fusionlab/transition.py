"""Exact transition matrices between supertile levels and volume vectors.

The (i, j) entry of the level-(n, N) matrix counts, hierarchically through
the fusion tree, how many level-n supertiles of type i occur inside the
level-N supertile of type j. Everything is exact: entries are Python
integers (arbitrary precision), volumes are rationals. Row and column order
is the canonical supertile order of the respective levels.

A matrix is built by one fold of columns over the levels: column j of
M[n -> k] sums repeat x child column of M[n -> k-1] over the body of
level-k supertile j. compose is the independent matrix product.

The hulls read M[n -> k] up to scale only, so their fold
(_reduced_column_rows) divides each level's matrix by its content, the gcd
of its entries. As M[n -> k+1] = M[n -> k] . S for the step matrix S, the
content of one level divides the content of the next, and the reduced
matrix can be carried forward in its place.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import FusionRule, _fold_levels, _weighted_sums, resolve_level
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
    entries = tuple(
        tuple(
            sum(a.entries[i][k] * b.entries[k][j] for k in range(len(a.col_labels)))
            for j in range(len(b.col_labels))
        )
        for i in range(len(a.row_labels))
    )
    return TransitionMatrix(a.from_level, b.to_level, a.row_labels, b.col_labels, entries)


def step_matrix(rule: FusionRule, k: int) -> TransitionMatrix:
    """One-level matrix from level k-1 to level k (k >= 1)."""
    return transition_matrix(rule, k - 1, k)


def transition_matrix(rule: FusionRule, n: int, N: int) -> TransitionMatrix:
    """Counts of level-n supertiles inside level-N supertiles (n <= N).

    N == n yields the identity. One fold of columns over levels n..N that
    holds two levels at a time (_column_rows); only the level resolutions
    are kept on the rule.
    """
    cols = deque(_column_rows(rule, n, N), maxlen=1)[0]
    return _matrix(n, N, resolve_level(rule, n).labels, cols)


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
    division, done in that dict, carries the reduced matrix forward.
    """
    for cols in _column_rows(rule, n, N):
        g = _content(cols)
        if g > 1:
            for label, col in cols.items():
                cols[label] = tuple(e // g for e in col)
        yield cols


def _content(cols: dict) -> int:
    """The gcd of every entry of the columns, stopping once it is 1."""
    g = 0
    for col in cols.values():
        for e in col:
            g = gcd(g, e)
            if g == 1:
                return 1
    return g


def _matrix(n: int, N: int, row_labels: tuple[str, ...], cols: dict) -> TransitionMatrix:
    """M[n -> N] from its columns by label."""
    return TransitionMatrix(n, N, row_labels, tuple(cols), tuple(zip(*cols.values())))


def volumes(rule: FusionRule, n: int) -> VolumeVector:
    """Exact volumes of the level-n supertiles.

    Level 0 reads the prototile declarations; level n sums repeat x child
    volume over each body.
    """
    sums = _weighted_sums(rule, n, "volume")
    return VolumeVector(n, tuple(sums), tuple(sums.values()))

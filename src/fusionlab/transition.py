"""Exact transition matrices between supertile levels and volume vectors.

The (i, j) entry of the level-(n, N) matrix counts, hierarchically through
the fusion tree, how many level-n supertiles of type i occur inside the
level-N supertile of type j. Everything is exact: entries are Python
integers (arbitrary precision), volumes are rationals. Row and column order
is the canonical supertile order of the respective levels.

A matrix is built by one fold of columns over the levels: column j of
M[n -> k] sums repeat x child column of M[n -> k-1] over the body of
level-k supertile j. compose is the independent matrix product.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .core import FusionRule, _fold_levels, _weighted_sums, resolve_level
from .errors import InvalidRangeError


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
        return self.entries[self.row_labels.index(row_label)][self.col_labels.index(col_label)]

    def column(self, col_label: str) -> tuple[int, ...]:
        j = self.col_labels.index(col_label)
        return tuple(row[j] for row in self.entries)

    def is_positive(self) -> bool:
        return all(e > 0 for row in self.entries for e in row)


@dataclass(frozen=True)
class VolumeVector:
    level: int
    labels: tuple[str, ...]
    values: tuple[Fraction, ...]

    def value(self, label: str) -> Fraction:
        return self.values[self.labels.index(label)]


def compose(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    """Matrix product a . b, counting through the intermediate level."""
    if a.to_level != b.from_level or a.col_labels != b.row_labels:
        raise InvalidRangeError(a.to_level, b.from_level)
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
    zero = (0,) * len(labels)
    unit = {lab: tuple(int(i == j) for i in range(len(labels))) for j, lab in enumerate(labels)}

    def column(body, prev) -> tuple[int, ...]:
        # zero sets the length, which an empty body would not
        parts = [prev[p.child] if p.repeat == 1 else [p.repeat * e for e in prev[p.child]] for p in body]
        return tuple(map(sum, zip(zero, *parts)))

    return _fold_levels(rule, N, unit, column, bottom=n)


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

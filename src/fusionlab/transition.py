"""Exact transition matrices between supertile levels and volume vectors.

The (i, j) entry of the level-(n, N) matrix counts, hierarchically through
the fusion tree, how many level-n supertiles of type i occur inside the
level-N supertile of type j. Everything is exact: entries are Python
integers (arbitrary precision), volumes are rationals. Row and column order
is the canonical supertile order of the respective levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import FusionRule, _weighted_sums, resolve_level
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
    if k < 1:
        raise InvalidRangeError(k - 1, k)
    rows = resolve_level(rule, k - 1).labels
    res = resolve_level(rule, k)
    counts = tuple(
        tuple(sum(p.repeat for p in s.body if p.child == label) for s in res.supertiles)
        for label in rows
    )
    return TransitionMatrix(k - 1, k, rows, res.labels, counts)


def transition_matrix(rule: FusionRule, n: int, N: int) -> TransitionMatrix:
    """Counts of level-n supertiles inside level-N supertiles (n <= N).

    N == n yields the identity. Built as the left-to-right product of step
    matrices, one multiplication per level; only the level resolutions are
    kept, not the products.
    """
    if N < n or n < 0:
        raise InvalidRangeError(n, N)
    labels = resolve_level(rule, n).labels
    entries = tuple(
        tuple(1 if i == j else 0 for j in range(len(labels)))
        for i in range(len(labels))
    )
    m = TransitionMatrix(n, n, labels, labels, entries)
    for k in range(n + 1, N + 1):
        m = compose(m, step_matrix(rule, k))
    return m


def volumes(rule: FusionRule, n: int) -> VolumeVector:
    """Exact volumes of the level-n supertiles.

    Level 0 reads the prototile declarations; level n sums repeat x child
    volume over each body.
    """
    sums = _weighted_sums(rule, n, "volume")
    return VolumeVector(n, tuple(sums), tuple(sums.values()))

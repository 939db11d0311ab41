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
core._product. This module holds exact matrices and volumes only; the
hulls, which read them up to scale, are in analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

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
    holds two levels at a time (_column_rows); only the level resolutions
    are kept on the rule.

    A level-free rule resolves every level from 2 up as level 2, so
    M[n -> N] is M[b -> t] . S^(N - n + b - t) for b = min(n, 2), t =
    min(N - n + b, 2) and S the step from level 1 into level 2. Only levels
    up to t <= N are resolved, so a failing level raises as the walk raises
    it, and a level above N never does.
    """
    if N < n or n < 0:
        raise InvalidRangeError(n, N)
    if not rule._level_free:
        cols = deque(_column_rows(rule, n, N), maxlen=1)[0]
        return TransitionMatrix(n, N, resolve_level(rule, n).labels, tuple(cols), tuple(zip(*cols.values())))
    b = min(n, 2)
    top = N - n + b
    cols = deque(_column_rows(rule, b, min(top, 2)), maxlen=1)[0]
    entries = tuple(zip(*cols.values()))
    if top > 2:
        entries = _times_power(entries, _step_rows(rule, 2), top - 2)
    return TransitionMatrix(n, N, resolve_level(rule, b).labels, tuple(cols), entries)


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


def volumes(rule: FusionRule, n: int) -> VolumeVector:
    """Exact volumes of the level-n supertiles.

    Level 0 reads the prototile declarations; level n sums repeat x child
    volume over each body, or for a level-free rule is level 2's volumes
    times a power of the step into level 2 (core._weighted_sums).
    """
    sums = _weighted_sums(rule, n, "volume")
    return VolumeVector(n, tuple(sums), tuple(sums.values()))

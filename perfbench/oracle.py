"""Reference values computed without fusionlab, for checking its results.

The four bundled 1D rules are restated here as plain substitutions, so
matrices, volumes, hulls, expansions and word counts can be recomputed by
methods that share no code with the package under test.
"""

from __future__ import annotations

from fractions import Fraction

# label -> character, as fusionlab.label_chars assigns them
CHARS = {
    "thue_morse": {"S1": "A", "S2": "B"},
    "fibonacci": {"A": "A", "B": "B"},
    "fiblike": {"A": "A", "B": "B", "T": "T"},
    "ten_pow_n": {"A": "A", "B": "B"},
}


class Mismatch(Exception):
    """A result that disagrees with its reference value."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def is_pow(base: int, v: int) -> bool:
    """v == base**m for some m >= 1."""
    if v < base:
        return False
    while v % base == 0:
        v //= base
    return v == 1


def bodies(rule: str, k: int) -> dict[str, tuple[tuple[str, int], ...]]:
    """Level-k supertiles of a bundled 1D rule in canonical order:
    label -> ((child, repeat), ...)."""
    if k == 0:
        return {lab: () for lab in CHARS[rule]}
    if rule == "fibonacci":
        return {"A": (("A", 1), ("B", 1)), "B": (("A", 1),)}
    if rule == "thue_morse":
        return {"S1": (("S1", 1), ("S2", 1)), "S2": (("S2", 1), ("S1", 1))}
    if rule == "ten_pow_n":
        r = 10**k
        return {"A": (("A", r), ("B", 1)), "B": (("B", r), ("A", 1))}
    if rule == "fiblike":
        out = {
            "A": (("T", 1), ("B", 1)) if k == 1 or is_pow(3, k) else (("A", 1), ("B", 1)),
            "B": (("A", 1),),
        }
        if is_pow(3, k + 1):
            out["T"] = (("B", 1), ("A", 1))
        return out
    raise KeyError(rule)


def fib(k: int) -> int:
    """Fibonacci number F(k), F(0) = 0, F(1) = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def step(rule: str, k: int):
    """Entries of M[k-1 -> k]: rows are level-(k-1) labels, columns level-k."""
    rows = list(bodies(rule, k - 1))
    cols = bodies(rule, k)
    return tuple(
        tuple(sum(r for child, r in body if child == row) for body in cols.values())
        for row in rows
    )


def matrices(rule: str, n: int, horizons):
    """Entries of M[n -> N] for each N in the sorted iterable horizons."""
    wanted = sorted(set(horizons))
    out = {}
    size = len(bodies(rule, n))
    m = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    k = n
    for N in wanted:
        while k < N:
            k += 1
            m = matmul(m, step(rule, k))
        out[N] = m
    return out


def matrix(rule: str, n: int, N: int):
    return matrices(rule, n, (N,))[N]


def volumes(rule: str, n: int) -> tuple[int, ...]:
    """Level-n supertile lengths (every bundled 1D prototile has length and
    volume 1, so volumes are column sums of M[0 -> n])."""
    m = matrix(rule, 0, n)
    return tuple(sum(row[j] for row in m) for j in range(len(m[0])))


def hull(rule: str, n: int, N: int, m=None):
    """(vertices, diameter) of the frequency hull at (n, N)."""
    m = m if m is not None else matrix(rule, n, N)
    vol_n = volumes(rule, n)
    vol_N = volumes(rule, N)
    verts = [
        tuple(Fraction(m[i][j], vol_N[j]) for i in range(len(m))) for j in range(len(m[0]))
    ]
    diameter = Fraction(0)
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            d = sum(vol_n[i] * abs(verts[a][i] - verts[b][i]) for i in range(len(vol_n)))
            diameter = max(diameter, d)
    return verts, diameter


def minimal_offset(rule: str, n: int, max_offset: int):
    """Smallest d <= max_offset with M[n -> n+d] entrywise positive, else None."""
    mats = matrices(rule, n, range(n + 1, n + max_offset + 1))
    for d in range(1, max_offset + 1):
        if all(e > 0 for row in mats[n + d] for e in row):
            return d
    return None


def words(rule: str, level: int, limit: int = 1 << 21):
    """Expansions of every level-`level` supertile as strings, or None when
    one would exceed limit characters."""
    cur = dict(CHARS[rule])
    for k in range(1, level + 1):
        nxt = {}
        for lab, body in bodies(rule, k).items():
            if sum(len(cur[c]) * r for c, r in body) > limit:
                return None
            nxt[lab] = "".join(cur[c] * r for c, r in body)
        cur = nxt
    return cur


def scan(text: str, word: str) -> int:
    """Overlapping occurrences of word in text."""
    count, start = 0, 0
    while True:
        i = text.find(word, start)
        if i < 0:
            return count
        count += 1
        start = i + 1


def word_counts(rule: str, word: str, level: int) -> list[dict[str, int]]:
    """Exact occurrences of word in every supertile at levels 0..level.

    Each supertile is summarised as (count, length, prefix, suffix) with
    prefix and suffix cut to |word| - 1 characters; concatenation adds the
    occurrences straddling the seam, and a run of r copies is closed-form
    once one copy is at least |word| - 1 long.
    """
    m = len(word)
    k = m - 1

    def seam(suf: str, pre: str) -> int:
        text = suf + pre
        return sum(
            1
            for i in range(max(0, len(suf) - m + 1), len(suf))
            if i + m <= len(text) and text.startswith(word, i)
        )

    def join(a, b):
        return (
            a[0] + b[0] + seam(a[3], b[2]),
            a[1] + b[1],
            (a[2] + b[2])[:k],
            (a[3] + b[3])[-k:] if k else "",
        )

    def power(x, r):
        out = x
        r -= 1
        while r and out[1] < k:
            out = join(out, x)
            r -= 1
        if not r:
            return out
        if x[1] >= k:
            inner = seam(x[3], x[2])
            return (out[0] + r * (x[0] + inner), out[1] + r * x[1], out[2], x[3])
        # x is shorter than the seam window: append the copies one by one
        # (only repeats of level-0 tiles, at most 10 of them, reach here)
        while r:
            out = join(out, x)
            r -= 1
        return out

    summary = {
        lab: (int(word == ch), 1, ch[:k], ch[-k:] if k else "")
        for lab, ch in CHARS[rule].items()
    }
    table = [{lab: s[0] for lab, s in summary.items()}]
    for lv in range(1, level + 1):
        nxt = {}
        for lab, body in bodies(rule, lv).items():
            acc = None
            for child, r in body:
                piece = power(summary[child], r)
                acc = piece if acc is None else join(acc, piece)
            nxt[lab] = acc
        summary = nxt
        table.append({lab: s[0] for lab, s in summary.items()})
    return table

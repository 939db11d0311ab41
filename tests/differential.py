"""Differential check: record what every public entry point answers, on this
checkout or on another revision, and show the records that differ.

    python tests/differential.py [--seed S] [--rules N]
    python tests/differential.py --against REV [--seed S] [--rules N]

The first form prints one JSON record per call: the call, its arguments,
and its value or the type and message of the error it raised (long values
as a digest). The rules are the bundled ones plus N seeded random 1D rules
and N seeded random 2D rules, shaped like the test strategies
small_2d_rules and seam_2d_rules. Levels and labels out of range are
called on purpose.

With --against, this script runs twice, with PYTHONHASHSEED=0: once on
this checkout's src/ and once on REV's src/, unpacked by `git archive`
into a temporary directory that is removed afterwards (nothing is written
under .git). It prints the records that differ, grouped by call, and exits
1 when any does. Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SHAPES = (
    ((0, 0),),
    ((0, 0), (1, 0)),
    ((0, 0), (0, 1)),
    ((0, 0), (0, 1), (1, 0)),
    ((0, 0), (1, 0), (1, 1)),
    ((0, 0), (0, 1), (1, 1)),
    ((0, 1), (1, 0), (1, 1)),
)


def _show(value) -> str:
    text = repr(value)
    if len(text) <= 160:
        return text
    return f"sha256:{hashlib.sha256(text.encode()).hexdigest()[:24]} len {len(text)}"


class Recorder:
    def __init__(self, out):
        self.out = out

    def __call__(self, rule_id: str, name: str, args: tuple, call):
        try:
            result = "= " + _show(call())
        except Exception as e:  # every outcome is a record, errors included
            result = f"! {type(e).__name__}: {e}"
        self.out.write(json.dumps([rule_id, name, repr(args), result]) + "\n")


def _random_1d(F, rng: random.Random, i: int):
    names = ("A", "B", "C")[: rng.randint(1, 3)]
    repeats = [
        lambda: F.Lit(rng.randint(1, 3)),
        lambda: F.Var(),
        lambda: F.BinOp("+", F.Var(), F.Lit(1)),
        lambda: F.BinOp("^", F.Lit(2), F.Var()),
        lambda: F.BinOp("-", F.Var(), F.Lit(1)),
    ]
    guards = [
        F.Cmp("==", F.Var(), F.Lit(1)),
        F.Cmp("<", F.Var(), F.Lit(3)),
        F.Cmp(">=", F.Var(), F.Lit(4)),
        F.IsPow(2, F.Var()),
        F.Not(F.IsPow(3, F.Var())),
    ]

    def body():
        # an empty body now and then, which validate_rule rejects but a
        # rule built in Python may hold
        weights = [8, 2, 1, 1, 1]
        return tuple(
            F.Placement(rng.choice(names), rng.choices(repeats, weights)[0]())
            for _ in range(rng.choice((0,) + (1, 2, 3) * 8))
        )

    definitions = []
    for name in names:
        if rng.random() < 0.3:
            definitions.append(F.SupertileDef(name, body(), rng.choice(guards)))
        if rng.random() < 0.9 or name == names[0]:
            definitions.append(F.SupertileDef(name, body()))
    prototiles = tuple(F.Prototile(name, Fraction(rng.randint(1, 3))) for name in names)
    return F.FusionRule(f"random1d{i}", 1, prototiles, tuple(definitions))


def _random_2d(F, rng: random.Random, i: int):
    names = ("P", "Q")[: rng.randint(1, 2)]
    definitions = []
    for name in names:
        children = [rng.choice(names) for _ in range(rng.randint(2, 3))]
        if i % 2:  # small_2d_rules: children at random small offsets
            body = tuple(
                F.Placement(child, F.Lit(1), (F.Lit(rng.randint(-2, 2)), F.Lit(rng.randint(-2, 2))))
                for child in children
            )
        else:  # seam_2d_rules: each child on the previous child's right or top edge
            x = y = F.Lit(0)
            body = [F.Placement(children[0], F.Lit(1), (x, y))]
            for prev, child in zip(children, children[1:]):
                nudge = F.Lit(rng.randint(-1, 1))
                if rng.random() < 0.5:
                    x, y = F.BinOp("+", x, F.Dim("w", prev)), F.BinOp("+", y, nudge)
                else:
                    x, y = F.BinOp("+", x, nudge), F.BinOp("+", y, F.Dim("h", prev))
                body.append(F.Placement(child, F.Lit(1), (x, y)))
            body = tuple(body)
        definitions.append(F.SupertileDef(name, body))
    prototiles = tuple(F.Prototile(name, Fraction(1), cells=rng.choice(SHAPES)) for name in names)
    return F.FusionRule(f"random2d{i}", 2, prototiles, tuple(definitions))


def _labels(F, rule, level) -> tuple:
    try:
        return F.resolve_level(rule, level).labels
    except Exception:
        return ()


def _common(F, rec, rid, rule, top, rng):
    rec(rid, "validate_rule", (6,), lambda: [str(d) for d in F.validate_rule(rule, 6)])
    for k in range(-1, top + 1):
        rec(rid, "resolve_level", (k,), lambda: F.resolve_level(rule, k))
        rec(rid, "level_sizes", (k,), lambda: F.level_sizes(rule, k))
        rec(rid, "volumes", (k,), lambda: F.volumes(rule, k))
        rec(rid, "step_matrix", (k,), lambda: F.step_matrix(rule, k))
        for label in _labels(F, rule, k) + ("Z",):
            rec(rid, "tile_count", (k, label), lambda: F.tile_count(rule, k, label))
            rec(rid, "cell_count", (k, label), lambda: F.cell_count(rule, k, label))
    for n in range(-1, top + 1):
        for N in range(n - 1, top + 1):
            rec(rid, "transition_matrix", (n, N), lambda: F.transition_matrix(rule, n, N))
    for n, m, N in ((0, 1, 2), (0, 2, top), (1, 1, top), (0, 1, 0)):
        rec(rid, "compose", (n, m, N), lambda: F.compose(F.transition_matrix(rule, n, m), F.transition_matrix(rule, m, N)))
    for n in range(-1, 3):
        for d in range(0, 4):
            rec(rid, "primitivity_check", (n, d), lambda: F.primitivity_check(rule, n, d))
        for N in (n, n + 1, n + 3):
            rec(rid, "frequency_hull", (n, N), lambda: F.frequency_hull(rule, n, N))
            rec(rid, "ergodicity_report", (n, N), lambda: F.ergodicity_report(rule, n, N))
    for depth in range(0, 4):
        for r in (1, 2):
            rec(rid, "van_hove_diagnostic", (depth, r), lambda: F.van_hove_diagnostic(rule, depth, r))
        cap = rng.randint(1, 40)
        rec(rid, "van_hove_diagnostic", (depth, 1, cap), lambda: F.van_hove_diagnostic(rule, depth, 1, cap))
    for k in range(-1, min(top, 5) + 1):
        for label in _labels(F, rule, k) + ("Z",):
            for cap in (None, 10, rng.randint(1, 60)):
                rec(rid, "expand_supertile", (k, label, cap), lambda: F.expand_supertile(rule, k, label, cap))
    rec(rid, "label_chars", (), lambda: F.label_chars(rule))


def _one_d(F, rec, rid, rule, top, rng):
    chars = "".join(F.label_chars(rule).values())
    words = [chars[:1], chars[-1:] * 2] + ["".join(rng.choice(chars) for _ in range(rng.randint(1, 4))) for _ in range(3)]
    for word in words:
        for k in (-1, 0, 1, 3, top):
            for label in _labels(F, rule, k)[:2] + ("Z",):
                rec(rid, "word_count", (word, k, label), lambda: F.word_count(rule, word, k, label))
        for max_level in (-1, 0, top):
            rec(rid, "is_admissible", (word, max_level), lambda: F.is_admissible(rule, word, max_level))
            rec(rid, "patch_universality", (word, max_level), lambda: F.patch_universality(rule, word, max_level))
        rec(rid, "patch_frequency_estimate", (word, 1, 4), lambda: F.patch_frequency_estimate(rule, word, 1, 4))
    rec(rid, "word_count", ("", 2, "A"), lambda: F.word_count(rule, "", 2, "A"))
    for k in (-1, 0, 2, top):
        for label in _labels(F, rule, k) + ("Z",):
            for length in (0, 1, 2, 5):
                rec(rid, "prefix_suffix", (k, label, length), lambda: F.prefix_suffix(rule, k, label, length))
    for k in range(0, min(top, 4) + 1):
        for label in _labels(F, rule, k):
            rec(rid, "render_text", (k, label), lambda: F.render_text(F.expand_supertile(rule, k, label, 10**4), rule))


def _two_d(F, rec, rid, rule, top, rng):
    for k in range(0, min(top, 4) + 1):
        for label in _labels(F, rule, k):
            def expansion():
                return F.expand_supertile(rule, k, label, 10**4)

            rec(rid, "from_tiles", (k, label), lambda: F.CellPatch.from_tiles(rule, expansion().tiles))
            rec(rid, "from_cells", (k, label), lambda: F.CellPatch.from_cells(dict(expansion().cells)))
            rec(rid, "tile_census", (k, label), lambda: F.tile_census(expansion()))
            rec(rid, "render_text", (k, label), lambda: F.render_text(expansion(), rule))
            rec(rid, "render_svg", (k, label), lambda: F.render_svg(expansion(), rule=rule))
    for label in _labels(F, rule, 1):
        def patch():
            tiles = F.expand_supertile(rule, 1, label).tiles
            return F.CellPatch.from_tiles(rule, tiles[: rng.randint(1, len(tiles))])

        rec(rid, "is_admissible", (label, 3), lambda: F.is_admissible(rule, patch(), 3, 10**4))
        for k in (0, 1, 2):
            rec(rid, "patch_count_2d", (label, k), lambda: F.patch_count_2d(rule, patch(), k, _labels(F, rule, k)[0], 10**4))
        rec(rid, "patch_frequency_estimate", (label, 1, 3), lambda: F.patch_frequency_estimate(rule, patch(), 1, 3, 10**4))


def records(seed: int, count: int, out) -> None:
    import fusionlab as F

    rec = Recorder(out)
    rules = [(name, F.load_builtin(name), 5 if F.load_builtin(name).dimension == 2 else 12) for name in F.builtin_names()]
    rng = random.Random(seed)
    rules += [(f"random1d{i}", _random_1d(F, rng, i), 6) for i in range(count)]
    rules += [(f"random2d{i}", _random_2d(F, rng, i), 3) for i in range(count)]
    for rid, rule, top in rules:
        # each rule draws from its own stream, so one rule's calls cannot
        # shift another's arguments
        rule_rng = random.Random(f"{seed}:{rid}")
        _common(F, rec, rid, rule, top, rule_rng)
        (_one_d if rule.dimension == 1 else _two_d)(F, rec, rid, rule, top, rule_rng)


def _run(src: Path, seed: int, count: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(Path(__file__).resolve()), "--src", str(src), "--seed", str(seed), "--rules", str(count)]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)


def against(rev: str, seed: int, count: int) -> int:
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        tree = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=tree.stdout, check=True)
        procs = {"this": _run(ROOT / "src", seed, count), rev: _run(Path(tmp) / "src", seed, count)}
        outs = {side: proc.communicate()[0] for side, proc in procs.items()}
        if any(proc.returncode for proc in procs.values()):
            print("a recording run failed", file=sys.stderr)
            return 2
    theirs, ours = ([json.loads(line) for line in outs[side].splitlines()] for side in (rev, "this"))
    print(f"{len(ours)} records here, {len(theirs)} at {rev}")
    if [r[:3] for r in ours] != [r[:3] for r in theirs]:
        print("the two runs made different calls; compare their record lists directly")
        return 1
    diffs = defaultdict(list)
    for (rid, name, args, new), (_, _, _, old) in zip(ours, theirs):
        if new != old:
            diffs[name].append((rid, args, old, new))
    for name, rows in sorted(diffs.items()):
        # an outcome's kind: "value" or the type of the error raised
        kinds = Counter(tuple("value" if r[:1] == "=" else r[2:].split(":")[0] for r in row[2:]) for row in rows)
        print(f"\n{name}: {len(rows)} records differ")
        for (old, new), n in kinds.most_common():
            print(f"  {n} x {rev}: {old} -> this: {new}")
        for rid, args, old, new in rows[:3]:
            print(f"  e.g. {rid} {args}\n    {rev}: {old}\n    this: {new}")
    print(f"\n{sum(len(rows) for rows in diffs.values())} records differ")
    return 1 if diffs else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare this checkout with git revision REV")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rules", type=int, default=200, help="random rules of each dimension")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.against:
        return against(args.against, args.seed, args.rules)
    sys.path.insert(0, str(args.src))
    records(args.seed, args.rules, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

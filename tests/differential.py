"""Differential check: record what every public entry point answers, on this
checkout or on another revision, and show the records that differ.

    python tests/differential.py [--seed S] [--rules N]
    python tests/differential.py --against REV [--seed S] [--rules N]

The first form prints one JSON record per call: the call, its arguments,
and its value or the type and message of the error it raised (long values
as a digest). The rules are the bundled ones plus N seeded random 1D rules
and N seeded random 2D rules, shaped like the test strategies
small_2d_rules and seam_2d_rules. Each rule's construction is a record of
its own, and a rule that is not built gets no other record. Levels and
labels out of range are called on purpose.

With --against, this script runs twice, with PYTHONHASHSEED=0: once on
this checkout's src/ and once on REV's src/, unpacked by `git archive`
into a temporary directory that is removed afterwards (nothing is written
under .git). It compares the records of the rules that both sides built
and prints those that differ, grouped by call; then it lists the rules
that only one side built, with the outcome kinds of that side's records.
It exits 1 when either list is not empty. Standard library only; pytest
does not collect it.
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
        """Record the outcome of call(); return its value, None if it raised."""
        value = None
        try:
            value = call()
            result = "= " + _show(value)
        except Exception as e:  # every outcome is a record, errors included
            result = f"! {type(e).__name__}: {e}"
        self.out.write(json.dumps([rule_id, name, repr(args), result]) + "\n")
        return value


def _kind(result: str) -> str:
    """An outcome's kind: "value" or the type of the error raised."""
    return "value" if result[:1] == "=" else result[2:].split(":")[0]


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
        # an empty body now and then, which FusionRule rejects: the rule is
        # drawn all the same, so no later rule moves
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
    return lambda: F.FusionRule(f"random1d{i}", 1, prototiles, tuple(definitions))


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
    return lambda: F.FusionRule(f"random2d{i}", 2, prototiles, tuple(definitions))


def _empty_2d(F):
    """A 2D rule whose Q has an empty body, which FusionRule rejects; P
    places a Q beside itself."""
    body = tuple(F.Placement(child, F.Lit(1), (F.Lit(x), F.Lit(0))) for child, x in (("P", 0), ("Q", 1)))
    prototiles = tuple(F.Prototile(name, Fraction(1), cells=((0, 0),)) for name in "PQ")
    return lambda: F.FusionRule("empty2d", 2, prototiles, (F.SupertileDef("P", body), F.SupertileDef("Q", ())))


def _fractional_1d(F):
    """A 1D rule of three labels whose prototile volumes have denominators
    above 1, so the hull sweep meets fractional volumes at every level;
    two of its repeats grow with the level."""
    prototiles = tuple(F.Prototile(name, v) for name, v in zip("ABC", (Fraction(1, 2), Fraction(2, 3), Fraction(5, 4))))
    bodies = {
        "A": (F.Placement("A"), F.Placement("B", F.Var())),
        "B": (F.Placement("C"), F.Placement("A", F.Lit(2))),
        "C": (F.Placement("B"), F.Placement("C", F.BinOp("+", F.Var(), F.Lit(1)))),
    }
    definitions = tuple(F.SupertileDef(name, body) for name, body in bodies.items())
    return lambda: F.FusionRule("fractional1d", 1, prototiles, definitions)


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
    # (rule id, a call that builds the rule, top level); every rule is drawn
    # before any is built, so a rule that is not built moves no other
    builds = [
        (name, lambda name=name: F.load_builtin(name), 5 if F.load_builtin(name).dimension == 2 else 12)
        for name in F.builtin_names()
    ]
    rng = random.Random(seed)
    builds += [(f"random1d{i}", _random_1d(F, rng, i), 6) for i in range(count)]
    builds += [(f"random2d{i}", _random_2d(F, rng, i), 3) for i in range(count)]
    builds.append(("empty2d", _empty_2d(F), 3))
    builds.append(("fractional1d", _fractional_1d(F), 6))
    for rid, build, top in builds:
        rule = rec(rid, "FusionRule", (), build)
        if rule is None:
            continue
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
    theirs, ours = (_by_rule(outs[side]) for side in (rev, "this"))
    print(f"{sum(map(len, ours.values()))} records here, {sum(map(len, theirs.values()))} at {rev}")
    if list(ours) != list(theirs):
        print("the two runs drew different rules; compare their record lists directly")
        return 1
    diffs = defaultdict(list)
    one_sided = []  # (rule id, the side that built it, that side's records, the other's construction)
    for rid, mine in ours.items():
        old = theirs[rid]
        built_here, built_there = (side[0][3].startswith("=") for side in (mine, old))
        if built_here != built_there:
            one_sided.append((rid, "this", mine, old[0][3]) if built_here else (rid, rev, old, mine[0][3]))
            continue
        if [r[:3] for r in mine] != [r[:3] for r in old]:
            print(f"the two runs made different calls on {rid}; compare its records directly")
            return 1
        for (_, name, args, new), (_, _, _, prev) in zip(mine, old):
            if new != prev:
                diffs[name].append((rid, args, prev, new))
    for name, rows in sorted(diffs.items()):
        kinds = Counter((_kind(old), _kind(new)) for _, _, old, new in rows)
        print(f"\n{name}: {len(rows)} records differ")
        for (old, new), n in kinds.most_common():
            print(f"  {n} x {rev}: {old} -> this: {new}")
        for rid, args, old, new in rows[:3]:
            print(f"  e.g. {rid} {args}\n    {rev}: {old}\n    this: {new}")
    print(f"\n{sum(len(rows) for rows in diffs.values())} records of the rules both sides built differ")
    if one_sided:
        total = Counter()
        print(f"\n{len(one_sided)} rules built on one side only:")
        for rid, side, built, rejected in one_sided:
            kinds = Counter(_kind(r[3]) for r in built[1:])
            total += kinds
            shown = ", ".join(f"{n} {kind}" for kind, n in kinds.most_common())
            print(f"  {rid}: {len(built) - 1} records at {side} ({shown}); the other side: {rejected}")
        shown = ", ".join(f"{n} {kind}" for kind, n in total.most_common())
        print(f"{sum(total.values())} records of these rules in all: {shown}")
    return 1 if diffs or one_sided else 0


def _by_rule(text: str) -> dict[str, list]:
    """The records of a run by rule id, in the order the rules were drawn."""
    rules: dict[str, list] = {}
    for line in text.splitlines():
        record = json.loads(line)
        rules.setdefault(record[0], []).append(record)
    return rules


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

"""The benchmark's workloads: seeded inputs, the calls that are timed, and
the checks on their results.

Rules and depths are fixed per workload; the seed picks words, 2D patches,
base levels and labels, so cost stays comparable across seeds. A check
runs right after its call and may return a deferred check. Immediate checks
never call fusionlab, so they leave its caches as the timed calls left
them; deferred checks run after every call of the session has been timed.
"""

from __future__ import annotations

import ast
import hashlib
import json
import pathlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import oracle as O
from oracle import expect

HERE = pathlib.Path(__file__).resolve().parent
ONE_D = ("thue_morse", "fibonacci", "fiblike", "ten_pow_n")
WORKLOADS = ("tiling2d", "hull_sweep", "words1d", "cli")
RULES = {
    "tiling2d": ("chair", "fib2d"),
    "hull_sweep": ONE_D,
    "words1d": ONE_D,
    "cli": ONE_D + ("chair", "fib2d"),
}
# worker sessions of one pass; a cold deep-horizon probe runs in a worker
# of its own, and the cli workload's pass is in-process cli.main calls
PARTS = {
    "tiling2d": ("main",),
    "hull_sweep": ("main", "probe"),
    "words1d": ("main", "probe"),
    "cli": ("cli",),
}
PROBE_LIMIT = 2.0
CLI_LIMIT = 10.0
CLI_PROBE = ["matrix", "fibonacci", "--from", "0", "--to", "10000", "--json"]


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[Callable[[], None]]]
    limit: float


def expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as f:
        return json.load(f)


def build(workload: str, part: str, F, rules, rng, small: bool) -> list[Op]:
    """The timed calls of one worker session; part is "main" or "probe"."""
    if part == "probe":
        return _probe(workload, F, rules)
    return {"tiling2d": _tiling2d, "hull_sweep": _hull_sweep, "words1d": _words1d}[workload](
        F, rules, rng, small
    )


# ---------------------------------------------------------------------------
# tiling2d
# ---------------------------------------------------------------------------


def _expansion_op(F, rule, level, label, limit):
    def check(patch):
        expect(patch.dimension == 2, "not a 2D patch")
        cells = [c for c, _ in patch.cells]
        expect(len(set(cells)) == len(cells), "overlapping cells")
        expect(min(x for x, _ in cells) == 0 and min(y for _, y in cells) == 0, "not anchored")
        census = Counter(lab for _, lab in patch.tiles)
        expect(
            sum(n * len(rule.prototile(lab).cells or ((0, 0),)) for lab, n in census.items())
            == len(cells),
            "cell count disagrees with the tile census",
        )
        size = (max(x for x, _ in cells) + 1, max(y for _, y in cells) + 1)

        def later():
            m = F.transition_matrix(rule, 0, level)
            want = {lab: n for lab, n in zip(m.row_labels, m.column(label)) if n}
            expect(dict(census) == want, "tile census != transition_matrix column")
            expect(F.level_sizes(rule, level)[label] == size, "bounding box != level_sizes")

        return later

    return Op(f"expand_supertile {rule.name} {level} {label}", lambda: F.expand_supertile(rule, level, label), check, limit)


def _patch_ops(F, rule, rng, small):
    """patch_frequency_estimate and is_admissible for a seeded patch: a
    supertile at level 0 or 1, searched for and counted at low levels."""
    labels = rule.prototile_names()
    plevel, plabel = rng.choice((0, 1)), rng.choice(labels)
    n = rng.choice((1, 2) if small else (2, 3))
    N = n + 10

    def patch():
        return F.expand_supertile(rule, plevel, plabel)

    def occurrences(pat, inside):
        have = set(inside.tiles)
        (ax, ay), alab = pat.tiles[0]
        return sorted(
            (bx - ax, by - ay)
            for (bx, by), blab in inside.tiles
            if blab == alab
            and all(((x + bx - ax, y + by - ay), lab) in have for (x, y), lab in pat.tiles)
        )

    def check_estimate(iv):
        def later():
            pat = patch()
            hull = F.frequency_hull(rule, n, N)
            vol_n = F.volumes(rule, n).values
            counts = [len(occurrences(pat, F.expand_supertile(rule, n, lab))) for lab in hull.labels]
            for v in hull.vertices:
                expect(sum(a * b for a, b in zip(vol_n, v)) == 1, "hull vertex not volume-normalised")
            values = [sum(c * x for c, x in zip(counts, v)) for v in hull.vertices]
            expect((iv.lo, iv.hi) == (min(values), max(values)), "patch frequency interval")

        return later

    def check_admissible(res):
        expect(res.found, f"{plabel}@{plevel} not found in its own rule")

        def later():
            pat = patch()
            have = set(F.expand_supertile(rule, res.level, res.label).tiles)
            dx, dy = res.position
            expect(
                all(((x + dx, y + dy), lab) in have for (x, y), lab in pat.tiles),
                "admissibility witness does not re-read",
            )

        return later

    tag = f"{rule.name} {plabel}@{plevel}"
    return [
        Op(f"patch_frequency_estimate {tag} {n}->{N}",
           lambda: F.patch_frequency_estimate(rule, patch(), n, N), check_estimate, 5.0),
        Op(f"is_admissible {tag}", lambda: F.is_admissible(rule, patch(), 6), check_admissible, 5.0),
    ]


def _tiling2d(F, rules, rng, small):
    chair, fib2d = rules["chair"], rules["fib2d"]
    want = expected()
    big, fib_level, depth, shown = (4, 5, 3, 2) if small else (9, 12, 7, 5)
    ops = [
        _expansion_op(F, chair, big, "NE", 20.0),
        _expansion_op(F, fib2d, fib_level, "AA", 15.0),
    ]

    def check_van_hove(rep):
        rec = want["van_hove"][f"chair:{depth}"]
        expect([str(x) for x in rep.ratios] == rec["ratios"], "van Hove ratios")
        expect(list(rep.max_labels) == rec["max_labels"], "van Hove worst labels")
        expect(rep.verdict == rec["verdict"], "van Hove verdict")

    ops.append(Op(f"van_hove_diagnostic chair {depth}", lambda: F.van_hove_diagnostic(chair, depth), check_van_hove, 10.0))
    ops += _patch_ops(F, chair, rng, small) + _patch_ops(F, fib2d, rng, small)
    svg_label = rng.choice(chair.prototile_names())

    def check_svg(svg):
        digest = hashlib.sha256(svg.encode()).hexdigest()
        expect(digest == want["svg_sha256"][f"chair:{shown}:{svg_label}"], "render_svg output")

    ops.append(Op(
        f"render_svg chair {shown} {svg_label}",
        lambda: F.render_svg(F.expand_supertile(chair, shown, svg_label), 16, chair),
        check_svg, 5.0,
    ))
    return ops


# ---------------------------------------------------------------------------
# hull_sweep
# ---------------------------------------------------------------------------


def _fib_matrix(k: int):
    return ((O.fib(k + 1), O.fib(k)), (O.fib(k), O.fib(k - 1) if k else 1))


def _sweep_op(F, rules, name, n, depth, verdict, probe, limit):
    """ergodicity_report at horizons n+1..depth, checked at the last horizon
    and at one seeded horizon against the oracle's hulls."""
    rule = rules[name]

    def check(rep):
        expect(rep.verdict == verdict, f"verdict {rep.verdict!r}, want {verdict!r}")
        expect(rep.horizons == tuple(range(n + 1, depth + 1)), "horizons")
        vol_n = O.volumes(name, n)
        mats = O.matrices(name, n, (probe, depth))
        for N in (probe, depth):
            verts, diameter = O.hull(name, n, N, mats[N])
            expect(rep.diameters[N - n - 1] == diameter, f"hull diameter at horizon {N}")
            if rep.trajectories is not None:
                for side in rep.trajectories:
                    vertex = side[N - n - 1][1]
                    expect(vertex in verts, f"trajectory vertex at horizon {N}")
                    expect(sum(a * b for a, b in zip(vol_n, vertex)) == 1, "vertex not volume-normalised")

    return Op(f"ergodicity_report {name} {n}->{depth}", lambda: F.ergodicity_report(rule, n, depth), check, limit)


def _hull_sweep(F, rules, rng, small):
    scale = 10 if small else 1
    tp_depth, fib_depth, fl_depth = 200 // scale, 1500 // scale, 900 // scale
    fib_n, fl_n, tm_n = rng.randint(0, 40), rng.randint(0, 40), rng.randint(0, 100)
    ops = [
        _sweep_op(F, rules, "ten_pow_n", 0, tp_depth, "multiple", rng.randint(1, tp_depth), 20.0),
        _sweep_op(F, rules, "fibonacci", fib_n, fib_n + fib_depth, "unique",
                  fib_n + rng.randint(1, fib_depth), 10.0),
        _sweep_op(F, rules, "fiblike", fl_n, fl_n + fl_depth, "unique",
                  fl_n + rng.randint(1, fl_depth), 10.0),
    ]

    tm_N = tm_n + 200 // scale

    def check_hull(h):
        verts, diameter = O.hull("thue_morse", tm_n, tm_N)
        expect(h.vertices == tuple(verts) and h.diameter == diameter, "thue_morse hull")

    ops.append(Op(f"frequency_hull thue_morse {tm_n}->{tm_N}",
                  lambda: F.frequency_hull(rules["thue_morse"], tm_n, tm_N), check_hull, 5.0))

    # cold chains stay well inside the seed's recursion limit
    n = rng.randint(0, 100)
    N = n + 250 // scale
    split = rng.randint(n + 1, N - 1)

    def check_matrix(m):
        expect(m.entries == _fib_matrix(N - n), "fibonacci matrix != Fibonacci numbers")

        def later():
            left = F.transition_matrix(rules["fibonacci"], n, split).entries
            right = F.transition_matrix(rules["fibonacci"], split, N).entries
            expect(O.matmul(left, right) == m.entries, f"composition identity at split {split}")

        return later

    ops.append(Op(f"transition_matrix fibonacci {n}->{N}",
                  lambda: F.transition_matrix(rules["fibonacci"], n, N), check_matrix, 5.0))

    for name in ONE_D:
        # the deepest level is fixed: it sets the sweep's cost and memory
        top = 400 // scale
        levels = sorted(rng.sample(range(0, top), 11)) + [top]

        def check_primitivity(results, name=name, levels=levels):
            got = [r.minimal_offset for r in results]
            expect(got == [O.minimal_offset(name, lv, 8) for lv in levels], f"{name} primitivity offsets")

        ops.append(Op(
            f"primitivity_check {name} x{len(levels)}",
            lambda rule=rules[name], levels=levels: [F.primitivity_check(rule, lv, 8) for lv in levels],
            check_primitivity, 5.0,
        ))
    return ops


# ---------------------------------------------------------------------------
# words1d
# ---------------------------------------------------------------------------

# level of an expansion long enough to draw factors from, and the deepest
# level whose expansion a brute scan reads
FACTOR_LEVEL = {"thue_morse": 9, "fibonacci": 13, "fiblike": 13, "ten_pow_n": 2}
SCAN_LEVEL = {"thue_morse": 16, "fibonacci": 22, "fiblike": 21, "ten_pow_n": 2}


def _seeded_words(name, rng, count):
    """count - 1 factors of a supertile and one random string, lengths 1..12."""
    text = O.words(name, FACTOR_LEVEL[name])[next(iter(O.CHARS[name]))]
    out = []
    for _ in range(count - 1):
        m = rng.randint(1, 12)
        start = rng.randrange(len(text) - m)
        out.append(text[start : start + m])
    alphabet = sorted(O.CHARS[name].values())
    out.append("".join(rng.choice(alphabet) for _ in range(rng.randint(2, 12))))
    return out


def _count_op(F, rule, name, word, level, label, limit, recorded=None):
    def check(count):
        table = O.word_counts(name, word, level)
        expect(count == table[level][label], "word_count != oracle")
        if recorded is not None:
            expect(count == recorded, "word_count != value in expected.json")
        if level <= SCAN_LEVEL[name]:
            text = O.words(name, level)[label]
            expect(count == O.scan(text, word), "word_count != brute scan")

    return Op(f"word_count {name} {word} {level} {label}", lambda: F.word_count(rule, word, level, label), check, limit)


def _words1d(F, rules, rng, small):
    deep = 30 if small else 300
    # the search that expands every supertile runs first, on a fresh heap,
    # so the peak RSS it sets does not depend on what the seeded calls left
    ops = [_admissible_op(F, rules["fibonacci"], "fibonacci", "BB", 12 if small else 31, 20.0)]
    for name in ONE_D:
        rule = rules[name]
        words = _seeded_words(name, rng, 4)
        for word in words:
            for level in (SCAN_LEVEL[name], deep):
                label = rng.choice(list(O.bodies(name, level)))
                ops.append(_count_op(F, rule, name, word, level, label, 5.0))
        word = words[0]
        n = rng.randint(0, 5)
        N = n + 40

        def check_estimate(iv, name=name, word=word, n=n, N=N):
            counts = list(O.word_counts(name, word, n)[n].values())
            verts, _ = O.hull(name, n, N)
            values = [sum(c * x for c, x in zip(counts, v)) for v in verts]
            expect((iv.lo, iv.hi) == (min(values), max(values)), "word frequency interval")

        ops.append(Op(f"patch_frequency_estimate {name} {word} {n}->{N}",
                      lambda rule=rule, word=word, n=n, N=N: F.patch_frequency_estimate(rule, word, n, N),
                      check_estimate, 5.0))
        for word in (words[1], words[-1]):

            def check_universal(level, name=name, word=word):
                table = O.word_counts(name, word, 20)
                want = next((k for k, row in enumerate(table) if all(row.values())), None)
                expect(level == want, f"universality level {level}, want {want}")

            ops.append(Op(f"patch_universality {name} {word}",
                          lambda rule=rule, word=word: F.patch_universality(rule, word, 20),
                          check_universal, 5.0))
        ops.append(_admissible_op(F, rule, name, words[2], FACTOR_LEVEL[name] + 2, 5.0))

    want = expected()
    for name, word, level, label, value in want["word_count_small" if small else "word_count"]:
        ops.append(_count_op(F, rules[name], name, word, level, label, 5.0, int(value)))
    return ops


def _admissible_op(F, rule, name, word, max_level, limit):
    def check(res):
        table = O.word_counts(name, word, max_level)
        first = next(
            ((k, lab) for k, row in enumerate(table) for lab, c in row.items() if c), None
        )
        if first is None:
            expect(not res.found and res.searched_levels == max_level + 1, "false admissibility witness")
            return
        expect(res.found and (res.level, res.label) == first, f"first witness at {first}, got {res}")
        text = O.words(name, res.level)[res.label]
        (pos,) = res.position
        expect(text[pos : pos + len(word)] == word, "admissibility witness does not re-read")
        expect(text.find(word) == pos, "witness is not the first occurrence")

    return Op(f"is_admissible {name} {word} {max_level}", lambda: F.is_admissible(rule, word, max_level), check, limit)


# ---------------------------------------------------------------------------
# cold deep-horizon probes
# ---------------------------------------------------------------------------


def _probe(workload, F, rules):
    if workload == "hull_sweep":

        def check(m):
            expect(m.entries == _fib_matrix(10000), "M[0 -> 10000] != Fibonacci numbers")

        return [Op("transition_matrix fibonacci 0->10000 (cold)",
                   lambda: F.transition_matrix(rules["fibonacci"], 0, 10000), check, PROBE_LIMIT)]
    op = _count_op(F, rules["fibonacci"], "fibonacci", "ABAAB", 2000, "A", PROBE_LIMIT)
    op.name += " (cold)"
    return [op]


# ---------------------------------------------------------------------------
# fusion CLI invocations
# ---------------------------------------------------------------------------


def goldens(root: pathlib.Path) -> dict:
    """The golden argv lists, read from tests/make_goldens.py without
    importing it."""
    tree = ast.parse((root / "tests" / "make_goldens.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "GOLDEN":
            return ast.literal_eval(node.value)
    raise LookupError("GOLDEN not found in tests/make_goldens.py")


def envelope(argv, code, out, err, want_code=0):
    """Exactly one fusionlab/1 envelope for argv on stdout, nothing on
    stderr, and the expected exit code; returns the envelope."""
    expect(err == "", f"stderr: {err.strip().splitlines()[-1] if err.strip() else err!r}")
    expect(code == want_code, f"exit code {code}, want {want_code}")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        raise O.Mismatch("stdout is not exactly one JSON document") from None
    expect(isinstance(doc, dict) and doc.get("schema") == "fusionlab/1", "not a fusionlab/1 envelope")
    expect(doc["command"] == list(argv), "envelope command")
    expect((doc["result"] is None) == (want_code != 0), "result presence")
    expect(want_code == 0 or bool(doc["diagnostics"]), "failure without diagnostics")
    return doc


def _check_fib_matrix(n, N):
    def check(argv, code, out, err):
        res = envelope(argv, code, out, err)["result"]
        want = [[str(e) for e in row] for row in _fib_matrix(N - n)]
        expect(res["entries"] == want, "matrix entries != Fibonacci numbers")

    return check


def cli_round(root: pathlib.Path, rng) -> list:
    """(argv, check(argv, code, out, err)) for one round of the cli
    workload: the golden captures plus seeded calls covering every
    subcommand, its error envelopes included."""
    calls = []
    for name, argv in goldens(root).items():
        golden = (root / "tests" / "golden" / name).read_text(encoding="utf-8")

        def check(argv, code, out, err, golden=golden):
            expect(code == 0 and err == "", f"exit code {code}, stderr {err[-200:]!r}")
            expect(out == golden, "output differs from the golden capture")

        calls.append((list(argv), check))

    level = rng.randint(4, 10)

    def check_expand(argv, code, out, err):
        res = envelope(argv, code, out, err)["result"]
        lengths = {lab: str(len(w)) for lab, w in O.words("fibonacci", level).items()}
        expect({e["label"]: e["tiles"] for e in res["supertiles"]} == lengths, "expanded lengths")

    calls.append((["expand", "fibonacci", "--level", str(level), "--json"], check_expand))
    n = rng.randint(0, 50)
    N = n + rng.randint(1, 60)
    calls.append((["matrix", "fibonacci", "--from", str(n), "--to", str(N), "--json"], _check_fib_matrix(n, N)))

    word = _seeded_words("thue_morse", rng, 2)[0]

    def check_admissible(argv, code, out, err):
        res = envelope(argv, code, out, err)["result"]
        text = O.words("thue_morse", int(res["level"]))[res["label"]]
        pos = int(res["position"][0])
        expect(text[pos : pos + len(word)] == word, "admissibility witness does not re-read")

    calls.append((["admissible", "thue_morse", "--word", word, "--max-level", "10", "--json"], check_admissible))
    pword = _seeded_words("fibonacci", rng, 2)[0]

    def check_patchfreq(argv, code, out, err):
        res = envelope(argv, code, out, err)["result"]
        expect(Fraction(res["lo"]) <= Fraction(res["hi"]), "lo > hi")

    calls.append((["patchfreq", "fibonacci", "--word", pword, "--level", "2", "--horizon", "20", "--json"], check_patchfreq))
    prim_rule, prim_n = rng.choice(ONE_D), rng.randint(0, 30)

    def check_primitivity(argv, code, out, err):
        res = envelope(argv, code, out, err)["result"]
        want = O.minimal_offset(prim_rule, prim_n, 6)
        expect(res["minimal_offset"] == (None if want is None else str(want)), "primitivity offset")

    calls.append((["primitivity", prim_rule, "--level", str(prim_n), "--max-offset", "6", "--json"], check_primitivity))
    shown = rng.choice(("thue_morse", "fibonacci", "fiblike", "ten_pow_n", "chair", "fib2d"))
    text = (root / "src" / "fusionlab" / "rules" / f"{shown}.fusion").read_text(encoding="utf-8")

    def check_show(argv, code, out, err):
        expect(envelope(argv, code, out, err)["result"]["text"] == text, "examples --show text")

    calls.append((["examples", "--show", shown, "--json"], check_show))
    plain = lambda argv, code, out, err: envelope(argv, code, out, err)  # noqa: E731
    calls.append((["parse", rng.choice(ONE_D), "--json"], plain))
    calls.append((["freq", "ten_pow_n", "--horizon", "6", "--json"], plain))
    calls.append((["vanhove", "fib2d", "--depth", "5", "--json"], plain))
    calls.append((["render", "chair", "--level", "2", "--supertile", rng.choice(("NE", "NW", "SW", "SE")), "--json"], plain))
    for argv, code in (
        (["matrix", "fibonacci", "--from", "5", "--to", "2", "--json"], 1),
        (["expand", "chair", "--level", "30", "--json"], 1),
        (["matrix", "fibonacci", "--json"], 2),
    ):
        calls.append((argv, lambda argv, c, out, err, code=code: envelope(argv, c, out, err, code)))
    return calls


def cli_probe() -> tuple:
    return (CLI_PROBE, _check_fib_matrix(0, 10000))


def cli_slice(workload: str, rng) -> list:
    """One small `fusion ... --json` call through the layers a library
    workload exercises, so every workload reports subprocess latency. A
    single kind of call keeps p50 and p75 inside one distribution instead
    of on the seam between two kinds of call."""
    if workload == "tiling2d":
        argv = ["render", "chair", "--level", "3", "--supertile", rng.choice(("NE", "NW", "SW", "SE")), "--json"]
    elif workload == "hull_sweep":
        argv = ["freq", "fibonacci", "--level", str(rng.randint(0, 5)), "--horizon", "40", "--json"]
    else:
        argv = ["patchfreq", "thue_morse", "--word", _seeded_words("thue_morse", rng, 2)[0],
                "--level", "4", "--horizon", "12", "--json"]
    return [(argv, lambda argv, code, out, err: envelope(argv, code, out, err))]

"""Record the exact values the benchmark checks that no oracle of its own
recomputes cheaply: van Hove ratios, rendered SVG digests, and word counts
at fixed deep levels.

    PYTHONPATH=src python3 perfbench/record_expected.py

Run it only on a commit whose results are trusted; it overwrites
perfbench/expected.json. Word counts are cross-checked against the oracle
before they are written.
"""

import hashlib
import json
import pathlib

import fusionlab as F
import oracle as O

# one fixed word per 1D rule at a deep level, for full and small runs
DEEP = (
    ("thue_morse", "ABBAB", "S1"),
    ("fibonacci", "ABAAB", "B"),
    ("fiblike", "TBA", "A"),
    ("ten_pow_n", "BAAAB", "A"),
)


def word_table(level: int) -> list:
    rows = []
    for name, word, label in DEEP:
        count = F.word_count(F.load_builtin(name), word, level, label)
        assert count == O.word_counts(name, word, level)[level][label], (name, word)
        rows.append([name, word, level, label, str(count)])
    return rows


def main():
    chair = F.load_builtin("chair")
    out = {"van_hove": {}, "svg_sha256": {}}
    for depth in (3, 7):
        rep = F.van_hove_diagnostic(chair, depth)
        out["van_hove"][f"chair:{depth}"] = {
            "ratios": [str(x) for x in rep.ratios],
            "max_labels": list(rep.max_labels),
            "verdict": rep.verdict,
        }
    for level in (2, 5):
        for label in chair.prototile_names():
            svg = F.render_svg(F.expand_supertile(chair, level, label), 16, chair)
            out["svg_sha256"][f"chair:{level}:{label}"] = hashlib.sha256(svg.encode()).hexdigest()
    out["word_count"] = word_table(300)
    out["word_count_small"] = word_table(30)
    path = pathlib.Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

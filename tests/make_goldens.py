"""Regenerate the golden CLI captures under tests/golden/.

Run from the repository root after an intentional output change:

    python tests/make_goldens.py

Tests compare CLI output byte-for-byte against these files, so regenerate
only when the new output has been inspected and is meant to be the new
contract.

The differential_N.sha256 files hold the SHA-256 of what
`python tests/differential.py --rules N` prints: one record per call of
every public entry point. A behaviour change that moves a record moves the
digest; list the moved records (`differential.py --against REV`) with the
change that rewrites it.
"""

import hashlib
import io
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

# import the package from this checkout's src/, installed or not
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fusionlab import cli

GOLDEN = {
    "parse_fiblike.json": ["parse", "fiblike", "--json"],
    "expand_thue_morse.json": ["expand", "thue_morse", "--level", "3", "--json"],
    "matrix_ten_pow_n.json": ["matrix", "ten_pow_n", "--from", "2", "--to", "3", "--json"],
    "primitivity_fiblike.json": ["primitivity", "fiblike", "--level", "2", "--max-offset", "5", "--json"],
    "vanhove_chair.json": ["vanhove", "chair", "--depth", "4", "--json"],
    "freq_fibonacci.json": ["freq", "fibonacci", "--horizon", "15", "--json"],
    "patchfreq_thue_morse.json": [
        "patchfreq", "thue_morse", "--word", "AA", "--level", "4", "--horizon", "12", "--json",
    ],
    "admissible_fibonacci.json": [
        "admissible", "fibonacci", "--word", "BB", "--max-level", "6", "--json",
    ],
    "render_chair.json": ["render", "chair", "--level", "1", "--supertile", "NE", "--json"],
    "render_fib2d.svg": ["render", "fib2d", "--level", "2", "--supertile", "AA", "--out", "svg"],
    "examples.json": ["examples", "--json"],
}

# digest file -> random rules of each dimension; 20 in CI, 5 in the tests
DIGESTS = {"differential_20.sha256": 20, "differential_5.sha256": 5}


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0 or err.getvalue():
        raise SystemExit(f"golden command failed ({code}): {argv}\n{err.getvalue()}")
    return out.getvalue()


def differential_digest(rules):
    script = pathlib.Path(__file__).with_name("differential.py")
    run = subprocess.run([sys.executable, str(script), "--rules", str(rules)], capture_output=True, check=True)
    return hashlib.sha256(run.stdout).hexdigest() + "\n"


def main():
    golden_dir = pathlib.Path(__file__).parent / "golden"
    golden_dir.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        (golden_dir / name).write_text(capture(argv), encoding="utf-8")
        print(f"wrote golden/{name}")
    for name, rules in DIGESTS.items():
        (golden_dir / name).write_text(differential_digest(rules), encoding="utf-8")
        print(f"wrote golden/{name}")


if __name__ == "__main__":
    sys.exit(main())

import gc
import json
import pathlib
import subprocess
import sys
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest
from make_goldens import GOLDEN, TEXT_GOLDEN, differential_digest

from fusionlab import cli, expand
from fusionlab.analysis import ergodicity_report
from fusionlab.builtins import load_builtin
from fusionlab.dsl import format_rule
from fusionlab.expand import cell_count
from fusionlab.transition import transition_matrix

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_byte_match(self, name, run_cli):
        code, out, err = run_cli(GOLDEN[name])
        assert code == 0 and err == ""
        assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(TEXT_GOLDEN))
    def test_text_byte_match(self, name, run_cli):
        code, out, err = run_cli(TEXT_GOLDEN[name])
        assert code == 0 and err == ""
        assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(n for n in GOLDEN if n.endswith(".json")))
    def test_envelope_shape(self, name):
        payload = json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))
        assert set(payload) == {"schema", "command", "result", "diagnostics"}
        assert payload["schema"] == "fusionlab/1"
        assert payload["command"] == GOLDEN[name]
        assert payload["diagnostics"] == []

    def test_numbers_are_strings(self):
        payload = json.loads((GOLDEN_DIR / "expand_thue_morse.json").read_text())
        first = payload["result"]["supertiles"][0]
        assert first["tiles"] == "8" and first["cells"] == "8"
        matrix = json.loads((GOLDEN_DIR / "matrix_ten_pow_n.json").read_text())
        assert matrix["result"]["entries"] == [["1000", "1"], ["1", "1000"]]

    def test_repeated_runs_identical(self, run_cli):
        argv = GOLDEN["freq_fibonacci.json"]
        assert run_cli(argv) == run_cli(argv)

    def test_differential_records_match_digest(self):
        # every public entry point on the bundled rules and 5 + 5 random ones
        assert differential_digest(5) == (GOLDEN_DIR / "differential_5.sha256").read_text(encoding="utf-8")


class TestLibraryParity:
    def test_matrix_payload(self, run_cli):
        code, out, _ = run_cli(["matrix", "chair", "--from", "1", "--to", "3", "--json"])
        assert code == 0
        m = transition_matrix(load_builtin("chair"), 1, 3)
        payload = json.loads(out)["result"]
        assert payload["row_labels"] == list(m.row_labels)
        assert payload["entries"] == [[str(e) for e in row] for row in m.entries]

    def test_expand_single_supertile_is_bare(self, run_cli):
        code, out, _ = run_cli(["expand", "thue_morse", "--level", "3", "--supertile", "S1"])
        assert code == 0 and out == "ABBABAAB\n"

    def test_expand_all_supertiles_labeled(self, run_cli):
        code, out, _ = run_cli(["expand", "thue_morse", "--level", "2"])
        assert code == 0 and out == "S1: ABBA\nS2: BAAB\n"

    def test_expand_holds_one_patch_at_a_time(self, run_cli, monkeypatch):
        made = []
        real = expand.expand_supertile

        def tracked(*args):
            assert all(ref() is None for ref in made), "an earlier label's patch is still alive"
            patch = real(*args)
            made.append(weakref.ref(patch))
            return patch

        monkeypatch.setattr(expand, "expand_supertile", tracked)
        code, _, _ = run_cli(["expand", "chair", "--level", "2", "--json"])
        assert code == 0 and len(made) == 4

    @pytest.mark.parametrize("bound, code, want", [("100000", "pass", 0), ("0", "pass", 1), ("100000", "raise SystemExit(3)", 3)])
    def test_peak_rss_wrapper(self, bound, code, want):
        script = pathlib.Path(__file__).parent / "peak_rss.py"
        done = subprocess.run([sys.executable, str(script), bound, sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == want
        assert f"bound {bound} MiB" in done.stderr

    def test_parse_prints_canonical_form(self, run_cli):
        code, out, _ = run_cli(["parse", "fib2d"])
        assert code == 0
        assert out == format_rule(load_builtin("fib2d"))

    def test_examples_show(self, run_cli):
        code, out, _ = run_cli(["examples", "--show", "fiblike"])
        assert code == 0 and "ispow(3,n)" in out


class TestRuleLoading:
    RULE = (
        "rule doubling dim 1\n"
        "prototile L\n"
        "prototile R\n"
        "level default:\n"
        "  L = L R\n"
        "  R = R R\n"
    )

    def test_positional_file_path(self, run_cli, tmp_path):
        path = tmp_path / "doubling.fusion"
        path.write_text(self.RULE)
        code, out, _ = run_cli(["expand", str(path), "--level", "2"])
        assert code == 0 and out == "L: LRRR\nR: RRRR\n"

    def test_rule_flag(self, run_cli, tmp_path):
        path = tmp_path / "doubling.fusion"
        path.write_text(self.RULE)
        code, out, _ = run_cli(["parse", "--rule", str(path)])
        assert code == 0 and out.startswith("rule doubling dim 1\n")

    def test_unknown_rule_name(self, run_cli):
        code, out, err = run_cli(["parse", "nonesuch"])
        assert code == 1 and out == "" and "unknown rule" in err

    def test_parse_error_diagnostics_json(self, run_cli, tmp_path):
        path = tmp_path / "bad.fusion"
        path.write_text("rule bad dim 3\nprototile A\n")
        code, out, _ = run_cli(["parse", str(path), "--json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["result"] is None
        (diag,) = payload["diagnostics"]
        assert diag["severity"] == "error"
        assert diag["line"] == "1"

    def test_repeat_in_2d_diagnostic_json(self, run_cli, tmp_path):
        path = tmp_path / "rep.fusion"
        path.write_text("rule rep dim 2\nprototile P\nprototile Q\nlevel default:\n  P = P^(2)@(0,0) Q@(1,0)\n  Q = Q\n")
        code, out, err = run_cli(["parse", str(path), "--json"])
        assert code == 1 and err == ""
        payload = json.loads(out)  # exactly one envelope
        assert payload["result"] is None
        assert payload["diagnostics"] == [
            {"severity": "error", "message": "repeats are only available in dimension 1", "line": "5", "column": "8"}
        ]

    def test_validation_error_diagnostics_json(self, run_cli, tmp_path):
        path = tmp_path / "undefined.fusion"
        path.write_text("rule u dim 1\nprototile A\nlevel default:\n  A = A B\n")
        code, out, _ = run_cli(["parse", str(path), "--json"])
        assert code == 1
        payload = json.loads(out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "undefined-label" in codes


class TestExitCodes:
    def test_no_arguments(self, run_cli):
        code, out, err = run_cli([])
        assert code == 2 and "usage error" in err

    def test_unknown_subcommand(self, run_cli):
        code, _, err = run_cli(["frobnicate"])
        assert code == 2 and err != ""

    def test_missing_required_option(self, run_cli):
        code, _, err = run_cli(["freq", "fibonacci"])
        assert code == 2 and "--horizon" in err

    def test_domain_error(self, run_cli):
        code, _, err = run_cli(["matrix", "fibonacci", "--from", "3", "--to", "1"])
        assert code == 1 and err.startswith("error:")

    def test_domain_error_json_envelope(self, run_cli):
        code, out, err = run_cli(
            ["matrix", "fibonacci", "--from", "3", "--to", "1", "--json"]
        )
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert payload["result"] is None and payload["diagnostics"]

    def test_usage_error_json_envelope(self, run_cli):
        code, out, _ = run_cli(["freq", "fibonacci", "--json"])
        assert code == 2
        payload = json.loads(out)
        assert payload["schema"] == "fusionlab/1" and payload["result"] is None

    @pytest.mark.parametrize(
        "argv, unknown",
        [
            (["freq", "fibonacci", "--horizon", "3", "--js"], "--js"),
            (["freq", "fibonacci", "--horizon", "0", "--js"], "--js"),
            (["primitivity", "fibonacci", "--max-off", "3"], "--max-off 3"),
        ],
    )
    def test_options_are_never_abbreviated(self, run_cli, argv, unknown):
        assert run_cli(argv) == (2, "", f"usage error: unrecognized arguments: {unknown}\n")

    def test_json_after_double_dash_is_a_rule_name(self, run_cli):
        # parsing gave args.json False, so the failure is text, like a success would be
        code, out, err = run_cli(["parse", "--", "--json"])
        assert code == 1 and out == "" and err.startswith("error: unknown rule '--json'")

    def test_deep_horizon_one_envelope(self, run_cli):
        argv = ["matrix", "fibonacci", "--from", "0", "--to", "10000", "--json"]
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["command"] == argv and len(payload["result"]["entries"][0][0]) == 2090

    @pytest.mark.parametrize("fault", [RecursionError("deep"), ZeroDivisionError("zero"), MemoryError()])
    def test_internal_error_envelope(self, run_cli, monkeypatch, fault):
        def broken(args):
            raise fault

        monkeypatch.setattr(cli, "_cmd_matrix", broken)
        argv = ["matrix", "fibonacci", "--from", "0", "--to", "3"]
        code, out, err = run_cli(argv + ["--json"])
        payload = json.loads(out)
        assert code == 1 and err == "" and payload["result"] is None
        assert [d["code"] for d in payload["diagnostics"]] == ["internal-error"]
        assert type(fault).__name__ in payload["diagnostics"][0]["message"]
        code, out, err = run_cli(argv)
        assert code == 1 and out == "" and err.startswith("internal error: ")
        assert len(err.splitlines()) == 1

    def test_output_fault_is_one_failure(self, run_cli, monkeypatch):
        # the envelope is encoded, or the text rendered, inside main's handlers
        def broken_text():
            raise ZeroDivisionError("text")

        monkeypatch.setattr(cli, "_cmd_matrix", lambda args: ({"entries": object()}, broken_text))
        argv = ["matrix", "fibonacci", "--from", "0", "--to", "3"]
        code, out, err = run_cli(argv + ["--json"])
        (diagnostic,) = json.loads(out)["diagnostics"]
        assert code == 1 and err == "" and diagnostic["code"] == "internal-error"
        assert diagnostic["message"].startswith("TypeError: Object of type object")
        assert run_cli(argv) == (1, "", "internal error: ZeroDivisionError: text\n")

    def test_help_exits_zero(self, run_cli):
        for argv in (["--help"], ["expand", "--help"]):
            code, out, _ = run_cli(argv)
            assert code == 0 and "usage" in out.lower()

    def test_max_cells_help(self, run_cli):
        for sub, want in (("vanhove", cli._VANHOVE_CELLS_HELP), ("expand", cli._CELLS_HELP), ("render", cli._CELLS_HELP)):
            code, out, _ = run_cli([sub, "--help"])
            assert code == 0 and " ".join(want.split()) in " ".join(out.split())
        assert "overlap" in cli._VANHOVE_CELLS_HELP and "overlap" not in cli._CELLS_HELP

    def test_deep_van_hove_one_envelope(self, run_cli):
        # level 12 is past the default --max-cells; it is read from row runs
        argv = ["vanhove", "chair", "--depth", "12", "--json"]
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        payload = json.loads(out)  # exactly one envelope
        assert payload["schema"] == "fusionlab/1" and payload["command"] == argv
        assert payload["diagnostics"] == [] and len(payload["result"]["ratios"]) == 12
        assert payload["result"]["ratios"][-1] == f"{2 ** 15 - 3}/{6 * 4 ** 11}"

    def test_deep_word_search_one_envelope(self, run_cli):
        argv = ["admissible", "fibonacci", "--word", "BB", "--max-level", "40", "--json"]
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["diagnostics"] == [] and payload["result"]["found"] is False

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["vanhove", "chair", "--depth", "0"], 1),
            (["vanhove", "chair", "--radius", "0"], 1),
            (["vanhove", "fibonacci", "--radius", "-1"], 1),
            (["expand", "thue_morse", "--level", "2", "--max-cells", "0"], 2),
            (["expand", "thue_morse", "--level", "2", "--max-cells", "-1"], 2),
            (["render", "chair", "--level", "0", "--supertile", "NE", "--out", "svg", "--cell-size", "0"], 2),
            (["admissible", "chair", "--patch", "NE", "--max-level", "-1"], 1),
            (["admissible", "fibonacci", "--word", "AB", "--max-level", "-3"], 1),
        ],
    )
    def test_out_of_range_arguments_rejected(self, run_cli, argv, want):
        code, out, err = run_cli(argv + ["--json"])
        assert code == want and err == ""
        payload = json.loads(out)  # exactly one envelope
        assert payload["result"] is None and payload["diagnostics"]
        assert all("code" not in d for d in payload["diagnostics"])

    @pytest.mark.parametrize("tol", ["1/0", "abc"])
    def test_unreadable_tolerance_is_a_usage_error(self, run_cli, tol):
        argv = ["freq", "fibonacci", "--horizon", "5", "--tol", tol]
        message = f"argument --tol: invalid fraction value: {tol!r}"
        assert run_cli(argv) == (2, "", f"usage error: {message}\n")
        code, out, err = run_cli(argv + ["--json"])
        assert code == 2 and err == ""
        payload = json.loads(out)  # exactly one envelope
        assert payload["result"] is None
        assert payload["diagnostics"] == [{"severity": "error", "message": message}]

    @pytest.mark.parametrize("argv, tol", [(["--tol", "-1"], "-1"), (["--tol=-1/3"], "-1/3"), (["--tol", "-0.5"], "-0.5")])
    def test_negative_tolerance_is_a_usage_error(self, run_cli, argv, tol):
        message = f"argument --tol: must be >= 0, got {tol}"
        assert run_cli(["freq", "fibonacci", "--horizon", "5", *argv]) == (2, "", f"usage error: {message}\n")

    def test_zero_tolerance_is_valid(self, run_cli):
        code, out, err = run_cli(["freq", "fibonacci", "--horizon", "5", "--tol", "0", "--json"])
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["ergodicity"]["tol"] == "0"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["freq", "fibonacci", "--level", "5", "--horizon", "5"], "need 0 <= from < to, got from=5 to=5"),
            (["primitivity", "fibonacci", "--max-offset", "0"], "need 0 <= from < to, got from=0 to=0"),
            (["matrix", "fibonacci", "--from", "3", "--to", "1"], "need 0 <= from <= to, got from=3 to=1"),
        ],
    )
    def test_range_errors_state_the_condition_checked(self, run_cli, argv, message):
        assert run_cli(argv) == (1, "", f"error: invalid level range: {message}\n")

    @pytest.mark.parametrize("tol", ["1/1000", "0.001"])
    def test_tolerance_as_fraction_or_decimal(self, run_cli, tol):
        code, out, err = run_cli(["freq", "fibonacci", "--horizon", "5", "--tol", tol, "--json"])
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["ergodicity"]["tol"] == "1/1000"

    def test_negative_max_level_text(self, run_cli):
        code, out, err = run_cli(["admissible", "fibonacci", "--word", "AB", "--max-level", "-3"])
        assert (code, out, err) == (1, "", "error: max_level must be >= 0, got -3\n")

    @pytest.mark.parametrize(
        "argv, level",
        [
            (["render", "chair", "--level", "3", "--supertile", "XX"], 3),
            (["admissible", "chair", "--patch", "XX"], 0),
            (["patchfreq", "chair", "--patch", "XX", "--level", "1", "--horizon", "2"], 0),
        ],
    )
    def test_unknown_supertile_label_named(self, run_cli, argv, level):
        message = f"no supertile 'XX' at level {level}; labels there: NE, NW, SW, SE"
        assert run_cli(argv) == (1, "", f"error: {message}\n")
        code, out, err = run_cli(argv + ["--json"])
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert payload["result"] is None
        assert payload["diagnostics"] == [{"severity": "error", "message": message}]

    def test_one_child_rule_expands_at_level_2000(self, run_cli, tmp_path):
        path = tmp_path / "one.fusion"
        path.write_text("rule one dim 1\nprototile A\nlevel default:\n  A = A\n", encoding="utf-8")
        code, out, err = run_cli(["expand", str(path), "--level", "2000", "--json"])
        assert code == 0 and err == ""
        (entry,) = json.loads(out)["result"]["supertiles"]
        assert (entry["text"], entry["tiles"]) == ("A", "1")

    def test_expansion_cap(self, run_cli):
        code, _, err = run_cli(
            ["expand", "thue_morse", "--level", "6", "--max-cells", "10"]
        )
        assert code == 1 and "64" in err


class TestEncoder:
    def test_exact_writes_library_values(self):
        big = 10**5000 + 7
        got = cli._exact(
            {"flag": True, "approx": 0.5, "none": None, "name": "A", "n": big,
             "q": Fraction(-1, 3), "whole": Fraction(4), "nested": ((1, (Fraction(1, 2),)), [2])}
        )
        assert got["flag"] is True and got["approx"] == 0.5 and got["none"] is None and got["name"] == "A"
        assert got["n"] == "1" + "0" * 4999 + "7"
        assert (got["q"], got["whole"]) == ("-1/3", "4")
        assert got["nested"] == [["1", ["1/2"]], ["2"]]

    def test_text_mode_writes_only_the_numbers_it_prints(self, run_cli, monkeypatch):
        calls = []
        for name in ("_frac_str", "_decimal"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda v, real=real: calls.append(v) or real(v))
        code, out, _ = run_cli(["freq", "fibonacci", "--horizon", "40"])
        assert code == 0 and out.count("  via ") == 2
        assert len(calls) == 4  # the two vertices' coordinates, not every horizon's diameter


def same_decimal(text: str, value) -> bool:
    """text is the exact value, "p" or "p/q", compared through Decimal,
    which reads and writes integers of any length."""
    p, _, q = text.partition("/")
    return Decimal(p) == value.numerator and Decimal(q or "1") == value.denominator


def process_state():
    """The interpreter settings no command may change."""
    return gc.isenabled(), gc.get_threshold(), sys.get_int_max_str_digits(), sys.getrecursionlimit()


class TestLongNumbers:
    """Exact numbers past str()'s default 4300-digit limit."""

    def test_freq_json_and_text(self, run_cli):
        argv = ["freq", "ten_pow_n", "--horizon", "120"]
        code, out, err = run_cli(argv + ["--json"])
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        rep = ergodicity_report(load_builtin("ten_pow_n"), 0, 120)
        longest = max(len(x) for v in result["vertices"] for x in v)
        assert longest > 4300
        assert all(map(same_decimal, result["ergodicity"]["diameters"], rep.diameters))
        for got, want in zip(result["vertices"], rep.hull.vertices):
            assert all(map(same_decimal, got, want))
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        assert out.endswith("ergodicity verdict: multiple\n")
        assert f"({', '.join(result['vertices'][0])})" in out

    def test_parse_json_keeps_a_long_literal(self, run_cli, tmp_path):
        nines = "9" * 5000
        path = tmp_path / "long.fusion"
        path.write_text(f"rule long dim 1\nprototile A\nprototile B\nlevel default:\n  A = A^({nines}) B\n  B = A\n")
        state = process_state()
        code, out, err = run_cli(["parse", str(path), "--json"])
        assert code == 0 and err == ""
        assert f"  A = A^({nines}) B\n" in json.loads(out)["result"]["canonical"]
        assert process_state() == state

    def test_matrix_json_and_text(self, run_cli):
        argv = ["matrix", "ten_pow_n", "--from", "0", "--to", "120"]
        code, out, err = run_cli(argv + ["--json"])
        assert code == 0 and err == ""
        entries = json.loads(out)["result"]["entries"]
        m = transition_matrix(load_builtin("ten_pow_n"), 0, 120)
        assert all(Decimal(x) == e for got, want in zip(entries, m.entries) for x, e in zip(got, want))
        assert max(len(x) for row in entries for x in row) > 4300
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        assert out.splitlines()[1].split() == ["A:", *entries[0]]

    def test_expansion_cap_names_a_long_count(self, run_cli):
        code, out, err = run_cli(["expand", "ten_pow_n", "--level", "120", "--supertile", "A"])
        assert code == 1 and out == ""
        count = err.split("expansion needs ")[1].split(" cells")[0]
        assert len(count) > 4300 and Decimal(count) == cell_count(load_builtin("ten_pow_n"), 120, "A")

    def test_freq_leaves_process_state_alone(self, run_cli):
        before = process_state()
        code, _, _ = run_cli(["freq", "ten_pow_n", "--horizon", "120", "--json"])
        assert code == 0
        assert process_state() == before


class TestDeepNesting:
    """Rule text nested past the default recursion limit of 1000."""

    @pytest.mark.parametrize("argv", [["parse"], ["matrix", "--from", "0", "--to", "5"]], ids=["parse", "matrix"])
    def test_200_deep_repeat_one_envelope(self, run_cli, tmp_path, argv):
        path = tmp_path / "deep.fusion"
        path.write_text(f"rule deep dim 1\nprototile A\nprototile B\nlevel default:\n  A = A^({'(' * 200}1{')' * 200}) B\n  B = A\n")
        state = process_state()
        argv = [argv[0], str(path), *argv[1:], "--json"]
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        payload = json.loads(out)  # exactly one envelope
        assert payload["command"] == argv and payload["diagnostics"] == []
        assert process_state() == state


class TestRender:
    def test_text_grid(self, run_cli):
        code, out, _ = run_cli(["render", "chair", "--level", "1", "--supertile", "NE"])
        assert code == 0 and out == "DD..\nDA..\nAAAB\nAABB\n"

    def test_svg_to_file(self, run_cli, tmp_path):
        target = tmp_path / "patch.svg"
        code, out, _ = run_cli(
            ["render", "fib2d", "--level", "2", "--supertile", "AA",
             "--out", str(target), "--json"]
        )
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["format"] == "svg"
        assert payload["path"] == str(target)
        assert payload["content"] is None
        content = target.read_text(encoding="utf-8")
        assert content.startswith("<svg ") and content.rstrip().endswith("</svg>")

    def test_txt_to_file(self, run_cli, tmp_path):
        target = tmp_path / "patch.txt"
        code, out, _ = run_cli(
            ["render", "thue_morse", "--level", "2", "--supertile", "S2",
             "--out", str(target)]
        )
        assert code == 0 and out == f"wrote {target}\n"
        assert target.read_text(encoding="utf-8") == "BAAB\n"

    def test_svg_stdout_matches_golden(self, run_cli):
        code, out, _ = run_cli(GOLDEN["render_fib2d.svg"])
        assert code == 0
        assert out.count("<rect ") == 9  # 3 x 3 cells at level 2

import json
import pathlib

import pytest
from make_goldens import GOLDEN

from fusionlab import cli
from fusionlab.builtins import load_builtin
from fusionlab.dsl import format_rule
from fusionlab.transition import transition_matrix

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_byte_match(self, name, run_cli):
        code, out, err = run_cli(GOLDEN[name])
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

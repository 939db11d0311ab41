import random
from fractions import Fraction

import pytest

from fusionlab import analysis
from fusionlab.analysis import (
    ergodicity_report,
    frequency_hull,
    patch_count_2d,
    patch_frequency_estimate,
    patch_universality,
    primitivity_check,
    van_hove_diagnostic,
    word_count,
)
from fusionlab.builtins import builtin_text, load_builtin
from fusionlab.core import resolve_level
from fusionlab.dsl import parse_rule
from fusionlab.errors import InvalidRangeError
from fusionlab.expand import (
    CellPatch,
    cell_count,
    expand_supertile,
    is_admissible,
    label_chars,
    word_string,
)
from fusionlab.transition import transition_matrix, volumes

ONE_D = ("thue_morse", "fibonacci", "fiblike", "ten_pow_n")
ALL = ONE_D + ("chair", "fib2d")


def fib_numbers(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def word(rule, level, label):
    return word_string(rule, expand_supertile(rule, level, label).labels)


class TestPrimitivity:
    def test_ten_pow_n_immediate(self):
        tpn = load_builtin("ten_pow_n")
        for n in range(0, 11):
            res = primitivity_check(tpn, n, 5)
            assert res.primitive_within_horizon and res.minimal_offset == 1

    def test_fiblike_offsets(self):
        fl = load_builtin("fiblike")
        expected = {0: 3, 1: 2, 2: 3, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 3, 9: 2, 10: 2}
        for n, d in expected.items():
            res = primitivity_check(fl, n, 5)
            assert res.minimal_offset == d, (n, res.minimal_offset)

    def test_reducible_rule_reports_witness(self):
        text = (
            "rule oneway dim 1\n"
            "prototile A\n"
            "prototile B\n"
            "level default:\n"
            "  A = A A\n"
            "  B = B A\n"
        )
        res = primitivity_check(parse_rule(text), 0, 5)
        assert not res.primitive_within_horizon
        assert res.minimal_offset is None
        # B never appears inside A supertiles, at any horizon
        assert res.witness_zero == ("B", "A", 5)

    @pytest.mark.parametrize("name", ALL)
    def test_positivity_persists(self, name):
        rule = load_builtin(name)
        for n in range(0, 6):
            seen_positive = False
            for N in range(n + 1, n + 9):
                pos = transition_matrix(rule, n, N).is_positive()
                assert not (seen_positive and not pos)
                seen_positive = seen_positive or pos

    def test_max_offset_must_be_positive(self):
        with pytest.raises(InvalidRangeError):
            primitivity_check(load_builtin("fibonacci"), 0, 0)


class TestVanHove:
    def test_fibonacci_ratios(self):
        rep = van_hove_diagnostic(load_builtin("fibonacci"), 6)
        assert rep.ratios == (
            Fraction(2), Fraction(1), Fraction(2, 3),
            Fraction(2, 5), Fraction(1, 4), Fraction(2, 13),
        )
        assert rep.max_labels == ("B",) * 6
        assert rep.verdict == "consistent with van Hove"

    def test_thue_morse_ratios(self):
        rep = van_hove_diagnostic(load_builtin("thue_morse"), 4)
        assert rep.ratios == (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        assert rep.verdict == "consistent with van Hove"

    def test_chair_ratios(self):
        rep = van_hove_diagnostic(load_builtin("chair"), 5)
        assert rep.ratios == (
            Fraction(13, 6), Fraction(29, 24), Fraction(61, 96),
            Fraction(125, 384), Fraction(253, 1536),
        )
        assert rep.verdict == "consistent with van Hove"

    def test_fib2d_ratios_decrease_but_stay_large(self):
        rep = van_hove_diagnostic(load_builtin("fib2d"), 6)
        assert rep.ratios == (
            Fraction(5), Fraction(3), Fraction(20, 9),
            Fraction(36, 25), Fraction(15, 16), Fraction(100, 169),
        )
        assert all(a > b for a, b in zip(rep.ratios, rep.ratios[1:]))
        # still above the default threshold at depth 6, so no verdict yet
        assert rep.verdict == "inconclusive"

    def test_wider_band_scales_1d(self):
        rep = van_hove_diagnostic(load_builtin("thue_morse"), 3, r=3)
        assert rep.ratios == (Fraction(3), Fraction(3, 2), Fraction(3, 4))

    @pytest.mark.parametrize("name, depth, r", [("chair", 0, 1), ("chair", 1, 0), ("fibonacci", 3, -1), ("fibonacci", -2, 1)])
    def test_out_of_range_arguments_raise(self, name, depth, r):
        with pytest.raises(ValueError):
            van_hove_diagnostic(load_builtin(name), depth, r)


class TestFrequencyHull:
    def test_thue_morse_point(self):
        hull = frequency_hull(load_builtin("thue_morse"), 0, 4)
        assert hull.vertices == (
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
        )
        assert hull.diameter == 0
        assert hull.centroid == (Fraction(1, 2), Fraction(1, 2))

    def test_ten_pow_n_stays_wide(self):
        tpn = load_builtin("ten_pow_n")
        assert frequency_hull(tpn, 0, 1).diameter == Fraction(18, 11)
        for N in range(1, 13):
            assert frequency_hull(tpn, 0, N).diameter > Fraction(3, 2)

    def test_fibonacci_contracts(self):
        fib = load_builtin("fibonacci")
        prev = None
        for N in range(1, 26):
            d = frequency_hull(fib, 0, N).diameter
            if prev is not None:
                assert d < prev
            prev = d
        assert 0 < prev < Fraction(1, 10**6)

    def test_fibonacci_centroid_near_golden_ratio(self):
        hull = frequency_hull(load_builtin("fibonacci"), 0, 25)
        target = Fraction(fib_numbers(40), fib_numbers(41))  # ~ 1/phi
        assert abs(hull.centroid[0] - target) < Fraction(1, 10**9)

    @pytest.mark.parametrize("name", ALL)
    def test_vertices_are_volume_normalized(self, name):
        rule = load_builtin(name)
        for n in range(0, 3):
            for N in range(n + 1, 8):
                hull = frequency_hull(rule, n, N)
                vol = volumes(rule, n).values
                for v in hull.vertices:
                    assert sum(v[i] * vol[i] for i in range(len(vol))) == 1

    @pytest.mark.parametrize("name", ALL)
    def test_hull_nesting(self, name):
        # each vertex at horizon N+1 is an exact convex combination of the
        # horizon-N vertices, weighted by volume-scaled step-matrix entries
        rule = load_builtin(name)
        n = 0
        for N in range(1, 9):
            outer = frequency_hull(rule, n, N)
            inner = frequency_hull(rule, n, N + 1)
            step = transition_matrix(rule, N, N + 1)
            vol_N = volumes(rule, N).values
            vol_next = volumes(rule, N + 1).values
            for j, vertex in enumerate(inner.vertices):
                weights = [
                    step.entries[i][j] * vol_N[i] / vol_next[j]
                    for i in range(len(step.row_labels))
                ]
                assert all(w >= 0 for w in weights)
                assert sum(weights) == 1
                combo = tuple(
                    sum(
                        weights[i] * outer.vertices[i][k]
                        for i in range(len(weights))
                    )
                    for k in range(len(vertex))
                )
                assert combo == vertex

    @pytest.mark.parametrize("name", ALL)
    def test_vertices_consistent_across_levels(self, name):
        # reading a horizon-N column at level n equals pushing the level-m
        # reading down through M_{n,m}
        rule = load_builtin(name)
        n, m, N = 0, 2, 5
        low = frequency_hull(rule, n, N)
        high = frequency_hull(rule, m, N)
        mat = transition_matrix(rule, n, m)
        for j in range(len(low.vertices)):
            pushed = tuple(
                sum(
                    mat.entries[i][k] * high.vertices[j][k]
                    for k in range(len(mat.col_labels))
                )
                for i in range(len(mat.row_labels))
            )
            assert pushed == low.vertices[j]

    def test_invalid_range(self):
        with pytest.raises(InvalidRangeError):
            frequency_hull(load_builtin("fibonacci"), 3, 3)


class TestErgodicity:
    def test_fibonacci_unique(self):
        rep = ergodicity_report(load_builtin("fibonacci"), 0, 25)
        assert rep.verdict == "unique"
        assert rep.trajectories is None
        assert rep.diameters[-1] < Fraction(1, 10**6)

    def test_final_hull_is_the_frequency_hull(self):
        for name in ("fibonacci", "ten_pow_n", "fiblike"):
            rule = load_builtin(name)
            assert ergodicity_report(rule, 1, 9).hull == frequency_hull(rule, 1, 9)

    def test_thue_morse_unique_immediately(self):
        rep = ergodicity_report(load_builtin("thue_morse"), 0, 6)
        assert rep.verdict == "unique"
        assert all(d == 0 for d in rep.diameters)

    def test_ten_pow_n_multiple_with_trajectories(self):
        rep = ergodicity_report(load_builtin("ten_pow_n"), 0, 10)
        assert rep.verdict == "multiple"
        lo, hi = rep.trajectories
        assert len(lo) == len(hi) == len(rep.horizons)
        assert {step[0] for step in lo} == {"A"}
        assert {step[0] for step in hi} == {"B"}
        # the A-side trajectory stays A-heavy, the B-side B-heavy
        for (alab, av), (blab, bv) in zip(lo, hi):
            assert av[0] > Fraction(9, 10) > Fraction(1, 10) > bv[0]

    def test_slow_contraction_is_undecided(self):
        rep = ergodicity_report(
            load_builtin("fibonacci"), 0, 8,
            tol=Fraction(1, 10**30), floor=Fraction(1, 2),
        )
        assert rep.verdict == "undecided"
        assert rep.trajectories is None

    def test_depth_must_exceed_level(self):
        with pytest.raises(InvalidRangeError):
            ergodicity_report(load_builtin("fibonacci"), 4, 4)


class TestWordCount:
    def test_fixtures(self):
        tm = load_builtin("thue_morse")
        tpn = load_builtin("ten_pow_n")
        fib = load_builtin("fibonacci")
        assert word_count(tm, "AB", 3, "S1") == 3
        assert word_count(tpn, "A", 2, "A") == 1001
        assert word_count(fib, "AA", 1, "A") == 0
        assert word_count(tm, "AA", 10, "S1") == 170
        assert word_count(tm, "AA", 10, "S2") == 171

    def test_single_letter_matches_transition_entry(self):
        for name in ONE_D:
            rule = load_builtin(name)
            for n in range(0, 13):
                m = transition_matrix(rule, 0, n)
                for col in m.col_labels:
                    for row in m.row_labels:
                        assert word_count(rule, (row,), n, col) == m.entry(row, col)

    def test_cold_deep_level(self):
        fib = parse_rule(builtin_text("fibonacci"))
        assert word_count(fib, "ABAAB", 2000, "A") > 0
        fresh = parse_rule(builtin_text("fibonacci"))
        assert word_count(fresh, "B", 2000, "A") == transition_matrix(fresh, 0, 2000).entry("B", "A")

    def test_huge_supertiles_without_expansion(self):
        # junction bookkeeping handles 10^k-fold repeats symbolically
        tpn = load_builtin("ten_pow_n")
        assert word_count(tpn, "AA", 1, "A") == 9
        assert word_count(tpn, "AB", 1, "A") == 1
        total = sum(word_count(tpn, "A" + c, 6, "A") for c in "AB")
        a_tiles = transition_matrix(tpn, 0, 6).entry("A", "A")
        # every A except a possible final one is followed by something
        assert total in (a_tiles, a_tiles - 1)

    @pytest.mark.parametrize("name", ONE_D)
    def test_matches_brute_scan(self, name):
        rule = load_builtin(name)
        rng = random.Random(name)
        chars = sorted(label_chars(rule).values())
        for _ in range(25):
            m = rng.randint(1, 5)
            target = "".join(rng.choice(chars) for _ in range(m))
            level = rng.randint(0, 6)
            for lab in resolve_level(rule, level).labels:
                if cell_count(rule, level, lab) > 10**4:
                    continue
                text = word(rule, level, lab)
                brute = sum(
                    1 for i in range(len(text) - m + 1) if text[i : i + m] == target
                )
                assert word_count(rule, target, level, lab) == brute
            self.check_witness(rule, target, level)

    @staticmethod
    def check_witness(rule, target, level):
        """The admissibility witness is the first supertile, in level then
        label order, whose expansion contains the word, at its str.find
        position; skipped once a supertile is too large to expand here."""
        res = is_admissible(rule, target, level)
        for k in range(level + 1):
            for lab in resolve_level(rule, k).labels:
                if cell_count(rule, k, lab) > 10**4:
                    return
                pos = word(rule, k, lab).find(target)
                if pos >= 0:
                    assert (res.found, res.level, res.label, res.position) == (True, k, lab, (pos,))
                    return
        assert not res.found and res.searched_levels == level + 1

    def test_fiblike_straddling_word(self):
        fl = load_builtin("fiblike")
        for lab in ("A", "B"):
            text = word(fl, 7, lab)
            brute = sum(1 for i in range(len(text) - 2) if text[i : i + 3] == "ATB")
            assert word_count(fl, "ATB", 7, lab) == brute

    def test_keeps_nothing_per_word_on_the_rule(self):
        # words are unbounded keys; a long-lived rule must not grow with them
        fib = parse_rule(builtin_text("fibonacci"))
        word_count(fib, "AB", 50, "A")
        tables = set(fib._levels)
        word_count(fib, "ABAAB", 50, "A")
        patch_universality(fib, "AABAA", 50)
        is_admissible(fib, "ABAABAA", 50)
        assert set(fib._levels) == tables

    def test_rejects_2d_rules(self):
        with pytest.raises(ValueError):
            word_count(load_builtin("chair"), "AA", 1, "NE")


class TestPatchCount2D:
    def test_prototile_counts_match_matrix(self):
        chair = load_builtin("chair")
        m = transition_matrix(chair, 0, 2)
        for lab in ("NE", "NW", "SW", "SE"):
            single = expand_supertile(chair, 0, lab)
            assert patch_count_2d(chair, single, 2, "NE") == m.entry(lab, "NE")

    def test_supertile_in_itself(self):
        fib2d = load_builtin("fib2d")
        patch = expand_supertile(fib2d, 2, "AA")
        assert patch_count_2d(fib2d, patch, 2, "AA") == 1

    def test_oversized_patch_absent(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 3, "NE")
        assert patch_count_2d(chair, patch, 2, "NE") == 0

    def test_rejects_1d(self):
        patch = CellPatch.from_word(("A",))
        with pytest.raises(ValueError):
            patch_count_2d(load_builtin("fibonacci"), patch, 1, "A")


class TestFrequencyEstimates:
    def test_thue_morse_letter_is_exact(self):
        tm = load_builtin("thue_morse")
        est = patch_frequency_estimate(tm, "A", 0, 4)
        assert (est.lo, est.hi) == (Fraction(1, 2), Fraction(1, 2))
        assert est.width == 0

    def test_fibonacci_letter_narrows_to_golden_ratio(self):
        fib = load_builtin("fibonacci")
        est = patch_frequency_estimate(fib, "A", 0, 25)
        target = Fraction(fib_numbers(40), fib_numbers(41))
        assert est.width < Fraction(1, 10**4)
        assert est.lo <= target <= est.hi

    def test_ten_pow_n_letter_stays_wide(self):
        tpn = load_builtin("ten_pow_n")
        est = patch_frequency_estimate(tpn, "A", 0, 8)
        assert est.width > Fraction(7, 10)

    def test_widths_nest(self):
        for name in ("fibonacci", "thue_morse"):
            rule = load_builtin(name)
            widths = [
                patch_frequency_estimate(rule, "A", 0, N).width for N in range(1, 16)
            ]
            assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_word_at_higher_level(self):
        tm = load_builtin("thue_morse")
        est = patch_frequency_estimate(tm, "AA", 10, 20)
        assert est.level == 10 and est.horizon == 20
        assert est.width < Fraction(1, 10**3)

    def test_2d_patch_estimate(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 0, "SW")
        est = patch_frequency_estimate(chair, patch, 2, 6)
        assert 0 < est.lo <= est.hi < 1
        assert est.description == "patch[3 cells]"

    def test_interval_contains_true_column_frequency(self):
        # the hull vertices themselves realize per-column frequencies, so
        # a brute count in any horizon supertile must land inside
        fib = load_builtin("fibonacci")
        est = patch_frequency_estimate(fib, "AB", 1, 9)
        text = word(fib, 9, "A")
        brute = sum(1 for i in range(len(text) - 1) if text[i : i + 2] == "AB")
        # compare against counts per unit volume at horizon 9
        freq = Fraction(brute, int(volumes(fib, 9).value("A")))
        assert est.lo - Fraction(1, 10) <= freq <= est.hi + Fraction(1, 10)

    def test_one_word_pass_for_every_label(self, monkeypatch):
        passes = []
        word_rows = analysis._word_rows

        def counted(*args):
            passes.append(args)
            return word_rows(*args)

        monkeypatch.setattr(analysis, "_word_rows", counted)
        for name, patch, n, N, lo, hi in (
            ("fibonacci", "AB", 6, 12, Fraction(144, 377), Fraction(89, 233)),
            ("fiblike", "BA", 5, 11, Fraction(21, 233), Fraction(13, 144)),
        ):
            rule = load_builtin(name)
            assert len(resolve_level(rule, n).labels) >= 2
            passes.clear()
            est = patch_frequency_estimate(rule, patch, n, N)
            assert len(passes) == 1
            assert (est.lo, est.hi) == (lo, hi)


class TestUniversality:
    def test_fibonacci_aa(self):
        assert patch_universality(load_builtin("fibonacci"), "AA", 10) == 4

    def test_thue_morse_letter(self):
        assert patch_universality(load_builtin("thue_morse"), "A", 10) == 1

    def test_forbidden_word(self):
        assert patch_universality(load_builtin("thue_morse"), "AAA", 8) is None

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            patch_universality(load_builtin("chair"), "AA", 3)

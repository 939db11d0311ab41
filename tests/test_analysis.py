import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expand import _brute_components, outcome, random_2d_rules, reference_tiles

from fusionlab import analysis, core, expand
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
from fusionlab.errors import DisconnectedError, ExpansionTooLargeError, InvalidRangeError, OverlapError
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

    @pytest.mark.parametrize("max_offset", [1, 3])
    def test_negative_level_names_its_own_range(self, max_offset):
        with pytest.raises(InvalidRangeError) as exc:
            primitivity_check(load_builtin("fibonacci"), -1, max_offset)
        assert (exc.value.from_level, exc.value.to_level) == (-1, -1)


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

    def test_chair_closed_form_past_the_cap(self):
        # level 12 has 3 * 4^12 (about 5 * 10^7) cells, over the default cap,
        # and no supertile is expanded
        rep = van_hove_diagnostic(load_builtin("chair"), 12)
        assert rep.ratios == tuple(Fraction(2 ** (k + 3) - 3, 6 * 4 ** (k - 1)) for k in range(1, 13))
        assert rep.max_labels == ("NE",) * 12
        assert rep.verdict == "consistent with van Hove"
        with pytest.raises(ExpansionTooLargeError):
            expand_supertile(load_builtin("chair"), 12, "NE")

    def test_proved_supertiles_ignore_max_cells(self):
        rule = load_builtin("chair")
        assert van_hove_diagnostic(rule, 6, max_cells=1) == van_hove_diagnostic(rule, 6)
        with pytest.raises(ValueError):
            van_hove_diagnostic(rule, 6, max_cells=0)


def _brute_band(cells, r):
    """The two-sided r-band around a cell set by breadth-first search: set
    cells within graph distance r of the complement, walking inside the set,
    plus complement cells within r of the set, walking outside it."""
    neighbors = ((1, 0), (-1, 0), (0, 1), (0, -1))
    inside_frontier = set()
    outside_frontier = set()
    for (x, y) in cells:
        for dx, dy in neighbors:
            c = (x + dx, y + dy)
            if c not in cells:
                inside_frontier.add((x, y))
                outside_frontier.add(c)
    count = 0
    for frontier, member in ((inside_frontier, True), (outside_frontier, False)):
        seen = set(frontier)
        layer = frontier
        count += len(frontier)
        for _ in range(r - 1):
            nxt = set()
            for (x, y) in layer:
                for dx, dy in neighbors:
                    c = (x + dx, y + dy)
                    if c in seen or (c in cells) != member:
                        continue
                    nxt.add(c)
            seen |= nxt
            count += len(nxt)
            layer = nxt
    return count


def runs_of(cells):
    """Maximal x-runs of each row of any cell set, connected or not."""
    rows = {}
    for x, y in sorted(cells, key=lambda c: (c[1], c[0])):
        row = rows.setdefault(y, [])
        if row and row[-1][1] == x - 1:
            row[-1] = (row[-1][0], x)
        else:
            row.append((x, x))
    return {y: tuple(row) for y, row in rows.items()}


def brute_van_hove(rule, depth, r):
    """Ratios and worst labels as measured on every expanded supertile."""
    ratios, labels = [], []
    for level in range(1, depth + 1):
        pairs = []
        for label in resolve_level(rule, level).labels:
            cells = {c for c, _ in expand_supertile(rule, level, label).cells}
            pairs.append((Fraction(_brute_band(cells, r), len(cells)), label))
        best = max(ratio for ratio, _ in pairs)
        ratios.append(best)
        labels.append(next(label for ratio, label in pairs if ratio == best))
    return tuple(ratios), tuple(labels)


class TestBoundaryBand:
    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=60),
        r=st.integers(min_value=1, max_value=4),
    )
    def test_matches_search_on_any_cell_set(self, cells, r):
        # sparse draws leave holes and several components
        assert analysis._boundary_band_2d(runs_of(cells), r) == _brute_band(cells, r)

    @pytest.mark.parametrize("name, top", [("chair", 7), ("fib2d", 9)])
    def test_matches_search_on_bundled_supertiles(self, name, top):
        rule = load_builtin(name)
        for level, row in enumerate(expand._run_rows(rule, top)):
            for label in resolve_level(rule, level).labels:
                cells = {c for c, _ in expand_supertile(rule, level, label).cells}
                assert row[label] == runs_of(cells)
                if level:
                    for r in (1, 2, 3):
                        assert analysis._boundary_band_2d(row[label], r) == _brute_band(cells, r)

    @settings(max_examples=300, deadline=None)
    @given(
        rule=random_2d_rules,
        level=st.integers(min_value=0, max_value=3),
        pick=st.integers(min_value=0, max_value=1),
        r=st.integers(min_value=1, max_value=3),
    )
    def test_random_rules_match_expansion(self, rule, level, pick, r):
        names = rule.prototile_names()
        label = names[pick % len(names)]
        patch = outcome(lambda: expand_supertile(rule, level, label))
        if isinstance(patch, CellPatch):
            cells = {c for c, _ in patch.cells}
            assert len(_brute_components(cells)) == 1
            *_, row = expand._run_rows(rule, level)
            assert row[label] == core._runs_of(cells) == runs_of(cells)
            assert analysis._boundary_band_2d(row[label], r) == _brute_band(cells, r)
        if level:
            # every error is met as expansion meets it
            got = outcome(lambda: van_hove_diagnostic(rule, level, r))
            want = outcome(lambda: brute_van_hove(rule, level, r))
            assert got == want if isinstance(got, tuple) else (got.ratios, got.max_labels) == want

    def gapped(self):
        """A rule built in Python whose prototile D is two cells with a gap
        between them; Q fills the gap at level 1, and each later D stacks
        two copies of the one below."""
        rule = parse_rule(
            "rule gapped dim 2\n"
            "prototile D cells (0,0) (1,0)\n"
            "prototile Q\n"
            "level n == 1:\n"
            "  D = D Q@(1,0)\n"
            "  Q = Q\n"
            "level default:\n"
            "  D = D D@(0,h(D))\n"
            "  Q = Q\n"
        )
        d, q = rule.prototiles
        return dataclasses.replace(rule, prototiles=(dataclasses.replace(d, cells=((0, 0), (2, 0))), q))

    def join(self):
        """A rule whose level-1 P is two cells a column apart, joined into
        one row of four at level 2."""
        return parse_rule(
            "rule join dim 2\n"
            "prototile P\n"
            "level n == 1:\n"
            "  P = P P@(2,0)\n"
            "level default:\n"
            "  P = P P@(1,0)\n"
        )

    def late(self):
        """A rule whose tiles first overlap in level-2 P."""
        return parse_rule(
            "rule late dim 2\n"
            "prototile P cells (0,0) (1,0)\n"
            "prototile Q\n"
            "level default:\n"
            "  P = P Q@(2,0)\n"
            "  Q = Q P@(0,1)\n"
        )

    def test_disconnected_prototile_runs_match_expansion(self):
        rule = self.gapped()
        for level, row in enumerate(expand._run_rows(rule, 4)):
            for label in ("D", "Q"):
                tiles = reference_tiles(rule, level, label)
                cells = {(x + cx, y + cy) for (x, y), lab in tiles for cx, cy in rule.prototile(lab).cells}
                assert row[label] == runs_of(cells)
        for r in (1, 2, 3):
            rep = van_hove_diagnostic(rule, 4, r)
            assert (rep.ratios, rep.max_labels) == brute_van_hove(rule, 4, r)

    def test_max_cells_caps_only_the_overlap_expansion(self):
        assert van_hove_diagnostic(self.gapped(), 4, max_cells=1) == van_hove_diagnostic(self.gapped(), 4)
        # level-2 P of the late rule, where its tiles overlap, has 6 cells
        with pytest.raises(ExpansionTooLargeError) as exc:
            van_hove_diagnostic(self.late(), 2, max_cells=5)
        assert (exc.value.predicted, exc.value.cap) == (6, 5)
        with pytest.raises(DisconnectedError) as exc:
            van_hove_diagnostic(self.join(), 2, max_cells=1)
        assert exc.value.component_sizes == (1, 1)

    def test_disconnected_supertile_raises_as_expansion_does(self):
        rule = self.join()
        with pytest.raises(DisconnectedError) as got:
            van_hove_diagnostic(rule, 2)
        with pytest.raises(DisconnectedError) as want:
            expand_supertile(rule, 1, "P")
        assert vars(got.value) == vars(want.value) == {"component_sizes": (1, 1)}

    def test_overlap_raises_as_expansion_does(self):
        rule = self.late()
        assert van_hove_diagnostic(rule, 1).levels == (1,)
        with pytest.raises(OverlapError) as got:
            van_hove_diagnostic(rule, 2)
        with pytest.raises(OverlapError) as want:
            expand_supertile(rule, 2, "P")
        assert vars(got.value) == vars(want.value)


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

    def test_word_pass_fills_no_count_table(self):
        # the first occurrence is placed from the pass's own tile counts
        fib = parse_rule(builtin_text("fibonacci"))
        assert word_count(fib, "BAA", 40, "A") > 0
        assert is_admissible(fib, "ABAABAA", 40).found
        assert set(fib._levels) == {"resolutions"}

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

    @pytest.mark.parametrize("max_level", [-1, -3])
    def test_negative_max_level_rejected(self, max_level):
        with pytest.raises(ValueError, match=f"max_level must be >= 0, got {max_level}"):
            patch_universality(load_builtin("fibonacci"), "AB", max_level)

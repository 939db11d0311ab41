import dataclasses
import random
from collections import deque
from fractions import Fraction
from itertools import product
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expand import _brute_components, outcome, random_2d_rules, reference_tiles

from fusionlab import analysis, core, expand
from fusionlab.analysis import (
    ErgodicityReport,
    FrequencyHull,
    _reduced_column_rows,
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
from fusionlab.core import BinOp, Cmp, FusionRule, IsPow, Lit, Placement, Prototile, SupertileDef, Var, resolve_level
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
from fusionlab.transition import _column_rows, transition_matrix, volumes

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
        with pytest.raises(InvalidRangeError, match=r"need 0 <= from < to, got from=5 to=5$"):
            primitivity_check(load_builtin("fibonacci"), 5, 0)

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
        """A rule whose level-1 D, a prototile of the level-2 fusion step,
        is two cells with a gap between them; Q fills the gap at level 2,
        and each later D stacks two copies of the one below."""
        return parse_rule(
            "rule gapped dim 2\n"
            "prototile D\n"
            "prototile Q\n"
            "level n == 1:\n"
            "  D = D D@(2,0)\n"
            "  Q = Q\n"
            "level n == 2:\n"
            "  D = D Q@(1,0)\n"
            "  Q = Q\n"
            "level default:\n"
            "  D = D D@(0,h(D))\n"
            "  Q = Q\n"
        )

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
                if level:
                    for r in (1, 2, 3):
                        assert analysis._boundary_band_2d(row[label], r) == _brute_band(cells, r)
            if level == 1:
                assert row["D"] == {0: ((0, 0), (2, 2))}
        for r in (1, 2, 3):
            # the gap is met at level 1, as an expansion meets it
            got = outcome(lambda: van_hove_diagnostic(rule, 4, r))
            assert got == outcome(lambda: brute_van_hove(rule, 4, r)) == (DisconnectedError, {"component_sizes": (1, 1)})

    def test_max_cells_caps_only_the_overlap_expansion(self):
        chair = load_builtin("chair")
        assert van_hove_diagnostic(chair, 4, max_cells=1) == van_hove_diagnostic(chair, 4)
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
        for n, N in ((3, 3), (3, 1), (-1, 5)):
            with pytest.raises(InvalidRangeError, match=rf"need 0 <= from < to, got from={n} to={N}$"):
                frequency_hull(load_builtin("fibonacci"), n, N)


# ---------------------------------------------------------------------------
# The Fraction-by-Fraction hull: every vertex, pair distance and centroid
# normalized at every horizon. The integer sweep in analysis is checked
# against it.
# ---------------------------------------------------------------------------


def oracle_widest_pair(vertices, vol_n):
    """The largest volume-weighted L1 distance between two vertices and the
    first pair (a, b) attaining it; (0, 0, 0) for a single vertex."""
    pairs = (
        (sum(vol_n[i] * abs(vertices[a][i] - vertices[b][i]) for i in range(len(vol_n))), a, b)
        for a in range(len(vertices))
        for b in range(a + 1, len(vertices))
    )
    return max(pairs, key=lambda pair: pair[0], default=(Fraction(0), 0, 0))


def oracle_hull(rule, n, N, matrix=transition_matrix):
    """The hull of M_{n,N}, as matrix computes it, and the pair of vertices
    realizing its diameter."""
    m = matrix(rule, n, N)
    vol_n, vol_N = volumes(rule, n).values, volumes(rule, N).values
    vertices = tuple(
        tuple(m.entries[i][j] / vol_N[j] for i in range(len(m.row_labels)))
        for j in range(len(m.col_labels))
    )
    diameter, a, b = oracle_widest_pair(vertices, vol_n)
    k = len(vertices)
    centroid = tuple(sum((v[i] for v in vertices), Fraction(0)) / k for i in range(len(vol_n)))
    hull = FrequencyHull(m.from_level, m.to_level, m.row_labels, m.col_labels, vertices, diameter, centroid)
    return hull, a, b


def oracle_report(rule, n, depth, tol, window, floor):
    """ergodicity_report from one oracle hull per horizon."""
    tol, floor = (x if isinstance(x, Fraction) else Fraction(str(x)) for x in (tol, floor))
    hulls = [oracle_hull(rule, n, N) for N in range(n + 1, depth + 1)]
    diameters = tuple(h.diameter for h, _, _ in hulls)
    trajectories = None
    if diameters[-1] < tol:
        verdict = "unique"
    elif all(d > floor for d in diameters[-window:]):
        verdict = "multiple"
        trajectories = (
            tuple((h.vertex_labels[a], h.vertices[a]) for h, a, _ in hulls),
            tuple((h.vertex_labels[b], h.vertices[b]) for h, _, b in hulls),
        )
    else:
        verdict = "undecided"
    horizons = tuple(range(n + 1, depth + 1))
    return ErgodicityReport(n, depth, tol, horizons, diameters, verdict, hulls[-1][0], trajectories)


# Prototile volumes with denominators above 1, so that both the level-n
# volumes (over their lcm L) and the horizon volumes p_j/q_j are fractional.
FRACTIONAL_VOLUMES = tuple(Fraction(p, q) for p, q in ((1, 2), (2, 3), (3, 2), (5, 4), (7, 6), (4, 5)))


@st.composite
def fractional_1d_rules(draw, repeats=(Lit(1), Lit(2), Lit(3), Var(), BinOp("+", Var(), Lit(1)))):
    """Random 1D rules with one to three labels, fractional prototile
    volumes and repeats drawn from repeats, by default constant or growing
    with the level."""
    names = ("A", "B", "C")[: draw(st.integers(min_value=1, max_value=3))]
    repeat = st.sampled_from(repeats)
    placement = st.builds(Placement, st.sampled_from(names), repeat)
    definitions = tuple(
        SupertileDef(name, tuple(draw(st.lists(placement, min_size=1, max_size=3)))) for name in names
    )
    prototiles = tuple(Prototile(name, draw(st.sampled_from(FRACTIONAL_VOLUMES))) for name in names)
    return FusionRule("fractional", 1, prototiles, definitions)


@st.composite
def shared_factor_1d_rules(draw):
    """Random 1D rules like fractional_1d_rules whose repeats all share a
    drawn factor f, 2, 3 or 6, so that f^(N - n) divides every entry of
    M_{n,N}: the hull reads a matrix whose content is above 1."""
    f = draw(st.sampled_from((2, 3, 6)))
    names = ("A", "B", "C")[: draw(st.integers(min_value=1, max_value=3))]
    repeat = st.sampled_from((Lit(f), Lit(2 * f), BinOp("*", Lit(f), Var()), BinOp("*", Lit(f), BinOp("+", Var(), Lit(1)))))
    placement = st.builds(Placement, st.sampled_from(names), repeat)
    definitions = tuple(
        SupertileDef(name, tuple(draw(st.lists(placement, min_size=1, max_size=3)))) for name in names
    )
    volume = st.sampled_from(FRACTIONAL_VOLUMES + (1, 2))
    prototiles = tuple(Prototile(name, draw(volume)) for name in names)
    return FusionRule("shared", 1, prototiles, definitions), f


@st.composite
def determinant_1d_rules(draw):
    """Random 1D rules over A and B whose repeats are all multiples of a
    drawn k, so that the determinant of a square step shares factors with
    its entries. B may repeat A's body, so that every square step has det
    0; and a label T may live at the levels 2^m - c, which makes the steps
    into and out of those levels non-square, the label set changing."""
    k = draw(st.sampled_from((2, 3, 6)))
    repeat = st.sampled_from((Lit(k), Lit(2 * k), BinOp("*", Lit(k), Var()), BinOp("*", Lit(k), BinOp("+", Var(), Lit(1)))))
    body = st.lists(st.builds(Placement, st.sampled_from("AB"), repeat), min_size=1, max_size=3).map(tuple)
    a = draw(body)
    definitions = [SupertileDef("A", a), SupertileDef("B", a if draw(st.booleans()) else draw(body))]
    if draw(st.booleans()):
        c = draw(st.integers(min_value=0, max_value=1))
        # T at the levels where ispow(2, n + c) holds; A reads it one level up
        after_t = IsPow(2, BinOp("+", Var(), Lit(c - 1)))
        definitions.insert(0, SupertileDef("A", (Placement("T", draw(repeat)), Placement("B", draw(repeat))), after_t))
        definitions.append(SupertileDef("T", draw(body), IsPow(2, BinOp("+", Var(), Lit(c)))))
    volume = st.sampled_from(FRACTIONAL_VOLUMES + (1, 2))
    return FusionRule("det", 1, (Prototile("A", draw(volume)), Prototile("B", draw(volume))), tuple(definitions))


CONSTANT_REPEATS = (Lit(1), Lit(2), Lit(3), BinOp("*", Lit(2), Lit(3)))
TRUE, FALSE = Cmp("<", Lit(1), Lit(2)), Cmp("==", Lit(1), Lit(2))


@st.composite
def faulty_level_free_rules(draw):
    """Level-free 1D rules over prototiles A and B whose definitions may
    name C, be missing for A or B, or never fire, and whose repeats may be
    0 or raise 2 to a negative power: many fail at level 1 or at level 2
    (a child that is a prototile but not a level-1 label)."""
    repeat = st.sampled_from(CONSTANT_REPEATS + (Lit(0), BinOp("^", Lit(2), Lit(-1))))
    placement = st.builds(Placement, st.sampled_from("ABC"), repeat)
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=4))
    definitions = tuple(
        SupertileDef(label, tuple(draw(st.lists(placement, min_size=1, max_size=3))), draw(st.sampled_from((TRUE, FALSE))))
        for label in labels
    )
    return FusionRule("faulty", 1, (Prototile("A"), Prototile("B")), definitions)


level_free_1d_rules = st.one_of(fractional_1d_rules(repeats=CONSTANT_REPEATS), faulty_level_free_rules())


def twin(rule):
    """An equal rule with a level table of its own, cold."""
    return dataclasses.replace(rule)


def content(cols):
    """The gcd of every entry of a level's columns."""
    return gcd(*(e for col in cols.values() for e in col))


def assert_reduced(rule, n, N):
    """At every level n..N, the reduced fold yields M[n -> k] over its
    content: entries of gcd 1, proportional to the plain fold's."""
    for cols, full in zip(_reduced_column_rows(rule, n, N), _column_rows(rule, n, N), strict=True):
        assert content(cols) == 1
        c = content(full)
        assert cols == {label: tuple(e // c for e in col) for label, col in full.items()}


# From level 0 at horizon N, A's vertex is (1, 0, 0), B's is
# (2N, 1, 0)/(2N+1) and C's is (0, 0, 1): A and C are as far apart as B and
# C, at distance 2, which the integer sweep reads over different
# denominators. Only the first pair attaining it, (A, C), is the widest.
TIE = """rule tie dim 1
prototile A
prototile B
prototile C
level default:
  A = A
  B = A A B
  C = C
"""


class TestHullOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        rule=st.one_of(fractional_1d_rules(), random_2d_rules),
        n=st.integers(min_value=0, max_value=2),
        span=st.integers(min_value=1, max_value=4),
        tol=st.sampled_from((Fraction(0), Fraction(1, 10**6), Fraction(1, 2), 0.1)),
        floor=st.sampled_from((Fraction(0), Fraction(1, 100), 0.25)),
        window=st.integers(min_value=1, max_value=3),
    )
    def test_hull_and_report_equal_the_fraction_oracle(self, rule, n, span, tol, floor, window):
        got = outcome(lambda: ergodicity_report(rule, n, n + span, tol, window, floor))
        want = outcome(lambda: oracle_report(rule, n, n + span, tol, window, floor))
        assert got == want  # diameters, hull, verdict and trajectories at every horizon
        for N in range(n + 1, n + span + 1):
            got = outcome(lambda: frequency_hull(rule, n, N))
            want = outcome(lambda: oracle_hull(rule, n, N)[0])
            assert got == want

    @settings(max_examples=150, deadline=None)
    @given(
        drawn=shared_factor_1d_rules(),
        n=st.integers(min_value=0, max_value=2),
        span=st.integers(min_value=1, max_value=4),
        tol=st.sampled_from((Fraction(0), Fraction(1, 10**6), Fraction(1, 2), 0.1)),
        floor=st.sampled_from((Fraction(0), Fraction(1, 100), 0.25)),
        window=st.integers(min_value=1, max_value=3),
    )
    def test_shared_factor_equals_the_fraction_oracle(self, drawn, n, span, tol, floor, window):
        rule, f = drawn
        m = transition_matrix(rule, n, n + span)
        assert all(e % f**span == 0 for row in m.entries for e in row)
        assert ergodicity_report(rule, n, n + span, tol, window, floor) == oracle_report(
            rule, n, n + span, tol, window, floor
        )
        for N in range(n + 1, n + span + 1):
            assert frequency_hull(rule, n, N) == oracle_hull(rule, n, N)[0]
        assert_reduced(rule, n, n + span)

    @pytest.mark.parametrize("name", ["ten_pow_n", "thue_morse"])
    def test_large_contents_equal_the_fraction_oracle(self, name):
        rule = load_builtin(name)
        m = transition_matrix(rule, 0, 40)
        assert gcd(*(e for row in m.entries for e in row)).bit_length() > 30  # 2^39 on thue_morse
        tol, floor = Fraction(1, 10**6), Fraction(1, 100)
        assert ergodicity_report(rule, 0, 40, tol, 3, floor) == oracle_report(rule, 0, 40, tol, 3, floor)
        assert frequency_hull(rule, 0, 40) == oracle_hull(rule, 0, 40)[0]

    @pytest.mark.parametrize("name", ALL)
    def test_reduced_columns_have_content_one(self, name):
        assert_reduced(load_builtin(name), 2, 40)

    def test_sweep_fills_no_volume_table_past_level_n(self):
        # each horizon's volumes are summed from its reduced columns
        rule = parse_rule(builtin_text("ten_pow_n"))
        assert ergodicity_report(rule, 0, 60).verdict == "multiple"
        assert len(rule._levels["volume"]) == 1
        frequency_hull(rule, 0, 60)
        assert len(rule._levels["volume"]) == 1
        ergodicity_report(rule, 3, 40)
        assert len(rule._levels["volume"]) == 4

    @pytest.mark.parametrize("name", ALL)
    def test_bundled_rules_equal_the_fraction_oracle(self, name):
        rule = load_builtin(name)
        for n in (0, 2):
            assert ergodicity_report(rule, n, n + 8, Fraction(0), 2, Fraction(0)) == oracle_report(
                rule, n, n + 8, Fraction(0), 2, Fraction(0)
            )

    def test_fractional_volumes_reach_the_sweep(self):
        rule = FusionRule(
            "fractional", 1,
            tuple(Prototile(name, v) for name, v in zip("AB", (Fraction(1, 2), Fraction(2, 3)))),
            (SupertileDef("A", (Placement("A"), Placement("B"))), SupertileDef("B", (Placement("A", Lit(2)),))),
        )
        assert volumes(rule, 0).values == (Fraction(1, 2), Fraction(2, 3))
        assert volumes(rule, 1).values == (Fraction(7, 6), Fraction(1))
        rep = ergodicity_report(rule, 0, 6, Fraction(0), 1, Fraction(0))
        assert rep == oracle_report(rule, 0, 6, Fraction(0), 1, Fraction(0))
        assert rep.verdict == "multiple"
        hull = frequency_hull(rule, 0, 1)
        assert hull.vertices == ((Fraction(6, 7), Fraction(6, 7)), (Fraction(2), Fraction(0)))
        assert hull.diameter == Fraction(8, 7)

    def test_int_volumes_give_exact_vertices(self):
        # int volumes given in Python are held as Fractions: every coordinate is exact
        rule = FusionRule(
            "ints", 1, tuple(Prototile(name, 1) for name in "ABC"),
            (
                SupertileDef("A", (Placement("A"), Placement("B"))),
                SupertileDef("B", (Placement("A"),)),
                SupertileDef("C", (Placement("C"), Placement("A"))),
            ),
        )
        hull = frequency_hull(rule, 0, 2)
        assert hull.vertices == (
            (Fraction(2, 3), Fraction(1, 3), 0), (Fraction(1, 2), Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        )
        assert hull.centroid == (Fraction(5, 9), Fraction(13, 36), Fraction(1, 12))
        rep = ergodicity_report(rule, 0, 2, window=1)
        assert rep.verdict == "multiple"
        coordinates = [*hull.centroid, *(x for side in rep.trajectories for _, v in side for x in v)]
        assert all(type(x) is Fraction for x in coordinates)

    def test_tied_pairs_keep_the_first(self):
        rule = parse_rule(TIE)
        rep = ergodicity_report(rule, 0, 3)
        assert rep == oracle_report(rule, 0, 3, Fraction(1, 10**6), 3, Fraction(1, 100))
        assert rep.diameters == (2, 2, 2)
        assert rep.verdict == "multiple"
        lo, hi = rep.trajectories
        assert [label for label, _ in lo] == ["A"] * 3
        assert [label for label, _ in hi] == ["C"] * 3
        # B is as far from C as A is, over a different denominator
        b, c = rep.hull.vertices[1:]
        assert sum(abs(x - y) for x, y in zip(b, c)) == 2
        assert b == (Fraction(6, 7), Fraction(1, 7), Fraction(0))


class TestDeterminantContent:
    # _DET_BITS only decides when the gcd starts from det S; at 0 it always does
    @settings(max_examples=150, deadline=None)
    @given(
        rule=determinant_1d_rules(),
        n=st.integers(min_value=0, max_value=3),
        span=st.integers(min_value=1, max_value=9),
        bits=st.sampled_from((0, analysis._DET_BITS)),
    )
    def test_contents_equal_the_full_gcd(self, rule, n, span, bits):
        with mock.patch.object(analysis, "_DET_BITS", bits):
            assert_reduced(rule, n, n + span)
            tol, floor = Fraction(1, 10**6), Fraction(1, 100)
            assert ergodicity_report(rule, n, n + span, tol, 2, floor) == oracle_report(rule, n, n + span, tol, 2, floor)
            assert frequency_hull(rule, n, n + span) == oracle_hull(rule, n, n + span)[0]

    @pytest.mark.parametrize("text, dets", [
        # det S = 4 - 24 = -20 at every step, sharing 2 and 4 with the entries
        ("A = A^(2) B^(4)\n  B = A^(6) B^(2)", [20] * 8),
        # det S = 0: the columns are equal, as thue_morse's are not
        ("A = A^(3) B^(6)\n  B = A^(3) B^(6)", [0] * 8),
        # T at levels 1, 3 and 7 (n + 1 a power of 2): the steps into and out of
        # them are not square; between them det S = 4 - 16 = -12
        ("A = T^(2) B^(2) if ispow(2, n)\n  A = A^(2) B^(4)\n  B = A^(4) B^(2)\n  T = B^(2) A^(2) if ispow(2, n + 1)",
         [0, 0, 0, 0, 12, 12, 0, 0]),
    ], ids=["shared", "singular", "labels-change"])
    def test_step_determinants(self, text, dets, monkeypatch):
        rule = parse_rule(f"rule det dim 1\nprototile A\nprototile B\nlevel default:\n  {text}\n")
        assert [analysis._step_det(rule, k) for k in range(1, 9)] == dets
        monkeypatch.setattr(analysis, "_DET_BITS", 0)
        assert_reduced(rule, 0, 12)
        assert_reduced(rule, 2, 12)

    def test_determinant_is_found_once_for_a_level_free_rule(self, monkeypatch):
        calls = []
        step_det = analysis._step_det
        monkeypatch.setattr(analysis, "_step_det", lambda rule, k: calls.append(k) or step_det(rule, k))
        for cols in analysis._reduced_column_rows(load_builtin("fibonacci"), 0, 2000):
            assert content(cols) == 1
        assert calls == [2]  # det -1, once entries pass _DET_BITS
        calls.clear()
        monkeypatch.setattr(analysis, "_DET_BITS", 0)
        assert_reduced(load_builtin("ten_pow_n"), 0, 5)
        assert calls == [1, 2, 3, 4, 5]


class TestErgodicity:
    def test_fibonacci_unique(self):
        rep = ergodicity_report(load_builtin("fibonacci"), 0, 25)
        assert rep.verdict == "unique"
        assert rep.trajectories is None
        assert rep.diameters[-1] < Fraction(1, 10**6)

    def test_final_hull_is_the_frequency_hull(self):
        # the sweep's reduced fold against the matrix divided once, where they
        # can differ: a large content (945 of ten_pow_n's 2 724 bits at 0 -> 40),
        # det S = 0 on a level-free rule (thue_morse), and 2D rules
        cases = [(name, 1, 9) for name in ("fibonacci", "ten_pow_n", "fiblike", "thue_morse")]
        cases += [("ten_pow_n", 0, 40), ("chair", 1, 7), ("fib2d", 1, 7)]
        for name, n, N in cases:
            rule = load_builtin(name)
            assert ergodicity_report(rule, n, N).hull == frequency_hull(rule, n, N)

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
        with pytest.raises(InvalidRangeError, match=r"need 0 <= from < to, got from=4 to=4$"):
            ergodicity_report(load_builtin("fibonacci"), 4, 4)
        # a negative level is refused by the volume table, as before
        with pytest.raises(ValueError, match="level must be >= 0"):
            ergodicity_report(load_builtin("fibonacci"), -1, 5)

    @pytest.mark.parametrize(
        "kwargs", [dict(floor=-1), dict(tol=-1), dict(tol=-0.5), dict(floor=Fraction(-1, 10**9)), dict(tol=-1, floor=-1)]
    )
    def test_negative_tol_or_floor_raises(self, kwargs):
        # every diameter, 0 included, is above floor -1: it would read "multiple"
        with pytest.raises(ValueError, match="tol and floor must be >= 0, got tol .* and floor "):
            ergodicity_report(load_builtin("fibonacci"), 2, 5, **kwargs)

    def test_zero_tol_and_floor_are_valid(self):
        rep = ergodicity_report(load_builtin("fibonacci"), 2, 5, tol=0, floor=0)
        assert (rep.tol, rep.verdict) == (0, "multiple")

    def test_float_tol_is_decided_as_stored(self):
        # the diameter is exactly 1/10; the float 0.1 is a little larger
        rule = parse_rule(
            "rule edge dim 1\nprototile A\nprototile B\n"
            "level default:\n  A = A^(9) B\n  B = A^(17) B^(3)\n"
        )
        rep = ergodicity_report(rule, 0, 1, tol=0.1, window=1)
        assert rep.diameters == (Fraction(1, 10),)
        assert rep.tol == Fraction(1, 10)
        assert rep.verdict == "multiple"  # 1/10 is not below tol 1/10
        assert rep.trajectories is not None
        # floor is read the same way: 1/10 is not above floor 1/10
        assert ergodicity_report(rule, 0, 1, tol=0.05, window=1, floor=0.1).verdict == "undecided"
        assert ergodicity_report(rule, 0, 1, tol=0.05, window=1, floor=0.09).verdict == "multiple"

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_must_be_positive(self, window):
        # diameters[-0:] would be the whole sequence, and a verdict of
        # "multiple" on ten_pow_n would read no trailing window at all
        with pytest.raises(ValueError, match=f"window must be >= 1, got {window}"):
            ergodicity_report(load_builtin("ten_pow_n"), 0, 8, window=window)


class TestWordCount:
    @pytest.mark.parametrize("call", [
        lambda rule, word: is_admissible(rule, CellPatch.from_word(word), 3),
        lambda rule, word: word_count(rule, word, 3, "A"),
        lambda rule, word: patch_universality(rule, word, 3),
        lambda rule, word: patch_frequency_estimate(rule, word, 0, 3),
    ], ids=["is_admissible", "word_count", "patch_universality", "patch_frequency_estimate"])
    def test_label_words_are_checked_as_text_is(self, call):
        fib = load_builtin("fibonacci")
        for word in (("Z",), ("A", "Z")):
            with pytest.raises(ValueError, match="unknown label 'Z'"):
                call(fib, word)
        assert call(fib, ("A", "B")) == call(fib, "AB")

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

    @pytest.mark.parametrize("name, level", [("ten_pow_n", 60), ("fiblike", 300), ("fibonacci", 300), ("thue_morse", 300)])
    def test_census_at_deep_levels(self, name, level):
        # past any expansion: every window of length m is one occurrence of
        # one word of length m, and a letter counts as its matrix entry
        rule = load_builtin(name)
        chars = sorted(label_chars(rule).values())
        m = transition_matrix(rule, 0, level)
        for lab in m.col_labels:
            for row, char in zip(m.row_labels, chars):
                assert word_count(rule, char, level, lab) == m.entry(row, lab)
            for k in (2, 3):
                total = sum(word_count(rule, "".join(w), level, lab) for w in product(chars, repeat=k))
                assert total == sum(m.column(lab)) - k + 1


def walked_counts(rule, word, level):
    """The counts of every level-`level` supertile, from the fold over every
    level: the oracle of the powered counts."""
    row = deque(expand._word_rows(rule, word, level), maxlen=1)[0]
    return {label: count for label, (count, *_) in row.items()}


class TestLevelFreeWordCounts:
    @settings(max_examples=200, deadline=None)
    @given(rule=level_free_1d_rules, data=st.data())
    def test_powers_equal_the_walk(self, rule, data):
        assert rule._level_free
        word = tuple(data.draw(st.lists(st.sampled_from(rule.prototile_names()), min_size=1, max_size=6)))
        for level in (*range(10), 23, 64, 300):
            cold, oracle = twin(rule), twin(rule)
            got = outcome(lambda: analysis._word_counts(cold, word, level))
            want = outcome(lambda: walked_counts(oracle, word, level))
            assert got == want
            # the same levels resolved, at most 3, so an error raises from
            # the same first failing level
            assert len(cold._levels.get("resolutions", ())) == len(oracle._levels.get("resolutions", ())) <= 3

    @pytest.mark.parametrize("name, words", [("fibonacci", ("ABAAB", "BAA", "AB", "B")), ("thue_morse", ("ABBA", "BAAB", "AAB", "A"))])
    def test_tails_of_period_two(self, name, words):
        rule = load_builtin(name)
        for w in words:
            # the last label of a supertile flips from level to level, so the
            # ends of a word longer than one label repeat with period 2
            states = [tuple((head, tail) for *_, head, tail in row.values()) for row in expand._word_rows(rule, w, 9)]
            assert states[9] == states[7] and (states[8] == states[7]) == (len(w) == 1)
            for level in range(13):
                for lab in resolve_level(rule, level).labels:
                    text = word(rule, level, lab)
                    assert word_count(rule, w, level, lab) == sum(text.startswith(w, i) for i in range(len(text)))
            for level in (100, 101, 1001):
                assert analysis._word_counts(rule, w, level) == walked_counts(twin(rule), w, level)
        assert len(rule._levels["resolutions"]) == 3

    def test_deep_counts_keep_three_levels(self):
        rule = load_builtin("fibonacci")
        count = word_count(rule, "ABAAB", 100000, "A")
        assert count.bit_length() > 69000
        assert len(rule._levels["resolutions"]) == 3


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

import gc
import sys
import time
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionlab.builtins import builtin_names, builtin_text, load_builtin
from fusionlab.core import (
    BinOp,
    Dim,
    FusionRule,
    Lit,
    Placement,
    Prototile,
    SupertileDef,
    level_sizes,
    resolve_level,
)
from fusionlab.analysis import van_hove_diagnostic, word_count
from fusionlab.dsl import parse_rule
from fusionlab import core, expand
from fusionlab.errors import DisconnectedError, ExpansionTooLargeError, FusionError, OverlapError, UnknownLabelError, ValidationError
from fusionlab.expand import (
    CellPatch,
    cell_count,
    expand_supertile,
    is_admissible,
    occurrences_2d,
    parse_word,
    prefix_suffix,
    render_svg,
    render_text,
    tile_census,
    tile_count,
    word_string,
)
from fusionlab.transition import transition_matrix

ONE_D = ("thue_morse", "fibonacci", "fiblike", "ten_pow_n")


def word(rule, level, label):
    return word_string(rule, expand_supertile(rule, level, label).labels)


class TestWords:
    def test_thue_morse_levels(self):
        tm = load_builtin("thue_morse")
        assert word(tm, 1, "S1") == "AB" and word(tm, 1, "S2") == "BA"
        assert word(tm, 2, "S1") == "ABBA" and word(tm, 2, "S2") == "BAAB"
        assert word(tm, 3, "S1") == "ABBABAAB"
        assert word(tm, 3, "S2") == "BAABABBA"

    def test_fiblike_table(self):
        fl = load_builtin("fiblike")
        expected = {
            (0, "A"): "A", (0, "B"): "B", (0, "T"): "T",
            (1, "A"): "TB", (1, "B"): "A",
            (2, "A"): "TBA", (2, "B"): "TB", (2, "T"): "ATB",
            (3, "A"): "ATBTB", (3, "B"): "TBA",
            (4, "A"): "ATBTBTBA", (4, "B"): "ATBTB",
        }
        for (k, lab), text in expected.items():
            assert word(fl, k, lab) == text

    def test_ten_pow_n_level1(self):
        tpn = load_builtin("ten_pow_n")
        assert word(tpn, 1, "A") == "A" * 10 + "B"
        assert word(tpn, 1, "B") == "B" * 10 + "A"

    def test_fibonacci_level5(self):
        fib = load_builtin("fibonacci")
        assert word(fib, 5, "A") == "ABAABABAABAAB"
        assert word(fib, 5, "B") == "ABAABABA"


class TestCounts:
    def test_counts_without_expansion(self):
        tpn = load_builtin("ten_pow_n")
        n = tile_count(tpn, 50, "A")
        assert n == cell_count(tpn, 50, "A")
        assert n > 10**1000  # far beyond anything expandable

    def test_chair_counts(self):
        chair = load_builtin("chair")
        for n in range(0, 6):
            for lab in ("NE", "NW", "SW", "SE"):
                assert tile_count(chair, n, lab) == 4**n
                assert cell_count(chair, n, lab) == 3 * 4**n

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            tile_count(load_builtin("fibonacci"), 0, "Z")

    def test_budget_enforced(self):
        tm = load_builtin("thue_morse")
        with pytest.raises(ExpansionTooLargeError) as exc:
            expand_supertile(tm, 4, "S1", max_cells=10)
        assert exc.value.predicted == 16 and exc.value.cap == 10

    @pytest.mark.parametrize("name, level", [("chair", 3), ("fibonacci", 0)])
    def test_unknown_supertile_label_is_named(self, name, level):
        rule = load_builtin(name)
        with pytest.raises(UnknownLabelError) as exc:
            expand_supertile(rule, level, "XX")
        labels = resolve_level(rule, level).labels
        assert (exc.value.label, exc.value.level, exc.value.labels) == ("XX", level, labels)
        assert str(exc.value) == f"no supertile 'XX' at level {level}; labels there: {', '.join(labels)}"
        assert isinstance(exc.value, KeyError)

    @pytest.mark.parametrize(
        "call, labels",
        [
            (lambda: word_count(load_builtin("fibonacci"), "AB", 3, "Z"), ("A", "B")),
            (lambda: prefix_suffix(load_builtin("fibonacci"), 3, "Z", 2), ("A", "B")),
            (lambda: tile_count(load_builtin("fibonacci"), 3, "Z"), ("A", "B")),
            (lambda: cell_count(load_builtin("chair"), 3, "Z"), ("NE", "NW", "SW", "SE")),
        ],
        ids=["word_count", "prefix_suffix", "tile_count", "cell_count"],
    )
    def test_unknown_label_is_named_by_every_count(self, call, labels):
        with pytest.raises(UnknownLabelError) as exc:
            call()
        assert (exc.value.label, exc.value.level, exc.value.labels) == ("Z", 3, labels)

    @pytest.mark.parametrize("max_cells", [0, -1])
    def test_max_cells_below_one_rejected(self, max_cells):
        with pytest.raises(ValueError, match="max_cells must be >= 1"):
            expand_supertile(load_builtin("chair"), 1, "NE", max_cells=max_cells)


class TestTwoDimensional:
    def test_chair_level1_grid(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 1, "NE")
        assert patch.size() == (4, 4)
        assert render_text(patch, chair) == "DD..\nDA..\nAAAB\nAABB"

    def test_chair_census(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 2, "NE")
        assert tile_census(patch) == {"NE": 6, "NW": 4, "SW": 2, "SE": 4}
        assert patch.cell_count() == 3 * 16

    def test_chair_squares(self):
        chair = load_builtin("chair")
        for n in range(0, 5):
            patch = expand_supertile(chair, n, "SW")
            assert patch.size() == (2 ** (n + 1), 2 ** (n + 1))

    def test_fib2d_census_is_product(self):
        fib2d = load_builtin("fib2d")
        patch = expand_supertile(fib2d, 3, "AA")
        # level-3 1D Fibonacci supertiles hold 3 A's and 2 B's
        assert tile_census(patch) == {"AA": 9, "AB": 6, "BA": 6, "BB": 4}

    def test_fib2d_is_full_rectangle(self):
        fib2d = load_builtin("fib2d")
        for lab in ("AA", "AB", "BA", "BB"):
            patch = expand_supertile(fib2d, 4, lab)
            w, h = patch.size()
            assert patch.cell_count() == w * h

    def test_tiles_and_cells_agree(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 3, "NW")
        painted = {}
        for (ax, ay), lab in patch.tiles:
            for cx, cy in chair.prototile(lab).cells:
                painted[(ax + cx, ay + cy)] = lab
        assert painted == patch.grid()

    def test_cells_painted_in_tile_order(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 3, "NE")
        assert patch.cells == tuple(
            ((x + cx, y + cy), lab) for (x, y), lab in patch.tiles for cx, cy in chair.prototile(lab).cells
        )
        # the parent's render of this supertile, row y = 15 first
        rows = (
            "DDCCDDCC........", "DDDCDCCC........", "ADDDCCCB........", "AADDDCBB........",
            "DDADDDCC........", "DAAADDDC........", "AAABADDD........", "AABBAADA........",
            "DDCCDDAAABCCDDCC", "DDDCDAAABBBCDCCC", "ADDDAAABABBBCCCB", "AADAAABBAABBBCBB",
            "DDAAABCCDDABBBCC", "DAAABBBCDAAABBBC", "AAABABBBAAABABBB", "AABBAABBAABBAABB",
        )
        names = {"A": "NE", "B": "NW", "C": "SW", "D": "SE"}
        want = sorted(((x, 15 - y), names[ch]) for y, row in enumerate(rows) for x, ch in enumerate(row) if ch != ".")
        assert sorted(patch.cells) == want


LEFTY = (
    "rule lefty dim 2\n"
    "prototile P\n"
    "prototile Q\n"
    "level default:\n"
    "  P = P Q@(0-w(Q),0)\n"
    "  Q = Q P@(0,h(Q))\n"
)


class TestLevelLoop:
    @pytest.mark.parametrize("dim, label", [(1, "A"), (2, "P")])
    def test_one_child_rule_at_level_2000(self, dim, label):
        rule = parse_rule(f"rule one dim {dim}\nprototile {label}\nlevel default:\n  {label} = {label}\n")
        patch = expand_supertile(rule, 2000, label)
        assert patch.cell_count() == 1 and tile_census(patch) == {label: 1}

    def test_offsets_place_bounding_box_corners(self):
        lefty = parse_rule(LEFTY)
        assert render_text(expand_supertile(lefty, 2, "P"), lefty) == "P..\nQQP"
        for level in range(3):
            for label in ("P", "Q"):
                patch = expand_supertile(lefty, level, label)
                assert patch.size() == level_sizes(lefty, level)[label]


def reference_tiles(rule, level, label):
    """Placed tiles of a 2D supertile by a recursive walk that moves each
    child so its bounding-box min corner, measured on its cells, lands on
    the child's offset."""
    if level == 0:
        return [((0, 0), label)]
    tiles = []
    for p in resolve_level(rule, level).supertile(label).body:
        child = reference_tiles(rule, level - 1, p.child)
        cells = [(x + cx, y + cy) for (x, y), lab in child for cx, cy in rule.prototile(lab).cells]
        dx = p.offset[0] - min(x for x, _ in cells)
        dy = p.offset[1] - min(y for _, y in cells)
        tiles += [((x + dx, y + dy), lab) for (x, y), lab in child]
    return tiles


# Shapes drawn for random prototiles: a unit cell, both dominoes and the four
# L-trominoes, each anchored at min x = min y = 0, so rows hold several runs.
SHAPES = (
    ((0, 0),),
    ((0, 0), (1, 0)),
    ((0, 0), (0, 1)),
    ((0, 0), (0, 1), (1, 0)),
    ((0, 0), (1, 0), (1, 1)),
    ((0, 0), (0, 1), (1, 1)),
    ((0, 1), (1, 0), (1, 1)),
)


@st.composite
def small_2d_rules(draw):
    names = ("P", "Q")[: draw(st.integers(min_value=1, max_value=2))]
    offset = st.tuples(st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2))
    placement = st.tuples(st.sampled_from(names), offset)
    definitions = tuple(
        SupertileDef(name, tuple(
            Placement(child, Lit(1), (Lit(x), Lit(y)))
            for child, (x, y) in draw(st.lists(placement, min_size=2, max_size=3))
        ))
        for name in names
    )
    prototiles = tuple(Prototile(name, Fraction(1), cells=draw(st.sampled_from(SHAPES))) for name in names)
    return FusionRule("random", 2, prototiles, definitions)


@st.composite
def seam_2d_rules(draw):
    """Random rules whose later children sit on the previous child's right
    or top box edge, nudged by -1..1 along the seam, as chair and fib2d
    place theirs with w()/h(); unlike small_2d_rules, many of them expand
    past level 1."""
    names = ("P", "Q")[: draw(st.integers(min_value=1, max_value=2))]
    definitions = []
    for name in names:
        children = draw(st.lists(st.sampled_from(names), min_size=2, max_size=3))
        x = y = Lit(0)
        body = [Placement(children[0], Lit(1), (x, y))]
        for prev, child in zip(children, children[1:]):
            nudge = Lit(draw(st.integers(min_value=-1, max_value=1)))
            if draw(st.booleans()):
                x, y = BinOp("+", x, Dim("w", prev)), BinOp("+", y, nudge)
            else:
                x, y = BinOp("+", x, nudge), BinOp("+", y, Dim("h", prev))
            body.append(Placement(child, Lit(1), (x, y)))
        definitions.append(SupertileDef(name, tuple(body)))
    prototiles = tuple(Prototile(name, Fraction(1), cells=draw(st.sampled_from(SHAPES))) for name in names)
    return FusionRule("seams", 2, prototiles, tuple(definitions))


# The random 2D rules the expansion, row-run and van Hove oracles draw from.
random_2d_rules = st.one_of(small_2d_rules(), seam_2d_rules())


def _brute_components(cells):
    """Sizes of the edge-connected components of a cell set, by breadth-first
    search over the cells: the reference the row-run union-find
    (core._component_sizes) is checked against."""
    rest = set(cells)
    sizes = []
    while rest:
        frontier = [rest.pop()]
        size = 0
        while frontier:
            x, y = frontier.pop()
            size += 1
            for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if c in rest:
                    rest.remove(c)
                    frontier.append(c)
        sizes.append(size)
    return sorted(sizes)


def outcome(build):
    try:
        return build()
    except FusionError as e:
        return (type(e), vars(e))


@settings(max_examples=300, deadline=None)
@given(rule=random_2d_rules, level=st.integers(min_value=0, max_value=3), pick=st.integers(min_value=0, max_value=1))
def test_expansion_matches_anchored_reference(rule, level, pick):
    names = rule.prototile_names()
    label = names[pick % len(names)]
    got = outcome(lambda: expand_supertile(rule, level, label))
    want = outcome(lambda: CellPatch.from_tiles(rule, reference_tiles(rule, level, label)))
    assert got == want
    if isinstance(got, CellPatch):
        assert got.size() == level_sizes(rule, level)[label]
        assert len(_brute_components(c for c, _ in got.cells)) == 1


@settings(max_examples=200, deadline=None)
@given(rule=random_2d_rules, level=st.integers(min_value=0, max_value=3), pick=st.integers(min_value=0, max_value=1))
def test_cells_are_painted_in_tile_then_shape_order(rule, level, pick):
    names = rule.prototile_names()
    got = outcome(lambda: expand_supertile(rule, level, names[pick % len(names)]))
    if isinstance(got, CellPatch):
        shapes = {p.name: p.cells for p in rule.prototiles}
        assert got.cells == tuple(
            ((ax + cx, ay + cy), lab) for (ax, ay), lab in got.tiles for cx, cy in shapes[lab]
        )


class TestFlatExpansion:
    def test_single_cell_prototiles_paint_their_tiles(self):
        patch = expand_supertile(load_builtin("fib2d"), 6, "AA")
        assert patch.cells == patch.tiles

    def test_collector_settings_are_left_alone(self):
        enabled, threshold = gc.isenabled(), gc.get_threshold()
        expand_supertile(load_builtin("chair"), 6, "NE")
        assert (gc.isenabled(), gc.get_threshold()) == (enabled, threshold)

    @pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts the passes of CPython's generational collector")
    def test_expansion_starts_at_most_one_full_collection(self):
        # Pairs built before the (x, y) inside them stay tracked through
        # their first collection and are promoted; with 786 432 cells that
        # started 4 to 17 full collections, by Python version.
        full = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        gc.collect()
        gc.callbacks.append(count)
        try:
            patch = expand_supertile(load_builtin("chair"), 9, "NE")
        finally:
            gc.callbacks.remove(count)
        assert patch.cell_count() == 3 * 4**9
        assert len(full) <= 1

    def test_tiles_and_cells_follow_the_reference_order(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 5, "NE")
        tiles = tuple(reference_tiles(chair, 5, "NE"))
        assert patch.tiles == tiles
        assert patch.cells == tuple(
            ((ax + cx, ay + cy), lab) for (ax, ay), lab in tiles for cx, cy in chair.prototile(lab).cells
        )

    def test_anchor_cells_are_the_tiles_own_pairs(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 4, "NE")
        own = {id(tile) for tile in patch.tiles}
        anchored = sum((0, 0) in chair.prototile(lab).cells for _, lab in patch.tiles)
        assert sum(id(cell) in own for cell in patch.cells) == anchored > 0


def plain_from_tiles(rule, tiles):
    """CellPatch.from_tiles by plain arithmetic, with no coordinate table:
    anchors moved and cells painted by adding, then the overlap and
    connectivity checks; the reference the table-built patch is held to."""
    tiles = tuple(tiles)
    names = rule.prototile_names()
    for lab in (lab for _, lab in tiles if lab not in names):
        raise UnknownLabelError(lab, 0, names)
    minx = min(x for (x, _), _ in tiles)
    miny = min(y for (_, y), _ in tiles)
    tiles = tuple(((x - minx, y - miny), lab) for (x, y), lab in tiles)
    expand._check_overlap(rule, tiles)
    cells = tuple(((ax + cx, ay + cy), lab) for (ax, ay), lab in tiles for cx, cy in rule.prototile(lab).cells)
    expand._check_connected(core._runs_of(c for c, _ in cells))
    return CellPatch(2, cells=cells, tiles=tiles)


def plain_from_cells(cells):
    """CellPatch.from_cells by plain arithmetic, with no coordinate table."""
    minx = min(x for x, _ in cells)
    miny = min(y for _, y in cells)
    norm = tuple(sorted(((x - minx, y - miny), lab) for (x, y), lab in cells.items()))
    expand._check_connected(core._runs_of(c for c, _ in norm))
    return CellPatch(2, cells=norm, tiles=norm)


def coordinate_objects(patch):
    """The distinct int objects among the x and y of a patch's tiles and
    cells, by identity; the patch keeps them all alive."""
    return {id(v) for (x, y), _ in chain(patch.tiles, patch.cells) for v in (x, y)}


class TestCoordinateTable:
    @pytest.mark.parametrize("name, level, label", [("fib2d", 12, "AA"), ("chair", 8, "NE")])
    def test_coordinates_share_one_table(self, name, level, label):
        # boxes past 256 cells a side, so CPython's cached small ints cannot
        # make the coordinates shared by themselves
        rule = load_builtin(name)
        side = max(level_sizes(rule, level)[label])
        assert side > 256
        assert len(coordinate_objects(expand_supertile(rule, level, label))) <= side

    @pytest.mark.parametrize("shift", [(1000, -1000), (0, 0)], ids=["shifted", "anchored"])
    def test_normalized_patches_share_one_table(self, shift):
        # a row of 200 chairs, 400 cells wide, and a 300 x 2 block of cells;
        # anchored at 0 or not, the tiles' own ints past 256 are not kept
        tiles = [((shift[0] + 2 * k, shift[1]), "NE") for k in range(200)]
        assert len(coordinate_objects(CellPatch.from_tiles(load_builtin("chair"), tiles))) <= 400
        cells = {(1000 + x, 1000 + y): "X" for x in range(300) for y in range(2)}
        assert len(coordinate_objects(CellPatch.from_cells(cells))) <= 300

    def test_children_far_apart_fail_fast(self):
        # a box 10^12 cells wide: a table that size could not be built
        rule = parse_rule("rule far dim 2\nprototile P\nlevel default:\n  P = P P@(1000000000000,0)\n")
        start = time.perf_counter()
        with pytest.raises(DisconnectedError) as exc:
            expand_supertile(rule, 1, "P")
        assert exc.value.component_sizes == (1, 1)
        with pytest.raises(DisconnectedError) as exc:
            CellPatch.from_tiles(rule, (((0, 0), "P"), ((10**12, 0), "P")))
        assert exc.value.component_sizes == (1, 1)
        with pytest.raises(DisconnectedError):
            CellPatch.from_cells({(0, 0): "P", (0, 10**12): "P"})
        assert time.perf_counter() - start < 5

    def test_overlap_past_the_small_ints_is_named_as_before(self):
        # a bar that doubles every level, until level 9 places its second
        # half one cell too far left, over cell (255, 0)
        rule = parse_rule(
            "rule late dim 2\n"
            "prototile P\n"
            "level n == 9:\n"
            "  P = P P@(w(P)-1,0)\n"
            "level default:\n"
            "  P = P P@(w(P),0)\n"
        )
        assert expand_supertile(rule, 8, "P").size() == (256, 1)
        with pytest.raises(OverlapError) as exc:
            expand_supertile(rule, 9, "P")
        with pytest.raises(OverlapError) as want:
            plain_from_tiles(rule, reference_tiles(rule, 9, "P"))
        assert vars(exc.value) == vars(want.value) == {"first_child": 255, "second_child": 256, "cell": (255, 0)}

    @settings(max_examples=200, deadline=None)
    @given(
        rule=random_2d_rules,
        level=st.integers(min_value=0, max_value=3),
        pick=st.integers(min_value=0, max_value=1),
        keep=st.integers(min_value=1),
        shift=st.tuples(st.integers(-400, 400), st.integers(-400, 400)),
    )
    def test_normalized_patches_match_plain_arithmetic(self, rule, level, pick, keep, shift):
        names = rule.prototile_names()
        tiles = reference_tiles(rule, level, names[pick % len(names)])
        tiles = [((x + shift[0], y + shift[1]), lab) for (x, y), lab in tiles[: 1 + keep % len(tiles)]]
        got = outcome(lambda: CellPatch.from_tiles(rule, tiles))
        assert got == outcome(lambda: plain_from_tiles(rule, tiles))
        cells = {(x + shift[0], y + shift[1]): lab for (x, y), lab in tiles}
        assert outcome(lambda: CellPatch.from_cells(cells)) == outcome(lambda: plain_from_cells(cells))


def bar_2d(q_body=(Placement("Q", Lit(1), (Lit(0), Lit(0))),)):
    """P fuses P and, to its right, Q; Q fuses `q_body`. With the default body
    the level-n P is a bar of n + 1 cells and Q stays one cell."""
    return FusionRule(
        "bar", 2,
        (Prototile("P", cells=((0, 0),)), Prototile("Q", cells=((0, 0),))),
        (SupertileDef("P", (Placement("P", Lit(1), (Lit(0), Lit(0))), Placement("Q", Lit(1), (Dim("w", "P"), Lit(0))))),
         SupertileDef("Q", q_body)),
    )


class TestEmptySupertile:
    """FusionRule rejects an empty body, so no pass meets a supertile with no cells."""

    @pytest.mark.parametrize("call", [
        lambda rule: expand_supertile(rule, 2, "P"),
        lambda rule: expand_supertile(rule, 1, "Q"),
        lambda rule: van_hove_diagnostic(rule, 2),
        lambda rule: level_sizes(rule, 1),
    ])
    def test_2d_passes_name_the_empty_supertile(self, call):
        # the constructor names Q before the pass can run; once Q's body
        # holds a tile the same pass answers
        with pytest.raises(ValidationError) as exc:
            call(bar_2d(q_body=()))
        assert [(d.code, d.label) for d in exc.value.diagnostics] == [("empty-body", "Q")]
        call(bar_2d())

    def test_counts_still_answer(self):
        # what an empty Q once answered with zeros, on the rule whose Q holds
        # one tile
        rule = bar_2d()
        assert cell_count(rule, 1, "Q") == 1
        assert cell_count(rule, 2, "P") == 3
        assert transition_matrix(rule, 0, 1).column("Q") == (0, 1)
        assert expand_supertile(rule, 1, "P").cells == (((0, 0), "P"), ((1, 0), "Q"))
        assert expand_supertile(rule, 2, "P").cells == (((0, 0), "P"), ((1, 0), "Q"), ((2, 0), "Q"))


class TestRowRunConnectivity:
    @settings(max_examples=300, deadline=None)
    @given(cells=st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=60))
    # a ring around a hole, beside one far cell
    @example(cells={(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)} | {(5, 5)})
    def test_component_sizes_match_search(self, cells):
        # sparse draws leave holes and several components
        runs = core._runs_of(cells)
        assert sorted(core._component_sizes(runs)) == _brute_components(cells)

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=30), pick=st.integers(min_value=0))
    def test_repeated_cell_has_no_runs(self, cells, pick):
        assert core._runs_of(cells + [cells[pick % len(cells)]]) is None


class TestFusionStepProof:
    def test_connected_parent_of_disconnected_child_expands(self):
        rule = parse_rule(
            "rule join dim 2\n"
            "prototile P\n"
            "level n == 1:\n"
            "  P = P P@(2,0)\n"
            "level default:\n"
            "  P = P P@(1,0)\n"
        )
        with pytest.raises(DisconnectedError):
            expand_supertile(rule, 1, "P")
        patch = expand_supertile(rule, 2, "P")
        assert render_text(patch, rule) == "PPPP"
        assert patch.tiles == (((0, 0), "P"), ((2, 0), "P"), ((1, 0), "P"), ((3, 0), "P"))

    @pytest.mark.parametrize("offset", ["(2,0)", "(0,3)", "(1,2)", "(0-1,2)", "(0,0-2)"])
    def test_children_that_miss_by_a_cell_are_disconnected(self, offset):
        # a gap of one column or one row, or contact at a corner only
        rule = parse_rule(f"rule near dim 2\nprototile P cells (0,0) (0,1)\nprototile Q\nlevel default:\n  P = P Q@{offset}\n  Q = Q\n")
        with pytest.raises(DisconnectedError) as exc:
            expand_supertile(rule, 1, "P")
        assert exc.value.component_sizes == (2, 1)

    def test_overlap_first_at_level_2_matches_reference(self):
        rule = parse_rule(
            "rule late dim 2\n"
            "prototile P cells (0,0) (1,0)\n"
            "prototile Q\n"
            "level default:\n"
            "  P = P Q@(2,0)\n"
            "  Q = Q P@(0,1)\n"
        )
        for label in ("P", "Q"):
            expand_supertile(rule, 1, label)
        with pytest.raises(OverlapError) as exc:
            expand_supertile(rule, 2, "P")
        with pytest.raises(OverlapError) as want:
            CellPatch.from_tiles(rule, reference_tiles(rule, 2, "P"))
        assert vars(exc.value) == vars(want.value) == {"first_child": 1, "second_child": 2, "cell": (2, 0)}

    def test_repeated_prototile_cell_is_rejected_on_construction(self):
        # so a level-0 expansion never meets a shape that overlaps itself
        with pytest.raises(ValidationError) as exc:
            FusionRule(
                "twice", 2, (Prototile("P", Fraction(2), cells=((0, 0), (0, 0))),),
                (SupertileDef("P", (Placement("P", Lit(1), (Lit(0), Lit(0))),)),),
            )
        assert [(d.code, d.message) for d in exc.value.diagnostics] == [("bad-shape", "prototile 'P' repeats a cell")]

    def test_bundled_rules_expand_without_cell_checks(self, monkeypatch):
        rules = {"chair": (load_builtin("chair"), 6), "fib2d": (load_builtin("fib2d"), 8)}

        def fail(*args):
            raise AssertionError("a cell-by-cell check ran")

        # what is left that an expansion might detour through: tracing an
        # overlap to its tiles cell by cell, and the from_tiles path
        monkeypatch.setattr(expand, "_check_overlap", fail)
        monkeypatch.setattr(CellPatch, "from_tiles", fail)
        for rule, top in rules.values():
            for level in range(top + 1):
                for label in resolve_level(rule, level).labels:
                    patch = expand_supertile(rule, level, label)
                    assert patch.cell_count() == cell_count(rule, level, label)


class TestPatchConstruction:
    def test_from_word_rejects_empty(self):
        with pytest.raises(ValueError):
            CellPatch.from_word(())

    def test_from_cells_normalizes(self):
        patch = CellPatch.from_cells({(5, 7): "X", (6, 7): "Y"})
        assert patch.cells == (((0, 0), "X"), ((1, 0), "Y"))

    def test_2d_patch_needs_tiles(self):
        with pytest.raises(ValueError):
            CellPatch(2, cells=(((0, 0), "X"), ((1, 0), "Y")))

    def test_2d_patch_needs_cells(self):
        with pytest.raises(ValueError):
            CellPatch(2, tiles=(((0, 0), "A"),))

    def test_from_cells_rejects_disconnected(self):
        with pytest.raises(DisconnectedError) as exc:
            CellPatch.from_cells({(0, 0): "X", (2, 0): "X"})
        assert exc.value.component_sizes == (1, 1)
        with pytest.raises(DisconnectedError) as exc:
            CellPatch.from_cells({(0, 0): "X", (4, 4): "X", (1, 0): "X", (1, 1): "X", (9, 0): "X", (9, 1): "X"})
        assert exc.value.component_sizes == (3, 2, 1)

    def test_from_tiles_rejects_overlap(self):
        chair = load_builtin("chair")
        with pytest.raises(OverlapError) as exc:
            CellPatch.from_tiles(chair, (((0, 0), "NE"), ((0, 0), "SE")))
        assert exc.value.cell == (0, 0)

    def test_from_tiles_rejects_unknown_label(self):
        chair = load_builtin("chair")
        with pytest.raises(UnknownLabelError) as exc:
            CellPatch.from_tiles(chair, (((0, 0), "NE"), ((0, 0), "XX")))
        assert isinstance(exc.value, KeyError)
        assert (exc.value.label, exc.value.level, exc.value.labels) == ("XX", 0, chair.prototile_names())

    def test_from_tiles_rejects_a_1d_rule(self):
        with pytest.raises(ValueError, match="CellPatch.from_tiles is for 2D rules, got a 1D rule"):
            CellPatch.from_tiles(load_builtin("fibonacci"), [((0, 0), "A")])

    def test_from_tiles_accepts_meeting_edges(self):
        chair = load_builtin("chair")
        patch = CellPatch.from_tiles(chair, (((0, 0), "NE"), ((1, 1), "NE")))
        assert patch.cell_count() == 6

    def test_overlapping_rule_raises_on_expand(self):
        text = (
            "rule clash dim 2\n"
            "prototile P\n"
            "level default:\n"
            "  P = P P@(0,0)\n"
        )
        with pytest.raises(OverlapError):
            expand_supertile(parse_rule(text), 1, "P")

    def test_disconnected_rule_raises_on_expand(self):
        text = (
            "rule gap dim 2\n"
            "prototile P\n"
            "level default:\n"
            "  P = P P@(5,0)\n"
        )
        with pytest.raises(DisconnectedError):
            expand_supertile(parse_rule(text), 1, "P")


class TestPrefixSuffix:
    def test_fixtures(self):
        tm = load_builtin("thue_morse")
        tpn = load_builtin("ten_pow_n")
        assert prefix_suffix(tm, 3, "S1", 3) == ("ABB", "AAB")
        assert prefix_suffix(tpn, 2, "A", 2) == ("AA", "BA")
        # level 50 is far too large to expand; recursion answers anyway
        assert prefix_suffix(tpn, 50, "A", 3) == ("AAA", "BBA")

    def test_length_clamps_to_size(self):
        fib = load_builtin("fibonacci")
        assert prefix_suffix(fib, 1, "B", 10) == ("A", "A")

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            prefix_suffix(load_builtin("chair"), 1, "NE", 2)

    def test_keeps_nothing_on_the_rule(self):
        rule = parse_rule(builtin_text("fibonacci"))
        prefix_suffix(rule, 20, "A", 2)
        before = set(rule._levels)
        for length in (3, 5, 8):
            prefix_suffix(rule, 20, "A", length)
        assert set(rule._levels) == before

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(ONE_D),
        level=st.integers(min_value=0, max_value=6),
        length=st.integers(min_value=1, max_value=9),
        pick=st.integers(min_value=0, max_value=10),
    )
    def test_agrees_with_expansion(self, name, level, length, pick):
        rule = load_builtin(name)
        labels = resolve_labels(rule, level)
        label = labels[pick % len(labels)]
        if cell_count(rule, level, label) > 10**5:
            return
        full = word(rule, level, label)
        pre, suf = prefix_suffix(rule, level, label, length)
        assert pre == full[:length]
        assert suf == (full[-length:] if length <= len(full) else full)


class TestWordCodec:
    def test_round_trip_chars(self):
        tm = load_builtin("thue_morse")
        assert parse_word(tm, "ABBA") == ("S1", "S2", "S2", "S1")
        assert word_string(tm, ("S1", "S2")) == "AB"

    def test_round_trip_names(self):
        fib = load_builtin("fibonacci")
        assert parse_word(fib, "A B A") == ("A", "B", "A")

    def test_single_char_names_map_to_themselves(self):
        fl = load_builtin("fiblike")
        assert parse_word(fl, "TBA") == ("T", "B", "A")

    def test_unknown_character(self):
        with pytest.raises(ValueError):
            parse_word(load_builtin("fibonacci"), "AXB")

    def test_empty_word(self):
        with pytest.raises(ValueError):
            parse_word(load_builtin("fibonacci"), "  ")


class TestAdmissibility:
    def test_thue_morse_aa(self):
        tm = load_builtin("thue_morse")
        res = is_admissible(tm, "AA", 8)
        assert res.found and res.level == 2 and res.label == "S2"
        assert res.position == (1,)

    def test_thue_morse_aaa_never_appears(self):
        tm = load_builtin("thue_morse")
        res = is_admissible(tm, "AAA", 8)
        assert not res.found and res.searched_levels == 9

    def test_fibonacci_bb_never_appears(self):
        fib = load_builtin("fibonacci")
        res = is_admissible(fib, "BB", 10)
        assert not res.found and res.searched_levels == 11

    def test_fibonacci_bb_deep_search_never_expands(self):
        # the level-40 supertile A holds 267914296 tiles, far over the default budget
        fib = load_builtin("fibonacci")
        res = is_admissible(fib, "BB", 40)
        assert not res.found and res.searched_levels == 41

    def test_fibonacci_aa(self):
        fib = load_builtin("fibonacci")
        res = is_admissible(fib, "AA", 10)
        assert res.found and res.level == 3 and res.label == "A" and res.position == (2,)

    def test_found_patterns_persist(self):
        # once admissible, the pattern keeps appearing at deeper levels
        tm = load_builtin("thue_morse")
        for level in range(2, 9):
            words = [word(tm, level, lab) for lab in ("S1", "S2")]
            assert any("AA" in w for w in words)

    def test_2d_patch_found(self):
        chair = load_builtin("chair")
        patch = CellPatch.from_tiles(chair, (((0, 0), "NE"), ((1, 1), "NE")))
        res = is_admissible(chair, patch, 3)
        assert res.found and res.level == 1 and res.label == "NE"
        assert res.position == (0, 0)

    def test_2d_single_tile_is_level0(self):
        chair = load_builtin("chair")
        patch = CellPatch.from_tiles(chair, (((4, 9), "SW"),))
        res = is_admissible(chair, patch, 2)
        assert res.found and res.level == 0 and res.label == "SW"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_admissible(load_builtin("chair"), "AA", 2)

    @pytest.mark.parametrize("name, needle, max_level", [("chair", "NE", -1), ("fibonacci", "AB", -3)])
    def test_negative_max_level_rejected(self, name, needle, max_level):
        rule = load_builtin(name)
        if rule.dimension == 2:
            needle = expand_supertile(rule, 0, needle)
        with pytest.raises(ValueError, match=f"max_level must be >= 0, got {max_level}"):
            is_admissible(rule, needle, max_level)


class TestOccurrences2D:
    def test_counts_match_transition_column(self):
        chair = load_builtin("chair")
        big = expand_supertile(chair, 2, "NE")
        m = transition_matrix(chair, 0, 2)
        for lab in ("NE", "NW", "SW", "SE"):
            single = expand_supertile(chair, 0, lab)
            assert len(occurrences_2d(single, big)) == m.entry(lab, "NE")

    def test_supertile_occurs_once_in_itself(self):
        fib2d = load_builtin("fib2d")
        patch = expand_supertile(fib2d, 3, "AB")
        assert occurrences_2d(patch, patch) == [(0, 0)]


def grid_render_text(patch, rule=None):
    """render_text of a 2D patch from a grid dict, looked up at every
    position of the box; the reference the row-buffer renderer is held to."""
    table = expand._patch_table(patch, rule)
    grid = patch.grid()
    width = max(x for (x, _), _ in patch.cells) + 1
    height = max(y for (_, y), _ in patch.cells) + 1
    return "\n".join(
        "".join(table[grid[(x, y)]] if (x, y) in grid else "." for x in range(width))
        for y in range(height - 1, -1, -1)
    )


def accented_2d():
    """A rule whose prototile names are one character each, one of them not
    ASCII, so they name themselves in text."""
    return FusionRule(
        "accent", 2,
        (Prototile("\u00e9", cells=((0, 0), (1, 0))), Prototile("Q", cells=((0, 0),))),
        (
            SupertileDef("\u00e9", (Placement("\u00e9", Lit(1), (Lit(0), Lit(0))), Placement("Q", Lit(1), (Dim("w", "\u00e9"), Lit(0))))),
            SupertileDef("Q", (Placement("Q", Lit(1), (Lit(0), Lit(0))), Placement("\u00e9", Lit(1), (Lit(0), Dim("h", "Q"))))),
        ),
    )


class TestRendering:
    @settings(max_examples=200, deadline=None)
    @given(rule=random_2d_rules, level=st.integers(min_value=0, max_value=3), pick=st.integers(min_value=0, max_value=1))
    def test_text_matches_the_grid_renderer(self, rule, level, pick):
        names = rule.prototile_names()
        patch = outcome(lambda: expand_supertile(rule, level, names[pick % len(names)]))
        if isinstance(patch, CellPatch):
            assert render_text(patch, rule) == grid_render_text(patch, rule)
            assert render_text(patch) == grid_render_text(patch)

    @pytest.mark.parametrize("level", range(4))
    def test_text_of_non_ascii_names_matches_the_grid_renderer(self, level):
        rule = accented_2d()
        patch = expand_supertile(rule, level, "\u00e9")
        text = render_text(patch, rule)
        assert text == grid_render_text(patch, rule) == render_text(patch)
        assert "\u00e9" in text

    def test_text_of_a_negative_coordinate_is_refused(self):
        # a row holds no x < 0: the cell at (-1, 0) would land at the far end
        patch = CellPatch(2, cells=(((0, 0), "A"), ((-1, 0), "B"), ((1, 1), "A")), tiles=((((0, 0), "A"),)))
        with pytest.raises(ValueError, match="coordinates >= 0"):
            render_text(patch)

    def test_svg_of_a_negative_coordinate_is_refused(self):
        # the cell at (-1, 0) would be drawn left of the canvas
        patch = CellPatch(2, cells=(((0, 0), "A"), ((-1, 0), "B"), ((1, 1), "A")), tiles=((((0, 0), "A"),)))
        with pytest.raises(ValueError, match="coordinates >= 0"):
            render_svg(patch)

    def test_text_of_a_patch_off_the_origin_matches_the_grid_renderer(self):
        # a hand-built patch that starts past 0 keeps its empty margin
        patch = CellPatch(2, cells=(((2, 1), "A"), ((3, 1), "B"), ((3, 2), "A")), tiles=((((2, 1), "A"),)))
        assert render_text(patch) == grid_render_text(patch) == "...A\n..AB\n...."

    def test_text_1d_is_word(self):
        tm = load_builtin("thue_morse")
        patch = expand_supertile(tm, 3, "S1")
        assert render_text(patch, tm) == "ABBABAAB"

    def test_text_marks_holes(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 0, "NE")
        assert render_text(patch, chair) == "A.\nAA"

    def test_svg_has_rect_per_cell(self):
        chair = load_builtin("chair")
        patch = expand_supertile(chair, 2, "SE")
        svg = render_svg(patch, rule=chair)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert svg.count("<rect ") == patch.cell_count()

    def test_svg_deterministic(self):
        fib2d = load_builtin("fib2d")
        patch = expand_supertile(fib2d, 2, "BA")
        assert render_svg(patch, rule=fib2d) == render_svg(patch, rule=fib2d)

    @pytest.mark.parametrize(
        "patch",
        [
            CellPatch.from_word([f"L{i}" for i in range(70)]),
            CellPatch.from_cells({(i, 0): f"L{i}" for i in range(70)}),
        ],
        ids=["word", "cells"],
    )
    def test_more_labels_than_characters_without_a_rule(self, patch):
        with pytest.raises(ValueError, match="^too many prototiles for a character table$"):
            render_text(patch)
        assert render_svg(patch).count("<rect ") == 70

    def test_svg_of_word_is_strip(self):
        fib = load_builtin("fibonacci")
        patch = expand_supertile(fib, 2, "A")
        svg = render_svg(patch, cell_size=10, rule=fib)
        assert 'width="30" height="10"' in svg


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(builtin_names()),
    level=st.integers(min_value=0, max_value=4),
    pick=st.integers(min_value=0, max_value=10),
)
def test_expansion_census_matches_tile_count(name, level, pick):
    rule = load_builtin(name)
    labels = resolve_labels(rule, level)
    label = labels[pick % len(labels)]
    if cell_count(rule, level, label) > 10**5:
        return
    patch = expand_supertile(rule, level, label)
    assert sum(tile_census(patch).values()) == tile_count(rule, level, label)


def resolve_labels(rule, level):
    return resolve_level(rule, level).labels

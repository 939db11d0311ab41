import dataclasses
import gc
import sys
import weakref
from dataclasses import fields
from fractions import Fraction

import pytest

from fusionlab.builtins import builtin_text, load_builtin
from fusionlab.core import (
    Always,
    And,
    BinOp,
    Cmp,
    Dim,
    FusionRule,
    IsPow,
    Lit,
    Not,
    Or,
    Placement,
    Prototile,
    ResolvedPlacement,
    ResolvedSupertile,
    SupertileDef,
    Var,
    eval_expr,
    eval_guard,
    level_sizes,
    resolve_level,
    validate_rule,
)
from fusionlab.dsl import parse_rule
from fusionlab.errors import NegativeExponentError, UnknownDimensionError, ValidationError
from fusionlab.expand import cell_count, tile_count
from fusionlab.transition import transition_matrix, volumes


def expr_pow(base, exp):
    return BinOp("^", base, exp)


class TestEvalExpr:
    def test_power_of_ten(self):
        assert eval_expr(expr_pow(Lit(10), Var()), 3) == 1000

    def test_level_variable(self):
        assert eval_expr(Var(), 7) == 7

    def test_two_power_n_minus_one(self):
        assert eval_expr(expr_pow(Lit(2), BinOp("-", Var(), Lit(1))), 4) == 8

    def test_arbitrary_precision(self):
        assert eval_expr(expr_pow(Lit(10), Var()), 50) == 10**50

    def test_negative_exponent_rejected(self):
        with pytest.raises(NegativeExponentError):
            eval_expr(expr_pow(Lit(2), BinOp("-", Lit(0), Lit(3))), 1)

    def test_dims_lookup(self):
        dims = {"A": (5, 3)}
        assert eval_expr(Dim("w", "A"), 1, dims) == 5
        assert eval_expr(Dim("h", "A"), 1, dims) == 3

    def test_unknown_dimension(self):
        with pytest.raises(UnknownDimensionError):
            eval_expr(Dim("w", "Q"), 1, {})

    def test_precedence_shape(self):
        # 2 + 3 * 4 as a tree
        e = BinOp("+", Lit(2), BinOp("*", Lit(3), Lit(4)))
        assert eval_expr(e, 1) == 14


class TestEvalGuard:
    def test_ispow_at_exact_power(self):
        assert eval_guard(IsPow(3, Var()), 3) is True
        assert eval_guard(IsPow(3, Var()), 9) is True
        assert eval_guard(IsPow(3, Var()), 27) is True

    def test_ispow_shifted(self):
        assert eval_guard(IsPow(3, BinOp("+", Var(), Lit(1))), 2) is True

    def test_ispow_excludes_one(self):
        # exponents m >= 1 only: 1 = 3^0 does not count
        assert eval_guard(IsPow(3, Var()), 1) is False

    def test_ispow_non_powers(self):
        powers = {3, 9, 27, 81, 243, 729}
        for n in range(1, 1000):
            assert eval_guard(IsPow(3, Var()), n) is (n in powers)

    @pytest.mark.parametrize("base", [0, 1])
    def test_ispow_base_below_two_raises(self, base):
        # base 1 would loop forever in eval_guard, base 0 divide by zero, so
        # no such guard is built
        with pytest.raises(ValueError, match=f"ispow base must be >= 2, got {base}"):
            IsPow(base, Var())
        with pytest.raises(ValueError, match="ispow base must be >= 2"):
            dataclasses.replace(IsPow(2, Var()), base=base)

    def test_unvalidated_rule_with_bad_ispow_base(self):
        # a rule built in Python skips validate_rule, yet resolve_level still
        # meets only bases >= 2: a base below 2 is refused with the guard
        def rule(base):
            return FusionRule(
                "r", 1,
                (Prototile("A"),),
                (SupertileDef("A", (Placement("A"),), IsPow(base, Var())), SupertileDef("A", (Placement("A"), Placement("A")))),
            )

        assert [len(resolve_level(rule(2), n).supertiles[0].body) for n in (2, 3, 4)] == [1, 2, 1]
        with pytest.raises(ValueError, match="ispow base"):
            rule(0)

    def test_boolean_connectives(self):
        g = Or(Cmp("==", Var(), Lit(1)), IsPow(3, Var()))
        assert eval_guard(g, 1) and eval_guard(g, 3) and not eval_guard(g, 2)
        assert eval_guard(Not(g), 2)
        assert eval_guard(And(Always(), Cmp(">=", Var(), Lit(5))), 5)

    def test_comparisons(self):
        for op, fn in (("==", 5 == 5), ("!=", 5 != 5), ("<", 5 < 5),
                       ("<=", 5 <= 5), (">", 5 > 5), (">=", 5 >= 5)):
            assert eval_guard(Cmp(op, Var(), Lit(5)), 5) is fn


class TestResolveLevel:
    def test_level_zero_lists_prototiles(self):
        rule = load_builtin("fiblike")
        res = resolve_level(rule, 0)
        assert res.labels == ("A", "B", "T")
        assert all(s.body == () for s in res.supertiles)

    def test_fiblike_level_one(self):
        res = resolve_level(load_builtin("fiblike"), 1)
        assert [(s.label, tuple(p.child for p in s.body)) for s in res.supertiles] == [
            ("A", ("T", "B")),
            ("B", ("A",)),
        ]

    def test_fiblike_level_two_has_t(self):
        res = resolve_level(load_builtin("fiblike"), 2)
        assert res.labels == ("A", "B", "T")
        assert tuple(p.child for p in res.supertile("T").body) == ("B", "A")
        assert tuple(p.child for p in res.supertile("A").body) == ("A", "B")

    def test_thue_morse_level_independent(self):
        rule = load_builtin("thue_morse")
        res = resolve_level(rule, 5)
        assert [(s.label, tuple(p.child for p in s.body)) for s in res.supertiles] == [
            ("S1", ("S1", "S2")),
            ("S2", ("S2", "S1")),
        ]

    def test_fiblike_t_levels(self):
        # T is defined exactly where 3^(m) == n + 1 for some m >= 1
        rule = load_builtin("fiblike")
        with_t = {n for n in range(1, 30) if "T" in resolve_level(rule, n).labels}
        assert with_t == {2, 8, 26}

    def test_determinism(self):
        rule = load_builtin("chair")
        assert resolve_level(rule, 3) is resolve_level(rule, 3)

    def test_repeat_evaluation(self):
        res = resolve_level(load_builtin("ten_pow_n"), 4)
        assert res.supertile("A").body[0].repeat == 10**4

    def test_label_closure(self):
        for name in ("thue_morse", "fibonacci", "fiblike", "ten_pow_n", "chair", "fib2d"):
            rule = load_builtin(name)
            for n in range(1, 15):
                prev = set(resolve_level(rule, n - 1).labels)
                for s in resolve_level(rule, n).supertiles:
                    assert {p.child for p in s.body} <= prev


class TestLevelTable:
    def test_rule_is_freed_after_use(self):
        rule = parse_rule(builtin_text("fibonacci"))
        transition_matrix(rule, 0, 50)
        ref = weakref.ref(rule)
        del rule
        gc.collect()
        assert ref() is None

    def test_table_is_not_part_of_equality(self):
        warm = parse_rule(builtin_text("fiblike"))
        resolve_level(warm, 20)
        cold = parse_rule(builtin_text("fiblike"))
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            level_sizes(load_builtin("fibonacci"), -1)


# fib2d at levels 0-12, recorded from the version that built boxes at every
# level: per level, the offsets of each body (children as in the rule text)
# and the box of each supertile
FIB2D_LEVELS = [
    ({"AA": (), "AB": (), "BA": (), "BB": ()},
     {"AA": (1, 1), "AB": (1, 1), "BA": (1, 1), "BB": (1, 1)}),
    ({"AA": ((0, 0), (1, 0), (0, 1), (1, 1)), "AB": ((0, 0), (1, 0)), "BA": ((0, 0), (0, 1)), "BB": ((0, 0),)},
     {"AA": (2, 2), "AB": (2, 1), "BA": (1, 2), "BB": (1, 1)}),
    ({"AA": ((0, 0), (2, 0), (0, 2), (2, 2)), "AB": ((0, 0), (2, 0)), "BA": ((0, 0), (0, 2)), "BB": ((0, 0),)},
     {"AA": (3, 3), "AB": (3, 2), "BA": (2, 3), "BB": (2, 2)}),
    ({"AA": ((0, 0), (3, 0), (0, 3), (3, 3)), "AB": ((0, 0), (3, 0)), "BA": ((0, 0), (0, 3)), "BB": ((0, 0),)},
     {"AA": (5, 5), "AB": (5, 3), "BA": (3, 5), "BB": (3, 3)}),
    ({"AA": ((0, 0), (5, 0), (0, 5), (5, 5)), "AB": ((0, 0), (5, 0)), "BA": ((0, 0), (0, 5)), "BB": ((0, 0),)},
     {"AA": (8, 8), "AB": (8, 5), "BA": (5, 8), "BB": (5, 5)}),
    ({"AA": ((0, 0), (8, 0), (0, 8), (8, 8)), "AB": ((0, 0), (8, 0)), "BA": ((0, 0), (0, 8)), "BB": ((0, 0),)},
     {"AA": (13, 13), "AB": (13, 8), "BA": (8, 13), "BB": (8, 8)}),
    ({"AA": ((0, 0), (13, 0), (0, 13), (13, 13)), "AB": ((0, 0), (13, 0)), "BA": ((0, 0), (0, 13)), "BB": ((0, 0),)},
     {"AA": (21, 21), "AB": (21, 13), "BA": (13, 21), "BB": (13, 13)}),
    ({"AA": ((0, 0), (21, 0), (0, 21), (21, 21)), "AB": ((0, 0), (21, 0)), "BA": ((0, 0), (0, 21)), "BB": ((0, 0),)},
     {"AA": (34, 34), "AB": (34, 21), "BA": (21, 34), "BB": (21, 21)}),
    ({"AA": ((0, 0), (34, 0), (0, 34), (34, 34)), "AB": ((0, 0), (34, 0)), "BA": ((0, 0), (0, 34)), "BB": ((0, 0),)},
     {"AA": (55, 55), "AB": (55, 34), "BA": (34, 55), "BB": (34, 34)}),
    ({"AA": ((0, 0), (55, 0), (0, 55), (55, 55)), "AB": ((0, 0), (55, 0)), "BA": ((0, 0), (0, 55)), "BB": ((0, 0),)},
     {"AA": (89, 89), "AB": (89, 55), "BA": (55, 89), "BB": (55, 55)}),
    ({"AA": ((0, 0), (89, 0), (0, 89), (89, 89)), "AB": ((0, 0), (89, 0)), "BA": ((0, 0), (0, 89)), "BB": ((0, 0),)},
     {"AA": (144, 144), "AB": (144, 89), "BA": (89, 144), "BB": (89, 89)}),
    ({"AA": ((0, 0), (144, 0), (0, 144), (144, 144)), "AB": ((0, 0), (144, 0)), "BA": ((0, 0), (0, 144)), "BB": ((0, 0),)},
     {"AA": (233, 233), "AB": (233, 144), "BA": (144, 233), "BB": (144, 144)}),
    ({"AA": ((0, 0), (233, 0), (0, 233), (233, 233)), "AB": ((0, 0), (233, 0)), "BA": ((0, 0), (0, 233)), "BB": ((0, 0),)},
     {"AA": (377, 377), "AB": (377, 233), "BA": (233, 377), "BB": (233, 233)}),
]
FIB2D_CHILDREN = {"AA": ("AA", "BA", "AB", "BB"), "AB": ("AA", "BA"), "BA": ("AA", "AB"), "BB": ("AA",)}


class TestLevelSizes:
    def test_1d_lengths(self):
        rule = load_builtin("fibonacci")
        assert level_sizes(rule, 6) == {"A": (21, 1), "B": (13, 1)}

    @pytest.mark.parametrize("name", ["thue_morse", "fibonacci", "fiblike", "ten_pow_n"])
    def test_1d_width_is_tile_count(self, name):
        # a 1D tile is one cell: no box or cell list of its own is kept
        rule = parse_rule(builtin_text(name))
        for n in range(8):
            for label, size in level_sizes(rule, n).items():
                assert size == (tile_count(rule, n, label), 1)
                assert cell_count(rule, n, label) == tile_count(rule, n, label)
        assert "sizes" not in rule._levels and "cells" not in rule._levels
        assert "length" not in {f.name for f in fields(Prototile)}

    def test_boxes_only_for_dims(self):
        rule = parse_rule(builtin_text("ten_pow_n"))
        transition_matrix(rule, 0, 300)
        assert "sizes" not in rule._levels

    def test_fib2d_unchanged(self):
        rule = parse_rule(builtin_text("fib2d"))
        for n, (offsets, sizes) in enumerate(FIB2D_LEVELS):
            assert resolve_level(rule, n).supertiles == tuple(
                ResolvedSupertile(label, tuple(
                    ResolvedPlacement(child, 1, offset)
                    for child, offset in zip(FIB2D_CHILDREN[label], body)
                ))
                for label, body in offsets.items()
            )
            assert level_sizes(rule, n) == sizes
        assert "sizes" in rule._levels  # its offsets read w()/h()

    def test_chair_doubling(self):
        rule = load_builtin("chair")
        for n in range(0, 6):
            assert set(level_sizes(rule, n).values()) == {(2 ** (n + 1), 2 ** (n + 1))}

    def test_fib2d_rectangles(self):
        sizes = level_sizes(load_builtin("fib2d"), 3)
        assert sizes == {"AA": (5, 5), "AB": (5, 3), "BA": (3, 5), "BB": (3, 3)}


def structure_diagnostics(*fields):
    """The diagnostics of the ValidationError that building FusionRule(*fields)
    raises: a rule's structure is checked on construction."""
    with pytest.raises(ValidationError) as exc:
        FusionRule(*fields)
    return exc.value.diagnostics


class TestPrototileVolume:
    def test_default_is_one_in_1d_and_the_cell_count_in_2d(self):
        assert Prototile("A").volume == Fraction(1)
        assert Prototile("P", cells=((0, 0), (1, 0))).volume == Fraction(2)
        assert Prototile("P", Fraction(1, 2), cells=((0, 0), (1, 0))).volume == Fraction(1, 2)

    def test_python_built_chair_matches_the_parsed_one(self):
        # before the default followed the cells, this chair had volumes 1
        parsed = load_builtin("chair")
        built = dataclasses.replace(parsed, prototiles=tuple(Prototile(p.name, cells=p.cells) for p in parsed.prototiles))
        assert built == parsed
        assert volumes(built, 3) == volumes(parsed, 3)
        assert volumes(built, 3).values == (Fraction(192),) * 4


class TestValidateRule:
    def test_builtins_clean(self):
        for name in ("thue_morse", "fibonacci", "fiblike", "ten_pow_n", "chair", "fib2d"):
            assert validate_rule(load_builtin(name), 30) == []

    def test_undefined_child(self):
        rule = FusionRule(
            "r", 1,
            (Prototile("A"),),
            (SupertileDef("A", (Placement("Q"),)),),
        )
        diags = validate_rule(rule, 1)
        assert [d.code for d in diags] == ["undefined-label"]
        assert diags[0].level == 1 and diags[0].label == "Q"

    def test_no_definitions_gives_empty_level(self):
        rule = FusionRule("r", 1, (Prototile("A"),), ())
        assert [d.code for d in validate_rule(rule, 4)] == ["empty-level"]

    def test_guard_hole_gives_empty_level(self):
        rule = FusionRule(
            "r", 1,
            (Prototile("A"),),
            (SupertileDef("A", (Placement("A"),), Cmp("<=", Var(), Lit(3))),),
        )
        diags = validate_rule(rule, 10)
        assert [d.code for d in diags] == ["empty-level"]
        assert diags[0].level == 4

    def test_label_vanishing_is_flagged(self):
        # B is defined at level 1 only, so A = A B resolves at level 2 (its
        # children live at level 1) and first breaks at level 3
        rule = FusionRule(
            "r", 1,
            (Prototile("A"), Prototile("B")),
            (
                SupertileDef("A", (Placement("A"), Placement("B"))),
                SupertileDef("B", (Placement("A"),), Cmp("==", Var(), Lit(1))),
            ),
        )
        diags = validate_rule(rule, 5)
        assert [d.code for d in diags] == ["undefined-label"]
        assert diags[0].level == 3

    def test_duplicate_prototile(self):
        diags = structure_diagnostics(
            "r", 1,
            (Prototile("A"), Prototile("A")),
            (SupertileDef("A", (Placement("A"),)),),
        )
        assert "duplicate-prototile" in [d.code for d in diags]

    def test_nonpositive_volume(self):
        diags = structure_diagnostics(
            "r", 1,
            (Prototile("A", volume=Fraction(0)),),
            (SupertileDef("A", (Placement("A"),)),),
        )
        assert "bad-volume" in [d.code for d in diags]

    def test_volume_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        diags = structure_diagnostics(
            "r", 1,
            (Prototile("A", volume=Fraction(-10**5000)),),
            (SupertileDef("A", (Placement("A"),)),),
        )
        assert [(d.code, d.message) for d in diags] == [
            ("bad-volume", "prototile 'A' has volume -1" + "0" * 5000)
        ]
        assert sys.get_int_max_str_digits() == limit
        # a float, outside the type, is still rejected as a volume
        (d,) = structure_diagnostics("r", 1, (Prototile("A", volume=-1.5),), (SupertileDef("A", (Placement("A"),)),))
        assert (d.code, d.message) == ("bad-volume", "prototile 'A' has volume -3/2")

    @pytest.mark.parametrize("volume, named", [(1.5, "3/2"), (2.0, "2")])
    def test_positive_float_volume(self, volume, named):
        # accepted, a float volume made volumes inexact and frequency_hull
        # raise AttributeError
        (d,) = structure_diagnostics("r", 1, (Prototile("A", volume),), (SupertileDef("A", (Placement("A"),)),))
        assert (d.code, d.message) == ("bad-volume", f"prototile 'A' has volume {named}, a float, not an int or Fraction")

    def test_bool_volume(self):
        (d,) = structure_diagnostics("r", 1, (Prototile("A", True),), (SupertileDef("A", (Placement("A"),)),))
        assert (d.code, d.message) == ("bad-volume", "prototile 'A' has volume 1, a bool, not an int or Fraction")

    def test_volume_that_is_not_a_number(self):
        # compared before its type was tested, it raised a bare TypeError
        (d,) = structure_diagnostics("r", 1, (Prototile("A", "3"),), (SupertileDef("A", (Placement("A"),)),))
        assert (d.code, d.message) == ("bad-volume", "prototile 'A' has volume '3', a str, not an int or Fraction")
        (d,) = structure_diagnostics("r", 1, (Prototile("A", float("nan")),), (SupertileDef("A", (Placement("A"),)),))
        assert (d.code, d.message) == ("bad-volume", "prototile 'A' has volume nan, a float, not an int or Fraction")

    def test_int_volume_is_exact(self):
        rule = FusionRule("r", 1, (Prototile("A", 3),), (SupertileDef("A", (Placement("A", Lit(2)),)),))
        assert rule.prototile("A").volume == 3
        # held as a Fraction, so volumes() returns what VolumeVector is typed to hold
        assert type(rule.prototile("A").volume) is Fraction
        assert [type(v) for v in volumes(rule, 0).values + volumes(rule, 1).values] == [Fraction, Fraction]

    def test_disconnected_prototile(self):
        diags = structure_diagnostics(
            "r", 2,
            (Prototile("A", volume=Fraction(2), cells=((0, 0), (2, 0))),),
            (SupertileDef("A", (Placement("A", offset=(Lit(0), Lit(0))),)),),
        )
        assert "bad-shape" in [d.code for d in diags]

    def test_2d_prototile_without_cells(self):
        diags = structure_diagnostics(
            "r", 2,
            (Prototile("P"),),
            (SupertileDef("P", (Placement("P", offset=(Lit(0), Lit(0))),)),),
        )
        assert [d.code for d in diags] == ["bad-shape"] and "has no cells" in diags[0].message

    def test_unanchored_prototile(self):
        diags = structure_diagnostics(
            "r", 2,
            (Prototile("A", volume=Fraction(2), cells=((1, 1), (1, 2))),),
            (SupertileDef("A", (Placement("A", offset=(Lit(0), Lit(0))),)),),
        )
        assert [d.code for d in diags] == ["bad-shape"]

    @pytest.mark.parametrize("base", [0, 1])
    def test_ispow_base_below_two(self, base):
        # base 1 would loop forever in eval_guard, base 0 divide by zero, so
        # a rule cannot hold such a guard: building the guard raises
        with pytest.raises(ValueError, match=f"ispow base must be >= 2, got {base}"):
            FusionRule(
                "r", 1,
                (Prototile("A"),),
                (
                    SupertileDef("A", (Placement("A"),), Not(IsPow(base, Var()))),
                    SupertileDef("A", (Placement("A"),)),
                ),
            )

    def test_repeat_in_2d_rejected(self):
        cell = ((0, 0),)
        diags = structure_diagnostics(
            "r", 2,
            (Prototile("P", cells=cell), Prototile("Q", cells=cell)),
            (
                SupertileDef("P", (Placement("P", Lit(2), (Lit(0), Lit(0))), Placement("Q", Lit(1), (Lit(1), Lit(0))))),
                SupertileDef("Q", (Placement("Q", offset=(Lit(0), Lit(0))),)),
            ),
        )
        assert [d.code for d in diags] == ["repeat-in-2d"] and diags[0].label == "P"

    def test_no_offset_in_2d_rejected(self):
        diags = structure_diagnostics(
            "r", 2,
            (Prototile("P", cells=((0, 0),)),),
            (SupertileDef("P", (Placement("P", offset=(Lit(0), Lit(0))), Placement("P"))),),
        )
        assert [d.code for d in diags] == ["no-offset-in-2d"] and diags[0].label == "P"

    def test_offset_in_1d_rejected(self):
        diags = structure_diagnostics(
            "r", 1,
            (Prototile("A"),),
            (SupertileDef("A", (Placement("A", offset=(Lit(0), Lit(0))),)),),
        )
        assert "offset-in-1d" in [d.code for d in diags]

    def test_empty_1d_body_rejected(self):
        # built, this rule made van_hove_diagnostic divide by a length of 0
        # and expand_supertile return an empty patch for B at level 1
        diags = structure_diagnostics(
            "e", 1,
            (Prototile("A"), Prototile("B")),
            (SupertileDef("A", (Placement("A"),)), SupertileDef("B", ())),
        )
        assert [(d.code, d.label) for d in diags] == [("empty-body", "B")]

    def test_replace_is_checked(self):
        # dataclasses.replace builds a new rule, so it cannot smuggle in a
        # shape that the constructor rejects
        chair = load_builtin("chair")
        gapped = tuple(dataclasses.replace(p, cells=((0, 0), (2, 0))) for p in chair.prototiles)
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(chair, prototiles=gapped)
        assert [(d.code, d.message) for d in exc.value.diagnostics] == [
            ("bad-shape", f"prototile {p.name!r} is not edge-connected") for p in chair.prototiles
        ]

    def test_diagnostics_in_order(self):
        # every structural fault at once, prototiles first, then bodies in
        # declaration order
        diags = structure_diagnostics(
            "r", 1,
            (Prototile("A"), Prototile("A", volume=Fraction(-1)), Prototile("C", cells=((0, 0),))),
            (
                SupertileDef("A", ()),
                SupertileDef("C", (Placement("A", offset=(Lit(0), Lit(0))),)),
            ),
        )
        assert [(d.code, d.label) for d in diags] == [
            ("duplicate-prototile", None), ("bad-volume", None), ("bad-shape", None),
            ("empty-body", "A"), ("offset-in-1d", "C"),
        ]

    def test_invalid_repeat(self):
        rule = FusionRule(
            "r", 1,
            (Prototile("A"),),
            (SupertileDef("A", (Placement("A", repeat=BinOp("-", Var(), Lit(5))),)),),
        )
        diags = validate_rule(rule, 10)
        assert [d.code for d in diags] == ["invalid-repeat"]
        assert diags[0].level == 1


def _one(repeat=Lit(1), guard=Always(), child="A", dimension=1):
    """The fields of a rule with one placement and one guarded definition."""
    return ("r", dimension, (Prototile("A"),), (SupertileDef("A", (Placement(child, repeat),), guard), SupertileDef("A", (Placement("A"),))))


class TestTreesCheckedAtConstruction:
    """Every repeat, offset and guard compiles when the rule is built, so a
    malformed tree is a diagnostic, not an error at its first evaluation."""

    @pytest.mark.parametrize(
        "fields, code, message",
        [
            (_one(repeat=Lit(1.5)), "bad-expr", "Lit(1.5) cannot stand in an integer expression"),
            (_one(repeat=Lit(True)), "bad-expr", "Lit(True) cannot stand in an integer expression"),
            (_one(repeat=3), "bad-expr", "3 cannot stand in an integer expression"),
            (_one(repeat="n"), "bad-expr", "'n' cannot stand in an integer expression"),
            (_one(repeat=BinOp("%", Var(), Lit(2))), "bad-expr", "BinOp('%', …, …) cannot stand in an integer expression"),
            (_one(repeat=BinOp("+", Var(), Cmp("==", Var(), Lit(1)))), "bad-expr", "Cmp('==', …, …) cannot stand in an integer expression"),
            (_one(repeat=Dim("h", "A")), "bad-expr", "h() is only available in dimension 2"),
            (_one(guard=True), "bad-guard", "True cannot stand in a guard"),
            (_one(guard=Cmp("<>", Var(), Lit(1))), "bad-guard", "Cmp('<>', …, …) cannot stand in a guard"),
            (_one(guard=Not(IsPow(2.5, Var()))), "bad-guard", "IsPow(2.5, …) cannot stand in a guard"),
            (_one(guard=Cmp("==", Dim("w", "A"), Lit(1))), "bad-guard", "Dim('w', 'A') cannot stand in a guard"),
            (_one(guard=Or(Always(), Var())), "bad-guard", "Var() cannot stand in a guard"),
            (_one(child=3), "bad-child", "placement child 3 is not a label"),
        ],
    )
    def test_malformed_tree(self, fields, code, message):
        (d,) = structure_diagnostics(*fields)
        assert (d.code, d.message, d.label) == (code, message, "A")

    def test_every_malformed_tree_is_named(self):
        diags = structure_diagnostics(
            "r", 2,
            (Prototile("P", cells=((0, 0),)),),
            (SupertileDef("P", (Placement("P", offset=(Lit(0), Lit(0.5))), Placement(None, offset=(Var(), Dim("w", 1)))), Always),),
        )
        assert [d.code for d in diags] == ["bad-expr", "bad-child", "bad-expr", "bad-guard"]

    def test_eval_reports_a_malformed_tree(self):
        with pytest.raises(ValueError, match="cannot stand in an integer expression"):
            eval_expr(BinOp("+", Var(), 1), 1)
        with pytest.raises(ValueError, match="cannot stand in a guard"):
            eval_guard(Cmp("==", Dim("w", "A"), Lit(1)), 1)


class TestGuardTotality:
    def test_builtin_guards_never_raise(self):
        # spot-check a wide range, including very large levels
        for name in ("thue_morse", "fibonacci", "fiblike", "ten_pow_n", "chair", "fib2d"):
            rule = load_builtin(name)
            for n in (1, 2, 3, 10, 100, 10**4, 10**6):
                for d in rule.definitions:
                    eval_guard(d.guard, n)

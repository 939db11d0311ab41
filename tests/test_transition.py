import dataclasses
import gc
import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis import level_free_1d_rules, oracle_hull, twin
from test_expand import outcome, small_2d_rules

from fusionlab.analysis import _det, ergodicity_report, frequency_hull
from fusionlab.builtins import builtin_names, builtin_text, load_builtin
from fusionlab.core import BinOp, FusionRule, Lit, Placement, Prototile, SupertileDef, Var, resolve_level, validate_rule
from fusionlab.dsl import parse_rule, parse_rule_text
from fusionlab.errors import InvalidRangeError, NegativeExponentError, UndefinedLabelError, UnknownLabelError, ValidationError
from fusionlab.expand import cell_count, expand_supertile, tile_census, tile_count
from fusionlab.transition import (
    TransitionMatrix,
    compose,
    step_matrix,
    transition_matrix,
    volumes,
)

ALL = builtin_names()


class TestStepMatrix:
    def test_fiblike_generic(self):
        m = step_matrix(load_builtin("fiblike"), 4)
        assert m.entries == ((1, 1), (1, 0))
        assert m.row_labels == ("A", "B") and m.col_labels == ("A", "B")

    def test_fiblike_before_power(self):
        # level 2 = 3^1 - 1 introduces T, giving a third column
        m = step_matrix(load_builtin("fiblike"), 2)
        assert m.entries == ((1, 1, 1), (1, 0, 1))
        assert m.col_labels == ("A", "B", "T")

    def test_fiblike_at_power(self):
        m = step_matrix(load_builtin("fiblike"), 3)
        assert m.entries == ((0, 1), (1, 0), (1, 0))
        assert m.row_labels == ("A", "B", "T")

    def test_ten_pow_n(self):
        m = step_matrix(load_builtin("ten_pow_n"), 3)
        assert m.entries == ((1000, 1), (1, 1000))

    def test_huge_entries_exact(self):
        m = step_matrix(load_builtin("ten_pow_n"), 30)
        assert m.entries[0][0] == 10**30

    def test_chair_columns(self):
        m = step_matrix(load_builtin("chair"), 1)
        assert m.row_labels == ("NE", "NW", "SW", "SE")
        assert m.column("NE") == (2, 1, 0, 1)
        assert m.column("NW") == (1, 2, 1, 0)
        assert m.column("SW") == (0, 1, 2, 1)
        assert m.column("SE") == (1, 0, 1, 2)


class TestTransitionMatrix:
    def test_identity_at_equal_levels(self):
        for name in ALL:
            rule = load_builtin(name)
            m = transition_matrix(rule, 2, 2)
            k = len(m.row_labels)
            assert m.entries == tuple(
                tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
            )

    def test_invalid_range(self):
        with pytest.raises(InvalidRangeError, match=r"need 0 <= from <= to, got from=3 to=1$"):
            transition_matrix(load_builtin("fibonacci"), 3, 1)

    def test_compose_names_levels_and_labels(self):
        fib, tm = load_builtin("fibonacci"), load_builtin("thue_morse")
        need = r"need a\.to_level == b\.from_level and a\.col_labels == b\.row_labels, got "
        with pytest.raises(InvalidRangeError, match=need + r"a\.to_level=1 b\.from_level=2 ") as exc:
            compose(transition_matrix(fib, 0, 1), transition_matrix(fib, 2, 3))
        assert (exc.value.from_level, exc.value.to_level) == (1, 2)
        # the levels match, the labels do not
        labels = r"a\.col_labels=\('A', 'B'\) b\.row_labels=\('S1', 'S2'\)$"
        with pytest.raises(InvalidRangeError, match=need + r"a\.to_level=1 b\.from_level=1 " + labels):
            compose(transition_matrix(fib, 0, 1), transition_matrix(tm, 1, 2))

    def test_fiblike_product(self):
        m = transition_matrix(load_builtin("fiblike"), 1, 4)
        assert m.entries == ((3, 2), (2, 1))

    def test_ten_pow_n_two_steps(self):
        m = transition_matrix(load_builtin("ten_pow_n"), 0, 2)
        assert m.entries == ((1001, 110), (110, 1001))

    def test_thue_morse_three_steps(self):
        m = transition_matrix(load_builtin("thue_morse"), 0, 3)
        assert m.entries == ((4, 4), (4, 4))

    def test_cold_deep_horizon(self):
        # a fresh rule fills its level table in a loop, not one frame per level
        m = transition_matrix(parse_rule(builtin_text("fibonacci")), 0, 10000)
        fib = [0, 1]
        while len(fib) < 10002:
            fib.append(fib[-1] + fib[-2])
        assert m.entries == ((fib[10001], fib[10000]), (fib[10000], fib[9999]))

    @pytest.mark.parametrize("name", ALL)
    def test_composition_identity_small(self, name):
        rule = load_builtin(name)
        for n, m, N in combinations(range(0, 9), 3):
            lhs = transition_matrix(rule, n, N)
            rhs = compose(transition_matrix(rule, n, m), transition_matrix(rule, m, N))
            assert lhs == rhs

    @pytest.mark.parametrize("name", ALL)
    def test_no_zero_columns(self, name):
        rule = load_builtin(name)
        for N in range(1, 13):
            m = transition_matrix(rule, 0, N)
            for j in range(len(m.col_labels)):
                assert any(row[j] for row in m.entries)


class TestVolumes:
    def test_prototile_volumes(self):
        v = volumes(load_builtin("chair"), 0)
        assert v.values == (Fraction(3),) * 4

    def test_fibonacci_level3(self):
        assert volumes(load_builtin("fibonacci"), 3).values == (Fraction(5), Fraction(3))

    def test_ten_pow_n_level1(self):
        assert volumes(load_builtin("ten_pow_n"), 1).values == (Fraction(11), Fraction(11))

    @pytest.mark.parametrize("name", ALL)
    def test_volume_consistency(self, name):
        # Vol(P_N(j)) = sum_i M_{n,N}(i,j) Vol(P_n(i))
        rule = load_builtin(name)
        for n in range(0, 12):
            for N in range(n + 1, 13):
                m = transition_matrix(rule, n, N)
                vn = volumes(rule, n)
                vN = volumes(rule, N)
                for j, lab in enumerate(m.col_labels):
                    assert vN.value(lab) == sum(
                        m.entries[i][j] * vn.values[i] for i in range(len(m.row_labels))
                    )


class TestCensusAgreement:
    @pytest.mark.parametrize("name", ALL)
    def test_expansion_census_matches_matrix(self, name):
        rule = load_builtin(name)
        for n in range(0, 7):
            m = transition_matrix(rule, 0, n)
            for lab in m.col_labels:
                if cell_count(rule, n, lab) > 10**6:
                    continue
                patch = expand_supertile(rule, n, lab)
                census = tile_census(patch)
                for i, proto in enumerate(m.row_labels):
                    assert census.get(proto, 0) == m.column(lab)[i]


@pytest.mark.parametrize("lookup, label, level", [
    (lambda: transition_matrix(load_builtin("fiblike"), 1, 2).entry("Z", "A"), "Z", 1),
    (lambda: transition_matrix(load_builtin("fiblike"), 1, 2).entry("A", "Z"), "Z", 2),
    (lambda: transition_matrix(load_builtin("fiblike"), 0, 1).entry("A", "T"), "T", 1),
    (lambda: transition_matrix(load_builtin("fiblike"), 1, 2).column("Z"), "Z", 2),
    (lambda: volumes(load_builtin("fiblike"), 3).value("T"), "T", 3),
], ids=["entry-row", "entry-column", "entry-absent-label", "column", "volume"])
def test_unknown_label_names_its_level(lookup, label, level):
    with pytest.raises(UnknownLabelError) as exc:
        lookup()
    assert (exc.value.label, exc.value.level) == (label, level)
    assert isinstance(exc.value, KeyError)
    assert f"no supertile {label!r} at level {level}" in str(exc.value)


def test_bundled_rule_table_is_freed_with_the_rule():
    rule = load_builtin("fibonacci")
    transition_matrix(rule, 0, 3000)
    ref = weakref.ref(rule)
    del rule
    assert ref() is None


def test_empty_body_is_rejected_on_construction():
    # so every column of a matrix sums at least one child column
    defs = (SupertileDef("A", (Placement("A"), Placement("B"))), SupertileDef("B", ()))
    with pytest.raises(ValidationError) as exc:
        FusionRule("empty", 1, (Prototile("A"), Prototile("B")), defs)
    assert [(d.code, d.label) for d in exc.value.diagnostics] == [("empty-body", "B")]


# ---------------------------------------------------------------------------
# Level-free rules: matrices by repeated squaring, checked against the
# level-by-level fold
# ---------------------------------------------------------------------------


def fold_matrix(rule, n, N):
    """M[n -> N] folded one level at a time over every level n+1..N: the
    oracle of the powered matrices."""
    labels = resolve_level(rule, n).labels
    cols = {label: tuple(int(i == j) for i in range(len(labels))) for j, label in enumerate(labels)}
    for k in range(n + 1, N + 1):
        cols = {
            s.label: tuple(sum(p.repeat * cols[p.child][i] for p in s.body) for i in range(len(labels)))
            for s in resolve_level(rule, k).supertiles
        }
    return TransitionMatrix(n, N, labels, tuple(cols), tuple(zip(*cols.values())))


def fold_sums(rule, n):
    """Per level-n label, its volume, tile count and cell count, each a
    weighted sum of its column of fold_matrix: the oracle of the powered
    sums."""
    m = fold_matrix(rule, 0, n)
    weights = [(p.volume, 1, len(p.cells) if p.cells else 1) for p in rule.prototiles]
    return {
        label: tuple(sum(w[k] * e for w, e in zip(weights, col)) for k in range(3))
        for label, col in zip(m.col_labels, zip(*m.entries))
    }


level_free_rules = st.one_of(level_free_1d_rules, small_2d_rules())


class TestLevelFreePowers:
    @settings(max_examples=150, deadline=None)
    @given(rule=level_free_rules, k=st.integers(min_value=3, max_value=9), large=st.sampled_from((23, 64)))
    def test_powers_equal_the_fold(self, rule, k, large):
        assert rule._level_free
        for n in (0, 1, 2, k):
            for N in sorted({n, n + 1, 1, 2, large}):
                cold, oracle = twin(rule), twin(rule)
                got = outcome(lambda: transition_matrix(cold, n, N))
                want = outcome(lambda: fold_matrix(oracle, n, N) if n <= N else transition_matrix(oracle, n, N))
                assert got == want
                if isinstance(got, TransitionMatrix):
                    assert len(cold._levels["resolutions"]) <= 3
                elif N >= n:  # the same error from the same first failing level, at most 2
                    assert len(cold._levels["resolutions"]) == len(oracle._levels["resolutions"]) <= 2
                if N > n:
                    cold, oracle = twin(rule), twin(rule)
                    got = outcome(lambda: frequency_hull(cold, n, N))
                    want = outcome(lambda: oracle_hull(oracle, n, N, fold_matrix)[0])
                    assert got == want

    @settings(max_examples=150, deadline=None)
    @given(rule=level_free_rules, levels=st.lists(st.sampled_from((0, 1, 2, 3, 4, 7, 23, 64, 300)), min_size=1, max_size=6))
    def test_sums_equal_the_fold(self, rule, levels):
        # asked in any order, so that a level is powered from level 2 or from
        # the level asked for before it
        cold = twin(rule)
        for n in levels:
            got = outcome(lambda: {
                label: (volumes(cold, n).value(label), tile_count(cold, n, label), cell_count(cold, n, label))
                for label in resolve_level(cold, n).labels
            })
            assert got == outcome(lambda: fold_sums(twin(rule), n))
            assert len(cold._levels.get("resolutions", ())) <= 3
            assert all(len(cold._levels.get(key, ())) <= 3 for key in ("volume", "tiles", "cells"))

    def test_deep_hull_and_sweep_keep_three_levels(self):
        rule = load_builtin("fibonacci")
        assert frequency_hull(rule, 10000, 10002).labels == ("A", "B")
        assert volumes(rule, 10000).values == (fib(10002), fib(10001))
        assert len(rule._levels["resolutions"]) <= 3 and len(rule._levels["volume"]) <= 3
        rule = load_builtin("fibonacci")
        assert ergodicity_report(rule, 20, 1520).verdict == "unique"
        assert len(rule._levels["resolutions"]) <= 3

    def test_a_failing_level_one_raises_as_the_walk_does(self):
        # C is neither a prototile nor a label of level 0
        rule = FusionRule("one", 1, (Prototile("A"), Prototile("B")), (SupertileDef("A", (Placement("A"), Placement("C"))),))
        assert rule._level_free
        for N in (1, 2, 50):
            with pytest.raises(UndefinedLabelError) as exc:
                transition_matrix(twin(rule), 0, N)
            assert (exc.value.label, exc.value.level) == ("C", 1)
            with pytest.raises(UndefinedLabelError) as exc:
                frequency_hull(twin(rule), 0, N)
            assert (exc.value.label, exc.value.level) == ("C", 1)

    def test_a_failing_level_two_raises_only_past_level_one(self):
        # B is a prototile, so level 1 resolves, but not a label of level 1
        rule = FusionRule("two", 1, (Prototile("A"), Prototile("B")), (SupertileDef("A", (Placement("A"), Placement("B"))),))
        assert rule._level_free
        cold = twin(rule)
        assert transition_matrix(cold, 0, 1).entries == ((1,), (1,))
        assert len(cold._levels["resolutions"]) == 2
        assert frequency_hull(twin(rule), 0, 1).vertices == ((Fraction(1, 2), Fraction(1, 2)),)
        for n, N in ((0, 2), (0, 50), (1, 2), (1, 50), (7, 7), (7, 90)):
            cold = twin(rule)
            with pytest.raises(UndefinedLabelError) as exc:
                transition_matrix(cold, n, N)
            assert (exc.value.label, exc.value.level) == ("B", 2)
            assert len(cold._levels["resolutions"]) == 2

    def test_validation_stops_at_level_two(self):
        text = "rule two dim 1\nprototile A\nprototile B\nlevel default:\n  A = A B\n"
        rule = parse_rule_text(text)
        assert validate_rule(rule, 1) == []
        (d,) = validate_rule(rule, 64)
        assert (d.code, d.level, d.label) == ("undefined-label", 2, "B")
        with pytest.raises(ValidationError):
            parse_rule(text)
        rule = load_builtin("fibonacci")  # validated to depth 64 by parse_rule
        assert len(rule._levels["resolutions"]) == 3

    def test_level_dependent_rules_keep_the_walk(self):
        # offsets in 2^(n-1) and w()/h() may change a level above 2
        assert [name for name in ALL if load_builtin(name)._level_free] == ["thue_morse", "fibonacci"]
        # an offset 2^(5-n) raises at level 6 only
        body = (Placement("A", Lit(1), (Lit(0), Lit(0))), Placement("A", Lit(1), (BinOp("^", Lit(2), BinOp("-", Lit(5), Var())), Lit(0))))
        rule = FusionRule("late", 2, (Prototile("A", cells=((0, 0),)),), (SupertileDef("A", body),))
        assert not rule._level_free
        assert transition_matrix(twin(rule), 0, 5).entries == ((32,),)
        with pytest.raises(NegativeExponentError):
            transition_matrix(twin(rule), 0, 6)

    def test_deep_power_keeps_three_levels_and_little_memory(self):
        rule = load_builtin("fibonacci")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = transition_matrix(rule, 0, 10000)
            assert m.entries == ((fib(10001), fib(10000)), (fib(10000), fib(9999)))
            del m
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rule._levels["resolutions"]) <= 3
        assert kept < 2**20

    def test_identity_and_offsets_from_a_deep_level(self):
        rule = load_builtin("thue_morse")
        assert transition_matrix(rule, 500, 500).entries == ((1, 0), (0, 1))
        assert transition_matrix(rule, 500, 503) == dataclasses.replace(transition_matrix(rule, 2, 5), from_level=500, to_level=503)
        assert len(rule._levels["resolutions"]) == 3
        with pytest.raises(UnknownLabelError) as exc:
            transition_matrix(rule, 500, 503).entry("S1", "Z")
        assert exc.value.level == 503


def fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def leibniz_det(rows):
    """The determinant as the signed sum over permutations: the oracle of
    the fraction-free elimination."""
    m = len(rows)
    total = 0
    for perm in permutations(range(m)):
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(m))
    return total


square_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=m, max_size=m), min_size=m, max_size=m)
)


@settings(max_examples=300, deadline=None)
@given(rows=square_matrices)
def test_det_equals_the_permutation_sum(rows):
    assert _det([list(row) for row in rows]) == leibniz_det(rows)


def test_det_pivots_past_zeros():
    assert _det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert _det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert _det([[0, 2], [0, 3]]) == 0
    assert _det([[10**40, 1], [1, 10**40]]) == 10**80 - 1

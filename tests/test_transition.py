import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from fusionlab.builtins import builtin_names, builtin_text, load_builtin
from fusionlab.core import FusionRule, Placement, Prototile, SupertileDef
from fusionlab.dsl import parse_rule
from fusionlab.errors import InvalidRangeError
from fusionlab.expand import cell_count, expand_supertile, tile_census
from fusionlab.transition import compose, step_matrix, transition_matrix, volumes

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
        with pytest.raises(InvalidRangeError):
            transition_matrix(load_builtin("fibonacci"), 3, 1)

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


def test_bundled_rule_table_is_freed_with_the_rule():
    rule = load_builtin("fibonacci")
    transition_matrix(rule, 0, 3000)
    ref = weakref.ref(rule)
    del rule
    assert ref() is None


def test_empty_body_has_a_zero_column():
    # validate_rule rejects an empty body, but a rule built in Python may hold one
    defs = (SupertileDef("A", (Placement("A"), Placement("B"))), SupertileDef("B", ()))
    rule = FusionRule("empty", 1, (Prototile("A"), Prototile("B")), defs)
    assert transition_matrix(rule, 0, 2).entries == ((1, 0), (1, 0))

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionlab.builtins import builtin_names, builtin_text, load_builtin
from fusionlab.core import (
    Always,
    And,
    BinOp,
    Cmp,
    Dim,
    IsPow,
    Lit,
    Not,
    Or,
    Placement,
    Var,
)
from fusionlab.dsl import format_expr, format_guard, format_rule, parse_rule, parse_rule_text
from fusionlab.errors import ParseError, ValidationError


class TestParseBasics:
    def test_minimal_rule(self):
        rule = parse_rule("rule r dim 1 prototile A level default: A = A A\n")
        assert rule.name == "r"
        assert rule.dimension == 1
        assert rule.prototile_names() == ("A",)
        assert rule.definitions[0].body == (Placement("A"), Placement("A"))

    def test_comments_and_whitespace(self):
        text = """
        # a comment
        rule   r dim 1
          prototile A   # trailing comment
        level default:
            A = A A
        """
        rule = parse_rule(text)
        assert rule.prototile_names() == ("A",)

    def test_repeat_and_guard(self):
        rule = parse_rule(
            "rule r dim 1 prototile A prototile B\n"
            "level n >= 1: A = A^(10^n) B\n  B = B A\n"
        )
        a = rule.definitions[0]
        assert a.body[0].repeat == BinOp("^", Lit(10), Var())
        # the block guard n >= 1 becomes the definition guard
        assert a.guard == Cmp(">=", Var(), Lit(1))

    def test_block_and_def_guards_combine(self):
        rule = parse_rule_text(
            "rule r dim 1 prototile A\n"
            "level n >= 2: A = A A if ispow(2,n)\n"
            "level default: A = A\n"
        )
        assert rule.definitions[0].guard == And(
            Cmp(">=", Var(), Lit(2)), IsPow(2, Var())
        )
        assert rule.definitions[1].guard == Always()

    def test_otherwise_is_always(self):
        rule = parse_rule_text(
            "rule r dim 1 prototile A\nlevel default: A = A A otherwise\n"
        )
        assert rule.definitions[0].guard == Always()

    def test_volume_rational(self):
        rule = parse_rule("rule r dim 1 prototile A volume 3/2 level default: A = A\n")
        assert rule.prototiles[0].volume == Fraction(3, 2)

    def test_cells_normalized_and_sorted(self):
        rule = parse_rule(
            "rule r dim 2 prototile L cells (5,6) (5,5) (6,5)\n"
            "level default: L = L\n"
        )
        assert rule.prototiles[0].cells == ((0, 0), (0, 1), (1, 0))

    def test_2d_offsets(self):
        rule = parse_rule(
            "rule r dim 2 prototile A\n"
            "level default: A = A A@(w(A),0)\n"
        )
        first, second = rule.definitions[0].body
        assert first.offset == (Lit(0), Lit(0))
        assert second.offset == (Dim("w", "A"), Lit(0))

    def test_guard_parenthesized(self):
        rule = parse_rule_text(
            "rule r dim 1 prototile A\n"
            "level default: A = A if (n == 1 or n == 2) and not n == 3\n"
        )
        g = rule.definitions[0].guard
        assert isinstance(g, And) and isinstance(g.left, Or) and isinstance(g.right, Not)

    def test_power_right_associative(self):
        rule = parse_rule_text(
            "rule r dim 1 prototile A\nlevel default: A = A^(2^3^2)\n"
        )
        r = rule.definitions[0].body[0].repeat
        assert r == BinOp("^", Lit(2), BinOp("^", Lit(3), Lit(2)))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "rule",
            "rule r",
            "rule r dim 3 prototile A level default: A = A",
            "rule r dim 1 prototile level",
            "rule r dim 1 prototile A level default:",
            "rule r dim 1 prototile A level default: A =",
            "rule r dim 1 prototile A level default: A = A if",
            "rule r dim 1 prototile A level n: A = A",
            "rule r dim 1 prototile A level default: A = A@(1,2)",
            "rule r dim 1 prototile A cells (0,0) level default: A = A",
            "rule r dim 1 prototile A level default: A = A^(h(A))",
            "rule r dim 1 prototile A level default: A = A if ispow(1,n)",
            "rule r dim 1 prototile A level default: A = A if w(A) == 1",
            "rule r dim 2 prototile A level default: A = A A",
            "rule r dim 1 prototile n level default: n = n",
            "rule r dim 1 prototile A volume 1/0 level default: A = A",
            "rule r dim 1 prototile A $ level default: A = A",
        ],
    )
    def test_syntax_errors_raise(self, text):
        with pytest.raises(ParseError):
            parse_rule_text(text)

    def test_error_span_points_at_token(self):
        try:
            parse_rule_text("rule r dim 1 prototile A\nlevel default: A = A@(1,2)\n")
        except ParseError as e:
            d = e.diagnostics[0]
            assert d.span.line == 2
            assert d.severity == "error"
        else:
            pytest.fail("expected ParseError")

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_integers_are_ascii_digits(self, digit):
        with pytest.raises(ParseError) as exc:
            parse_rule_text(f"rule r dim {digit}")
        d = exc.value.diagnostics[0]
        assert (d.span.line, d.span.column) == (1, 12)
        assert "unexpected character" in d.message

    def test_validation_errors_propagate(self):
        with pytest.raises(ValidationError) as ei:
            parse_rule("rule r dim 1 prototile A\n")
        assert any(d.code == "empty-level" for d in ei.value.diagnostics)

    def test_undefined_child_flagged(self):
        with pytest.raises(ValidationError) as ei:
            parse_rule("rule r dim 1 prototile A level default: A = Q\n")
        assert any(d.code == "undefined-label" for d in ei.value.diagnostics)


class TestFormatter:
    def test_expr_formatting(self):
        cases = [
            (BinOp("^", Lit(10), Var()), "10^n"),
            (BinOp("^", Lit(2), BinOp("-", Var(), Lit(1))), "2^(n-1)"),
            (BinOp("+", Var(), Lit(1)), "n+1"),
            (BinOp("*", BinOp("+", Lit(1), Lit(2)), Lit(3)), "(1+2)*3"),
            (BinOp("^", BinOp("^", Lit(2), Lit(3)), Lit(2)), "(2^3)^2"),
            (BinOp("^", Lit(2), BinOp("^", Lit(3), Lit(2))), "2^3^2"),
            (BinOp("-", Lit(5), BinOp("-", Lit(3), Lit(1))), "5-(3-1)"),
            (BinOp("-", BinOp("-", Lit(5), Lit(3)), Lit(1)), "5-3-1"),
            (Dim("w", "AA"), "w(AA)"),
        ]
        for expr, want in cases:
            assert format_expr(expr) == want

    def test_guard_formatting(self):
        g = Or(Cmp("==", Var(), Lit(1)), IsPow(3, Var()))
        assert format_guard(g) == "n == 1 or ispow(3,n)"
        assert format_guard(Not(g)) == "not (n == 1 or ispow(3,n))"
        assert (
            format_guard(And(Cmp(">", Var(), Lit(2)), Not(IsPow(2, Var()))))
            == "n > 2 and not ispow(2,n)"
        )

    def test_expr_format_parse_round_trip(self):
        # the formatter must reproduce the exact tree, not just the value
        exprs = [
            BinOp("+", Lit(1), BinOp("+", Lit(2), Lit(3))),
            BinOp("+", BinOp("+", Lit(1), Lit(2)), Lit(3)),
            BinOp("*", Var(), BinOp("^", Lit(2), Var())),
            BinOp("^", BinOp("+", Var(), Lit(1)), Lit(2)),
        ]
        for expr in exprs:
            text = f"rule r dim 1 prototile A\nlevel default: A = A^({format_expr(expr)})\n"
            rule = parse_rule_text(text)
            assert rule.definitions[0].body[0].repeat == expr


class TestRoundTrip:
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_round_trip(self, name):
        rule = load_builtin(name)
        assert parse_rule(format_rule(rule)) == rule

    @pytest.mark.parametrize("name", builtin_names())
    def test_bundled_files_are_canonical(self, name):
        text = builtin_text(name)
        assert format_rule(parse_rule(text)) == text

    def test_whitespace_insensitive(self):
        dense = "rule r dim 1 prototile A prototile B level default: A = A B\n  B = A\n"
        spaced = "rule r  dim 1\n\n prototile A\n prototile   B\nlevel default :\n  A = A   B\n  B = A"
        assert format_rule(parse_rule(dense)) == format_rule(parse_rule(spaced))

    def test_format_idempotent(self):
        for name in builtin_names():
            once = format_rule(load_builtin(name))
            assert format_rule(parse_rule(once)) == once


# hypothesis: parser totality and error-span validity


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_rule_text(text)
    except ParseError as e:
        assert e.diagnostics
        for d in e.diagnostics:
            assert d.span.line >= 1 and d.span.column >= 1 and d.span.offset >= 0


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(builtin_names()),
    pos=st.integers(min_value=0, max_value=4000),
    ch=st.characters(codec="ascii"),
)
def test_mutated_rule_files_parse_or_diagnose(name, pos, ch):
    """Single-character mutations either still parse or fail with a
    diagnostic whose span lies inside the text."""
    text = builtin_text(name)
    pos %= len(text)
    mutated = text[:pos] + ch + text[pos + 1 :]
    try:
        parse_rule_text(mutated)
    except ParseError as e:
        d = e.diagnostics[0]
        assert 0 <= d.span.offset <= len(mutated.encode("utf-8"))
        lines = mutated.split("\n")
        assert 1 <= d.span.line <= len(lines) + 1
    except RecursionError:
        pytest.fail("parser must not blow the stack on small inputs")

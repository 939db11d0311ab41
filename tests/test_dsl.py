import dataclasses
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

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
    FusionRule,
    IsPow,
    Lit,
    Not,
    Or,
    Placement,
    Prototile,
    SupertileDef,
    Var,
    eval_expr,
    eval_guard,
    resolve_level,
)
from fusionlab.dsl import (
    _DIGITS,
    _ONE_CHAR_OPS,
    _TWO_CHAR_OPS,
    ParseDiagnostic,
    SourceSpan,
    _Parser,
    _span,
    _tokenize,
    format_expr,
    format_guard,
    format_rule,
    parse_rule,
    parse_rule_text,
)
from fusionlab.errors import (
    NegativeExponentError,
    ParseError,
    UnknownDimensionError,
    ValidationError,
    _frac_str,
    _integer,
)


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

    def test_lone_surrogate_before_a_diagnostic_gets_a_span(self):
        with pytest.raises(ParseError) as exc:
            parse_rule_text("# \ud800\n$")
        d = exc.value.diagnostics[0]
        assert (d.span.line, d.span.column, d.span.offset, d.span.length) == (2, 1, 6, 1)
        assert "unexpected character '$'" in d.message

    def test_repeat_in_2d_rejected(self):
        text = "rule r dim 2\nprototile P\nprototile Q\nlevel default:\n  P = P^(2)@(0,0) Q@(1,0)\n  Q = Q\n"
        with pytest.raises(ParseError) as exc:
            parse_rule_text(text)
        (d,) = exc.value.diagnostics
        assert (d.span.line, d.span.column) == (5, 8)
        assert d.message == "repeats are only available in dimension 1"

    @pytest.mark.parametrize(
        "guard, message, column",
        [
            ("(1)", "expected a comparison operator", 53),
            ("1", "expected a comparison operator", 51),
            ("((n) >= not 2)", "expected an expression, found 'not'", 58),
        ],
    )
    def test_error_names_the_token_where_parsing_stops(self, guard, message, column):
        # a parenthesized expression with no comparison after it fails where
        # its comparison operator is missing, not at its own ")"
        with pytest.raises(ParseError) as exc:
            parse_rule_text(f"rule r dim 1 prototile A level default: A = A if {guard}")
        (d,) = exc.value.diagnostics
        assert (d.message, d.span.column) == (message, column)

    def test_validation_errors_propagate(self):
        with pytest.raises(ValidationError) as ei:
            parse_rule("rule r dim 1 prototile A\n")
        assert any(d.code == "empty-level" for d in ei.value.diagnostics)

    def test_structural_faults_raise_while_parsing(self):
        # the constructor checks the structure, so parse_rule_text raises
        # the ValidationError that parse_rule raises, in the same order
        text = (
            "rule r dim 2\n"
            "prototile A cells (0,0) (2,0)\n"
            "prototile A\n"
            "prototile B volume 0\n"
            "level default: A = A\n"
        )
        with pytest.raises(ValidationError) as syntax_only:
            parse_rule_text(text)
        with pytest.raises(ValidationError) as full:
            parse_rule(text)
        assert syntax_only.value.diagnostics == full.value.diagnostics
        assert [d.code for d in full.value.diagnostics] == ["bad-shape", "duplicate-prototile", "bad-volume"]

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
    except ValidationError as e:
        # a rule whose structure its constructor rejects
        assert e.diagnostics


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(builtin_names()),
    pos=st.integers(min_value=0, max_value=4000),
    ch=st.characters(codec="ascii"),
)
def test_mutated_rule_files_parse_or_diagnose(name, pos, ch):
    """Single-character mutations either still parse, fail with a
    diagnostic whose span lies inside the text, or name a rule whose
    structure its constructor rejects."""
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
    except ValidationError as e:
        # say a prototile renamed to its neighbour's name
        assert e.diagnostics
    except RecursionError:
        pytest.fail("parser must not blow the stack on small inputs")


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=70000),
    data=st.data(),
    denominator=st.sampled_from((1, 3, 10**5000 + 1)),
)
def test_frac_str_writes_any_length(bits, data, denominator):
    # Decimal reads and writes integers of any length, so it checks the
    # halves that _frac_str joins past str()'s digit limit
    numerator = data.draw(st.integers(min_value=-(2**bits), max_value=2**bits))
    v = Fraction(numerator, denominator)
    want = str(Decimal(v.numerator)) if v.denominator == 1 else f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"
    assert _frac_str(v) == want
    # and _integer reads those digits back, leading zeros included
    digits = str(Decimal(abs(numerator)))
    assert _integer(digits) == _integer("0" * 700 + digits) == abs(numerator)


class TestNegativeLiterals:
    """Only a tree built in Python holds a negative literal; the parser
    reads none, as "-" is only binary."""

    def test_written_so_that_the_text_parses_to_the_same_levels(self):
        one, two = BinOp("+", Var(), Lit(-1)), BinOp("^", Lit(-2), Lit(2))
        rules = [
            FusionRule("r", 1, (Prototile("A"), Prototile("B")), (
                SupertileDef("A", (Placement("A", BinOp("-", one, Lit(-2))), Placement("B", two)), Cmp(">", Var(), Lit(-1))),
                SupertileDef("B", (Placement("A"),)),
            )),
            FusionRule("s", 2, (Prototile("P", cells=((0, 0),)),), (
                SupertileDef("P", (Placement("P", offset=(Lit(0), Lit(0))), Placement("P", offset=(BinOp("+", Dim("w", "P"), Lit(-1)), Lit(-2))))),
            )),
        ]
        assert "  A = A^(n+(0-1)-(0-2)) B^((0-2)^2) if n > (0-1)" in format_rule(rules[0]).splitlines()
        assert "  P = P P@(w(P)+(0-1),(0-2))" in format_rule(rules[1]).splitlines()
        for rule in rules:
            again = parse_rule(format_rule(rule))
            assert [resolve_level(again, n) for n in range(1, 7)] == [resolve_level(rule, n) for n in range(1, 7)]


class TestLongLiterals:
    """Integer literals past str()'s default 4300-digit limit, which is left
    as it is."""

    NINES = "9" * 5000

    def test_repeat_round_trips(self):
        limit = sys.get_int_max_str_digits()
        rule = parse_rule(
            f"rule r dim 1 prototile A prototile B level default: A = A^({self.NINES}) B if ispow({self.NINES}, n) A = A B B = A"
        )
        assert rule.definitions[0].body[0].repeat == Lit(10**5000 - 1)
        assert rule.definitions[0].guard == IsPow(10**5000 - 1, Var())
        text = format_rule(rule)
        assert f"  A = A^({self.NINES}) B if ispow({self.NINES},n)\n" in text
        assert parse_rule(text) == rule
        assert sys.get_int_max_str_digits() == limit

    def test_format_long_lit(self):
        limit = sys.get_int_max_str_digits()
        rule = FusionRule("f", 1, (Prototile("A"),), (SupertileDef("A", (Placement("A", Lit(10**5000)),)),))
        assert format_rule(rule) == "rule f dim 1\nprototile A\nlevel default:\n  A = A^(1" + "0" * 5000 + ")\n"
        assert sys.get_int_max_str_digits() == limit


def _nested(text, depth=10_000):
    return "(" * depth + text + ")" * depth


class TestDeepNesting:
    """Parentheses nested ten times past the default recursion limit cost
    the parser list entries, not stack frames."""

    @pytest.mark.parametrize(
        "text, line",
        [
            (f"rule r dim 1 prototile A prototile B level default: A = A^({_nested('n+1')}) B B = A", "  A = A^(n+1) B"),
            (f"rule r dim 2 prototile A level default: A = A A@({_nested('w(A)')},{_nested('0')})", "  A = A A@(w(A),0)"),
            (f"rule r dim 1 prototile A level {_nested('n >= 0')}: A = A A", "  A = A A if n >= 0"),
            (f"rule r dim 1 prototile A level default: A = A A if {_nested('(n) == 1')} or {_nested('n')} == 2 A = A", "  A = A A if n == 1 or n == 2"),
        ],
        ids=["repeat", "offset", "level", "if"],
    )
    def test_parse_format_round_trip_and_resolve(self, text, line):
        limit = sys.getrecursionlimit()
        start = time.perf_counter()
        rule = parse_rule(text)
        canonical = format_rule(rule)
        assert line in canonical.splitlines()
        assert parse_rule(canonical) == rule
        assert len(resolve_level(rule, 2).supertiles) == len(rule.prototiles)
        assert time.perf_counter() - start < 1
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize(
        "repeat, guard",
        [("+".join(["n"] * 100_000), "n >= 1"), ("n", " or ".join(f"n == {k}" for k in range(1, 10_001)))],
        ids=["sum", "or"],
    )
    def test_deep_trees_parse_format_round_trip_and_resolve(self, repeat, guard):
        # a left-deep tree of one node per term, which the parser builds flat
        limit = sys.getrecursionlimit()
        text = f"rule r dim 1 prototile A prototile B level default: A = A^({repeat}) B if {guard} A = B B = A\n"
        rule = parse_rule_text(text)
        canonical = format_rule(rule)
        assert f"  A = A^({repeat}) B if {guard}" in canonical.splitlines()
        assert format_rule(parse_rule_text(canonical)) == canonical
        terms = repeat.count("n")
        assert [resolve_level(rule, n).supertile("A").body[0].repeat for n in (1, 2, 3)] == [terms, 2 * terms, 3 * terms]
        assert sys.getrecursionlimit() == limit

    def test_unclosed_group_is_named_at_end_of_input(self):
        with pytest.raises(ParseError) as exc:
            parse_rule_text("rule r dim 1 prototile A level default: A = A if " + "(" * 10_000 + "n == 1")
        (d,) = exc.value.diagnostics
        assert d.message == "expected ')', found end of input"


# the incremental tokenizer that tracked line, column and byte offset per
# character: the oracle for _tokenize's starts and the spans _span builds


class _OracleToken(NamedTuple):
    kind: str
    value: str
    span: SourceSpan


def _oracle_tokenize(text: str) -> list[_OracleToken]:
    toks: list[_OracleToken] = []
    i = 0
    line, col, off = 1, 1, 0
    size = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col, off
        for _ in range(k):
            ch = text[i]
            off += len(ch.encode("utf-8"))
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < size:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":
            while i < size and text[i] != "\n":
                advance(1)
            continue
        span_start = SourceSpan(line, col, off, 1)
        if ch in _DIGITS:
            j = i
            while j < size and text[j] in _DIGITS:
                j += 1
            tok_text = text[i:j]
            toks.append(_OracleToken("int", tok_text, SourceSpan(line, col, off, len(tok_text))))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tok_text = text[i:j]
            toks.append(_OracleToken("ident", tok_text, SourceSpan(line, col, off, len(tok_text))))
            advance(j - i)
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            toks.append(_OracleToken("op", two, SourceSpan(line, col, off, 2)))
            advance(2)
            continue
        if ch in _ONE_CHAR_OPS:
            toks.append(_OracleToken("op", ch, span_start))
            advance(1)
            continue
        raise ParseError([
            ParseDiagnostic("error", f"unexpected character {ch!r}", span_start)
        ])
    toks.append(_OracleToken("eof", "", SourceSpan(line, col, off, 0)))
    return toks


class _OracleParser(_Parser):
    """The parser on the oracle's tokens, naming each by its own span."""

    def __init__(self, text: str):
        self.toks = _oracle_tokenize(text)
        self.pos = 0
        self.dimension = 1

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError([ParseDiagnostic("error", message, tok.span)])


def _outcome(parse):
    try:
        return "rule", parse()
    except ParseError as e:
        return "parse", e.diagnostics, str(e)
    except ValidationError as e:
        return "validation", e.diagnostics


_INSERTS = (*_TWO_CHAR_OPS, *_ONE_CHAR_OPS, "\r\n", "\n", " ", "#", "é", "²", "😀", "")


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(builtin_names()),
    edits=st.lists(
        st.tuples(st.integers(0, 4000), st.integers(0, 5), st.sampled_from(_INSERTS)),
        min_size=1,
        max_size=4,
    ),
)
def test_tokens_and_spans_match_the_incremental_oracle(name, edits):
    """Each edit deletes up to five characters and inserts an operator, a
    line break, a comment mark, a non-ASCII character or nothing."""
    text = builtin_text(name)
    for pos, cut, insert in edits:
        pos %= len(text) + 1
        text = text[:pos] + insert + text[pos + cut :]
    try:
        want = [(t.kind, t.value, t.span) for t in _oracle_tokenize(text)]
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            _tokenize(text)
        assert got.value.diagnostics == e.diagnostics
    else:
        assert [(t.kind, t.value, _span(text, t.start, len(t.value))) for t in _tokenize(text)] == want
    assert _outcome(lambda: parse_rule_text(text)) == _outcome(lambda: _OracleParser(text).parse_rule())


# The recursive-descent parser and the two formatters that _Parser._parse
# and _format replaced, kept as oracles. They read precedence from the call
# order of their methods and from two tables, and _guard_atom parses a
# parenthesized guard twice: as a comparison, then again as a guard.


class _RecursiveParser(_Parser):
    def parse_expr(self, allow_dims=True):
        return self._additive(allow_dims)

    def _additive(self, allow_dims):
        left = self._multiplicative(allow_dims)
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.take().value
            left = BinOp(op, left, self._multiplicative(allow_dims))
        return left

    def _multiplicative(self, allow_dims):
        left = self._power(allow_dims)
        while self.peek().kind == "op" and self.peek().value == "*":
            self.take()
            left = BinOp("*", left, self._power(allow_dims))
        return left

    def _power(self, allow_dims):
        base = self._primary(allow_dims)
        if self.peek().kind == "op" and self.peek().value == "^":
            self.take()
            return BinOp("^", base, self._power(allow_dims))
        return base

    def _primary(self, allow_dims):
        t = self.peek()
        if t.kind == "int":
            return Lit(self.expect_int()[0])
        if t.kind == "ident" and t.value == "n":
            self.take()
            return Var()
        if t.kind == "ident" and t.value in ("w", "h"):
            if not allow_dims:
                self.fail("w()/h() cannot appear in a guard")
            if t.value == "h" and self.dimension == 1:
                self.fail("h() is only available in dimension 2")
            axis = self.take().value
            self.expect_op("(")
            label = self.expect_name("label").value
            self.expect_op(")")
            return Dim(axis, label)
        if t.kind == "op" and t.value == "(":
            self.take()
            inner = self.parse_expr(allow_dims)
            self.expect_op(")")
            return inner
        found = t.value if t.kind != "eof" else "end of input"
        self.fail(f"expected an expression, found {found!r}")

    def parse_guard(self):
        return self._or_guard()

    def _or_guard(self):
        left = self._and_guard()
        while self.at_keyword("or"):
            self.take()
            left = Or(left, self._and_guard())
        return left

    def _and_guard(self):
        left = self._not_guard()
        while self.at_keyword("and"):
            self.take()
            left = And(left, self._not_guard())
        return left

    def _not_guard(self):
        if self.at_keyword("not"):
            self.take()
            return Not(self._not_guard())
        return self._guard_atom()

    def _guard_atom(self):
        t = self.peek()
        if self.at_keyword("default"):
            self.take()
            return Always()
        if self.at_keyword("ispow"):
            self.take()
            self.expect_op("(")
            base, base_tok = self.expect_int()
            if base < 2:
                self.fail("ispow base must be >= 2", base_tok)
            self.expect_op(",")
            e = self.parse_expr(allow_dims=False)
            self.expect_op(")")
            return IsPow(base, e)
        mark = self.pos
        try:
            left = self.parse_expr(allow_dims=False)
            op_tok = self.peek()
            if op_tok.kind == "op" and op_tok.value in ("==", "!=", "<", "<=", ">", ">="):
                self.take()
                right = self.parse_expr(allow_dims=False)
                return Cmp(op_tok.value, left, right)
            self.fail("expected a comparison operator", op_tok)
        except ParseError:
            self.pos = mark
            if t.kind == "op" and t.value == "(":
                self.take()
                inner = self.parse_guard()
                self.expect_op(")")
                return inner
            raise


_ORACLE_EXPR_PREC = {"+": 1, "-": 1, "*": 2, "^": 3}


def _oracle_expr_prec(e):
    return _ORACLE_EXPR_PREC[e.op] if isinstance(e, BinOp) else 9


def oracle_format_expr(e):
    if isinstance(e, Lit):
        # a negative literal as (0-k), which parses again
        return str(e.value) if e.value >= 0 else f"(0-{-e.value})"
    if isinstance(e, Var):
        return "n"
    if isinstance(e, Dim):
        return f"{e.axis}({e.label})"
    p = _ORACLE_EXPR_PREC[e.op]
    left = oracle_format_expr(e.left)
    right = oracle_format_expr(e.right)
    if e.op == "^":
        if _oracle_expr_prec(e.left) <= p:
            left = f"({left})"
        if _oracle_expr_prec(e.right) < p:
            right = f"({right})"
    else:
        if _oracle_expr_prec(e.left) < p:
            left = f"({left})"
        if _oracle_expr_prec(e.right) <= p:
            right = f"({right})"
    return f"{left}{e.op}{right}"


_ORACLE_GUARD_PREC = {Or: 1, And: 2, Not: 3}


def _oracle_guard_prec(g):
    return _ORACLE_GUARD_PREC.get(type(g), 9)


def oracle_format_guard(g):
    if isinstance(g, Always):
        return "default"
    if isinstance(g, Cmp):
        return f"{oracle_format_expr(g.left)} {g.op} {oracle_format_expr(g.right)}"
    if isinstance(g, IsPow):
        return f"ispow({g.base},{oracle_format_expr(g.exponent)})"
    if isinstance(g, Not):
        inner = oracle_format_guard(g.operand)
        if _oracle_guard_prec(g.operand) < 3:
            inner = f"({inner})"
        return f"not {inner}"
    word = "and" if isinstance(g, And) else "or"
    p = _oracle_guard_prec(g)
    left = oracle_format_guard(g.left)
    right = oracle_format_guard(g.right)
    if _oracle_guard_prec(g.left) < p:
        left = f"({left})"
    if _oracle_guard_prec(g.right) <= p:
        right = f"({right})"
    return f"{left} {word} {right}"


# The recursive evaluators that core._run replaced, kept as oracles: one
# call per node, and one isinstance ladder each.

_ORACLE_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def oracle_eval_expr(expr, n, dims=None):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return n
    if isinstance(expr, Dim):
        if dims is None or expr.label not in dims:
            raise UnknownDimensionError(expr.label)
        w, h = dims[expr.label]
        return w if expr.axis == "w" else h
    a = oracle_eval_expr(expr.left, n, dims)
    b = oracle_eval_expr(expr.right, n, dims)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    if b < 0:
        raise NegativeExponentError(b)
    return a**b


def oracle_eval_guard(guard, n):
    if isinstance(guard, Always):
        return True
    if isinstance(guard, Cmp):
        return _ORACLE_CMP[guard.op](oracle_eval_expr(guard.left, n), oracle_eval_expr(guard.right, n))
    if isinstance(guard, IsPow):
        v = oracle_eval_expr(guard.exponent, n)
        b = guard.base
        if v < b:
            return False
        while v % b == 0:
            v //= b
        return v == 1
    if isinstance(guard, Not):
        return not oracle_eval_guard(guard.operand, n)
    if isinstance(guard, And):
        return oracle_eval_guard(guard.left, n) and oracle_eval_guard(guard.right, n)
    return oracle_eval_guard(guard.left, n) or oracle_eval_guard(guard.right, n)


def expr_trees(axes="wh"):
    """Random expressions: literals >= 0, n, and w(A)/h(A) for each axis."""
    leaves = st.one_of(st.integers(0, 10**30).map(Lit), st.just(Var()), *(st.just(Dim(a, "A")) for a in axes))
    return st.recursive(
        leaves,
        lambda sub: st.builds(BinOp, st.sampled_from("+-*^"), sub, sub),
        max_leaves=12,
    )


_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

guard_trees = st.recursive(
    st.one_of(
        st.just(Always()),
        st.builds(Cmp, st.sampled_from(_CMP_OPS), expr_trees(""), expr_trees("")),
        st.builds(IsPow, st.integers(2, 12), expr_trees("")),
    ),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
    max_leaves=8,
)


def _read(text, guard, dimension=2):
    """The tree one parser reads from the whole of text."""
    p = _Parser(text)
    p.dimension = dimension
    tree = p.parse_guard() if guard else p.parse_expr()
    assert p.peek().kind == "eof"
    return tree


@settings(max_examples=300, deadline=None)
@given(tree=st.one_of(expr_trees(), guard_trees))
def test_format_matches_the_oracle_and_round_trips(tree):
    guard = not isinstance(tree, (Lit, Var, Dim, BinOp))
    text = (format_guard if guard else format_expr)(tree)
    assert text == (oracle_format_guard if guard else oracle_format_expr)(tree)
    assert _read(text, guard) == tree


def value_trees(axes="wh"):
    """Random expressions whose values stay small enough to compute:
    literals -2..3, n, w(A)/h(A) for each axis, and exponents that are
    leaves, so that a negative one raises NegativeExponentError."""
    leaves = st.one_of(st.integers(-2, 3).map(Lit), st.just(Var()), *(st.just(Dim(a, "A")) for a in axes))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(st.builds(BinOp, st.sampled_from("+-*"), sub, sub), st.builds(BinOp, st.just("^"), sub, leaves)),
        max_leaves=12,
    )


value_guards = st.recursive(
    st.one_of(
        st.just(Always()),
        st.builds(Cmp, st.sampled_from(_CMP_OPS), value_trees(""), value_trees("")),
        st.builds(IsPow, st.integers(2, 4), value_trees("")),
    ),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
    max_leaves=8,
)


def _result(call):
    """The value of call(), or the type of the error it raised."""
    try:
        return "=", call()
    except Exception as e:
        return "!", type(e)


def _evaluated(tree, n, dims, oracle=False):
    """(value or error, text) of tree, from the library or from the oracles."""
    if isinstance(tree, (Lit, Var, Dim, BinOp)):
        run, write = (oracle_eval_expr, oracle_format_expr) if oracle else (eval_expr, format_expr)
        return _result(lambda: run(tree, n, dims)), write(tree)
    run, write = (oracle_eval_guard, oracle_format_guard) if oracle else (eval_guard, format_guard)
    return _result(lambda: run(tree, n)), write(tree)


@settings(max_examples=400, deadline=None)
@given(
    tree=st.one_of(value_trees(), value_guards),
    n=st.integers(0, 6),
    dims=st.sampled_from((None, {"A": (3, 2)}, {"B": (3, 2)})),
)
def test_programs_match_the_recursive_oracles(tree, n, dims):
    assert _evaluated(tree, n, dims) == _evaluated(tree, n, dims, oracle=True)


def _deep_tree(rng, depth, guard):
    """A tree `depth` nodes deep: a spine of random operators, each node
    with a small random tree beside it, on either side."""

    def side():
        e = rng.choice((Lit(rng.randint(-2, 3)), Var()))
        if rng.random() < 0.5:
            e = BinOp(rng.choice("+-*^"), e, Lit(rng.randint(0, 2)))
        if not guard:
            return e
        return rng.choice((Cmp(rng.choice(_CMP_OPS), e, Var()), IsPow(rng.randint(2, 4), e)))

    tree = side()
    for _ in range(depth):
        if guard:
            node = rng.choice((Not, And, Or))
            if node is Not:
                tree = Not(tree)
                continue
        else:
            node = lambda left, right: BinOp(rng.choice("+-+-+-*"), left, right)  # noqa: E731
        tree = node(tree, side()) if rng.random() < 0.5 else node(side(), tree)
    return tree


@pytest.mark.parametrize("guard", [False, True], ids=["expr", "guard"])
def test_a_deep_tree_matches_the_recursive_oracles(guard):
    # seed 2 gives values that change with n, guards included
    tree = _deep_tree(random.Random(2), 10_000, guard)
    limit = sys.getrecursionlimit()
    got = [_evaluated(tree, n, None) for n in range(6)]
    assert sys.getrecursionlimit() == limit
    # the oracles recurse once per node, so they alone get a higher limit
    sys.setrecursionlimit(limit + 20_000)
    try:
        want = [_evaluated(tree, n, None, oracle=True) for n in range(6)]
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_guards_short_circuit():
    # evaluated whole, the right side raises NegativeExponentError at n = 1
    guard = _read("n > 3 and 2^(n-4) == 1", True)
    assert [eval_guard(guard, n) for n in (1, 4, 5)] == [False, True, False]
    assert eval_guard(Or(Cmp("<", Var(), Lit(4)), guard), 1) is True


@st.composite
def tree_rules(draw):
    """Random rules of either dimension whose repeats or offsets and guards
    are random trees, h() in dimension 2 only. Their structure is valid,
    whether or not their levels resolve."""
    dimension = draw(st.sampled_from((1, 2)))
    names = ("A", "B")
    if dimension == 1:
        placement = st.builds(Placement, st.sampled_from(names), expr_trees("w"))
        prototiles = tuple(Prototile(name) for name in names)
    else:
        offset = st.tuples(expr_trees(), expr_trees())
        placement = st.builds(Placement, st.sampled_from(names), st.just(Lit(1)), offset)
        prototiles = tuple(Prototile(name, cells=((0, 0),)) for name in names)
    definitions = tuple(
        SupertileDef(name, tuple(draw(st.lists(placement, min_size=1, max_size=2))), draw(guard_trees))
        for name in names
    )
    return FusionRule("trees", dimension, prototiles, definitions)


_EXPRS = (Lit, Var, Dim, BinOp)
_GUARDS = (Always, Cmp, IsPow, Not, And, Or)


def _broken(data, tree, where):
    """tree with the node at a drawn depth replaced by one that cannot stand
    there; where is "guard", "expr" or "1d" (an expression in dimension 1)."""
    subtrees = [f.name for f in dataclasses.fields(tree) if isinstance(getattr(tree, f.name), _EXPRS + _GUARDS)]
    if subtrees and data.draw(st.booleans()):
        name = data.draw(st.sampled_from(subtrees))
        return dataclasses.replace(tree, **{name: _broken(data, getattr(tree, name), where)})
    if isinstance(tree, _GUARDS):
        bad = (True, Lit(1), Var(), Cmp("<>", Var(), Lit(1)), IsPow(2.5, Var()))
    else:
        bad = (Lit(1.5), Lit(True), 3, "n", BinOp("%", Var(), Lit(1)), Always(), Dim("x", "A"), Dim("w", 3))
        bad += {"guard": (Dim("w", "A"),), "1d": (Dim("h", "A"),), "expr": ()}[where]
    return data.draw(st.sampled_from(bad))


@settings(max_examples=150, deadline=None)
@given(rule=tree_rules(), data=st.data())
def test_a_broken_tree_is_a_validation_error(rule, data):
    """One node broken at a drawn depth of one tree of a valid rule (it was
    built, so none is rejected): building the rule raises ValidationError
    naming that tree's kind and its definition, never a bare error."""
    k = data.draw(st.integers(0, len(rule.definitions) - 1))
    d = rule.definitions[k]
    part = data.draw(st.sampled_from(("guard", "tree", "child")))
    if part == "guard":
        d = dataclasses.replace(d, guard=_broken(data, d.guard, "guard"))
        code = "bad-guard"
    else:
        i = data.draw(st.integers(0, len(d.body) - 1))
        p = d.body[i]
        if part == "child":
            p = dataclasses.replace(p, child=data.draw(st.sampled_from((3, None, ("A",)))))
            code = "bad-child"
        elif rule.dimension == 1:
            p = dataclasses.replace(p, repeat=_broken(data, p.repeat, "1d"))
            code = "bad-expr"
        else:
            a = data.draw(st.integers(0, 1))
            offset = list(p.offset)
            offset[a] = _broken(data, offset[a], "expr")
            p = dataclasses.replace(p, offset=tuple(offset))
            code = "bad-expr"
        d = dataclasses.replace(d, body=d.body[:i] + (p,) + d.body[i + 1 :])
    definitions = rule.definitions[:k] + (d,) + rule.definitions[k + 1 :]
    with pytest.raises(ValidationError) as exc:
        dataclasses.replace(rule, definitions=definitions)
    assert [(e.code, e.label) for e in exc.value.diagnostics] == [(code, d.label)]


# one token each, as the tokenizer splits text; "w(A)" and "ispow(" are two
_VOCABULARY = (
    "n", "0", "1", "12", "w(A)", "h(A)", "default", "ispow(",
    "+", "-", "*", "^", "==", "!=", "<", "<=", ">", ">=",
    "and", "or", "not", "(", ")", ",", ":", "@",
)

_CONTEXTS = (
    "rule r dim 1 prototile A level {}: A = A\n",
    "rule r dim 1 prototile A level default: A = A if {}\n",
    "rule r dim 1 prototile A level default: A = A^({}) A\n",
    "rule r dim 2 prototile A level default: A = A A@({},1)\n",
)


def _mutate(data, text):
    """text with up to two tokens inserted, deleted or replaced, or a run
    of tokens wrapped in one pair of parentheses."""
    words = [t.value for t in _tokenize(text)[:-1]]
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(words)))
        edit = data.draw(st.sampled_from(("insert", "delete", "replace", "wrap")))
        if edit == "insert":
            words.insert(i, data.draw(st.sampled_from(_VOCABULARY)))
        elif edit == "wrap":
            j = data.draw(st.integers(i, len(words)))
            words[i:j] = ["(", *words[i:j], ")"]
        elif i < len(words):
            words[i : i + 1] = [data.draw(st.sampled_from(_VOCABULARY))] if edit == "replace" else []
    return " ".join(words)


def _declared_move(old, new):
    """The one class where the parsers differ: a parenthesized expression
    where a guard may stand, with no comparison after it. The oracle fails
    its second, guard-mode attempt at a ")" with "expected a comparison
    operator"; _parse reports where parsing stops, which is later."""
    if old[0] != "parse" or new[0] != "parse":
        return False
    (o,), (d,) = old[1], new[1]
    return o.message == "expected a comparison operator" and d.span.offset > o.span.offset


def _assert_parsers_agree(text):
    for context in _CONTEXTS:
        rule_text = context.format(text)
        new = _outcome(lambda: _Parser(rule_text).parse_rule())
        old = _outcome(lambda: _RecursiveParser(rule_text).parse_rule())
        assert new == old or _declared_move(old, new), rule_text


@settings(max_examples=400, deadline=None)
@given(tree=st.one_of(expr_trees(), guard_trees), data=st.data())
def test_parse_matches_the_recursive_oracle(tree, data):
    guard = not isinstance(tree, (Lit, Var, Dim, BinOp))
    _assert_parsers_agree(_mutate(data, (format_guard if guard else format_expr)(tree)))


@pytest.mark.parametrize(
    "text",
    [
        "(n) == 1", "((n)) == (1)", "(n == 1)", "((n) == 1)", "(n + 1) * 2 < n",
        "not (n) == 1", "(not n == 1)", "(not n)", "(not n) == 1", "(n == 1 and n)", "(n == 1 and n) == 1",
        "(default)", "(default) + 1", "(n == 1) + 1", "(n == 1) == 1",
        "n == 1 == 2", "(n == 1 == 2)", "n == (1 == 2)", "n and n == 1",
        "(ispow(2,n))", "ispow(2,(n)) == 1", "ispow(2,n == 1)", "(1)", "((n) :",
        "2^3^2 == n", "(2^3)^2 == n", "n - 1 - 1 == n", "n - (1 - 1) == n",
    ],
)
def test_grammar_edges_match_the_recursive_oracle(text):
    _assert_parsers_agree(text)

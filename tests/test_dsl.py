import sys
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
from fusionlab.errors import ParseError, ValidationError, _frac_str, _integer


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

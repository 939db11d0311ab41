"""Parser and canonical formatter for the rule file format.

Grammar (whitespace-insensitive, # comments to end of line):

    rule      := "rule" IDENT "dim" ("1"|"2") proto* levelblock*
    proto     := "prototile" IDENT ["volume" RATIONAL] ["cells" cell+]
    cell      := "(" INT "," INT ")"
    levelblock:= "level" guard ":" def+
    def       := IDENT "=" placement+ ["if" guard | "otherwise"]
    placement := IDENT ["^" "(" expr ")"] ["@" "(" expr "," expr ")"]
    guard     := or-combination of comparisons, ispow(INT, expr), "default",
                 with not/and/or precedence and parentheses
    expr      := INT | "n" | "w(" IDENT ")" | "h(" IDENT ")"
               | expr ("+"|"-"|"*"|"^") expr | "(" expr ")"

Cells and volumes only make sense in the dimension that declares them;
offsets ("@") exist only in dimension 2 and default to (0,0) for the first
placement of a body. A definition inside `level G:` with its own `if H`
clause is active where both hold.

format_rule emits a canonical text (single level block, one definition per
line, normalized spacing) and parse_rule(format_rule(r)) reproduces r
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import core
from .core import (
    Always,
    And,
    BinOp,
    Cmp,
    Dim,
    FusionRule,
    Guard,
    IntExpr,
    IsPow,
    Lit,
    Not,
    Or,
    Placement,
    Prototile,
    SupertileDef,
    Var,
)
from .errors import ParseError, ValidationError

RESERVED = {
    "rule", "dim", "prototile", "volume", "cells", "level",
    "if", "otherwise", "default", "and", "or", "not", "ispow",
    "n", "w", "h",
}


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token: 1-based line/column, 0-based byte offset."""

    line: int
    column: int
    offset: int
    length: int


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.severity} at line {self.span.line}, column {self.span.column}: {self.message}"


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | op | eof
    value: str
    span: SourceSpan


_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_ONE_CHAR_OPS = "=^@(),:/+-*<>"
# ASCII only: str.isdigit also takes characters such as "²" that int() rejects
_DIGITS = "0123456789"


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
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
            toks.append(_Token("int", tok_text, SourceSpan(line, col, off, len(tok_text))))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tok_text = text[i:j]
            toks.append(_Token("ident", tok_text, SourceSpan(line, col, off, len(tok_text))))
            advance(j - i)
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            toks.append(_Token("op", two, SourceSpan(line, col, off, 2)))
            advance(2)
            continue
        if ch in _ONE_CHAR_OPS:
            toks.append(_Token("op", ch, span_start))
            advance(1)
            continue
        raise ParseError([
            ParseDiagnostic("error", f"unexpected character {ch!r}", span_start)
        ])
    toks.append(_Token("eof", "", SourceSpan(line, col, off, 0)))
    return toks


class _Parser:
    def __init__(self, tokens: list[_Token], dimension_hint: int = 1):
        self.toks = tokens
        self.pos = 0
        self.dimension = dimension_hint

    def peek(self, k: int = 0) -> _Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError([ParseDiagnostic("error", message, tok.span)])

    def expect_op(self, value: str) -> _Token:
        t = self.peek()
        if t.kind != "op" or t.value != value:
            self.fail(f"expected {value!r}, found {t.value!r}" if t.kind != "eof" else f"expected {value!r}, found end of input")
        return self.take()

    def expect_keyword(self, word: str) -> _Token:
        t = self.peek()
        if t.kind != "ident" or t.value != word:
            found = t.value if t.kind != "eof" else "end of input"
            self.fail(f"expected {word!r}, found {found!r}")
        return self.take()

    def expect_name(self, what: str) -> _Token:
        t = self.peek()
        if t.kind != "ident":
            found = t.value if t.kind != "eof" else "end of input"
            self.fail(f"expected {what}, found {found!r}")
        if t.value in RESERVED:
            self.fail(f"{t.value!r} is a reserved word and cannot name a {what}")
        return self.take()

    def expect_int(self) -> tuple[int, _Token]:
        t = self.peek()
        if t.kind != "int":
            self.fail(f"expected an integer, found {t.value!r}")
        return int(t.value), self.take()

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.value == word

    # -- expressions --------------------------------------------------------

    def parse_expr(self, allow_dims: bool = True) -> IntExpr:
        return self._additive(allow_dims)

    def _additive(self, allow_dims: bool) -> IntExpr:
        left = self._multiplicative(allow_dims)
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.take().value
            left = BinOp(op, left, self._multiplicative(allow_dims))
        return left

    def _multiplicative(self, allow_dims: bool) -> IntExpr:
        left = self._power(allow_dims)
        while self.peek().kind == "op" and self.peek().value == "*":
            self.take()
            left = BinOp("*", left, self._power(allow_dims))
        return left

    def _power(self, allow_dims: bool) -> IntExpr:
        base = self._primary(allow_dims)
        if self.peek().kind == "op" and self.peek().value == "^":
            self.take()
            return BinOp("^", base, self._power(allow_dims))
        return base

    def _primary(self, allow_dims: bool) -> IntExpr:
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

    # -- guards -------------------------------------------------------------

    def parse_guard(self) -> Guard:
        return self._or_guard()

    def _or_guard(self) -> Guard:
        left = self._and_guard()
        while self.at_keyword("or"):
            self.take()
            left = Or(left, self._and_guard())
        return left

    def _and_guard(self) -> Guard:
        left = self._not_guard()
        while self.at_keyword("and"):
            self.take()
            left = And(left, self._not_guard())
        return left

    def _not_guard(self) -> Guard:
        if self.at_keyword("not"):
            self.take()
            return Not(self._not_guard())
        return self._guard_atom()

    def _guard_atom(self) -> Guard:
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
        # Either a comparison or a parenthesized guard; try the comparison
        # first and fall back, because both can begin with "(".
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

    # -- structure ----------------------------------------------------------

    def parse_rule(self) -> FusionRule:
        self.expect_keyword("rule")
        name = self.expect_name("rule name").value
        self.expect_keyword("dim")
        dim_val, dim_tok = self.expect_int()
        if dim_val not in (1, 2):
            self.fail("dim must be 1 or 2", dim_tok)
        self.dimension = dim_val

        prototiles: list[Prototile] = []
        while self.at_keyword("prototile"):
            prototiles.append(self._parse_prototile())

        definitions: list[SupertileDef] = []
        while self.at_keyword("level"):
            definitions.extend(self._parse_levelblock())

        t = self.peek()
        if t.kind != "eof":
            self.fail(f"expected 'level' or end of input, found {t.value!r}")
        return FusionRule(name, dim_val, tuple(prototiles), tuple(definitions))

    def _parse_prototile(self) -> Prototile:
        self.expect_keyword("prototile")
        name = self.expect_name("prototile name").value
        volume: Optional[Fraction] = None
        cells: Optional[tuple[tuple[int, int], ...]] = None
        if self.at_keyword("volume"):
            self.take()
            p, _ = self.expect_int()
            q = 1
            if self.peek().kind == "op" and self.peek().value == "/":
                self.take()
                q, q_tok = self.expect_int()
                if q == 0:
                    self.fail("volume denominator cannot be 0", q_tok)
            volume = Fraction(p, q)
        if self.at_keyword("cells"):
            cells_tok = self.take()
            if self.dimension == 1:
                self.fail("cells are only declared in dimension 2", cells_tok)
            acc = []
            while self.peek().kind == "op" and self.peek().value == "(":
                self.take()
                x, _ = self.expect_int()
                self.expect_op(",")
                y, _ = self.expect_int()
                self.expect_op(")")
                acc.append((x, y))
            if not acc:
                self.fail("expected at least one cell after 'cells'")
            minx = min(c[0] for c in acc)
            miny = min(c[1] for c in acc)
            cells = tuple(sorted((x - minx, y - miny) for x, y in acc))
        if self.dimension == 2 and cells is None:
            cells = ((0, 0),)
        if volume is None:
            volume = Fraction(len(cells)) if cells is not None else Fraction(1)
        return Prototile(name, volume, cells)

    def _parse_levelblock(self) -> list[SupertileDef]:
        self.expect_keyword("level")
        block_guard = self.parse_guard()
        self.expect_op(":")
        defs: list[SupertileDef] = []
        while self.peek().kind == "ident" and self.peek().value not in RESERVED \
                and self.peek(1).kind == "op" and self.peek(1).value == "=":
            defs.append(self._parse_def(block_guard))
        if not defs:
            self.fail("expected at least one definition after 'level ...:'")
        return defs

    def _parse_def(self, block_guard: Guard) -> SupertileDef:
        label = self.expect_name("supertile label").value
        self.expect_op("=")
        body: list[Placement] = []
        first = True
        while True:
            t = self.peek()
            if t.kind != "ident" or t.value in RESERVED:
                break
            if self.peek(1).kind == "op" and self.peek(1).value == "=":
                break  # next definition starts here
            body.append(self._parse_placement(first))
            first = False
        if not body:
            self.fail("expected at least one placement")
        guard: Guard
        if self.at_keyword("if"):
            self.take()
            guard = self.parse_guard()
        elif self.at_keyword("otherwise"):
            self.take()
            guard = Always()
        else:
            guard = Always()
        if not isinstance(block_guard, Always):
            guard = block_guard if isinstance(guard, Always) else And(block_guard, guard)
        return SupertileDef(label, tuple(body), guard)

    def _parse_placement(self, first: bool) -> Placement:
        child_tok = self.expect_name("child label")
        repeat: IntExpr = Lit(1)
        offset: Optional[tuple[IntExpr, IntExpr]] = None
        if self.peek().kind == "op" and self.peek().value == "^":
            self.take()
            self.expect_op("(")
            repeat = self.parse_expr()
            self.expect_op(")")
        if self.peek().kind == "op" and self.peek().value == "@":
            at_tok = self.take()
            if self.dimension == 1:
                self.fail("offsets are only available in dimension 2", at_tok)
            self.expect_op("(")
            ex = self.parse_expr()
            self.expect_op(",")
            ey = self.parse_expr()
            self.expect_op(")")
            offset = (ex, ey)
        if self.dimension == 2 and offset is None:
            if not first:
                self.fail(
                    f"placement of {child_tok.value!r} needs an offset; "
                    "only the first placement may omit it",
                    child_tok,
                )
            offset = (Lit(0), Lit(0))
        return Placement(child_tok.value, repeat, offset)


def parse_rule_text(text: str) -> FusionRule:
    """Syntax-only parse; raises ParseError with source spans."""
    return _Parser(_tokenize(text)).parse_rule()


def parse_rule(text: str, depth: int = 64) -> FusionRule:
    """Parse and validate a rule text.

    Validation resolves levels 1..depth; its diagnostics are raised as a
    ValidationError. Syntax problems raise ParseError.
    """
    rule = parse_rule_text(text)
    diags = core.validate_rule(rule, depth)
    if diags:
        raise ValidationError(diags)
    return rule


# ---------------------------------------------------------------------------
# Canonical formatting
# ---------------------------------------------------------------------------

_EXPR_PREC = {"+": 1, "-": 1, "*": 2, "^": 3}


def _expr_prec(e: IntExpr) -> int:
    return _EXPR_PREC[e.op] if isinstance(e, BinOp) else 9


def format_expr(e: IntExpr) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return "n"
    if isinstance(e, Dim):
        return f"{e.axis}({e.label})"
    if isinstance(e, BinOp):
        p = _EXPR_PREC[e.op]
        left = format_expr(e.left)
        right = format_expr(e.right)
        if e.op == "^":
            # right-associative
            if _expr_prec(e.left) <= p:
                left = f"({left})"
            if _expr_prec(e.right) < p:
                right = f"({right})"
        else:
            if _expr_prec(e.left) < p:
                left = f"({left})"
            if _expr_prec(e.right) <= p:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an IntExpr: {e!r}")


_GUARD_PREC = {Or: 1, And: 2, Not: 3}


def _guard_prec(g: Guard) -> int:
    return _GUARD_PREC.get(type(g), 9)


def format_guard(g: Guard) -> str:
    if isinstance(g, Always):
        return "default"
    if isinstance(g, Cmp):
        return f"{format_expr(g.left)} {g.op} {format_expr(g.right)}"
    if isinstance(g, IsPow):
        return f"ispow({g.base},{format_expr(g.exponent)})"
    if isinstance(g, Not):
        inner = format_guard(g.operand)
        if _guard_prec(g.operand) < 3:
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(g, (And, Or)):
        word = "and" if isinstance(g, And) else "or"
        p = _guard_prec(g)
        left = format_guard(g.left)
        right = format_guard(g.right)
        if _guard_prec(g.left) < p:
            left = f"({left})"
        if _guard_prec(g.right) <= p:
            right = f"({right})"
        return f"{left} {word} {right}"
    raise TypeError(f"not a Guard: {g!r}")


def _format_volume(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _format_placement(p: Placement, first: bool) -> str:
    s = p.child
    if p.repeat != Lit(1):
        s += f"^({format_expr(p.repeat)})"
    if p.offset is not None and not (first and p.offset == (Lit(0), Lit(0))):
        s += f"@({format_expr(p.offset[0])},{format_expr(p.offset[1])})"
    return s


def format_rule(rule: FusionRule) -> str:
    """Emit the canonical text for a rule.

    The canonical form has one `level default:` block with each definition
    carrying its own guard, prototile cells sorted and anchored at (0,0),
    and defaulted fields (volume, unit cell, first offset (0,0), repeat 1)
    omitted. parse_rule(format_rule(r)) == r.
    """
    lines = [f"rule {rule.name} dim {rule.dimension}"]
    for p in rule.prototiles:
        line = f"prototile {p.name}"
        default_volume = Fraction(len(p.cells)) if p.cells is not None else Fraction(1)
        if p.volume != default_volume:
            line += f" volume {_format_volume(p.volume)}"
        if p.cells is not None and p.cells != ((0, 0),):
            line += " cells " + " ".join(f"({x},{y})" for x, y in p.cells)
        lines.append(line)
    if rule.definitions:
        lines.append("level default:")
        for d in rule.definitions:
            body = " ".join(
                _format_placement(p, i == 0) for i, p in enumerate(d.body)
            )
            line = f"  {d.label} = {body}"
            if not isinstance(d.guard, Always):
                line += f" if {format_guard(d.guard)}"
            lines.append(line)
    return "\n".join(lines) + "\n"

"""Parser and canonical formatter for the rule file format.

Grammar (whitespace-insensitive, # comments to end of line):

    rule      := "rule" IDENT "dim" ("1"|"2") proto* levelblock*
    proto     := "prototile" IDENT ["volume" RATIONAL] ["cells" cell+]
    cell      := "(" INT "," INT ")"
    levelblock:= "level" guard ":" def+
    def       := IDENT "=" placement+ ["if" guard | "otherwise"]
    placement := IDENT ["^" "(" expr ")"] (dim 1) | IDENT ["@" "(" expr "," expr ")"] (dim 2)
    guard     := expr CMP expr | "ispow(" INT "," expr ")" | "default"
               | "not" guard | guard ("and"|"or") guard | "(" guard ")"
    expr      := INT | "n" | "w(" IDENT ")" | "h(" IDENT ")"
               | expr ("+"|"-"|"*"|"^") expr | "(" expr ")"
    CMP       := "==" | "!=" | "<" | "<=" | ">" | ">="

One table, _PREC, ranks every operator from loosest to tightest: "or",
"and", "not" (the only prefix operator), the comparisons, "+" and "-",
"*", then "^", the only one that groups to the right (2^3^2 is 2^(3^2)).
The others group to the left, and comparisons do not chain. The parser
reads expressions and guards in one loop on explicit stacks, so nesting
costs no stack frames. The formatter writes a tree from its flat program
(core._compile) in one loop too, parenthesizing from the same table.

Repeats ("^") exist only in dimension 1, where a tile is one cell. Cells
and offsets ("@") exist only in dimension 2, where a placement is one child
at one offset; the first placement of a body defaults to (0,0). A
definition inside `level G:` with its own `if H` clause is active where
both hold.

INT is a run of ASCII digits of any length. A token keeps only its index
into the text; a ParseDiagnostic's line, column and byte offset are
computed for the one token it names.

format_rule emits a canonical text (single level block, one definition per
line, normalized spacing), and parse_rule(format_rule(r)) reproduces r
exactly for every tree the parser can build. A negative literal, which
only a tree built in Python holds, is written (0-k): it reads back as a
subtraction of the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, NamedTuple, Optional

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
from .errors import ParseError, ValidationError, _decimal, _frac_str, _integer

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


class _Token(NamedTuple):
    kind: str  # ident | int | op | eof
    value: str
    start: int  # index into the text


_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_ONE_CHAR_OPS = "=^@(),:/+-*<>"
# ASCII only: str.isdigit also takes characters such as "²" that int() rejects
_DIGITS = "0123456789"


def _span(text: str, start: int, length: int) -> SourceSpan:
    """The span of `length` characters at index `start`, for a diagnostic.
    The byte offset counts a lone surrogate, which a str built in Python
    can hold, as the three bytes UTF-8 would give its code point."""
    column = start - text.rfind("\n", 0, start)
    return SourceSpan(text.count("\n", 0, start) + 1, column, len(text[:start].encode("utf-8", "surrogatepass")), length)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == "#":
            i = text.find("\n", i)
            if i < 0:
                i = size
        elif ch in _DIGITS:
            j = i + 1
            while j < size and text[j] in _DIGITS:
                j += 1
            toks.append(_Token("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], i))
            i = j
        elif text[i : i + 2] in _TWO_CHAR_OPS:
            toks.append(_Token("op", text[i : i + 2], i))
            i += 2
        elif ch in _ONE_CHAR_OPS:
            toks.append(_Token("op", ch, i))
            i += 1
        else:
            raise ParseError([
                ParseDiagnostic("error", f"unexpected character {ch!r}", _span(text, i, 1))
            ])
    toks.append(_Token("eof", "", size))
    return toks


# Operator precedence, loosest first; "not" is the only prefix operator and
# "^" the only one that groups to the right. Parser and formatter share it.
_PREC = {
    "or": 1, "and": 2, "not": 3,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "^": 7,
}
_NODES = {"or": Or, "and": And, "not": Not}


def _reduce(op: str, operands: list) -> None:
    """Replace the operands on top of the stack with op applied to them."""
    if op == "not":
        operands[-1] = Not(operands[-1])
        return
    right = operands.pop()
    if op in _NODES:
        operands[-1] = _NODES[op](operands[-1], right)
    else:
        operands[-1] = (Cmp if _PREC[op] == 4 else BinOp)(op, operands[-1], right)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.dimension = 1

    def peek(self, k: int = 0) -> _Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError([ParseDiagnostic("error", message, _span(self.text, tok.start, len(tok.value)))])

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
        return _integer(t.value), self.take()

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.value == word

    # -- expressions and guards ---------------------------------------------

    def parse_expr(self) -> IntExpr:
        return self._parse(False)

    def parse_guard(self) -> Guard:
        return self._parse(True)

    def _parse(self, guard: bool):
        """One guard, or one expression when guard is False, read from _PREC
        with explicit operand and operator stacks (Dijkstra's shunting-yard),
        so nesting costs list entries, not stack frames.

        `state` says what the innermost open group holds after an operand:
        "e" an expression where no comparison may stand, "g" a guard, "r"
        the right side of a comparison, "x" an expression that began the
        group, which may close it or begin a comparison, and "l" any other
        expression, which must begin a comparison. A "(" where a guard may
        stand holds either kind, decided at its ")", so no token is read
        twice. An open group is a tuple on `ops`: the state its ")" leaves
        when it holds an expression, and the base of an ispow or None.
        """
        toks = self.toks
        pos = self.pos
        operands: list = []
        ops: list = []
        state = "e"
        may_guard = guard
        while True:
            # an operand, after any "not"s and opening groups
            t = toks[pos]
            value = t.value
            if may_guard:
                state = "x" if not ops or type(ops[-1]) is tuple else "l"
            if value == "(" and t.kind == "op":
                ops.append((state, None))
                pos += 1
                state = "e"
                continue
            if may_guard and t.kind == "ident" and value in ("not", "ispow", "default"):
                pos += 1
                if value == "not":
                    ops.append("not")
                    continue
                if value == "ispow":
                    self.pos = pos
                    self.expect_op("(")
                    base, base_tok = self.expect_int()
                    if base < 2:
                        self.fail("ispow base must be >= 2", base_tok)
                    self.expect_op(",")
                    pos = self.pos
                    ops.append(("g", base))
                    state = "e"
                    may_guard = False
                    continue
                operands.append(Always())
                state = "g"
            else:
                self.pos = pos
                operands.append(self._atom(t, not guard))
                pos = self.pos
            # binary operators, and the ")" of each group they complete
            while True:
                t = toks[pos]
                value = t.value
                p = _PREC.get(value, 0)
                if p > 4 and state != "g" or p == 4 and state in "xl" or 0 < p < 3 and state in "gr":
                    while ops and type(ops[-1]) is str and _PREC[ops[-1]] >= p + (value == "^"):
                        _reduce(ops.pop(), operands)
                    ops.append(value)
                    pos += 1
                    if p == 4:
                        state = "r"
                    may_guard = p < 3
                    break
                while ops and type(ops[-1]) is str:
                    _reduce(ops.pop(), operands)
                if state == "l" or state == "x" and not (ops and value == ")"):
                    self.fail("expected a comparison operator", t)
                if not ops:
                    self.pos = pos
                    return operands[0]
                if value != ")":
                    self.pos = pos
                    self.expect_op(")")
                pos += 1
                outer, base = ops.pop()
                state = outer if state in "ex" else "g"
                if base is not None:
                    operands[-1] = IsPow(base, operands[-1])

    def _atom(self, t: _Token, allow_dims: bool) -> IntExpr:
        """The literal, n, w(label) or h(label) that starts at token t."""
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
        found = t.value if t.kind != "eof" else "end of input"
        self.fail(f"expected an expression, found {found!r}")

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
            caret_tok = self.take()
            if self.dimension == 2:
                self.fail("repeats are only available in dimension 1", caret_tok)
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
    """Parse without resolving levels. Syntax problems raise ParseError
    with source spans; a rule whose structure is invalid raises the
    ValidationError of its constructor (see FusionRule)."""
    return _Parser(text).parse_rule()


def parse_rule(text: str, depth: int = 64) -> FusionRule:
    """Parse and validate a rule text.

    Syntax problems raise ParseError and structural ones the constructor's
    ValidationError; then validation resolves levels 1..depth, and its
    diagnostics are raised as a ValidationError.
    """
    rule = parse_rule_text(text)
    diags = core.validate_rule(rule, depth)
    if diags:
        raise ValidationError(diags)
    return rule


# ---------------------------------------------------------------------------
# Canonical formatting
# ---------------------------------------------------------------------------

def _format(program: tuple) -> str:
    """Canonical text of a compiled expression or guard (see core._compile),
    from a stack of (pieces, rank in _PREC, or 8 for an atom). An operand is
    parenthesized when it binds looser than its operator, or as loose on
    the side its operator does not group to. A negative literal, which only
    a tree built in Python holds, is written (0-k), of the same value.

    An operator's pieces are a list that holds its operands' lists, not
    their text, so each node costs the same whatever its depth. The text is
    joined once, from the pieces read off in order by an explicit stack.
    """
    stack: list[tuple[Any, int]] = []
    ends: list[tuple[int, str]] = []  # (position of its last operand op, operator) of each open operator
    for i, (op, arg) in enumerate(program, 1):
        if op == "lit":
            stack.append((_decimal(arg) if arg >= 0 else f"(0-{_decimal(-arg)})", 8))
        elif op == "var":
            stack.append(("n", 8))
        elif op == "dim":
            stack.append((f"{'wh'[arg[1]]}({arg[0]})", 8))
        elif op == "default":
            stack.append(("default", 8))
        elif op == "ispow":
            stack[-1] = ([f"ispow({_decimal(arg)},", stack[-1][0], ")"], 8)
        elif op == "not":
            text, rank = stack[-1]
            stack[-1] = (["not (", text, ")"] if rank < 3 else ["not ", text], 3)
        else:  # a binary operator, or an "and"/"or" that joins once its right operand is read
            ends.append((i + (arg or 0), op))
        while ends and ends[-1][0] == i:
            op = ends.pop()[1]
            (left, r), (right, q) = stack[-2], stack.pop()
            p = _PREC[op]
            if r < p + (op == "^"):
                left = ["(", left, ")"]
            if q <= p - (op == "^"):
                right = ["(", right, ")"]
            stack[-1] = ([left, op if p > 4 else f" {op} ", right], p)
    out: list[str] = []
    todo = [stack[0][0]]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            todo += reversed(piece)
    return "".join(out)


def format_expr(expr: IntExpr) -> str:
    """Canonical text of an integer expression."""
    return _format(core._compile(expr, False))


def format_guard(guard: Guard) -> str:
    """Canonical text of a guard."""
    return _format(core._compile(guard, True))


def _format_placement(child: str, repeat: tuple, offset: Optional[tuple], first: bool) -> str:
    """Text of a placement from its programs, as the rule keeps them."""
    s = child
    if repeat != _ONE:
        s += f"^({_format(repeat)})"
    if offset is not None and not (first and offset == (_ZERO, _ZERO)):
        s += f"@({_format(offset[0])},{_format(offset[1])})"
    return s


# The programs of the defaults format_rule leaves out: repeat 1, a first
# offset (0, 0) and the guard that always holds.
_ONE = (("lit", 1),)
_ZERO = (("lit", 0),)
_ALWAYS = (("default", True),)


def format_rule(rule: FusionRule) -> str:
    """Emit the canonical text for a rule.

    The canonical form has one `level default:` block with each definition
    carrying its own guard, prototile cells sorted and anchored at (0,0),
    and defaulted fields (volume, unit cell, first offset (0,0), repeat 1)
    omitted. parse_rule(format_rule(r)) == r for every tree the parser can
    build; a negative literal reads back as a subtraction of the same value
    (see _format).
    """
    lines = [f"rule {rule.name} dim {rule.dimension}"]
    for p in rule.prototiles:
        line = f"prototile {p.name}"
        if p.volume != Prototile(p.name, cells=p.cells).volume:
            line += f" volume {_frac_str(p.volume)}"
        if p.cells is not None and p.cells != ((0, 0),):
            line += " cells " + " ".join(f"({x},{y})" for x, y in p.cells)
        lines.append(line)
    if rule.definitions:
        lines.append("level default:")
        for label, guard, programs in rule._programs:
            body = " ".join(
                _format_placement(*p, i == 0) for i, p in enumerate(programs)
            )
            line = f"  {label} = {body}"
            if guard != _ALWAYS:
                line += f" if {_format(guard)}"
            lines.append(line)
    return "\n".join(lines) + "\n"

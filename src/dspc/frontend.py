"""Lexer, recursive-descent parser, and AST for the DSP source language.

A program is one function, ``main``, whose parameters name the signal inputs
that get bound at run time; nothing may follow it.  Statements are
semicolon-terminated; the only expression forms are number literals,
one-dimensional tensor literals, variable references, the four arithmetic
operators, and builtin calls.

The grammar:

    module  := "def" "main" "(" [IDENT {"," IDENT}] ")" "{" stmt* "}" EOF
    stmt    := "var" IDENT "=" expr ";"
             | "print" "(" expr ")" ";"
             | "return" [expr] ";"
             | expr ";"
    expr    := term {("+"|"-") term}
    term    := unary {("*"|"/") unary}
    unary   := NUMBER | "[" NUMBER {"," NUMBER} "]" | IDENT
             | IDENT "(" [expr {"," expr}] ")" | "(" expr ")"

Numbers are decimal integers or decimal floats; there is no scientific
notation and no unary minus, and a number too large for a float is a parse
error.  An expression nests at most ``MAX_EXPR_DEPTH`` levels deep: every
operator, call and pair of parentheses adds a level.

The lexer splits the source into lines and scans each with one regular
expression: a match is a word, a number, a comment (``#`` to end of line) or
any other non-blank character, and its column is its offset in the line plus
one.  A word is an identifier or keyword only if it starts with a letter or
``_``; any other word, or a character that is no operator or punctuation, is
a ``LexError``.  The parser matches operators, punctuation and keywords by
their text, which no identifier or number spells.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Optional, Union

from .errors import DspcError

KEYWORDS = ("def", "main", "var", "print", "return")

# Deepest expression the parser accepts; keeps every recursive walk of the
# tree (parser, graph builder, constant folding, printing) far from Python's
# recursion limit.
MAX_EXPR_DEPTH = 256

_PUNCT_CHARS = "()[]{},;="
_OP_CHARS = "+-*/"

# A word not led by a decimal digit, a number, a comment, or one character.
_TOKEN_RE = re.compile(r"[^\W\d]\w*|\d+(?:\.\d+)?|#.*|[^ \t\r]")


class SourceSpan(NamedTuple):
    """1-based line/column position in the source."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    OP = "op"
    PUNCT = "punct"
    EOF = "eof"


# The kind of each token that its text alone spells.
_TEXT_KIND = {**dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
              **dict.fromkeys(_OP_CHARS, TokenKind.OP),
              **dict.fromkeys(_PUNCT_CHARS, TokenKind.PUNCT)}


class Token(NamedTuple):
    kind: TokenKind
    text: str
    span: SourceSpan

    def __repr__(self) -> str:  # compact, useful in pytest diffs
        return f"Token({self.kind.value} {self.text!r} @{self.span})"


class FrontendError(DspcError):
    """Lex or parse failure, carrying the offending span."""

    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span


class LexError(FrontendError):
    pass


class ParseError(FrontendError):
    def __init__(self, span: SourceSpan, expected: str, found: str):
        super().__init__(span, f"expected {expected}, found {found}")


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, ending with a zero-length EOF marker."""
    tokens: list[Token] = []
    append, kinds = tokens.append, _TEXT_KIND
    new = tuple.__new__  # builds a Token or span without its NamedTuple __new__ frame
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(text):
            tok = m.group()
            kind = kinds.get(tok)
            if kind is None:
                first = tok[0]
                if first.isalpha() or first == "_":
                    kind = TokenKind.IDENT
                elif first.isdecimal():
                    kind = TokenKind.NUMBER
                elif first == "#":
                    continue
                else:
                    raise LexError(SourceSpan(line, m.start() + 1),
                                   f"unexpected character {first!r}")
            append(new(Token, (kind, tok, new(SourceSpan, (line, m.start() + 1)))))
    append(Token(TokenKind.EOF, "", SourceSpan(len(lines), len(lines[-1]) + 1)))
    return tokens


# --------------------------------------------------------------------------
# AST: slotted records, set field by field and never changed after.  A span
# is where a node was written, not what it is, so equality ignores it.


@dataclass(slots=True, unsafe_hash=True)
class NumberLiteral:
    value: float
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(slots=True, unsafe_hash=True)
class TensorLiteral:
    values: tuple[float, ...]
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(slots=True, unsafe_hash=True)
class VariableRef:
    name: str
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(slots=True, unsafe_hash=True)
class BinaryOp:
    op: str  # one of + - * /
    lhs: "AstExpression"
    rhs: "AstExpression"
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(slots=True, unsafe_hash=True)
class Call:
    callee: str
    args: tuple["AstExpression", ...]
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


AstExpression = Union[NumberLiteral, TensorLiteral, VariableRef, BinaryOp, Call]


@dataclass(slots=True, unsafe_hash=True)
class VarDecl:
    name: str
    initializer: AstExpression
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(slots=True, unsafe_hash=True)
class PrintStmt:
    expr: AstExpression
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(slots=True, unsafe_hash=True)
class ReturnStmt:
    expr: Optional[AstExpression]
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(slots=True, unsafe_hash=True)
class ExprStmt:
    expr: AstExpression
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


AstStatement = Union[VarDecl, PrintStmt, ReturnStmt, ExprStmt]


@dataclass(slots=True, unsafe_hash=True)
class AstFunction:
    """``main``, the one function of a module."""

    params: tuple[str, ...]
    body: tuple[AstStatement, ...]
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(slots=True, unsafe_hash=True)
class AstModule:
    main: AstFunction


# --------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        # Open parentheses and calls: each is a level above what it holds, so
        # too many break the limit before the parser recurses any deeper.
        self.open = 0
        self.depths: dict[int, int] = {}  # id(node) -> depth; leaves are 1

    def error(self, expected: str) -> ParseError:
        tok = self.tokens[self.pos]
        found = "end of input" if tok.kind is TokenKind.EOF else repr(tok.text)
        return ParseError(tok.span, expected, found)

    def accept(self, text: str) -> Token | None:
        """The next token, consumed, if it is spelled `text`."""
        tok = self.tokens[self.pos]
        if tok.text != text:
            return None
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise self.error(repr(text))
        self.pos += 1
        return tok

    def expect_kind(self, kind: TokenKind, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not kind:
            raise self.error(what)
        self.pos += 1
        return tok

    def number(self, tok: Token) -> float:
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(tok.span, "a number that fits a float",
                             f"a {len(tok.text)}-digit literal")
        return value

    def deeper(self, node: AstExpression, *parts: AstExpression) -> AstExpression:
        """Record `node` as one level above its deepest part."""
        depth = 1 + max(map(self.depths.get, map(id, parts), repeat(1)), default=0)
        self.check_depth(depth, node.span)
        self.depths[id(node)] = depth
        return node

    def binary(self, op: Token, lhs: AstExpression, rhs: AstExpression) -> BinaryOp:
        depths = self.depths
        depth = 1 + max(depths.get(id(lhs), 1), depths.get(id(rhs), 1))
        self.check_depth(depth, op.span)
        node = BinaryOp(op.text, lhs, rhs, op.span)
        depths[id(node)] = depth
        return node

    def check_depth(self, depth: int, span: SourceSpan) -> None:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(span, f"an expression at most {MAX_EXPR_DEPTH} levels deep",
                             "a deeper one")

    # module := "def" "main" "(" [IDENT {"," IDENT}] ")" "{" stmt* "}" EOF
    def module(self) -> AstModule:
        start = self.expect("def")
        self.expect("main")
        self.expect("(")
        params: list[str] = []
        if not self.accept(")"):
            while True:
                p = self.expect_kind(TokenKind.IDENT, "a parameter name")
                if p.text in params:
                    raise ParseError(p.span, "a unique parameter name", f"duplicate {p.text!r}")
                params.append(p.text)
                if self.accept(")"):
                    break
                self.expect(",")
        self.expect("{")
        body: list[AstStatement] = []
        declared = set(params)
        while not self.accept("}"):
            if self.tokens[self.pos].kind is TokenKind.EOF:
                raise self.error("'}'")
            stmt = self.statement()
            if isinstance(stmt, VarDecl):
                if stmt.name in declared:
                    raise ParseError(stmt.span, "a fresh variable name",
                                     f"redeclaration of {stmt.name!r}")
                declared.add(stmt.name)
            body.append(stmt)
        if self.tokens[self.pos].kind is not TokenKind.EOF:
            raise self.error("end of input")
        return AstModule(AstFunction(tuple(params), tuple(body), start.span))

    def statement(self) -> AstStatement:
        tok = self.tokens[self.pos]
        text = tok.text
        if text == "var":
            self.pos += 1
            name = self.expect_kind(TokenKind.IDENT, "a variable name")
            self.expect("=")
            init = self.expression()
            self.expect(";")
            return VarDecl(name.text, init, name.span)
        if text == "print":
            self.pos += 1
            self.expect("(")
            expr = self.expression()
            self.expect(")")
            self.expect(";")
            return PrintStmt(expr, tok.span)
        if text == "return":
            self.pos += 1
            expr = None
            if not self.accept(";"):
                expr = self.expression()
                self.expect(";")
            return ReturnStmt(expr, tok.span)
        expr = self.expression()
        self.expect(";")
        return ExprStmt(expr, expr.span)

    # expr := term {("+"|"-") term}
    def expression(self) -> AstExpression:
        lhs = self.term()
        while (op := self.tokens[self.pos]).text in ("+", "-"):
            self.pos += 1
            lhs = self.binary(op, lhs, self.term())
        return lhs

    # term := unary {("*"|"/") unary}
    def term(self) -> AstExpression:
        lhs = self.unary()
        while (op := self.tokens[self.pos]).text in ("*", "/"):
            self.pos += 1
            lhs = self.binary(op, lhs, self.unary())
        return lhs

    def unary(self) -> AstExpression:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is TokenKind.IDENT:
            self.pos += 1
            if not self.accept("("):
                return VariableRef(tok.text, tok.span)
            self.open += 1
            self.check_depth(self.open, tok.span)
            args: list[AstExpression] = []
            if not self.accept(")"):
                while True:
                    args.append(self.expression())
                    if self.accept(")"):
                        break
                    self.expect(",")
            self.open -= 1
            return self.deeper(Call(tok.text, tuple(args), tok.span), *args)
        if kind is TokenKind.NUMBER:
            self.pos += 1
            return NumberLiteral(self.number(tok), tok.span)
        if tok.text == "(":
            self.pos += 1
            self.open += 1
            self.check_depth(self.open, tok.span)
            expr = self.expression()
            self.expect(")")
            self.open -= 1
            return self.deeper(expr, expr)
        if tok.text == "[":
            self.pos += 1
            values = [self._number_element()]
            while not self.accept("]"):
                self.expect(",")
                values.append(self._number_element())
            return TensorLiteral(tuple(values), tok.span)
        raise self.error("an expression")

    def _number_element(self) -> float:
        return self.number(self.expect_kind(TokenKind.NUMBER, "a number"))


def parse_source(source: str) -> AstModule:
    """Parse source text into a module: one ``main`` and nothing after it."""
    return _Parser(tokenize(source)).module()


# --------------------------------------------------------------------------
# Printing


def format_number(value: float) -> str:
    """Render a float as source text the lexer can read back.

    Integral values drop the fraction; anything repr() would print in
    scientific notation falls back to exact positional decimal.
    """
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"cannot format non-finite literal {value!r}")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(value)
    if "e" in text or "E" in text:
        text = format(Decimal(value), "f")
    return text


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _expr_text(expr: AstExpression) -> str:
    if isinstance(expr, NumberLiteral):
        return format_number(expr.value)
    if isinstance(expr, TensorLiteral):
        return "[" + ", ".join(format_number(v) for v in expr.values) + "]"
    if isinstance(expr, VariableRef):
        return expr.name
    if isinstance(expr, Call):
        return expr.callee + "(" + ", ".join(_expr_text(a) for a in expr.args) + ")"
    if isinstance(expr, BinaryOp):
        prec = _PRECEDENCE[expr.op]
        lhs = _expr_text(expr.lhs)
        if isinstance(expr.lhs, BinaryOp) and _PRECEDENCE[expr.lhs.op] < prec:
            lhs = f"({lhs})"
        rhs = _expr_text(expr.rhs)
        # operators are left-associative: parenthesize equal precedence on the right
        if isinstance(expr.rhs, BinaryOp) and _PRECEDENCE[expr.rhs.op] <= prec:
            rhs = f"({rhs})"
        return f"{lhs} {expr.op} {rhs}"
    raise TypeError(f"not an expression node: {expr!r}")


def _stmt_text(stmt: AstStatement) -> str:
    if isinstance(stmt, VarDecl):
        return f"var {stmt.name} = {_expr_text(stmt.initializer)};"
    if isinstance(stmt, PrintStmt):
        return f"print({_expr_text(stmt.expr)});"
    if isinstance(stmt, ReturnStmt):
        return "return;" if stmt.expr is None else f"return {_expr_text(stmt.expr)};"
    if isinstance(stmt, ExprStmt):
        return f"{_expr_text(stmt.expr)};"
    raise TypeError(f"not a statement node: {stmt!r}")


def ast_to_text(module: AstModule) -> str:
    """Deterministic source dump: two-space indent, one line per statement.

    The dump re-parses to a structurally equal module, and dumping that
    parse reproduces the same text.
    """
    fn = module.main
    lines = [f"def main({', '.join(fn.params)}) {{"]
    lines += [f"  {_stmt_text(stmt)}" for stmt in fn.body]
    lines.append("}")
    return "\n".join(lines) + "\n"

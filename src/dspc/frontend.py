"""Lexer, recursive-descent parser, and AST for the DSP source language.

A program is a list of function definitions; ``main`` is the entry point and
its parameters name the signal inputs that get bound at run time.  Statements
are semicolon-terminated; the only expression forms are number literals,
one-dimensional tensor literals, variable references, the four arithmetic
operators, and builtin calls.

The grammar:

    module  := funcdef+
    funcdef := "def" IDENT "(" [IDENT {"," IDENT}] ")" "{" stmt* "}"
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
operator, call and pair of parentheses adds a level.  Comments run from
``#`` to end of line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import NamedTuple, Optional, Union

from .errors import DspcError

KEYWORDS = ("def", "main", "var", "print", "return")

# Deepest expression the parser accepts; keeps every recursive walk of the
# tree (parser, graph builder, constant folding, printing) far from Python's
# recursion limit.
MAX_EXPR_DEPTH = 256

_PUNCT_CHARS = "()[]{},;="
_OP_CHARS = "+-*/"


def _same_type_eq(a, b) -> bool:
    """Equality of light records: equal fields and the same record type, as
    for a frozen dataclass (a plain tuple is no span)."""
    return type(a) is type(b) and tuple.__eq__(a, b)


def _same_type_ne(a, b) -> bool:
    return not _same_type_eq(a, b)


class SourceSpan(NamedTuple):
    """1-based line/column position plus length in source characters."""

    line: int
    column: int
    length: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    OP = "op"
    PUNCT = "punct"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    span: SourceSpan

    def __repr__(self) -> str:  # compact, useful in pytest diffs
        return f"Token({self.kind.value} {self.text!r} @{self.span})"

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


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


class DuplicateMain(ParseError):
    def __init__(self, span: SourceSpan):
        super().__init__(span, "a single main function", "a second definition of main")


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, ending with a zero-length EOF marker."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, SourceSpan(line, start_col, j - i)))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdecimal():
                j += 1
                while j < n and source[j].isdecimal():
                    j += 1
            tokens.append(Token(TokenKind.NUMBER, source[i:j], SourceSpan(line, start_col, j - i)))
            col += j - i
            i = j
            continue
        if ch in _OP_CHARS:
            tokens.append(Token(TokenKind.OP, ch, SourceSpan(line, start_col, 1)))
            i += 1
            col += 1
            continue
        if ch in _PUNCT_CHARS:
            tokens.append(Token(TokenKind.PUNCT, ch, SourceSpan(line, start_col, 1)))
            i += 1
            col += 1
            continue
        raise LexError(SourceSpan(line, start_col, 1), f"unexpected character {ch!r}")
    tokens.append(Token(TokenKind.EOF, "", SourceSpan(line, col, 0)))
    return tokens


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class NumberLiteral:
    value: float
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(frozen=True)
class TensorLiteral:
    values: tuple[float, ...]
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(frozen=True)
class VariableRef:
    name: str
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * /
    lhs: "AstExpression"
    rhs: "AstExpression"
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(frozen=True)
class Call:
    callee: str
    args: tuple["AstExpression", ...]
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


AstExpression = Union[NumberLiteral, TensorLiteral, VariableRef, BinaryOp, Call]


@dataclass(frozen=True)
class VarDecl:
    name: str
    initializer: AstExpression
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(frozen=True)
class PrintStmt:
    expr: AstExpression
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(frozen=True)
class ReturnStmt:
    expr: Optional[AstExpression]
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(frozen=True)
class ExprStmt:
    expr: AstExpression
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


AstStatement = Union[VarDecl, PrintStmt, ReturnStmt, ExprStmt]


@dataclass(frozen=True)
class AstFunction:
    name: str
    params: tuple[str, ...]
    body: tuple[AstStatement, ...]
    span: SourceSpan = field(compare=False, default=SourceSpan(1, 1))


@dataclass(frozen=True)
class AstModule:
    functions: tuple[AstFunction, ...]

    @property
    def main(self) -> AstFunction:
        return next(f for f in self.functions if f.name == "main")


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

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def _describe(self, tok: Token) -> str:
        return "end of input" if tok.kind is TokenKind.EOF else repr(tok.text)

    def error(self, expected: str) -> ParseError:
        return ParseError(self.cur.span, expected, self._describe(self.cur))

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def accept(self, kind: TokenKind, text: str | None = None) -> Token | None:
        if self.cur.kind is kind and (text is None or self.cur.text == text):
            return self.advance()
        return None

    def expect(self, kind: TokenKind, text: str | None = None, what: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            raise self.error(what or (repr(text) if text else kind.value))
        return tok

    def number(self, tok: Token) -> float:
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(tok.span, "a number that fits a float",
                             f"a {len(tok.text)}-digit literal")
        return value

    def deeper(self, node: AstExpression, *parts: AstExpression) -> AstExpression:
        """Record `node` as one level above its deepest part."""
        depth = 1 + max((self.depths.get(id(p), 1) for p in parts), default=0)
        self.check_depth(depth, node.span)
        self.depths[id(node)] = depth
        return node

    def check_depth(self, depth: int, span: SourceSpan) -> None:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(span, f"an expression at most {MAX_EXPR_DEPTH} levels deep",
                             "a deeper one")

    # module := funcdef+
    def module(self) -> AstModule:
        functions: list[AstFunction] = []
        if self.cur.kind is TokenKind.EOF:
            raise self.error("a function definition")
        while self.cur.kind is not TokenKind.EOF:
            functions.append(self.funcdef())
        seen: set[str] = set()
        main_spans = []
        for fn in functions:
            if fn.name in seen:
                if fn.name == "main":
                    raise DuplicateMain(fn.span)
                raise ParseError(fn.span, "a unique function name", f"redefinition of {fn.name!r}")
            seen.add(fn.name)
            if fn.name == "main":
                main_spans.append(fn.span)
        if not main_spans:
            last = functions[-1].span
            raise ParseError(last, "a main function", "a module without main")
        return AstModule(functions=tuple(functions))

    def funcdef(self) -> AstFunction:
        start = self.expect(TokenKind.KEYWORD, "def", "'def'")
        name_tok = self.accept(TokenKind.IDENT) or self.accept(TokenKind.KEYWORD, "main")
        if name_tok is None:
            raise self.error("a function name")
        self.expect(TokenKind.PUNCT, "(")
        params: list[str] = []
        if not self.accept(TokenKind.PUNCT, ")"):
            while True:
                p = self.expect(TokenKind.IDENT, what="a parameter name")
                if p.text in params:
                    raise ParseError(p.span, "a unique parameter name", f"duplicate {p.text!r}")
                params.append(p.text)
                if self.accept(TokenKind.PUNCT, ")"):
                    break
                self.expect(TokenKind.PUNCT, ",")
        self.expect(TokenKind.PUNCT, "{")
        body: list[AstStatement] = []
        declared = set(params)
        while not self.accept(TokenKind.PUNCT, "}"):
            if self.cur.kind is TokenKind.EOF:
                raise self.error("'}'")
            stmt = self.statement()
            if isinstance(stmt, VarDecl):
                if stmt.name in declared:
                    raise ParseError(stmt.span, "a fresh variable name",
                                     f"redeclaration of {stmt.name!r}")
                declared.add(stmt.name)
            body.append(stmt)
        return AstFunction(name=name_tok.text, params=tuple(params), body=tuple(body),
                           span=start.span)

    def statement(self) -> AstStatement:
        if tok := self.accept(TokenKind.KEYWORD, "var"):
            name = self.expect(TokenKind.IDENT, what="a variable name")
            self.expect(TokenKind.PUNCT, "=")
            init = self.expression()
            self.expect(TokenKind.PUNCT, ";")
            return VarDecl(name.text, init, span=name.span)
        if tok := self.accept(TokenKind.KEYWORD, "print"):
            self.expect(TokenKind.PUNCT, "(")
            expr = self.expression()
            self.expect(TokenKind.PUNCT, ")")
            self.expect(TokenKind.PUNCT, ";")
            return PrintStmt(expr, span=tok.span)
        if tok := self.accept(TokenKind.KEYWORD, "return"):
            expr = None
            if not self.accept(TokenKind.PUNCT, ";"):
                expr = self.expression()
                self.expect(TokenKind.PUNCT, ";")
            return ReturnStmt(expr, span=tok.span)
        expr = self.expression()
        self.expect(TokenKind.PUNCT, ";")
        return ExprStmt(expr, span=expr.span)

    # expr := term {("+"|"-") term}
    def expression(self) -> AstExpression:
        lhs = self.term()
        while self.cur.kind is TokenKind.OP and self.cur.text in "+-":
            op = self.advance()
            rhs = self.term()
            lhs = self.deeper(BinaryOp(op.text, lhs, rhs, span=op.span), lhs, rhs)
        return lhs

    # term := unary {("*"|"/") unary}
    def term(self) -> AstExpression:
        lhs = self.unary()
        while self.cur.kind is TokenKind.OP and self.cur.text in "*/":
            op = self.advance()
            rhs = self.unary()
            lhs = self.deeper(BinaryOp(op.text, lhs, rhs, span=op.span), lhs, rhs)
        return lhs

    def unary(self) -> AstExpression:
        if tok := self.accept(TokenKind.NUMBER):
            return NumberLiteral(self.number(tok), span=tok.span)
        if tok := self.accept(TokenKind.PUNCT, "["):
            values = [self._number_element()]
            while not self.accept(TokenKind.PUNCT, "]"):
                self.expect(TokenKind.PUNCT, ",")
                values.append(self._number_element())
            return TensorLiteral(tuple(values), span=tok.span)
        if tok := self.accept(TokenKind.PUNCT, "("):
            self.open += 1
            self.check_depth(self.open, tok.span)
            expr = self.expression()
            self.expect(TokenKind.PUNCT, ")")
            self.open -= 1
            return self.deeper(expr, expr)
        if tok := self.accept(TokenKind.IDENT):
            if self.accept(TokenKind.PUNCT, "("):
                self.open += 1
                self.check_depth(self.open, tok.span)
                args: list[AstExpression] = []
                if not self.accept(TokenKind.PUNCT, ")"):
                    while True:
                        args.append(self.expression())
                        if self.accept(TokenKind.PUNCT, ")"):
                            break
                        self.expect(TokenKind.PUNCT, ",")
                self.open -= 1
                return self.deeper(Call(tok.text, tuple(args), span=tok.span), *args)
            return VariableRef(tok.text, span=tok.span)
        raise self.error("an expression")

    def _number_element(self) -> float:
        return self.number(self.expect(TokenKind.NUMBER, what="a number"))


def parse_module(tokens: list[Token]) -> AstModule:
    """Parse a token list into a module; exactly one ``main`` is required."""
    parser = _Parser(tokens)
    return parser.module()


def parse_source(source: str) -> AstModule:
    return parse_module(tokenize(source))


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
    lines: list[str] = []
    for fn in module.functions:
        lines.append(f"def {fn.name}({', '.join(fn.params)}) {{")
        for stmt in fn.body:
            lines.append(f"  {_stmt_text(stmt)}")
        lines.append("}")
    return "\n".join(lines) + "\n"

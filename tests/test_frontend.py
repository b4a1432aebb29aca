import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspc.corpus import compile_source
from dspc.frontend import (MAX_EXPR_DEPTH, AstFunction, AstModule,
                           BinaryOp, Call, DuplicateMain, ExprStmt,
                           FrontendError, LexError, NumberLiteral, ParseError,
                           PrintStmt, ReturnStmt, SourceSpan, TensorLiteral,
                           Token, TokenKind, VarDecl, VariableRef, ast_to_text,
                           format_number, parse_source, tokenize)
from dspc.lowering import lower_graph

SMALL = """
def main(x) {
  var y = gain(x, 2.0);
  print(y);
}
"""


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_tokenize_kinds():
    toks = tokenize("var y = gain(x, 2.0);")
    assert [t.kind.value for t in toks] == [
        "keyword", "ident", "punct", "ident", "punct", "ident", "punct",
        "number", "punct", "punct", "eof"]
    assert toks[0].text == "var"
    assert toks[-1].text == ""


def test_tokenize_spans():
    toks = tokenize("def main(x) {\n  print(x);\n}")
    p = next(t for t in toks if t.text == "print")
    assert (p.span.line, p.span.column) == (2, 3)
    assert toks[-1].span.line == 3


def test_comments_are_skipped():
    toks = tokenize("# a comment\nvar x = 1; # trailing\n")
    assert [t.text for t in toks if t.kind is not TokenKind.EOF] == \
        ["var", "x", "=", "1", ";"]


@pytest.mark.parametrize("text,value", [
    ("0", 0.0),
    ("42", 42.0),
    ("0.01", 0.01),
    ("123.456", 123.456),
])
def test_number_literals(text, value):
    mod = parse_source(f"def main() {{ var a = {text}; return a; }}")
    decl = mod.main.body[0]
    assert decl.initializer.value == value


def test_number_requires_digit_after_dot():
    # a bare trailing dot is not part of the number, and '.' alone is illegal
    with pytest.raises(LexError) as exc:
        tokenize("1.")
    assert exc.value.span == SourceSpan(1, 2, 1)


def test_word_led_by_a_superscript_digit_is_a_lex_error():
    # "²" is a word character but neither a letter nor a decimal digit
    with pytest.raises(LexError) as exc:
        tokenize("²x")
    assert exc.value.span == SourceSpan(1, 1, 1)
    assert "'²'" in str(exc.value)


def test_unicode_word_and_digits():
    assert [(t.kind, t.text) for t in tokenize("a² ٣.٥ é_1")][:-1] == [
        (TokenKind.IDENT, "a²"), (TokenKind.NUMBER, "٣.٥"), (TokenKind.IDENT, "é_1")]


def test_form_feed_is_a_lex_error():
    with pytest.raises(LexError) as exc:
        tokenize("x\x0cy")
    assert exc.value.span == SourceSpan(1, 2, 1)


def test_columns_after_crlf():
    toks = tokenize("var a\r\n  = 1;\r\n")
    assert [(t.text, t.span) for t in toks] == [
        ("var", SourceSpan(1, 1, 3)), ("a", SourceSpan(1, 5, 1)),
        ("=", SourceSpan(2, 3, 1)), ("1", SourceSpan(2, 5, 1)),
        (";", SourceSpan(2, 6, 1)), ("", SourceSpan(3, 1, 0))]


def test_eof_after_comment_on_unterminated_last_line():
    assert tokenize("x\ny # note")[-1].span == SourceSpan(2, 9, 0)


def test_lex_error_position():
    with pytest.raises(LexError) as exc:
        tokenize("var x = $;")
    assert "'$'" in str(exc.value)
    assert exc.value.span.column == 9


def test_parse_small_module():
    mod = parse_source(SMALL)
    assert mod.main.params == ("x",)
    assert len(mod.main.body) == 2


def test_precedence_mul_binds_tighter():
    mod = parse_source("def main(a, b, c) { return a + b * c; }")
    expr = mod.main.body[0].expr
    assert expr.op == "+"
    assert expr.rhs.op == "*"


def test_parens_override_precedence():
    mod = parse_source("def main(a, b, c) { return (a + b) * c; }")
    expr = mod.main.body[0].expr
    assert expr.op == "*"
    assert expr.lhs.op == "+"


def test_tensor_literal():
    mod = parse_source("def main() { var t = [1, 2.5, 3]; print(t); }")
    lit = mod.main.body[0].initializer
    assert lit.values == (1.0, 2.5, 3.0)


def test_tensor_literal_rejects_expressions():
    with pytest.raises(ParseError):
        parse_source("def main(x) { var t = [1, x]; print(t); }")


def test_missing_semicolon():
    with pytest.raises(ParseError) as exc:
        parse_source("def main(x) { print(x) }")
    assert "';'" in str(exc.value)


def test_missing_main():
    with pytest.raises(ParseError) as exc:
        parse_source("def helper(x) { return x; }")
    assert "main" in str(exc.value)


def test_duplicate_main():
    src = "def main() { return; }\ndef main() { return; }"
    with pytest.raises(DuplicateMain):
        parse_source(src)


def test_duplicate_parameter():
    with pytest.raises(ParseError):
        parse_source("def main(x, x) { print(x); }")


def test_redeclared_variable():
    with pytest.raises(ParseError):
        parse_source("def main(x) { var y = x; var y = x; print(y); }")


def test_no_unary_minus():
    # negative literals must be spelled as a subtraction
    with pytest.raises(ParseError):
        parse_source("def main() { var a = -3; return a; }")


def test_empty_source_fails():
    with pytest.raises(ParseError):
        parse_source("   \n# only a comment\n")


def test_ast_text_round_trip():
    text = ast_to_text(parse_source(SMALL))
    again = ast_to_text(parse_source(text))
    assert text == again


def test_ast_text_mentions_statements():
    # integral literals print without a trailing .0
    text = ast_to_text(parse_source(SMALL))
    assert "var y = gain(x, 2);" in text
    assert "print(y);" in text


@pytest.mark.parametrize("value,expected", [
    (2.0, "2"),
    (0.5, "0.5"),
    (1e-3, "0.001"),
])
def test_format_number(value, expected):
    assert format_number(value) == expected


def test_token_repr_is_compact():
    tok = Token(TokenKind.IDENT, "gain", tokenize("gain")[0].span)
    assert "gain" in repr(tok)


@pytest.mark.parametrize("expr", ["9" * 400, "[1, " + "9" * 400 + "]"],
                         ids=["number", "tensor_element"])
def test_literal_overflowing_a_float_is_a_parse_error(expr):
    with pytest.raises(ParseError) as exc:
        parse_source(f"def main() {{ print({expr}); }}")
    assert "fits a float" in str(exc.value)


# Each builds an expression `levels` levels above the leaf x: every operator,
# call and parenthesis pair adds one.
def nested_parens(levels):
    return "(" * levels + "x" + ")" * levels


def chain(levels):
    return " + ".join(["x"] * (levels + 1))


def nested_calls(levels):
    return "gain(" * levels + "x" + ", 1.0)" * levels


@pytest.mark.parametrize("expr", [nested_parens(400), chain(1999)],
                         ids=["parens_400", "chain_2000"])
def test_expression_deeper_than_limit_is_a_parse_error(expr):
    with pytest.raises(ParseError) as exc:
        parse_source(f"def main(x) {{ print({expr}); }}")
    assert f"at most {MAX_EXPR_DEPTH} levels deep" in str(exc.value)


@pytest.mark.parametrize("make", [nested_parens, chain, nested_calls],
                         ids=["parens", "chain", "calls"])
def test_expression_depth_limit_is_exact(make):
    source = "def main(x) {{ print({}); }}"
    lower_graph(compile_source(source.format(make(MAX_EXPR_DEPTH - 1)), {"x": 4}))
    with pytest.raises(ParseError):
        parse_source(source.format(make(MAX_EXPR_DEPTH)))


# --------------------------------------------------------------------------
# Properties.  Example counts are bounded so the suite stays quick.

_LEX_ALPHABET = "ab_x19.()[]{},;=+-*/# \t\r\n²٣é"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(_LEX_ALPHABET + "\x0c$", max_size=40))
def test_lexer_spans_address_their_text(source):
    """Text either lexes, each token's span addressing its own text and EOF
    sitting just past the last character, or is a LexError at the
    character it names."""
    lines = source.split("\n")
    try:
        tokens = tokenize(source)
    except LexError as exc:
        bad = lines[exc.span.line - 1][exc.span.column - 1]
        assert exc.span.length == 1 and repr(bad) in str(exc)
        return
    for tok in tokens[:-1]:
        start = tok.span.column - 1
        assert lines[tok.span.line - 1][start:start + tok.span.length] == tok.text
    assert tokens[-1] == Token(TokenKind.EOF, "",
                               SourceSpan(len(lines), len(lines[-1]) + 1, 0))


_WORDS = ["def", "main", "f", "(", ")", "{", "}", ",", ";", "var", "x", "y",
          "=", "print", "return", "gain", "sum", "[", "]", "1", "2.5",
          "9" * 400, "+", "-", "*", "/", "\n", "# c\n", "$"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_WORDS), max_size=40))
def test_parse_source_raises_only_frontend_errors(words):
    try:
        parse_source(" ".join(words))
    except FrontendError as exc:
        assert isinstance(exc.span, SourceSpan)


_NAMES = st.sampled_from(["a", "x1", "_t", "gain", "sum", "é", "a²", "mains", "define"])
_NUMBERS = st.floats(min_value=0, max_value=1e20)
_EXPRESSIONS = st.recursive(
    st.one_of(st.builds(NumberLiteral, _NUMBERS),
              st.builds(TensorLiteral, st.lists(_NUMBERS, min_size=1, max_size=3).map(tuple)),
              st.builds(VariableRef, _NAMES)),
    lambda sub: st.one_of(
        st.builds(BinaryOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(Call, _NAMES, st.lists(sub, max_size=3).map(tuple))),
    max_leaves=12)


@st.composite
def _modules(draw):
    """A module whose main declares fresh names, with an optional helper."""
    params = draw(st.lists(_NAMES, max_size=3, unique=True))
    body = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from("vper"), max_size=5))):
        if kind == "v":
            body.append(VarDecl(f"v{i}", draw(_EXPRESSIONS)))
        elif kind == "p":
            body.append(PrintStmt(draw(_EXPRESSIONS)))
        elif kind == "e":
            body.append(ExprStmt(draw(_EXPRESSIONS)))
        else:
            body.append(ReturnStmt(draw(st.none() | _EXPRESSIONS)))
    main = AstFunction("main", tuple(params), tuple(body))
    helper = AstFunction("helper", (), (ReturnStmt(None),))
    return AstModule((helper, main) if draw(st.booleans()) else (main,))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_modules())
def test_ast_text_parses_back_to_the_same_module(module):
    assert parse_source(ast_to_text(module)) == module

import pytest

from dspc.corpus import compile_source
from dspc.frontend import (MAX_EXPR_DEPTH, DuplicateMain, LexError,
                           ParseError, Token, TokenKind, ast_to_text,
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
    with pytest.raises(LexError):
        tokenize("1.")


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

import itertools

import pytest

from dspc.frontend import parse_source
from dspc.graph import (ArityMismatch, BadAttribute, DspGraph, GraphTextError,
                        OpNode, ShapeMismatch, UndefinedVariable, UnknownBuiltin,
                        build_graph, eliminate_dead_ops, graph_to_text,
                        infer_shapes, parse_graph_text, renumber,
                        verify_graph)
from dspc.kernels import KERNELS
from dspc.lowering import EMITTERS
from dspc.ops import OP_DEFS, OpCode, TensorShape


def compile_graph(source, lengths=None):
    # infer_shapes returns a resolved copy; the input graph is untouched
    return infer_shapes(build_graph(parse_source(source)), lengths)


def opcodes(graph):
    return [op.opcode for op in graph.ops]


def test_build_simple_chain():
    g = compile_graph("def main(x) { var y = gain(x, 2.0); print(y); }",
                      {"x": 8})
    assert opcodes(g) == [OpCode.INPUT, OpCode.GAIN, OpCode.PRINT]
    assert g.inputs == [("x", 0)]
    assert g.prints == [1]


def test_binary_ops_lower_to_elementwise():
    g = compile_graph("def main(a, b) { print(a + b); print(a * b); }")
    assert OpCode.ADD in opcodes(g) and OpCode.MUL in opcodes(g)


def test_shared_subexpression_is_not_duplicated():
    # variables are bound once; two uses share the SSA value
    g = compile_graph("""
def main(x) {
  var h = hammingWindow(5);
  print(x * h);
  print(x + h);
}
""", {"x": 5})
    assert opcodes(g).count(OpCode.HAMMING_WINDOW) == 1


def test_attr_constant_folding():
    # attribute positions accept constant arithmetic, e.g. 0 - 16
    g = compile_graph(
        "def main(x) { print(quantize(x, 16, 0 - 16, 16)); }", {"x": 4})
    q = next(op for op in g.ops if op.opcode is OpCode.QUANTIZE)
    values = {name: q.attr(name) for name in ("levels", "min", "max")}
    assert values == {"levels": 16, "min": -16.0, "max": 16.0}


def test_attr_must_be_constant():
    with pytest.raises(BadAttribute):
        compile_graph("def main(x) { print(delay(x, sum(x))); }")


def test_attr_int_rejects_fraction():
    with pytest.raises(BadAttribute):
        compile_graph("def main(x) { print(delay(x, 2.5)); }")


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        compile_graph("def main(x) { print(fizz(x)); }")


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        compile_graph("def main(x) { print(gain(x)); }")


def test_undefined_variable():
    with pytest.raises(UndefinedVariable):
        compile_graph("def main(x) { print(z); }")


# --------------------------------------------------------------------------
# shape inference


def test_shapes_fir_response_matches_input():
    g = compile_graph("""
def main(x) {
  var h = lowPassFIRFilter(11, 0.9);
  print(firFilterResponse(x, h));
}
""", {"x": 64})
    out = next(op for op in g.ops if op.opcode is OpCode.FIR_FILTER_RESPONSE)
    assert out.result_shapes[0].length == 64


def test_shapes_conv_full_length():
    g = compile_graph(
        "def main(x) { print(conv1d(x, reverse(x))); }", {"x": 10})
    conv = next(op for op in g.ops if op.opcode is OpCode.CONV1D_FULL)
    assert conv.result_shapes[0].length == 19  # N + M - 1


def test_shapes_upsample_downsample():
    g = compile_graph("""
def main(x) {
  var up = upsample(x, 3);
  print(downsample(up, 3));
}
""", {"x": 5})
    up = next(op for op in g.ops if op.opcode is OpCode.UPSAMPLE)
    down = next(op for op in g.ops if op.opcode is OpCode.DOWNSAMPLE)
    assert up.result_shapes[0].length == 15
    assert down.result_shapes[0].length == 5


def test_shapes_rle_is_dynamic():
    g = compile_graph(
        "def main(x) { print(runLenEncoding(x)); }", {"x": 9})
    rle = next(op for op in g.ops if op.opcode is OpCode.RUN_LEN_ENCODING)
    shape = rle.result_shapes[0]
    assert shape.dynamic
    assert shape.length == 18  # worst case: every run has length one


def test_shapes_broadcast_scalar():
    g = compile_graph(
        "def main(x) { print(x + 1); }", {"x": 6})
    add = next(op for op in g.ops if op.opcode is OpCode.ADD)
    assert add.result_shapes[0].length == 6


def test_shapes_unbound_input_stays_unknown():
    g = compile_graph("def main(x) { print(square(x)); }")
    sq = next(op for op in g.ops if op.opcode is OpCode.SQUARE)
    assert sq.result_shapes[0] is None or sq.result_shapes[0].length is None


# --------------------------------------------------------------------------
# verifier


def test_verify_clean_graph():
    g = compile_graph("def main(x) { print(gain(x, 3.0)); }", {"x": 4})
    assert verify_graph(g) == []


def test_infer_rejects_length_conflict():
    with pytest.raises(ShapeMismatch) as exc:
        compile_graph("def main(a, b) { print(a + b); }", {"a": 4, "b": 5})
    assert "do not broadcast" in str(exc.value)


def test_verify_attr_range():
    violations = verify_graph(parse_graph_text(
        "%0 = input() {name=x} : tensor<8>\n"
        "%1 = delay(%0) {k=-1} : tensor<8>\n"
        "print(%1)\n"))
    assert any("k >= 0" in v for v in violations)


# Attribute values tried by the schema-driven range tests, per AttrSpec kind.
_CANDIDATES = {"int": (8, 2, 1, 0, -1),
               "float": (0.5, 1.0, 3.0, 0.0, -1.0, 1e300, 1e-300),
               "float_list": ((1.0,), ()), "str": ("x",)}


def _verify_op(sig, values):
    """Violations of one op of `sig` with attribute `values`, its operands
    inputs of length 8 and its result shapes unknown."""
    ins = [OpNode(i, OpCode.INPUT, attributes=(f"x{i}",), result_shapes=(TensorShape(8),))
           for i in range(sig.n_operands)]
    op = OpNode(sig.n_operands if sig.n_results else -1, sig.opcode,
                tuple(range(sig.n_operands)), tuple(values), (None,) * sig.n_results)
    return verify_graph(DspGraph(ins + [op])), f"%{op.id} {sig.opcode.value}"


def _in_range(sig):
    """Every combination of in-range candidates, as attribute value lists."""
    return itertools.product(*([v for v in _CANDIDATES[spec.kind] if spec.ok(v)]
                               for spec in sig.attrs))


def _valid(sig):
    return next(list(vs) for vs in _in_range(sig)
                if sig.cross_check is None or sig.cross_check(
                    {spec.name: v for spec, v in zip(sig.attrs, vs)}) is None)


@pytest.mark.parametrize("sig, slot", [
    pytest.param(sig, i, id=f"{sig.opcode.value}.{spec.name}")
    for sig in OP_DEFS.values() for i, spec in enumerate(sig.attrs) if spec.check])
def test_verifier_reports_each_out_of_range_attribute(sig, slot):
    # generated from the schema: check_op is the only range check, so every
    # checked attribute of every opcode must be rejected there
    spec = sig.attrs[slot]
    values = _valid(sig)
    assert _verify_op(sig, values)[0] == []
    values[slot] = next(v for v in _CANDIDATES[spec.kind] if not spec.ok(v))
    violations, label = _verify_op(sig, values)
    assert f"{label}: attribute {spec.name}={values[slot]!r} violates {spec.legal}" \
        in violations


@pytest.mark.parametrize("sig", [sig for sig in OP_DEFS.values() if sig.cross_check],
                         ids=lambda sig: sig.opcode.value)
def test_verifier_reports_each_cross_attribute_violation(sig):
    for values in _in_range(sig):
        msg = sig.cross_check({spec.name: v for spec, v in zip(sig.attrs, values)})
        if msg:
            violations, label = _verify_op(sig, values)
            assert f"{label}: {msg}" in violations
            return
    pytest.fail(f"no candidate values violate the cross-check of {sig.opcode.value}")


def test_verify_operand_out_of_range():
    violations = verify_graph(parse_graph_text(
        "%0 = input() {name=x} : tensor<8>\n"
        "%1 = square(%7) : tensor<8>\n"
        "print(%1)\n"))
    assert any("not defined before use" in v for v in violations)


@pytest.mark.parametrize("line, opcode", [("print(%7)", "print"), ("return %7", "return")])
def test_verify_undefined_print_or_return_operand(line, opcode):
    violations = verify_graph(parse_graph_text("%0 = input() {name=x} : tensor<8>\n" + line))
    assert violations == [f"%-1 {opcode}: operand %7 not defined before use"]


@pytest.mark.parametrize("text, violation", [
    ("%0 = input() {name=x} : tensor<8>\n"
     "%1 = input() {name=h} : tensor<3>\n"
     "%2 = conv1d_full(%0, %1) : tensor<8>\n",
     "%2 conv1d_full: result shapes ('tensor<8>',) inconsistent, "
     "expected ('tensor<10>',)"),
    ("%0 = input() {name=x} : tensor<8>\n"
     "%1, %2 = dft1d_fused(%0) : tensor<8>, tensor<4>\n",
     "%1 dft1d_fused: result shapes ('tensor<8>', 'tensor<4>') inconsistent, "
     "expected ('tensor<8>', 'tensor<8>')"),
    ("%0 = input() {name=x} : tensor<8>\n"
     "%1, %2 = dft1d_fused(%0) : tensor<8>, tensor<8>\n"
     "%3 = square(%2) : tensor<5>\n",
     "%3 square: result shapes ('tensor<5>',) inconsistent, "
     "expected ('tensor<8>',)"),
], ids=["conv1d_full", "dft1d_fused", "square_of_second_result"])
def test_verify_result_shapes(text, violation):
    assert verify_graph(parse_graph_text(text)) == [violation]


@pytest.mark.parametrize("line", [
    "%1 = gain(%0) {g=1e999} : tensor<2>",
    "%1 = const_tensor() {values=[1, -1e999]} : tensor<2>",
], ids=["float", "float_list"])
def test_verify_rejects_non_finite_attribute(line):
    violations = verify_graph(parse_graph_text(
        "%0 = input() {name=x} : tensor<2>\n" + line + "\nprint(%1)\n"))
    assert len(violations) == 1 and "is not finite" in violations[0]


def test_every_opcode_has_one_def_kernel_and_emitter():
    assert set(OP_DEFS) == set(OpCode)
    assert all(d.opcode is oc for oc, d in OP_DEFS.items())
    # eval_graph binds inputs itself; print and return compute nothing and
    # lower to no loop
    assert set(KERNELS) | {OpCode.INPUT, OpCode.PRINT, OpCode.RETURN} == set(OpCode)
    assert set(EMITTERS) | {OpCode.PRINT, OpCode.RETURN} == set(OpCode)


# --------------------------------------------------------------------------
# text round trip


ROUND_TRIP = """
def main(x, d) {
  var w = lmsFilter(x, d, 0.01, 4);
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  var y = idft1d(re, im);
  print(w);
  print(y + 0.5);
  return w;
}
"""


def test_graph_text_round_trip():
    g = compile_graph(ROUND_TRIP, {"x": 16, "d": 16})
    text = graph_to_text(g)
    g2 = parse_graph_text(text)
    assert graph_to_text(g2) == text


def test_return_as_last_statement_prints_last_and_round_trips():
    g = compile_graph(ROUND_TRIP, {"x": 16, "d": 16})
    text = graph_to_text(g)
    assert text.splitlines()[-1] == f"return %{g.returns[0]}"
    assert graph_to_text(parse_graph_text(text)) == text
    assert parse_graph_text(text).returns == g.returns


def test_return_prints_at_its_position():
    g = compile_graph("def main(x) { var y = square(x); return y; print(gain(y, 2.0)); }",
                      {"x": 4})
    text = graph_to_text(g)
    assert text.splitlines()[2:] == ["return %1", "%2 = gain(%1) {g=2.0} : tensor<4>",
                                     "print(%2)"]
    assert graph_to_text(parse_graph_text(text)) == text


def test_graph_text_format():
    g = compile_graph("def main() { print([1, 2]); }")
    text = graph_to_text(g)
    assert "%0 = const_tensor() {values=[1, 2]} : tensor<2>" in text
    assert "print(%0)" in text


def test_graph_text_parse_error_reports_line():
    with pytest.raises(GraphTextError) as exc:
        parse_graph_text("%0 = input() {name=x} : tensor<8>\n%1 = bogus()\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("line", ["%1 = square(%\u00b2) : tensor<4>",
                                  "%1 = square(%0) : tensor<\u00b2>"])
def test_graph_text_rejects_non_decimal_digits(line):
    with pytest.raises(GraphTextError) as exc:
        parse_graph_text("%0 = input() {name=x} : tensor<4>\n" + line + "\n")
    assert exc.value.line == 2


def test_renumber_compacts_ids():
    g = parse_graph_text(
        "%0 = input() {name=x} : tensor<4>\n"
        "%1 = square(%0) : tensor<4>\n"
        "%2 = square(%0) : tensor<4>\n"
        "print(%2)\n")
    g.ops = [op for op in g.ops if op.id != 1]
    g2 = renumber(g)
    assert [op.id for op in g2.ops if op.id >= 0] == [0, 1]
    assert g2.prints == [1]


def test_dce_drops_unused_but_keeps_inputs():
    g = compile_graph("""
def main(x) {
  var unused = square(x);
  var y = gain(x, 2.0);
  print(y);
}
""", {"x": 4})
    g2 = eliminate_dead_ops(g)
    codes = opcodes(g2)
    assert OpCode.SQUARE not in codes
    assert OpCode.INPUT in codes  # inputs are part of the interface
    assert verify_graph(g2) == []


def test_dce_keeps_returns():
    g = compile_graph(
        "def main(x) { var y = square(x); return y; }", {"x": 4})
    assert OpCode.SQUARE in opcodes(eliminate_dead_ops(g))

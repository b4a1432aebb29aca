import itertools
import math
import random
from dataclasses import replace

import pytest

from dspc import corpus
from dspc.cli import main
from dspc.frontend import parse_source
from dspc.graph import (ArityMismatch, BadAttribute, DspGraph, OpNode, ShapeMismatch,
                        UndefinedVariable, UnknownBuiltin, build_graph,
                        graph_to_text, infer_shapes, verify_graph)
from dspc.interp import evaluate_loop_ir, tensor
from dspc.loop_ir import LoopIrError
from dspc.lowering import EMITTERS, lower_graph
from dce import dead_ops, producer_map, renumber, use_counts
import generic_check
import kernels as K
from dspc.ops import OP_DEFS, OpCode, TensorShape
from dspc.rewriter import apply_dsp_patterns


def compile_graph(source, lengths=None):
    # infer_shapes returns a resolved copy; the input graph is untouched
    return infer_shapes(build_graph(parse_source(source)), lengths)


def opcodes(graph):
    return [op.opcode for op in graph.ops]


def shaped(vid, opcode, operands, *lengths, attributes=()):
    """An op whose results have the static `lengths`."""
    return OpNode(vid, opcode, operands, attributes, tuple(map(TensorShape, lengths)))


def input_op(vid, length, name="x"):
    return shaped(vid, OpCode.INPUT, (), length, attributes=(name,))


def print_op(vid):
    return OpNode(-1, OpCode.PRINT, (vid,))


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


def test_attr_constant_folding_adds_and_divides():
    g = compile_graph("def main(x) { print(gain(x, 1.0 / 4.0 + 0.5)); }", {"x": 4})
    assert graph_to_text(g).splitlines()[1] == "%1 = gain(%0) {g=0.75} : tensor<4>"


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
    violations = verify_graph(DspGraph([
        input_op(0, 8), shaped(1, OpCode.DELAY, (0,), 8, attributes=(-1,)), print_op(1)]))
    assert any("k >= 0" in v for v in violations)


# Attribute values tried by the schema-driven range tests, per AttrSpec kind.
_CANDIDATES = {"int": (8, 2, 1, 0, -1),
               "float": (0.5, 1.0, 3.0, 0.0, -1.0, 1e300, 1e-300),
               "float_list": ((1.0,), ()), "str": ("x",)}


def _verify_op(sig, values):
    """Violations of one op of `sig` with attribute `values`, its operands
    inputs of length 8 and its result shapes unknown."""
    ins = [input_op(i, 8, f"x{i}") for i in range(sig.n_operands)]
    op = OpNode(sig.n_operands if sig.n_results else -1, sig.opcode,
                tuple(range(sig.n_operands)), tuple(values), (None,) * sig.n_results)
    return verify_graph(DspGraph(ins + [op])), f"%{op.id} {sig.opcode.value}"


def _in_range(sig):
    """Every combination of in-range candidates, as attribute value lists."""
    return itertools.product(*([v for v in _CANDIDATES[spec.kind] if spec.problem(v) is None]
                               for spec in sig.attrs))


def _valid(sig):
    return next(list(vs) for vs in _in_range(sig)
                if sig.cross_check is None or sig.cross_check(*vs) is None)


@pytest.mark.parametrize("sig, slot", [
    pytest.param(sig, i, id=f"{sig.opcode.value}.{spec.name}")
    for sig in OP_DEFS.values() for i, spec in enumerate(sig.attrs) if spec.check])
def test_verifier_reports_each_out_of_range_attribute(sig, slot):
    # generated from the schema: the op check is the only range check, so every
    # checked attribute of every opcode must be rejected there
    spec = sig.attrs[slot]
    values = _valid(sig)
    assert _verify_op(sig, values)[0] == []
    values[slot] = next(v for v in _CANDIDATES[spec.kind] if spec.problem(v) is not None)
    violations, label = _verify_op(sig, values)
    assert f"{label}: attribute {spec.name}={values[slot]!r} violates {spec.legal}" \
        in violations


# Values of the wrong type for each AttrSpec kind, and non-finite values of the
# float kinds, tried by the schema-driven type and finiteness tests.
_WRONG_TYPE = {"int": ("1", 2.0, None), "float": ("0.5", None),
               "float_list": ([1.0], (1.0, "x")), "str": (1, None)}
_NON_FINITE = {"float": (math.nan,), "float_list": ((1.0, math.nan),)}


@pytest.mark.parametrize("sig, slot", [
    pytest.param(sig, i, id=f"{sig.opcode.value}.{spec.name}")
    for sig in OP_DEFS.values() for i, spec in enumerate(sig.attrs)])
def test_attribute_of_wrong_type_or_not_finite_is_its_ops_only_violation(sig, slot):
    # generated from the schema: the op's AttrSpec alone judges the value, for
    # the verifier and for shape inference, which leaves the op unshaped
    spec = sig.attrs[slot]
    cases = [(v, f"attribute {spec.name!r} has wrong type") for v in _WRONG_TYPE[spec.kind]]
    cases += [(v, f"attribute {spec.name}={v!r} is not finite")
              for v in _NON_FINITE.get(spec.kind, ())]
    for value, problem in cases:
        values = _valid(sig)
        values[slot] = value
        violations, label = _verify_op(sig, values)
        assert violations == [f"{label}: {problem}"]
        # the op of `_verify_op`, its operands shaped: shape inference leaves it unshaped
        ins = [input_op(i, 8, f"x{i}") for i in range(sig.n_operands)]
        op = OpNode(sig.n_operands if sig.n_results else -1, sig.opcode,
                    tuple(range(sig.n_operands)), tuple(values), (None,) * sig.n_results)
        assert infer_shapes(DspGraph(ins + [op])).ops[-1].result_shapes == op.result_shapes


@pytest.mark.parametrize("sig", [sig for sig in OP_DEFS.values() if sig.shape],
                         ids=lambda sig: sig.opcode.value)
def test_wrong_attribute_count_is_its_ops_only_violation(sig):
    # an attribute too few or too many: the verifier reports the count, and
    # shape inference leaves the op unshaped, as for a value with a problem
    values = _valid(sig)
    for wrong in ([*values, values[-1] if values else 1], values[:-1]):
        if len(wrong) == len(values):
            continue  # no attribute to drop
        violations, label = _verify_op(sig, wrong)
        assert violations == [f"{label}: has {len(wrong)} attribute(s), "
                              f"schema says {len(values)}"]
        ins = [input_op(i, 8, f"x{i}") for i in range(sig.n_operands)]
        op = OpNode(sig.n_operands if sig.n_results else -1, sig.opcode,
                    tuple(range(sig.n_operands)), tuple(wrong), (None,) * sig.n_results)
        assert infer_shapes(DspGraph(ins + [op])).ops[-1].result_shapes == op.result_shapes


def test_downsample_without_its_factor_is_reported_not_a_key_error():
    g = DspGraph([input_op(0, 8), OpNode(1, OpCode.DOWNSAMPLE, (0,), (), (None,))])
    shaped_g = infer_shapes(g)
    assert shaped_g.ops[1].result_shapes == (None,)
    assert verify_graph(shaped_g) == ["%1 downsample: has 0 attribute(s), schema says 1"]


@pytest.mark.parametrize("sig", [sig for sig in OP_DEFS.values() if sig.cross_check],
                         ids=lambda sig: sig.opcode.value)
def test_verifier_reports_each_cross_attribute_violation(sig):
    for values in _in_range(sig):
        msg = sig.cross_check(*values)
        if msg:
            violations, label = _verify_op(sig, values)
            assert f"{label}: {msg}" in violations
            return
    pytest.fail(f"no candidate values violate the cross-check of {sig.opcode.value}")


@pytest.mark.parametrize("sig, slot", [
    pytest.param(sig, slot, id=f"{sig.opcode.value}.{slot}")
    for sig in OP_DEFS.values() if sig.n_operands and sig.n_results
    for slot in range(sig.n_operands)])
def test_only_print_and_return_read_a_dynamic_tensor(sig, slot):
    # the run-length code %1 feeds operand `slot` of %3, an 8-sample input the
    # others; %3 is shaped as if %1 were a static 8-sample tensor
    rle = OpNode(1, OpCode.RUN_LEN_ENCODING, (0,), (), (TensorShape(8, dynamic=True),))
    op = OpNode(3, sig.opcode, tuple(1 if i == slot else 2 for i in range(sig.n_operands)),
                tuple(_valid(sig)))
    op = replace(op, result_shapes=sig.shape(op, [TensorShape(8)] * sig.n_operands))
    graph = DspGraph([input_op(0, 4), rle, input_op(2, 8, "y"), op, print_op(3)])
    message = f"%3 {sig.opcode.value}: a dynamic tensor feeds only print and return"
    with pytest.raises(ShapeMismatch, match=f"^{message}$"):
        infer_shapes(graph)
    assert verify_graph(graph) == [message]
    # lowered unverified, the op's unit fails its first render, before any unit runs
    with pytest.raises(LoopIrError, match="a dynamic buffer is only appended to"):
        evaluate_loop_ir(lower_graph(graph), {"x": tensor([1.0] * 4), "y": tensor([1.0] * 8)})


@pytest.mark.parametrize("levels, lo, hi", [(10 ** 308, 0.0, 1e-20), (2, -1e308, 1e308)],
                         ids=["step_underflows_to_0", "max_minus_min_overflows"])
def test_verify_rejects_quantize_step(levels, lo, hi):
    op = shaped(1, OpCode.QUANTIZE, (0,), 4, attributes=(levels, lo, hi))
    assert verify_graph(DspGraph([input_op(0, 4), op, print_op(1)])) == [
        "%1 quantize: quantize requires a finite step (max-min)/(levels-1) above 0, "
        f"got levels={levels} min={lo} max={hi}"]


def test_verify_operand_out_of_range():
    violations = verify_graph(DspGraph([
        input_op(0, 8), shaped(1, OpCode.SQUARE, (7,), 8), print_op(1)]))
    assert any("not defined before use" in v for v in violations)


@pytest.mark.parametrize("line, opcode", [("print(%7)", "print"), ("return %7", "return")])
def test_verify_undefined_print_or_return_operand(line, opcode):
    graph = DspGraph([input_op(0, 8), OpNode(-1, OpCode(opcode), (7,))])
    assert graph_to_text(graph).splitlines()[-1] == line
    violations = verify_graph(graph)
    assert violations == [f"%-1 {opcode}: operand %7 not defined before use"]


# each graph breaks one rule of the op check, and that is its only violation
ONE_VIOLATION = {
    "conv1d_full": (
        [input_op(0, 8), input_op(1, 3, "h"), shaped(2, OpCode.CONV1D_FULL, (0, 1), 8)],
        "%2 conv1d_full: result shapes ('tensor<8>',) inconsistent, expected ('tensor<10>',)"),
    "dft1d_fused": (
        [input_op(0, 8), shaped(1, OpCode.DFT1D_FUSED, (0,), 8, 4)],
        "%1 dft1d_fused: result shapes ('tensor<8>', 'tensor<4>') inconsistent, "
        "expected ('tensor<8>', 'tensor<8>')"),
    "square_of_second_result": (
        [input_op(0, 8), shaped(1, OpCode.DFT1D_FUSED, (0,), 8, 8),
         shaped(3, OpCode.SQUARE, (2,), 5)],
        "%3 square: result shapes ('tensor<5>',) inconsistent, expected ('tensor<8>',)"),
    "operand_count": (
        [input_op(0, 8), shaped(1, OpCode.SQUARE, (0, 0), 8)],
        "%1 square: expects 1 operand(s), has 2"),
    "attribute_count": (
        [input_op(0, 8), shaped(1, OpCode.GAIN, (0,), 8)],
        "%1 gain: has 0 attribute(s), schema says 1"),
    "attribute_type": (
        [input_op(0, 8), shaped(1, OpCode.GAIN, (0,), 8, attributes=("2.0",))],
        "%1 gain: attribute 'g' has wrong type"),
    "result_slot_count": (
        [input_op(0, 8), shaped(1, OpCode.DFT1D_FUSED, (0,), 8)],
        "%1 dft1d_fused: has 1 result shape slot(s), schema says 2"),
    "resultless_id": (
        [input_op(0, 8), OpNode(1, OpCode.PRINT, (0,))],
        "%1 print: resultless op must use id -1"),
    "defined_twice": (
        [input_op(0, 8), shaped(0, OpCode.SQUARE, (0,), 8)],
        "%0 square: value %0 defined more than once"),
    "idft1d_paired": (
        [input_op(0, 8), input_op(1, 4, "y"), shaped(2, OpCode.IDFT1D, (0, 1), 8)],
        "%2 idft1d: real/imag lengths differ: 8 vs 4"),
    "lms_filter_paired": (
        [input_op(0, 8), input_op(1, 4, "d"),
         shaped(2, OpCode.LMS_FILTER, (0, 1), 2, attributes=(0.01, 2))],
        "%2 lms_filter: input/desired lengths differ: 8 vs 4"),
}


@pytest.mark.parametrize("ops, violation", list(ONE_VIOLATION.values()),
                         ids=list(ONE_VIOLATION))
def test_verify_result_shapes(ops, violation):
    assert verify_graph(DspGraph(ops)) == [violation]


def _mutants(sig, rng):
    """Graphs holding one op of `sig`, valid but for seeded mutations of its
    attributes (types, counts, values not finite or out of range), operands
    (undefined, a dynamic tensor, too many or too few), id or result shapes;
    its operands are inputs %0.. of length 8 or 4 and %9, a run-length code."""
    values = _valid(sig)
    ins = [input_op(i, rng.choice((8, 8, 4)), f"x{i}") for i in range(sig.n_operands)]
    ins += [input_op(8, 4, "r"),
            OpNode(9, OpCode.RUN_LEN_ENCODING, (8,), (), (TensorShape(8, True),))]
    for _ in range(30):
        attributes, operands = list(values), list(range(sig.n_operands))
        rid = sig.n_operands if sig.n_results else -1
        shapes = [TensorShape(8)] * sig.n_results
        for _ in range(rng.choice((1, 1, 2))):
            what = rng.randrange(5)
            if what == 0 and attributes[:len(values)]:
                slot = rng.randrange(min(len(attributes), len(values)))
                kind = sig.attrs[slot].kind
                attributes[slot] = rng.choice(_WRONG_TYPE[kind] + _NON_FINITE.get(kind, ())
                                              + _CANDIDATES[kind])
            elif what == 1:
                attributes = attributes[:-1] if attributes and rng.random() < 0.5 \
                    else attributes + [rng.choice((1, 2.0, "x"))]
            elif what == 2:
                change = rng.choice(("undefined", "dynamic", "extra", "drop"))
                if change == "extra" or not operands:
                    operands.append(0)
                elif change == "drop":
                    operands.pop()
                else:
                    operands[rng.randrange(len(operands))] = 50 if change == "undefined" else 9
            elif what == 3:
                rid = rng.choice((-1, 0, 9, 5))
            else:
                shapes = rng.choice((shapes + [None], shapes[:-1], [None] * len(shapes),
                                     [TensorShape(rng.choice((3, 8, 15)))] * len(shapes)))
        op = OpNode(rid, sig.opcode, tuple(operands), tuple(attributes), tuple(shapes))
        yield DspGraph(ins + [op, shaped(20, OpCode.SQUARE, (max(rid, 0),), 8), print_op(20)])


@pytest.mark.parametrize("seed", range(3))
def test_schema_built_checkers_match_the_generic_check(seed):
    # every opcode, the negative cases above and seeded mutations, and the
    # corpus graphs on both routes: the same violations in the same order
    rng = random.Random(seed)
    graphs = [DspGraph(ops) for ops, _ in ONE_VIOLATION.values()]
    for sig in OP_DEFS.values():
        graphs += _mutants(sig, rng)
    for app in corpus.APPS:
        sizes = app.default_sizes()
        g = compile_graph(app.source(sizes), app.input_lengths(sizes))
        graphs += [g, apply_dsp_patterns(g)[0]]
    reported = 0
    for graph in graphs:
        want = generic_check.verify_graph(graph)
        assert verify_graph(graph) == want, graph_to_text(graph)
        reported += bool(want)
    assert reported > len(graphs) // 2


@pytest.mark.parametrize("op", [
    shaped(1, OpCode.GAIN, (0,), 2, attributes=(math.inf,)),
    shaped(1, OpCode.CONST_TENSOR, (), 2, attributes=((1.0, -math.inf),)),
], ids=["float", "float_list"])
def test_verify_rejects_non_finite_attribute(op):
    violations = verify_graph(DspGraph([input_op(0, 2), op, print_op(1)]))
    assert len(violations) == 1 and "is not finite" in violations[0]


def test_every_opcode_has_one_def_kernel_and_emitter():
    assert set(OP_DEFS) == set(OpCode)
    assert all(d.opcode is oc for oc, d in OP_DEFS.items())
    # the test oracle has a kernel for each opcode a source program can hold:
    # the builtins, the four arithmetic operators and constant tensors; a
    # rewriter-only opcode is held to the program it replaces
    source_level = {oc for oc, d in OP_DEFS.items() if d.builtin is not None}
    assert set(K.KERNELS) == source_level | {OpCode.ADD, OpCode.SUB, OpCode.MUL,
                                           OpCode.DIV, OpCode.CONST_TENSOR}
    # inputs and constants are data and print and return compute nothing, so
    # these four lower to no loop
    assert set(EMITTERS) | {OpCode.INPUT, OpCode.CONST_TENSOR, OpCode.PRINT,
                            OpCode.RETURN} == set(OpCode)


# --------------------------------------------------------------------------
# text form


RETURN_LAST = """
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


def test_return_as_last_statement_prints_last():
    g = compile_graph(RETURN_LAST, {"x": 16, "d": 16})
    assert graph_to_text(g).splitlines()[-1] == f"return %{g.returns[0]}"


def test_return_prints_at_its_position():
    g = compile_graph("def main(x) { var y = square(x); return y; print(gain(y, 2.0)); }",
                      {"x": 4})
    text = graph_to_text(g)
    assert text.splitlines()[2:] == ["return %1", "%2 = gain(%1) {g=2.0} : tensor<4>",
                                     "print(%2)"]


def test_graph_text_format():
    g = compile_graph("def main() { print([1, 2]); }")
    text = graph_to_text(g)
    assert "%0 = const_tensor() {values=[1, 2]} : tensor<2>" in text
    assert "print(%0)" in text


def test_binding_contradicting_a_shaped_input_raises():
    g = compile_graph("def main(x) { print(gain(x, 2.0)); }", {"x": 4})
    with pytest.raises(ShapeMismatch) as exc:
        infer_shapes(g, {"x": 8})
    assert str(exc.value) == "%0 input: input bound to length 8 but already shaped 4"
    assert graph_to_text(infer_shapes(g)) == graph_to_text(g)


def test_expression_statement_builds_an_unread_op(tmp_path, capsys):
    source = "def main(x) { gain(x, 2.0); print(x); }"
    g = compile_graph(source, {"x": 3})
    assert graph_to_text(g).splitlines()[1:] == ["%1 = gain(%0) {g=2.0} : tensor<3>",
                                                 "print(%0)"]
    assert verify_graph(g) == []
    path = tmp_path / "expr.dsp"
    path.write_text(source)
    assert main(["run", str(path), "--opt=dsp", "--synth", "x=3,1"]) == 0
    assert capsys.readouterr().out.startswith("%0 = [")
    # no pattern fires, but the rewriter prunes the unread gain
    assert main(["build", str(path), "--emit=dsp-opt", "--opt=dsp", "--synth", "x=3,1"]) == 0
    assert capsys.readouterr().out == "%0 = input() {name=x} : tensor<3>\nprint(%0)\n"


def test_renumber_compacts_ids():
    g = compile_graph("def main(x) { var a = square(x); print(square(x)); }", {"x": 4})
    assert graph_to_text(g).splitlines()[1:] == ["%1 = square(%0) : tensor<4>",
                                                 "%2 = square(%0) : tensor<4>",
                                                 "print(%2)"]
    g.ops = [op for op in g.ops if op.id != 1]
    g2 = renumber(g)
    assert [op.id for op in g2.ops if op.id >= 0] == [0, 1]
    assert g2.prints == [1]


def pruned(graph):
    """What whole-graph pruning (`dead_ops`, every value a candidate) keeps."""
    producer = producer_map(graph)
    dead = dead_ops(producer, use_counts(graph), producer)
    return renumber(DspGraph([op for op in graph.ops if id(op) not in dead]))


def test_dce_drops_unused_but_keeps_inputs():
    g = compile_graph("""
def main(x) {
  var unused = square(x);
  var y = gain(x, 2.0);
  print(y);
}
""", {"x": 4})
    g2 = pruned(g)
    codes = opcodes(g2)
    assert OpCode.SQUARE not in codes
    assert OpCode.INPUT in codes  # inputs are part of the interface
    assert verify_graph(g2) == []


def test_dce_keeps_returns():
    g = compile_graph(
        "def main(x) { var y = square(x); return y; }", {"x": 4})
    assert OpCode.SQUARE in opcodes(pruned(g))

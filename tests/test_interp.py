import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from dspc import corpus
from dspc.frontend import parse_source
from dspc.graph import build_graph, infer_shapes
from dspc.interp import (InputMismatch, LoopDivisionByZero, NonFinite,
                         compiled_source, counters_report, evaluate_loop_ir,
                         report_table)
from dspc.kernels import tensor
from dspc.loop_ir import (AffineExpr, BufferDecl, Call, ConstF, For,
                          IndexF, Load, LoopIrError, LoopProgram, OutOfBounds,
                          Select, Store, TempRef)
from dspc.lowering import lower_graph
from dspc.rewriter import apply_dsp_patterns


def program_for(source, lengths=None, opt=False):
    g = infer_shapes(build_graph(parse_source(source)), lengths)
    if opt:
        g, _ = apply_dsp_patterns(g)
    return lower_graph(g)


def rand(rng, n):
    return tensor([rng.uniform(-1, 1) for _ in range(n)])


def test_counters_are_deterministic_modulo_wall_time():
    rng = random.Random(1)
    p = program_for("def main(x) { print(dft1dreal(x)); }", {"x": 12})
    x = {"x": rand(rng, 12)}
    _, c1 = evaluate_loop_ir(p, x)
    _, c2 = evaluate_loop_ir(p, x)
    d1, d2 = c1.as_dict(), c2.as_dict()
    d1.pop("wall_time_ns"), d2.pop("wall_time_ns")
    assert d1 == d2
    assert c1.wall_time_ns > 0


def test_as_dict_shape():
    p = program_for("def main(x) { print(x + x); }", {"x": 4})
    _, c = evaluate_loop_ir(p, {"x": tensor([1, 2, 3, 4])})
    d = c.as_dict()
    assert set(d) >= {"loop_iterations", "loads", "stores", "mults", "adds",
                      "trig_calls", "wall_time_ns", "loop_iters_by_tag",
                      "loads_by_buffer"}
    assert d["adds"] == 4 and d["mults"] == 0


def test_missing_input_raises():
    p = program_for("def main(x) { print(x); }", {"x": 4})
    with pytest.raises(InputMismatch):
        evaluate_loop_ir(p, {})


def test_wrong_length_input_raises():
    p = program_for("def main(x) { print(x); }", {"x": 4})
    with pytest.raises(InputMismatch):
        evaluate_loop_ir(p, {"x": tensor([1, 2])})


def test_division_by_zero_reports_element():
    p = program_for("def main(a, b) { print(a / b); }", {"a": 3, "b": 3})
    with pytest.raises(LoopDivisionByZero) as exc:
        evaluate_loop_ir(p, {"a": tensor([1, 1, 1]), "b": tensor([1, 0, 1])})
    assert "element 1" in str(exc.value)


def test_non_finite_weights_detected():
    p = program_for("def main(x, d) { print(lmsFilter(x, d, 100000.0, 8)); }",
                    {"x": 256, "d": 256})
    rng = random.Random(9)
    x = rand(rng, 256)
    with pytest.raises(NonFinite):
        evaluate_loop_ir(p, {"x": x, "d": x})


def test_rle_append_respects_capacity():
    # alternating input hits the worst case exactly: 2N slots
    p = program_for("def main(x) { print(runLenEncoding(x)); }", {"x": 6})
    out, _ = evaluate_loop_ir(p, {"x": tensor([1, 2, 1, 2, 1, 2])})
    t = out[next(iter(out))]
    assert len(t) == 12


def test_compiled_source_is_cached_and_readable():
    p = program_for("def main(x) { print(gain(x, 2.0)); }", {"x": 4})
    src1 = compiled_source(p)
    src2 = compiled_source(p)
    assert src1 is src2  # cached on the program object
    assert "def _run" in src1
    evaluate_loop_ir(p, {"x": tensor([1, 2, 3, 4])})  # reuses the cache


def test_program_is_validated_once_before_its_first_compile(monkeypatch):
    from dspc import interp, loop_ir, lowering
    checked = []
    validate = loop_ir.validate_program

    def counted(program):
        checked.append(id(program))
        validate(program)

    monkeypatch.setattr(loop_ir, "validate_program", counted)
    monkeypatch.setattr(interp, "validate_program", counted)
    assert not hasattr(lowering, "validate_program")
    p = program_for("def main(x) { print(gain(x, 2.0)); }", {"x": 4})
    assert checked == []  # lower_graph validates nothing
    evaluate_loop_ir(p, {"x": tensor([1, 2, 3, 4])})
    compiled_source(p)
    assert checked == [id(p)]  # once, at the first compile

    def store_loop(n):
        return LoopProgram(buffers=[BufferDecl("y", 4)], inputs=[], outputs=[],
                           body=[For("i", 0, n, [Store("y", AffineExpr.of("i"),
                                                       ConstF(0.0))], "fill")])

    good, bad = store_loop(4), store_loop(5)  # built by hand
    compiled_source(good)
    compiled_source(good)
    assert checked == [id(p), id(good)]
    with pytest.raises(OutOfBounds):
        compiled_source(bad)
    assert checked == [id(p), id(good), id(bad)]


def test_counter_hoisting_matches_naive_count():
    # loop costs are static (body cost times trip count, summed at codegen
    # time); the compiled code only counts runs of guarded branch bodies
    rng = random.Random(3)
    p = program_for("def main(x) { print(conv1d(x, [1, 2, 3])); }", {"x": 10})
    _, c = evaluate_loop_ir(p, {"x": rand(rng, 10)})
    # 12 outputs, 3 taps each
    assert c.loop_iters_by_tag["conv1d_full.outer"] == 12
    assert c.loop_iters_by_tag["conv1d_full.inner"] == 36
    assert c.loads_by_buffer  # per-buffer map populated


def _tree_program(value, *stmts):
    i = AffineExpr.of("i")
    return LoopProgram(buffers=[BufferDecl("x", 3), BufferDecl("y", 3)],
                       body=[For("i", 0, 3, [*stmts, Store("y", i, value)],
                                 "tree")],
                       inputs=[("x", "x")], outputs=[(1, "y")])


def test_nested_tree_cost_is_counted_once_per_node():
    i = AffineExpr.of("i")
    xi = Load("x", i)
    # per trip: 2 loads, 3 multiplies (one in sinc_eval), 2 adds, 3 trig calls
    value = (Call("sin", xi * 2.0) + xi * Call("cos", IndexF(i))
             - Call("sinc_eval", IndexF(i)))
    xs = [0.25, -0.5, 0.75]
    out, c = evaluate_loop_ir(_tree_program(value), {"x": tensor(xs)})
    assert c.loads_by_buffer == {"x": 6}
    assert (c.loads, c.stores, c.mults, c.adds, c.trig_calls,
            c.loop_iterations) == (6, 3, 9, 6, 9, 3)
    want = [math.sin(v * 2.0) + v * math.cos(k)
            - (math.sin(k) / k if k != 0.0 else 1.0)
            for k, v in enumerate(xs)]
    assert out[1].values == tuple(want)


@pytest.mark.parametrize("value,stmts", [
    # a checked divisor and a sinc argument are read more than once
    (ConstF(1.0) / Load("x", AffineExpr.of("i")), ()),
    (Call("sinc_eval", Load("x", AffineExpr.of("i"))), ()),
    # the arm a select takes is data-dependent, so it may not be metered
    (TempRef("s"), (Select(TempRef("s"), "gt", ConstF(0.0), ConstF(1.0),
                           Load("x", AffineExpr.of("i")), ConstF(0.0)),)),
], ids=["divisor", "sinc_arg", "select_arm"])
def test_tree_read_more_than_once_must_be_a_leaf(value, stmts):
    with pytest.raises(LoopIrError):
        compiled_source(_tree_program(value, *stmts))


def test_counters_report_identical_runs():
    p = program_for("def main(x) { print(square(x)); }", {"x": 8})
    rng = random.Random(5)
    x = {"x": rand(rng, 8)}
    _, c1 = evaluate_loop_ir(p, x)
    _, c2 = evaluate_loop_ir(p, x)
    report = counters_report(c1, c2)
    ratios = dict(report["ratios"])
    ratios.pop("wall_time_ns")
    assert all(v == 1.0 for v in ratios.values())


def test_counters_report_zero_over_zero():
    p = program_for("def main() { print([1]); }")
    _, c1 = evaluate_loop_ir(p, {})
    _, c2 = evaluate_loop_ir(p, {})
    report = counters_report(c1, c2)
    assert report["ratios"]["trig_calls"] == 1.0  # 0/0 reads as unchanged


def test_report_table_renders_rows():
    p = program_for("def main(x) { print(square(x)); }", {"x": 8})
    rng = random.Random(6)
    x = {"x": rand(rng, 8)}
    _, c1 = evaluate_loop_ir(p, x)
    _, c2 = evaluate_loop_ir(p, x)
    table = report_table(counters_report(c1, c2))
    lines = table.splitlines()
    assert lines[0].split() == ["counter", "before", "after", "ratio"]
    assert any(row.startswith("mults") for row in lines)


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _counts(program, inputs):
    """Every counter but wall time."""
    _, c = evaluate_loop_ir(program, inputs)
    d = c.as_dict()
    del d["wall_time_ns"]
    return d


def test_golden_counters():
    # every counter of every corpus app on both routes (default sizes, the
    # app's own seed) and of the lowering golden, which takes both arms of
    # its IfCmp and its delay guard
    got = {}
    for app in corpus.APPS:
        sizes = app.default_sizes()
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        inputs = app.synth_inputs(sizes, app.base_seed)
        got[f"{app.name}/none"] = _counts(lower_graph(g), inputs)
        got[f"{app.name}/dsp"] = _counts(lower_graph(apply_dsp_patterns(g)[0]),
                                         inputs)
    got["golden_lowering"] = _counts(
        program_for((FIXTURES / "golden_lowering.dsp").read_text(),
                    {"x": 3, "d": 3}),
        {"x": tensor([1.0, 1.0, 2.0]), "d": tensor([1.0, 2.0, 2.0])})
    want = json.loads((FIXTURES / "golden_counters.json").read_text())
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def _output_digests():
    """sha256 of the `float.hex` of every printed value, per corpus app,
    route and input seed 1-3, at default sizes."""
    got = {}
    for app in corpus.APPS:
        sizes = app.default_sizes()
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        for route, graph in (("none", g), ("dsp", apply_dsp_patterns(g)[0])):
            program = lower_graph(graph)
            for seed in (1, 2, 3):
                outs, _ = evaluate_loop_ir(program, app.synth_inputs(sizes, seed))
                text = "\n".join(" ".join(v.hex() for v in outs[vid].values)
                                 for vid, _buf in program.outputs)
                got[f"{app.name}/{route}/{seed}"] = hashlib.sha256(
                    text.encode()).hexdigest()
    return got


def test_golden_outputs_are_bit_identical():
    # pins every printed bit, so a codegen change that reorders or
    # reassociates float arithmetic shows here even where counters agree
    want = json.loads((FIXTURES / "golden_outputs.json").read_text())
    assert _output_digests() == want

import ast
import dataclasses
import hashlib
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest

from dspc import corpus
from dspc.frontend import parse_source
from dspc.graph import DspGraph, OpNode, build_graph, infer_shapes, verify_graph
from dspc.interp import (STREAM_MIN_TRIPS, BufferTooLarge, CapacityExceeded, InputMismatch,
                         LoopDivisionByZero, LoopRuntimeError, NonFinite, compiled_source,
                         counters_report, evaluate_loop_ir, report_table, tensor)
from dspc.loop_ir import (AffineExpr, Assign, BufferDecl, Call, CheckFinite, Cond, ConstF,
                          DynAppend, For, IfCmp, IndexF, Load, LoopIrError, LoopProgram,
                          OutOfBounds, SelectGuard, Store, TempRef, Trig, Unit)
from dspc.lowering import lower_graph
from dspc.ops import OP_DEFS, OpCode, TensorShape
from dspc.rewriter import PatternId, apply_dsp_patterns


def program_for(source, lengths=None, opt=False):
    g = infer_shapes(build_graph(parse_source(source)), lengths)
    if opt:
        g, _ = apply_dsp_patterns(g)
    return lower_graph(g)


def rand(rng, n):
    return tensor([rng.uniform(-1, 1) for _ in range(n)])


def one_unit(buffers, body, **fields):
    """A hand-built program: one unlabelled call of `body` over `buffers`."""
    names = tuple(b.name for b in buffers)
    return LoopProgram(buffers=buffers, calls=[("", Unit(tuple(buffers), body), names)],
                       **fields)


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
    linked = p._compiled
    src2 = compiled_source(p)
    assert src1 == src2 and p._compiled is linked  # linked once, kept on the program
    assert "def _run" in src1
    evaluate_loop_ir(p, {"x": tensor([1, 2, 3, 4])})  # reuses the cache


def _count_renders(monkeypatch):
    """The units `_Compiler.render` checks and renders, in order."""
    from dspc import interp
    rendered = []
    render = interp._Compiler.render

    def counted(compiler):
        rendered.append(compiler.unit)
        return render(compiler)

    monkeypatch.setattr(interp._Compiler, "render", counted)
    return rendered


def _store_loop(n, tag="fill"):
    """A hand-built program storing y[i] for i in [0, n); y holds 4."""
    return one_unit([BufferDecl("y", 4)],
                    [For("i", 0, n, [Store("y", AffineExpr.of("i"), ConstF(0.0))], tag)],
                    inputs=[], outputs=[])


_Y_SPANS_0_4 = r"^buffer 'y': index i spans \[0, 4\] outside \[0, 4\)$"


def test_program_is_validated_once_before_its_first_compile(monkeypatch):
    # the walk that renders a unit checks it: lower_graph checks nothing, the
    # first compile walks the first unit of each op shape once (gains by 2.0
    # and by 3.0 are one shape), a recompile nothing
    from dspc import interp, lowering
    lowering.op_unit.cache_clear()
    interp.SHAPE_RENDERS.clear()
    checked = _count_renders(monkeypatch)
    source = ("def main(x) { print(gain(x, 2.0)); print(square(gain(x, 2.0))); "
              "print(gain(x, 3.0)); }")
    p = program_for(source, {"x": 4})
    assert checked == []
    evaluate_loop_ir(p, {"x": tensor([1, 2, 3, 4])})
    compiled_source(p)
    units = list(dict.fromkeys(unit for _, unit, _ in p.calls))
    assert len(units) == 3 < len(p.calls) and checked == units[:2]
    compiled_source(program_for(source, {"x": 4}))
    assert checked == units[:2]

    good, bad = _store_loop(4), _store_loop(5)  # built by hand, one text
    compiled_source(good)
    compiled_source(good)
    assert checked[2:] == [good.calls[0][1]]
    with pytest.raises(OutOfBounds, match=_Y_SPANS_0_4):
        compiled_source(bad)  # its text is compiled already; it is checked
    assert checked[2:] == [good.calls[0][1], bad.calls[0][1]]


def test_out_of_bounds_unit_is_never_compiled(monkeypatch):
    from dspc import interp
    compiled = []

    def counted(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(interp, "compile", counted, raising=False)
    shapes = dict(interp.UNIT_CODE)
    bad = _store_loop(5, tag=f"never_compiled_{len(shapes)}")
    for _ in range(2):  # nothing is kept, so the second compile raises again
        with pytest.raises(OutOfBounds, match=_Y_SPANS_0_4):
            compiled_source(bad)
    assert compiled == [] and interp.UNIT_CODE == shapes
    assert not hasattr(bad.calls[0][1], "_rendered")


_NOPE = AffineExpr.lit(0)


@pytest.mark.parametrize("stmt", [
    Store("y", _NOPE, Load("nope", _NOPE)),
    Store("nope", _NOPE, ConstF(1.0)),
    DynAppend("nope", ConstF(1.0)),
    CheckFinite("nope"),
    # code that never runs is not bounds-checked, but its buffers must exist
    For("i", 0, 0, [Store("nope", AffineExpr.of("i"), ConstF(1.0))], "never"),
], ids=["load", "store", "append", "check_finite", "empty_loop"])
def test_unknown_buffer_is_out_of_bounds(stmt):
    p = one_unit([BufferDecl("y", 1)], [stmt], inputs=[], outputs=[])
    with pytest.raises(OutOfBounds, match="^buffer 'nope': unknown buffer$"):
        compiled_source(p)


_STORE_0 = Store("y", _NOPE, ConstF(1.0))


@pytest.mark.parametrize("stmt", [
    SelectGuard(AffineExpr.of("k"), 0, 4, [_STORE_0]),
    SelectGuard(AffineExpr.of("k", 2), 0, 4, [_STORE_0]),
    For("i", 0, 1, [Store("y", AffineExpr.of("i"), IndexF(AffineExpr.of("k")))], "f"),
    For("i", 0, 1, [Store("y", AffineExpr.of("i"), Trig("cos", ConstF(1.0), "i", "k"))], "f"),
    # a short row and a streamed row: a table row is looked up only for a bound row
    For("j", 0, 1, [For("i", 0, 4, [Store("y", AffineExpr.of("j"),
                                          Trig("cos", ConstF(1.0), "k", "i"))], "f")], "g"),
    For("j", 0, 1, [Assign(TempRef("t"), ConstF(0.0)), For("i", 0, 64, [Assign(
        TempRef("t"), TempRef("t") + Trig("cos", ConstF(1.0), "k", "i"))], "f"),
        Store("y", AffineExpr.of("j"), TempRef("t"))], "g"),
], ids=["guard_bare", "guard_expr", "index_value", "index_product", "short_row", "long_row"])
def test_index_without_a_loop_is_rejected_before_it_runs(stmt):
    # `k` has no enclosing loop; the generated code would raise NameError
    p = one_unit([BufferDecl("y", 1)], [stmt], inputs=[], outputs=[])
    with pytest.raises(LoopIrError, match="^index 'k' used outside its loop$"):
        compiled_source(p)


@pytest.mark.parametrize("stmt", [
    Store("y", AffineExpr.lit(0), ConstF(1.0)),
    Store("z", AffineExpr.lit(0), Load("y", AffineExpr.lit(0))),
], ids=["store", "load"])
def test_dynamic_buffer_is_only_appended_to(stmt):
    # a dynamic buffer is a list holding what was appended so far, so an
    # index inside its capacity may still be past its end
    p = one_unit([BufferDecl("y", 4, dynamic=True), BufferDecl("z", 1)], [stmt],
                 inputs=[], outputs=[])
    with pytest.raises(OutOfBounds,
                       match="^buffer 'y': a dynamic buffer is only appended to$"):
        compiled_source(p)


@pytest.mark.parametrize("stmt", [
    Store("y", _NOPE, Call("tanh", ConstF(1.0))),
    ConstF(1.0),
    Store("y", _NOPE, "t0"),
], ids=["intrinsic", "statement", "expression"])
def test_unknown_ir_node_is_a_static_fault(stmt):
    p = one_unit([BufferDecl("y", 1)], [stmt], inputs=[], outputs=[])
    with pytest.raises(LoopIrError, match="^unknown (intrinsic|statement|expression) "):
        compiled_source(p)


def test_conditionals_are_stored_without_a_temporary():
    # threshold stores its conditional; quantize keeps the lower clamp, read
    # twice, and parenthesises the upper one as an operand
    p = program_for("def main(x) { print(threshold(x, 0.5)); "
                    "print(quantize(x, 4, 0.0, 3.0)); }", {"x": 4})
    lines = compiled_source(p).splitlines()
    assert "        b1[i0] = t0 if abs(t0) >= c3 else c2" in lines
    assert ("        b1[i0] = c4 + _floor(((c5 if t1 > c6 else t1) - c7) / c8 + c9)"
            " * c10") in lines
    out, c = evaluate_loop_ir(p, {"x": tensor([0.25, -0.75, 2.5, 5.0])})
    assert [t.values for t in out.values()] == [
        (0.0, -0.75, 2.5, 5.0), (0.0, 0.0, 3.0, 3.0)]
    assert (c.loads, c.stores, c.mults, c.adds) == (8, 8, 8, 12)


def _corpus_programs(sizes_of=lambda app: app.default_sizes(), apps=None):
    """The lowered programs of corpus apps on both routes."""
    programs = []
    for app in apps or corpus.APPS:
        sizes = sizes_of(app)
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        programs += [lower_graph(g), lower_graph(apply_dsp_patterns(g)[0])]
    return programs


def _unit_functions(program):
    compiled_source(program)
    return [rendered.fn for rendered, *_ in program._compiled.calls]


def _unit_code(program):
    return [fn.__code__ for fn in _unit_functions(program)]


def test_unit_code_is_shared_across_sizes():
    # literals are parameters, so LowPassFiltering at two sizes runs the
    # same code objects, unit for unit, on each route
    app = corpus.find_app("LowPassFiltering")
    big, small = (_corpus_programs(lambda app: {**app.default_sizes(), "N": n},
                                   [app]) for n in (4096, 512))
    for p, q in zip(big, small):
        assert p.calls and [s for s, *_ in p.calls] == [s for s, *_ in q.calls]
        assert all(a is b for a, b in zip(_unit_code(p), _unit_code(q), strict=True))


def test_twiddle_tables_are_shared_bounded_and_least_recently_used_first_out(monkeypatch):
    from dspc import interp
    from dspc.interp import TABLES
    app = corpus.find_app("AudioCompression")
    programs = {n: _corpus_programs(lambda app: {"N": n}, [app]) for n in (64, 128, 160, 200, 256)}
    # AudioCompression's DFTs at 128 and 256 points read tables through one
    # code object each, unit for unit, on each route
    for p, q in zip(programs[256], programs[128]):
        compiled_source(p), compiled_source(q)
        texts = [r.text for r, *_ in p._compiled.calls]
        assert texts == [r.text for r, *_ in q._compiled.calls]
        assert sum("_table(" in t for t in texts) == (2 if p is programs[256][0] else 1)
        assert len({id(interp.UNIT_CODE[t]) for t in texts}) == len(set(texts))
    # EnergyOfSignal's 1024-point DFTs are over the bound: they call sin and cos;
    # SpectralAnalysis's 509-point ones, whole or halved, read tables
    energy = _corpus_programs(apps=[corpus.find_app("EnergyOfSignal")])[0]
    assert "_table(" not in compiled_source(energy) and "_cos(" in compiled_source(energy)
    for p in _corpus_programs(apps=[corpus.find_app("SpectralAnalysis")]):
        assert "_table(" in compiled_source(p) and "_cos(" not in compiled_source(p)
    # a model of the cache: the rows of each key, least recently used first, under
    # a bound these five sizes' tables pass (2 * 151,616 entries)
    model, evicted = {}, []
    monkeypatch.setattr(interp, "TABLE_ENTRIES", 2 ** 18)

    def use(key, rows):  # a request: touches the key's table, first building missing rows
        have = model.pop(key, 0)
        if have < rows:
            while sum(k[2] * n for k, n in model.items()) + key[2] * rows > interp.TABLE_ENTRIES:
                evicted.append(next(iter(model)))
                del model[evicted[-1]]
        model[key] = max(have, rows)

    TABLES.clear()
    rng = random.Random(11)
    for _ in range(16):
        n, route = rng.choice(list(programs)), rng.randrange(2)
        for _ in range(rng.randrange(1, 4)):
            evaluate_loop_ir(programs[n][route], {"x": rand(rng, n)})
            for trig in ("cos", "sin"):  # both routes request cos, then sin, n rows
                use((2.0 * math.pi / n, trig, n), n)
            assert [(k, len(t)) for k, t in TABLES.items()] == list(model.items())
            assert sum(len(t) * len(t[0]) for t in TABLES.values()) <= interp.TABLE_ENTRIES
    assert len(evicted) >= 2  # tables were evicted
    # a halved DFT reads rows of the full DFT's table of the same transform, in
    # either order built and counted once
    spectral = _corpus_programs(lambda app: {"N": 64}, [corpus.find_app("SpectralAnalysis")])
    for order in (spectral, spectral[::-1]):
        TABLES.clear()
        rows = []
        for p in order:
            evaluate_loop_ir(p, {"x": rand(rng, 64)})
            rows.append(list(TABLES[2.0 * math.pi / 127, "cos", 127]))
        assert {k: len(t) for k, t in TABLES.items()} == {
            (2.0 * math.pi / 127, trig, 127): 127 for trig in ("cos", "sin")}
        assert [len(r) for r in rows] == ([127, 127] if order is spectral else [64, 127])
        assert all(a is b for a, b in zip(*rows))


def test_tables_match_calls_bit_for_bit_at_509_points(monkeypatch):
    # SpectralAnalysis's 509-point DFTs, whole (`none`) and halved (`dsp`), print
    # the same bits and count the same read from tables as calling sin and cos
    from dspc import interp, lowering
    app = corpus.find_app("SpectralAnalysis")
    x = app.synth_inputs(app.default_sizes(), 1)

    def runs():  # from cold caches: a unit keeps the render it was given first
        lowering.op_unit.cache_clear()
        interp.SHAPE_RENDERS.clear()
        out = []
        for p in _corpus_programs(apps=[app]):
            got, c = evaluate_loop_ir(p, x)
            out.append(({vid: [v.hex() for v in t.values] for vid, t in got.items()},
                        {**c.as_dict(), "wall_time_ns": 0}, compiled_source(p)))
        return out

    try:
        tabled = runs()
        monkeypatch.setattr(interp, "TABLE_ENTRIES", 0)
        called = runs()
    finally:
        monkeypatch.undo()
        lowering.op_unit.cache_clear()
        interp.SHAPE_RENDERS.clear()
    assert [r[:2] for r in tabled] == [r[:2] for r in called]
    assert all("_table(" in t and "_cos(" not in t for *_, t in tabled)
    assert all("_table(" not in t and "_cos(" in t for *_, t in called)
    # the fused DFT's streamed row reads its sample's stream: no copy into a temporary
    text = compiled_source(_corpus_programs(apps=[corpus.find_app("AudioCompression")])[1])
    assert "for s0, s1, s2 in zip(" in text and not re.search(r"\bt\d+ = s\d+$", text, re.M)


def test_corpus_programs_render_each_op_shape_once_from_cold_caches(monkeypatch):
    # a unit whose trig nest reads twiddle tables has one render too: the table form
    from dspc import interp, lowering
    lowering.op_unit.cache_clear()
    interp.SHAPE_RENDERS.clear()
    rendered = _count_renders(monkeypatch)
    programs = _corpus_programs()
    for p in programs:
        compiled_source(p)
    shapes = {unit.shape for p in programs for _, unit, _ in p.calls}
    assert None not in shapes and len(rendered) == len(shapes)


def test_calls_of_one_unit_run_one_function():
    # AudioCompression's two run_len_encoding ops share one unit on each
    # route, so both calls run the same function object
    for p in _corpus_programs(apps=[corpus.find_app("AudioCompression")]):
        rle = [k for k, (label, *_) in enumerate(p.calls)
               if label.endswith(" run_len_encoding")]
        assert len(rle) == 2 and p.calls[rle[0]][1] is p.calls[rle[1]][1]
        fns = _unit_functions(p)
        assert fns[rle[0]] is fns[rle[1]]


def _temps(node) -> set[str]:
    """The names of the temporaries in an IR node, list or tree."""
    if isinstance(node, TempRef):
        return {node.name}
    if isinstance(node, list):
        return set().union(*map(_temps, node))
    if dataclasses.is_dataclass(node) and not isinstance(node, AffineExpr):
        return set().union(*(_temps(getattr(node, f.name))
                             for f in dataclasses.fields(node)))
    return set()


def _renamed(node, names: dict[str, str]):
    """An IR node, list or tree with each temporary `t` renamed `names[t]`."""
    if isinstance(node, TempRef):
        return TempRef(names[node.name])
    if isinstance(node, list):
        return [_renamed(n, names) for n in node]
    if dataclasses.is_dataclass(node) and not isinstance(node, AffineExpr):
        return dataclasses.replace(node, **{
            f.name: _renamed(getattr(node, f.name), names)
            for f in dataclasses.fields(node)})
    return node


def test_unit_text_does_not_depend_on_temporary_names():
    # emitters name temporaries as they please: the render walk renames every
    # one by first use, so a bijective renaming renders the same text
    from dspc.interp import _Compiler
    units = {id(unit): unit for p in _corpus_programs() for _, unit, _ in p.calls}
    assert len(units) > 20
    for unit in units.values():
        names = sorted(_temps(unit.body))
        swapped = dict(zip(names, [f"{n}_" for n in reversed(names)]))
        copy = Unit(unit.buffers, _renamed(unit.body, swapped))
        assert _temps(copy.body) == set(swapped.values())
        assert _Compiler(copy).render().text == _Compiler(unit).render().text


def test_consts_yields_the_constants_nodes_walks_in_its_order(monkeypatch):
    # `_consts` is a dedicated walker over the slots that may hold a ConstF;
    # a unit binds its render's slots by position in its list, so it must be
    # the generic walk's list: the same objects in the same order
    from dspc.interp import _consts, _nodes
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import programs  # the compile workloads' program generator
    lowered = [*_corpus_programs(), program_for(
        (FIXTURES / "golden_lowering.dsp").read_text(), {"x": 3, "d": 3})]
    for workload in ("compile-fire", "compile-miss"):
        for p in programs.make_block(workload, 7, 0)[::3]:
            g = corpus.compile_source(p.source, {name: p.length for name, _ in p.input_seeds})
            lowered += [lower_graph(g), lower_graph(apply_dsp_patterns(g)[0])]
    bodies = list({id(unit): unit.body for p in lowered for _, unit, _ in p.calls}.values())
    assert len(bodies) > 40
    # and a constant in each slot of each kind of node that may hold one
    c, i, t = (ConstF(float(k)) for k in range(16)), AffineExpr.of("i"), TempRef("t")
    bodies.append([For("i", 0, 2, [
        Assign(t, Cond("lt", next(c), next(c), next(c), next(c)) * Call("sin", next(c))),
        IfCmp("lt", next(c), next(c), [DynAppend("q", next(c))], [Store("y", i, next(c) / t)]),
        SelectGuard(i, 0, 1, [Store("y", i, next(c))], [Store("y", i, next(c))])], "loop")])
    found = 0
    for body in bodies:
        want = [n for n, _ in _nodes(body) if isinstance(n, ConstF)]
        got = _consts(body, [])
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
        found += len(got)
    assert found > 200


def test_recompiling_the_corpus_compiles_nothing(monkeypatch):
    from dspc import interp
    for p in _corpus_programs():
        compiled_source(p)
    shapes = list(interp.UNIT_CODE)
    compiled = []

    def counted(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(interp, "compile", counted, raising=False)
    for p in _corpus_programs():
        compiled_source(p)
    assert compiled == [] and list(interp.UNIT_CODE) == shapes
    # a new shape (its loop tag is new) is compiled once, through `compile`
    i, tag = AffineExpr.of("i"), f"new_shape_{len(shapes)}"
    for _ in range(2):
        compiled_source(one_unit(
            [BufferDecl("y", 2)], [For("i", 0, 2, [Store("y", i, ConstF(1.0))], tag)],
            inputs=[], outputs=[]))
    assert len(compiled) == 1 and len(interp.UNIT_CODE) == len(shapes) + 1


def test_recompiling_the_corpus_lowers_validates_and_renders_nothing(monkeypatch):
    # a unit is checked in the walk that renders it, so `render` counts both
    from dspc import interp, lowering
    for p in _corpus_programs():
        compiled_source(p)
    work = []

    def counted(name, fn):
        def wrapper(*args):
            work.append(name)
            return fn(*args)
        return wrapper

    # an emitter runs only where `op_unit` lowers an op
    for opcode, emit in list(lowering.EMITTERS.items()):
        monkeypatch.setitem(lowering.EMITTERS, opcode, counted("lower", emit))
    monkeypatch.setattr(interp._Compiler, "render",
                        counted("render", interp._Compiler.render))
    misses = lowering.op_unit.cache_info().misses
    programs = _corpus_programs()
    for p in programs:
        compiled_source(p)
    assert work == [] and lowering.op_unit.cache_info().misses == misses
    assert sum(len(p.calls) for p in programs) == 83
    # a new op is lowered, then checked and rendered, once
    lowering.op_unit.cache_clear()
    interp.SHAPE_RENDERS.clear()
    for _ in range(2):
        compiled_source(program_for("def main(x) { print(gain(x, 2.25)); }",
                                    {"x": 5}))
    assert work == ["lower", "render"]


def _draw(rng, spec):
    """A seeded in-range value of attribute `spec`: an int from 1 to 6, or a
    float among signed zeros, small integers and uniform draws."""
    while True:
        v = rng.randint(1, 6) if spec.kind == "int" else rng.choice(
            [0.0, -0.0, float(rng.randint(-3, 3)), rng.uniform(-4.0, 4.0), rng.uniform(0.0, 0.5)])
        if spec.problem(v) is None:
            return v


def _float_twins(sig, seed):
    """The attributes of two valid ops of `sig` that differ only in the
    spelling of their float values."""
    rng = random.Random(f"{sig.opcode.value}/{seed}")
    ints = {spec.name: _draw(rng, spec) for spec in sig.attrs if spec.kind != "float"}
    twins: list[tuple] = []
    while len(twins) < 2:
        values = tuple(_draw(rng, spec) if spec.kind == "float" else ints[spec.name]
                       for spec in sig.attrs)
        if (sig.cross_check is None or sig.cross_check(*values) is None) \
                and repr(values) not in map(repr, twins):
            twins.append(values)
    return twins


def _lone_op_program(sig, attributes):
    """The lowered program printing one op of `sig`, each operand an input of 8."""
    ins = [OpNode(i, OpCode.INPUT, (), (f"x{i}",), (TensorShape(8),))
           for i in range(sig.n_operands)]
    op = OpNode(sig.n_operands, sig.opcode, tuple(range(sig.n_operands)), attributes)
    op = dataclasses.replace(op, result_shapes=sig.shape(op, [TensorShape(8)] * len(ins)))
    graph = DspGraph([*ins, op, OpNode(-1, OpCode.PRINT, (op.id,))])
    assert verify_graph(graph) == []
    return lower_graph(graph)


def _outcome(program, inputs):
    """Printed values (as hex, so -0.0 is not 0.0) and counters, or the error."""
    try:
        out, c = evaluate_loop_ir(program, inputs)
    except LoopRuntimeError as exc:  # e.g. an adaptive filter that diverges
        return type(exc), str(exc)
    counters = c.as_dict()
    del counters["wall_time_ns"]
    return [[v.hex() for v in t.values] for t in out.values()], counters


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sig", [
    pytest.param(sig, id=sig.opcode.value) for sig in OP_DEFS.values()
    if any(spec.kind == "float" for spec in sig.attrs)])
def test_ops_differing_only_in_floats_share_one_render(monkeypatch, sig, seed):
    # a float attribute reaches a unit only as ConstF values, each lifted to a
    # literal: the second op of a shape binds its own values to the first's
    # render, with no walk and no compile, and runs as if rendered alone
    from dspc import interp, lowering
    lowering.op_unit.cache_clear()
    interp.SHAPE_RENDERS.clear()
    first, second = (_lone_op_program(sig, a) for a in _float_twins(sig, seed))
    compiled_source(first)
    walked, compiled = _count_renders(monkeypatch), []
    monkeypatch.setattr(interp, "compile", lambda *a: compiled.append(a) or compile(*a),
                        raising=False)
    compiled_source(second)
    assert walked == [] and compiled == []
    (label, unit, names), = second.calls
    a, b = interp._rendered(first.calls[0][1]), interp._rendered(unit)
    assert b.text is a.text and (b.params, b.static, b.branches) == (a.params, a.static, a.branches)
    monkeypatch.undo()
    alone = LoopProgram(second.buffers, second.inputs, second.outputs,
                        calls=[(label, Unit(unit.buffers, unit.body), names)],
                        input_free=second.input_free)
    r = interp._rendered(alone.calls[0][1])
    assert (repr(r.fn.__defaults__), r.literals) == (repr(b.fn.__defaults__), b.literals)
    assert compiled_source(alone) == compiled_source(second)
    rng = random.Random(seed)
    inputs = {f"x{i}": rand(rng, 8) for i in range(sig.n_operands)}
    assert _outcome(alone, inputs) == _outcome(second, inputs)


def test_evicted_shape_renders_change_no_program(monkeypatch):
    # with room for two op shapes, renders are evicted and walked again, and
    # every corpus program still gives the text, outputs and counters it
    # gives under the default bound
    from dspc import interp, lowering

    def corpus_runs():
        lowering.op_unit.cache_clear()
        interp.SHAPE_RENDERS.clear()
        runs = []
        for app in corpus.APPS:
            sizes = app.default_sizes()
            g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
            inputs = app.synth_inputs(sizes, app.base_seed)
            for graph in (g, apply_dsp_patterns(g)[0]):
                program = lower_graph(graph)
                outputs, counters = evaluate_loop_ir(program, inputs)
                counters.wall_time_ns = 0
                runs.append((compiled_source(program), outputs, counters))
                assert len(interp.SHAPE_RENDERS) <= interp.UNIT_MEMO_SIZE
        return runs

    want = corpus_runs()
    walked = _count_renders(monkeypatch)
    monkeypatch.setattr(interp, "UNIT_MEMO_SIZE", 2)
    assert corpus_runs() == want
    assert len(walked) > len({unit.shape for unit in walked})


def _runaway_append(capacity):
    """A unit that appends one value more than its buffer holds."""
    return [For("i", 0, capacity + 1, [DynAppend("v0", ConstF(1.0))], "fill")]


def test_capacity_message_names_the_program_buffer():
    # the unit's buffer is v0; its call binds it to the program's v7
    unit = Unit((BufferDecl("v0", 512, dynamic=True),), _runaway_append(512))
    v7 = BufferDecl("v7", 512, dynamic=True)
    called = LoopProgram(buffers=[v7], inputs=[], outputs=[(7, "v7")],
                         calls=[("%7 run_len_encoding", unit, ("v7",))])
    hand_built = one_unit([v7], [For("i", 0, 513, [DynAppend("v7", ConstF(1.0))],
                                     "fill")], inputs=[], outputs=[(7, "v7")])
    for p in (called, hand_built):
        with pytest.raises(CapacityExceeded) as exc:
            evaluate_loop_ir(p)
        assert str(exc.value) == "buffer v7 exceeded capacity 512"


def test_non_finite_message_names_each_program_buffer():
    # one LMS unit, called as %2 and as %3: each call names its own buffer
    lms = "lmsFilter(x, d, 100000.0, 8)"
    p = program_for(f"def main(x, d) {{ print({lms}); }}", {"x": 256, "d": 256})
    q = program_for(f"def main(x, d) {{ print(x + d); print({lms}); }}",
                    {"x": 256, "d": 256})
    assert p.calls[0][1] is q.calls[1][1]
    x = rand(random.Random(9), 256)
    for program, buf in ((p, "v2"), (q, "v3")):
        with pytest.raises(NonFinite) as exc:
            evaluate_loop_ir(program, {"x": x, "d": x})
        assert str(exc.value) == f"non-finite value in {buf}"


def test_hand_built_program_is_one_unit(monkeypatch):
    # one unlabelled call over every buffer, checked and rendered once: its
    # call line has no label; a non-finite literal is written so that it
    # reads back.  A hand-built unit has no op shape: an equal one built
    # again is walked again, and a recompile walks nothing
    checked = _count_renders(monkeypatch)
    i = AffineExpr.of("i")

    def build():
        return one_unit(
            [BufferDecl("x", 3), BufferDecl("y", 3), BufferDecl("z", 1)],
            [For("i", 0, 3, [Store("y", i, Load("x", i) + float("-inf"))], "fill"),
             Store("z", AffineExpr.lit(0), Load("x", AffineExpr.lit(2)))],
            inputs=[("x", "x")], outputs=[(1, "y"), (2, "z")])

    p, q = build(), build()
    out, c = evaluate_loop_ir(p, {"x": tensor([1.0, 2.0, 3.0])})
    (label, unit, names), = p.calls
    assert (label, names, checked) == ("", ("x", "y", "z"), [unit])
    assert out[1].values == (-math.inf,) * 3 and out[2].values == (3.0,)
    assert (c.loads, c.stores, c.adds, c.loop_iterations) == (4, 4, 3, 3)
    assert compiled_source(p).splitlines()[-5:] == [
        "def _run0(b0, b1, b2, c0, c1, c2, c3, c4):",
        "    for i0 in range(c0, c1):  # fill",
        "        b0[i0] = b1[i0] + c2",
        "    b2[c3] = b1[c4]",
        "_run0(y, x, z, 0, 3, float('-inf'), 0, 2)"]
    assert checked == [unit]
    assert compiled_source(q) == compiled_source(p) and checked == [unit, q.calls[0][1]]


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
    return one_unit([BufferDecl("x", 3), BufferDecl("y", 3)],
                    [For("i", 0, 3, [*stmts, Store("y", i, value)], "tree")],
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
    # the arm a conditional takes is data-dependent, so it may not be metered
    (Cond("gt", ConstF(0.0), ConstF(1.0), Load("x", AffineExpr.of("i")),
          ConstF(0.0)), ()),
], ids=["divisor", "sinc_arg", "cond_arm"])
def test_tree_read_more_than_once_must_be_a_leaf(value, stmts):
    with pytest.raises(LoopIrError):
        compiled_source(_tree_program(value, *stmts))


# Guard-free reductions as streams -------------------------------------------

_OUTER = 3  # outer trips k: each slice moves with k


def _offset(coeff, edge, trips, cap, rng):
    """The offset o that puts load `buf[coeff*j + k + o]`, over j in [0,
    trips) and k in [0, _OUTER), flush against index 0 ("low"), flush against
    cap - 1 ("high") or in between ("mid")."""
    lo, hi = (0, cap - trips - _OUTER + 1) if coeff == 1 else (trips - 1, cap - _OUTER)
    return {"low": lo, "high": hi, "mid": rng.randint(lo, hi)}[edge]


def _reduction(loads, shape, trips):
    """For each k: acc = 0.0, a guard-free loop over j in [0, trips), then
    y[k] = acc.  The loop body over loads L0, L1, ... is "direct": acc = acc +
    L0 * L1 * L2; "tap": tap = L0, then acc = acc + tap * L1 * L2; or "pair",
    the symmetric FIR's: pair = 0.0, pair = pair + L1, pair = pair + L2, then
    acc = acc + L0 * pair (with one load, pair sums L0 and acc = acc + pair)."""
    terms = [Load(b, AffineExpr.of("j", c).plus(AffineExpr.of("k", 1, o)))
             for b, c, o in loads]
    acc, tap, pair = TempRef("acc"), TempRef("tap"), TempRef("pair")
    body = []
    if shape == "tap":
        body, terms = [Assign(tap, terms[0])], [tap, *terms[1:]]
    elif shape == "pair":
        body = [Assign(pair, ConstF(0.0))]
        body += [Assign(pair, pair + t) for t in terms[1:] or terms]
        terms = [terms[0], pair] if len(terms) > 1 else [pair]
    product = terms[0]
    for t in terms[1:]:
        product = product * t
    return [For("k", 0, _OUTER, [
        Assign(acc, ConstF(0.0)),
        For("j", 0, trips, [*body, Assign(acc, acc + product)], "inner"),
        Store("y", AffineExpr.of("k"), acc)], "outer")]


def _reference(loads, shape, trips, bufs):
    """The outputs and counters of `_reduction`, evaluated statement by
    statement in plain Python."""
    y, mults, adds = [], 0, 0
    for k in range(_OUTER):
        acc = 0.0
        for j in range(trips):
            v = [bufs[b][c * j + k + o] for b, c, o in loads]
            if shape == "pair":
                pair = 0.0
                for w in v[1:] or v:
                    pair, adds = pair + w, adds + 1
                v = [v[0], pair] if len(v) > 1 else [pair]
            product = v[0]
            for w in v[1:]:
                product, mults = product * w, mults + 1
            acc, adds = acc + product, adds + 1
        y.append(acc)
    loads_by_buffer = {}
    for b, _, _ in loads:
        loads_by_buffer[b] = loads_by_buffer.get(b, 0) + _OUTER * trips
    return y, {"loop_iterations": _OUTER * (trips + 1),
               "loads": sum(loads_by_buffer.values()), "stores": _OUTER,
               "mults": mults, "adds": adds, "trig_calls": 0,
               "loop_iters_by_tag": {"inner": _OUTER * trips, "outer": _OUTER},
               "loads_by_buffer": dict(sorted(loads_by_buffer.items()))}


def _stream_cases():
    """Seeded reductions of 1-3 loads of coefficient +-1, each flush against
    index 0, flush against its capacity - 1 or in between, at trip counts on
    both sides of STREAM_MIN_TRIPS, each with the edge each load is set at."""
    rng = random.Random(21)
    cases = []
    for trips in (STREAM_MIN_TRIPS - 1, STREAM_MIN_TRIPS, STREAM_MIN_TRIPS + 7):
        caps = {"x": trips + _OUTER + rng.randint(0, 4), "h": trips + _OUTER - 1}
        for m in (1, 2, 3):
            for shape in ("direct", "tap", "pair"):
                spec = [(rng.choice("xh"), rng.choice((1, -1)),
                         rng.choice(("low", "high", "mid"))) for _ in range(m)]
                loads = [(b, c, _offset(c, edge, trips, caps[b], rng))
                         for b, c, edge in spec]
                cases.append((loads, shape, trips, caps, [e for *_, e in spec]))
    return cases


def _stream_program(loads, shape, trips, caps):
    return one_unit([BufferDecl("x", caps["x"]), BufferDecl("h", caps["h"]),
                     BufferDecl("y", _OUTER)], _reduction(loads, shape, trips),
                    inputs=[("x", "x"), ("h", "h")], outputs=[(1, "y")])


@pytest.mark.parametrize("case", _stream_cases(),
                         ids=lambda c: f"{c[1]}-{len(c[0])}loads-{c[2]}trips")
def test_streamed_reduction_matches_plain_python(case):
    loads, shape, trips, caps, edges = case
    rng = random.Random(trips * 10 + len(loads))
    bufs = {b: [rng.uniform(-1, 1) for _ in range(cap)] for b, cap in caps.items()}
    program = _stream_program(loads, shape, trips, caps)
    out, c = evaluate_loop_ir(program, {b: tensor(v) for b, v in bufs.items()})
    want, counts = _reference(loads, shape, trips, bufs)
    assert out[1].values == tuple(want)  # bit for bit
    got = c.as_dict()
    del got["wall_time_ns"]
    assert got == counts
    # at STREAM_MIN_TRIPS trips and more the inner loop runs over one slice
    # per distinct load, its temporaries folded into one statement; below,
    # it has no `for` line but a tag comment and that statement once per trip
    lines = compiled_source(program).splitlines()
    heads = [k for k, line in enumerate(lines) if line.endswith("# inner")]
    if trips >= STREAM_MIN_TRIPS:
        assert lines[heads[0]].lstrip().startswith("for s0")
        assert not lines[heads[0] + 2].startswith(" " * 12)
    else:
        assert not heads
        head = lines.index(f"        # inner: {trips} trips, straight-line")
        copies = lines[head + 1:head + 1 + trips]
        assert all(re.match(r" {8}t\d+ = t\d+ \+ ", line) for line in copies), copies
        assert re.match(r" {8}b\d+\[i0\] = t\d+$", lines[head + 1 + trips])
        assert "i1" not in "\n".join(copies)
    # an offset one past the edge a load is flush against fails to render
    for k, edge in enumerate(edges):
        if edge != "mid":
            b, coeff, o = loads[k]
            bad = [*loads[:k], (b, coeff, o + (1 if edge == "high" else -1)), *loads[k + 1:]]
            with pytest.raises(OutOfBounds, match=f"^buffer '{b}': index "):
                compiled_source(_stream_program(bad, shape, trips, caps))


def _short_loop_case(name):
    """A program over x (8 samples) and h (12) whose one loop of 8 trips is
    short but must keep its `for` line, and the plain-Python values of y."""
    j, k = AffineExpr.of("j"), AffineExpr.of("k")
    k_j = k.plus(AffineExpr.of("j", -1))
    acc, t = TempRef("acc"), TempRef("t")
    x = [0.5 + v for v in range(8)]
    h = [0.25 * v + 1.0 for v in range(12)]
    if name == "outermost":
        body = [For("j", 0, 8, [Store("y", j, Load("x", j) * 2.0)], "inner")]
        want = [v * 2.0 for v in x]
    else:
        if name == "checked_divisor":
            inner = [Assign(t, Load("h", j.plus(k))), Assign(acc, acc + Load("x", j) / t)]
            term = lambda a, b: x[b] / h[a + b]
        else:  # "unproved_guard": x[k - j] is read only where k - j is in [0, 8)
            inner = [SelectGuard(k_j, 0, 8, [Assign(acc, acc + Load("x", k_j))])]
            term = lambda a, b: x[a - b]
        body = [For("k", 0, 4, [Assign(acc, ConstF(0.0)), For("j", 0, 8, inner, "inner"),
                                Store("y", k, acc)], "outer")]
        want = []
        for a in range(4):
            total = 0.0
            for b in range(8 if name == "checked_divisor" else a + 1):
                total = total + term(a, b)
            want.append(total)
    prog = one_unit([BufferDecl("x", 8), BufferDecl("h", 12), BufferDecl("y", len(want))],
                    body, inputs=[("x", "x"), ("h", "h")], outputs=[(1, "y")])
    return prog, {"x": tensor(x), "h": tensor(h)}, want


@pytest.mark.parametrize("name", ["checked_divisor", "outermost", "unproved_guard"])
def test_short_loop_keeps_its_for(name):
    # below STREAM_MIN_TRIPS a guard-free inner loop is straight-line code;
    # these are not, so each runs as an indexed loop with its tag
    program, inputs, want = _short_loop_case(name)
    out, _ = evaluate_loop_ir(program, inputs)
    assert out[1].values == tuple(want)
    lines = compiled_source(program).splitlines()
    assert any(re.match(r" +for i\d+ in range\(.*\):  # inner$", line) for line in lines), lines
    assert not any("straight-line" in line for line in lines)
    if name == "checked_divisor":  # h[5] zero: the first zero divisor is at k = 0, j = 5
        h = [*inputs["h"].values[:5], 0.0, *inputs["h"].values[6:]]
        with pytest.raises(LoopDivisionByZero, match="^division by zero at element 5$"):
            evaluate_loop_ir(program, {**inputs, "h": tensor(h)})


def _fold_case(name):
    """A loop of STREAM_MIN_TRIPS trips over x whose temporary t must not be
    folded, and the plain-Python value of y[0] after it."""
    n, j = STREAM_MIN_TRIPS, AffineExpr.of("j")
    acc, t, xj = TempRef("acc"), TempRef("t"), Load("x", j)
    xs = [0.5 + k for k in range(n)]
    if name == "read_after_loop":  # the last value of t is stored
        body, after, want = [Assign(t, xj), Assign(acc, acc + t)], t, xs[-1]
    elif name == "checked_divisor":  # only a leaf may be a checked divisor
        body, after = [Assign(t, xj), Assign(acc, acc + ConstF(1.0) / t)], acc
        want = 0.0
        for v in xs:
            want = want + 1.0 / v
    else:  # "read_later": acc changes between the Assign of t and its read
        u = TempRef("u")
        body, after = [Assign(t, acc), Assign(acc, acc + xj), Assign(u, u + t)], u
        want, a = 0.0, 0.0
        for v in xs:
            want, a = want + a, a + v
    prog = one_unit([BufferDecl("x", n), BufferDecl("y", 1)], [
        Assign(acc, ConstF(0.0)), Assign(TempRef("u"), ConstF(0.0)),
        For("j", 0, n, body, "loop"), Store("y", AffineExpr.lit(0), after)],
        inputs=[("x", "x")], outputs=[(1, "y")])
    return prog, {"x": tensor(xs)}, want


@pytest.mark.parametrize("name", ["read_after_loop", "checked_divisor", "read_later"])
def test_fold_keeps_what_it_cannot_fold(name):
    program, inputs, want = _fold_case(name)
    out, _ = evaluate_loop_ir(program, inputs)
    assert out[1].values == (want,)
    lines = compiled_source(program).splitlines()
    head = next(k for k, line in enumerate(lines) if line.endswith("# loop"))
    body = [line for line in lines[head + 1:] if re.match(r" {8}t\d+ = ", line)]
    assert len(body) == len(program.calls[0][1].body[2].body), lines


def _unit_texts(programs):
    texts = {}
    for p in programs:
        compiled_source(p)
        texts.update(dict.fromkeys(r.text for r, *_ in p._compiled.calls))
    return list(texts)


def test_every_unit_parameter_is_read():
    # a literal lifted but never rendered (a range bound a stream replaced,
    # say) would leave a dead parameter in the unit's signature
    golden = program_for((FIXTURES / "golden_lowering.dsp").read_text(),
                         {"x": 3, "d": 3})
    texts = _unit_texts([*_corpus_programs(), golden])
    assert len(texts) > 25
    for text in texts:
        fn = ast.parse(text).body[0]
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert {a.arg for a in fn.args.args} <= read, text


_STREAM_FOR = re.compile(r"^ *for (s\d+(, s\d+)*) in (.+):  # (\S+)$")


def test_long_guard_free_reductions_stream():
    # the FIR interiors (101 taps, 50 symmetric pairs), EnergyOfSignal's
    # 1024-trip sum, and AudioCompression's 256-point and SpectralAnalysis's
    # 509-point DFT rows, which read twiddle tables, stream; HearingAid's
    # 16-trip loops stay indexed
    want = {"LowPassFiltering": ({"fir_filter_response.inner"},
                                 {"filter_res_symm_opt.inner"}),
            "EnergyOfSignal": ({"sum"}, {"sum"}),
            "AudioCompression": ({"dft1d_real.inner", "dft1d_imag.inner"},
                                 {"dft1d_fused.inner"}),
            "SpectralAnalysis": ({"dft1d_real.inner", "dft1d_imag.inner"},
                                 {"dft1d_real_symm.inner", "dft1d_imag_symm.inner"}),
            "AudioEqualizer": ({"fir_filter_response.inner"}, {"fir_filter_response.inner"})}
    for app in corpus.APPS:
        for route, p in zip(want.get(app.name, (set(), set())),
                            _corpus_programs(apps=[app])):
            heads = [line for line in compiled_source(p).splitlines()
                     if line.lstrip().startswith("for s")]
            # every stream's `for` line carries its loop's tag
            assert all(_STREAM_FOR.match(line) for line in heads), heads
            assert {_STREAM_FOR.match(line)[4] for line in heads} == route, app.name


def test_counters_report_identical_runs():
    p = program_for("def main(x) { print(square(x)); }", {"x": 8})
    rng = random.Random(5)
    x = {"x": rand(rng, 8)}
    _, c1 = evaluate_loop_ir(p, x)
    _, c2 = evaluate_loop_ir(p, x)
    report = counters_report(c1, c2, (100, 100))
    ratios = dict(report["ratios"])
    ratios.pop("wall_time_ns")
    assert all(v == 1.0 for v in ratios.values())


def test_counters_report_zero_over_zero():
    p = program_for("def main() { print([1]); }")
    _, c1 = evaluate_loop_ir(p, {})
    _, c2 = evaluate_loop_ir(p, {})
    report = counters_report(c1, c2, (0, 0))
    assert report["ratios"]["trig_calls"] == 1.0  # 0/0 reads as unchanged


def test_report_table_renders_rows():
    p = program_for("def main(x) { print(square(x)); }", {"x": 8})
    rng = random.Random(6)
    x = {"x": rand(rng, 8)}
    _, c1 = evaluate_loop_ir(p, x)
    _, c2 = evaluate_loop_ir(p, x)
    table = report_table(counters_report(c1, c2, (c1.wall_time_ns, c2.wall_time_ns)))
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


def _output_digests(apps=corpus.APPS, enabled=None):
    """sha256 of the `float.hex` of every printed value, per corpus app,
    route and input seed 1-3, at default sizes."""
    got = {}
    for app in apps:
        sizes = app.default_sizes()
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        for route, graph in (("none", g), ("dsp", apply_dsp_patterns(g, enabled)[0])):
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


def test_audio_equalizer_without_pattern_8_keeps_its_unmerged_route():
    # with --patterns=1,2 the dsp route is the one pinned before pattern 8
    # merged the bands: pattern 2 pairs one band of three
    got = _output_digests([corpus.find_app("AudioEqualizer")],
                          {PatternId.SYMMETRIC_FILTER, PatternId.SYMMETRIC_FILTER_RESPONSE})
    assert {k: v for k, v in got.items() if "/dsp/" in k} == {
        "AudioEqualizer/dsp/1": "da30c7e38484181e9fde008b06aa3a030e85f9aa1e707773a433682fcecabe05",
        "AudioEqualizer/dsp/2": "0852148a9a1087d584210f6ca20855f7b742e36cc78b479820b166afe20876a2",
        "AudioEqualizer/dsp/3": "40ff6858f8b24d7c5d33fa78e5df2b0308b1e60163af93332fdfe5891b5d86b9",
    }


# Input-free calls: a run that ends without raising keeps their buffers, and
# every later run of the program skips them.


def _writes(stmts):
    """The buffers each Store and DynAppend in `stmts` writes."""
    for s in stmts:
        if isinstance(s, (Store, DynAppend)):
            yield s.buffer
        for arm in ("body", "orelse"):
            yield from _writes(getattr(s, arm, ()))


def test_every_call_writes_exactly_its_own_results():
    # so a buffer kept from an input-free call is never written by a later call
    golden = program_for((FIXTURES / "golden_lowering.dsp").read_text(), {"x": 3, "d": 3})
    calls = [call for p in [*_corpus_programs(), golden] for call in p.calls]
    for label, unit, names in calls:
        vid, opcode = label[1:].split()
        own = {f"v{int(vid) + i}" for i in range(OP_DEFS[OpCode(opcode)].n_results)}
        bound = dict(zip([b.name for b in unit.buffers], names))
        assert {bound[b] for b in _writes(unit.body)} == own, label
    assert len(calls) > len(golden.calls)


def _outcome_and_units(program, inputs):
    """(outputs as hex and counters but wall time, or the error raised; the
    code of each unit function called, in order) of one run of `program`."""
    ran = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == "<loop-unit>":
            ran.append(frame.f_code)
    sys.setprofile(profile)
    try:
        outcome = _outcome(program, inputs)
    finally:
        sys.setprofile(None)
    return outcome, ran


def test_later_runs_equal_a_fresh_programs_first_run():
    for app in corpus.APPS:
        sizes = app.default_sizes()
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        for graph in (g, apply_dsp_patterns(g)[0]):
            program = lower_graph(graph)
            for seed in (1, 2, 3):
                inputs = app.synth_inputs(sizes, seed)
                assert _outcome(program, inputs) == _outcome(lower_graph(graph), inputs)


@pytest.mark.parametrize("name, later", [("FilterDesign", []),
                                         ("LowPassFiltering", ["add", "filter_res_symm_opt"])])
def test_later_runs_call_only_what_reads_an_input(name, later):
    app = corpus.find_app(name)
    program, = _corpus_programs(apps=[app])[1:]
    code = {label.split()[1]: c for (label, *_), c in zip(program.calls, _unit_code(program))}
    inputs = app.synth_inputs(app.default_sizes(), 1)
    outcome, ran = _outcome_and_units(program, inputs)
    assert ran == _unit_code(program)
    for _ in range(2):
        assert _outcome_and_units(program, inputs) == (outcome, [code[op] for op in later])
    # a folded run counts exactly what the first did, the counters of the
    # branches of the input-free filter_hamm_opt too
    starts = program._compiled.starts
    assert [label.split()[1] for c, (label, *_) in enumerate(program.calls)
            if c in program.input_free and starts[c + 1] > starts[c]] == ["filter_hamm_opt"]


def test_an_input_free_call_that_raises_raises_on_every_run():
    big = "gain(hammingWindow(4), 1" + "0" * 308 + ") * 10"  # 1e308 as a plain literal
    program = program_for(f"def main() {{ var big = {big}; print(threshold(big - big, 0.5)); }}")
    (error, message), ran = _outcome_and_units(program, {})
    assert error is NonFinite and len(ran) == len(program.calls) == len(program.input_free)
    for _ in range(2):
        assert _outcome_and_units(program, {}) == ((error, message), ran)


def test_a_run_that_fails_later_keeps_nothing():
    source = "def main(x) { print(hammingWindow(4) / x); }"
    program = program_for(source, {"x": 4})
    bad, good = {"x": tensor([1, 0, 1, 1])}, {"x": tensor([1, 2, 3, 4])}
    failed = _outcome(program_for(source, {"x": 4}), bad)
    assert failed[0] is LoopDivisionByZero
    all_units = _unit_code(program)
    for _ in range(2):
        assert _outcome_and_units(program, bad) == (failed, all_units)
    done = _outcome(program_for(source, {"x": 4}), good)
    assert _outcome_and_units(program, good) == (done, all_units)
    assert _outcome_and_units(program, good) == (done, all_units[1:])
    assert _outcome_and_units(program, bad) == (failed, all_units[1:])


def test_buffer_too_large_is_raised_on_every_run_before_allocating():
    # [0.0] * 10**20 would raise OverflowError: the check comes first each run
    program = program_for("def main() { print(sinVec(1" + "0" * 20 + ", 1, 8)); }")
    assert program.input_free
    for _ in range(3):
        with pytest.raises(BufferTooLarge, match="cannot be allocated"):
            evaluate_loop_ir(program, {})

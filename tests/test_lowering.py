"""Lowering soundness: loop-IR execution must match the reference kernels of
the source-level graph, rewritten or not, and trip/operation counts must
match loop-bound arithmetic.
"""

import ast
import itertools
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from dspc.frontend import parse_source
from dspc.graph import DspGraph, build_graph, infer_shapes
from dspc.interp import compiled_source, evaluate_loop_ir, tensor
from dspc.loop_ir import (AffineExpr, BufferDecl, For, IfCmp, Load,
                          LoopProgram, OutOfBounds, SelectGuard, Store, ConstF,
                          Unit)
from dspc.lowering import UNIT_MEMO_SIZE, lower_graph, op_unit
from dspc.ops import OpCode
from dspc.rewriter import apply_dsp_patterns

import kernels as K


def compile_graph(source, lengths=None, opt=False):
    g = infer_shapes(build_graph(parse_source(source)), lengths)
    if opt:
        g, _ = apply_dsp_patterns(g)
    return g


def rand(rng, n):
    return tensor([rng.uniform(-1, 1) for _ in range(n)])


def one_unit(buffers, body, **fields):
    """A hand-built program: one unlabelled call of `body` over `buffers`."""
    names = tuple(b.name for b in buffers)
    return LoopProgram(buffers=buffers, calls=[("", Unit(tuple(buffers), body), names)],
                       **fields)


def statements(program):
    """The statements of every call's unit, in call order."""
    return [stmt for _, unit, _ in program.calls for stmt in unit.body]


def run_both(source, lengths, inputs, opt=False):
    """The printed tensors of the program on the loop backend, rewritten by
    the default patterns if `opt` is true or by `opt` if it is a function;
    those of the graph before rewriting under the reference kernels; and the
    loop backend's counters."""
    g = compile_graph(source, lengths)
    run = opt(g) if callable(opt) else apply_dsp_patterns(g)[0] if opt else g
    outs, counters = evaluate_loop_ir(lower_graph(run), inputs)
    ref = K.eval_graph(g, inputs)
    return [outs[v] for v in run.prints], [ref[v] for v in g.prints], counters


def assert_matches_kernels(source, lengths, inputs, opt=False, abs_tol=1e-12):
    got, want, _ = run_both(source, lengths, inputs, opt=opt)
    assert len(got) == len(want)
    for a_t, b_t in zip(got, want):
        assert len(a_t) == len(b_t)
        for a, b in zip(a_t.values, b_t.values):
            assert a == pytest.approx(b, rel=1e-9, abs=abs_tol)


# every source-level opcode in one small program each
BASE_PROGRAMS = [
    ("delay", "def main(x) { print(delay(x, 3)); }", 10),
    ("delay_zero", "def main(x) { print(delay(x, 0)); }", 6),
    ("fir", "def main(x) { print(firFilterResponse(x, [0.5, 0.25, 0.125])); }", 12),
    ("conv", "def main(x) { print(conv1d(x, [1, 2, 1])); }", 9),
    ("sliding", "def main(x) { print(slidingWindowAvg(x, 4)); }", 11),
    ("dft_real", "def main(x) { print(dft1dreal(x)); }", 8),
    ("dft_imag", "def main(x) { print(dft1dimg(x)); }", 8),
    ("idft", "def main(x) { print(idft1d(dft1dreal(x), dft1dimg(x))); }", 7),
    ("lowpass", "def main() { print(lowPassFIRFilter(9, 1.0)); }", None),
    ("hamming", "def main() { print(hammingWindow(8)); }", None),
    ("lms", "def main(x) { print(lmsFilter(x, delay(x, 1), 0.05, 3)); }", 24),
    ("add_sub", "def main(a, b) { print(a + b); print(a - b); }", 10),
    ("mul_div", "def main(a) { print(a * a); print(a / 4.0); }", 10),
    ("broadcast", "def main(a) { print(a + 1.5); print(2.0 - a); }", 7),
    ("square_gain", "def main(x) { print(gain(square(x), 0.5)); }", 9),
    ("reverse", "def main(x) { print(reverse(x)); }", 5),
    ("sum", "def main(x) { print(sum(x)); }", 13),
    ("threshold", "def main(x) { print(threshold(x, 0.5)); }", 9),
    ("quantize", "def main(x) { print(quantize(x, 8, 0 - 1, 1)); }", 9),
    ("rle", "def main(x) { print(runLenEncoding(threshold(x, 0.8))); }", 20),
    ("updown", "def main(x) { print(upsample(x, 3)); print(downsample(x, 2)); }", 7),
    ("sinvec", "def main() { print(sinVec(16, 2, 16.0)); }", None),
    ("cosvec", "def main() { print(cosVec(12, 1, 12.0)); }", None),
    ("rangevec", "def main() { print(rangeVec(2, 3, 5)); }", None),
    ("const", "def main() { print([4, 5, 6]); }", None),
    ("return_value", "def main(x) { print(x); return sum(x); }", 6),
]


@pytest.mark.parametrize("name,source,n",
                         BASE_PROGRAMS, ids=[p[0] for p in BASE_PROGRAMS])
def test_each_opcode_matches_kernels(name, source, n):
    rng = random.Random(hash(name) & 0xFFFF)
    lengths = {} if n is None else {"x": n, "a": n, "b": n, "d": n}
    inputs = {k: rand(rng, v) for k, v in lengths.items()}
    assert_matches_kernels(source, lengths or None, inputs)


# rewritten opcodes reach the loop backend through apply_dsp_patterns, and
# they have no kernel: each is held to the kernels of the program it replaced
OPT_PROGRAMS = [
    # the mirrored taps are the product's taps, computed the same way
    ("filter_hamm", """
def main() {
  print(lowPassFIRFilter(%d, 1.2) * hammingWindow(%d));
}""", 0.0),
    ("res_symm", """
def main(x) {
  var h = lowPassFIRFilter(%d, 1.2) * hammingWindow(%d);
  print(firFilterResponse(x, h));
}""", 1e-12),
]


@pytest.mark.parametrize("L", [4, 5, 8, 101])
@pytest.mark.parametrize("name,template,abs_tol",
                         OPT_PROGRAMS, ids=[p[0] for p in OPT_PROGRAMS])
def test_symmetric_filter_lowerings(name, template, abs_tol, L):
    rng = random.Random(L)
    source = template % (L, L)
    lengths = None if "main()" in source else {"x": 48}
    inputs = {} if lengths is None else {"x": rand(rng, 48)}
    assert_matches_kernels(source, lengths, inputs, opt=True, abs_tol=abs_tol)


@pytest.mark.parametrize("n", [3, 4, 16, 17])
def test_symmetric_spectral_lowerings(n):
    rng = random.Random(300 + n)
    source = """
def main(x) {
  var auto = conv1d(x, reverse(x));
  print(dft1dreal(auto));
  print(dft1dimg(auto));
}
"""
    assert_matches_kernels(source, {"x": n}, {"x": rand(rng, n)}, opt=True)


@pytest.mark.parametrize("n", [2, 3, 16, 17])
def test_symmetric_dft_of_any_real_signal(n):
    # conjugate symmetry holds for every real signal, of even length too, so
    # the mirrored transforms can stand in for the full ones
    symm = {OpCode.DFT1D_REAL: OpCode.DFT1D_REAL_SYMM, OpCode.DFT1D_IMAG: OpCode.DFT1D_IMAG_SYMM}
    def mirrored(g):
        return DspGraph([replace(op, opcode=symm.get(op.opcode, op.opcode)) for op in g.ops])
    assert_matches_kernels("def main(x) { print(dft1dreal(x)); print(dft1dimg(x)); }",
                           {"x": n}, {"x": rand(random.Random(400 + n), n)}, opt=mirrored)


def test_fused_dft_lowering():
    # one pass accumulates both parts exactly as the two separate passes do
    rng = random.Random(11)
    source = "def main(x) { print(dft1dreal(x)); print(dft1dimg(x)); }"
    for n in (15, 24):
        assert_matches_kernels(source, {"x": n}, {"x": rand(rng, n)}, opt=True, abs_tol=0.0)


def test_lms_gain_lowering():
    rng = random.Random(13)
    source = """
def main(x, d) {
  print(gain(lmsFilter(x, d, 0.02, 4), 2.0));
}
"""
    inputs = {"x": rand(rng, 40), "d": rand(rng, 40)}
    assert_matches_kernels(source, {"x": 40, "d": 40}, inputs, opt=True)


@pytest.mark.parametrize("factor", ["0.5", "2.0", "0 - 1"])
def test_lms_gain_is_gain_of_lms_to_the_bit(factor):
    # the fused op scales the final weights by g, as the gain op does
    rng = random.Random(3)
    source = "def main(x, d) { print(gain(lmsFilter(x, d, 0.05, 4), %s)); }" % factor
    inputs = {"x": rand(rng, 40), "d": rand(rng, 40)}
    g_none = compile_graph(source, {"x": 40, "d": 40})
    g_dsp = apply_dsp_patterns(g_none)[0]
    assert OpCode.LMS_FILTER_GAIN_OPT in [op.opcode for op in g_dsp.ops]
    (none, _), (dsp, _) = (evaluate_loop_ir(lower_graph(g), inputs) for g in (g_none, g_dsp))
    assert dsp[g_dsp.prints[0]].values == none[g_none.prints[0]].values


def test_hearing_aid_dsp_route_matches_none_route():
    # pattern 7 fuses the gain into the LMS op, which scales its final
    # weights in place: the same values and counter totals, one buffer fewer
    from dspc import corpus
    app = corpus.find_app("HearingAid")
    sizes = app.default_sizes()
    g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
    g_dsp, stats = apply_dsp_patterns(g)
    assert {pid.value for pid in stats.fired} == {"7"}
    programs = lower_graph(g), lower_graph(g_dsp)
    for seed in range(3):
        inputs = app.synth_inputs(sizes, app.base_seed + seed)
        (out_none, c_none), (out_dsp, c_dsp) = (
            evaluate_loop_ir(p, inputs) for p in programs)
        assert ([out_dsp[vid] for vid, _ in programs[1].outputs]
                == [out_none[vid] for vid, _ in programs[0].outputs])
        totals = [(c.loop_iterations, c.loads, c.stores, c.mults, c.adds,
                   c.trig_calls) for c in (c_none, c_dsp)]
        assert totals[0] == totals[1]


# --------------------------------------------------------------------------
# pinned trip counts


def test_dft_real_length8_counts():
    rng = random.Random(2)
    _, _, c = run_both("def main(x) { print(dft1dreal(x)); }",
                          {"x": 8}, {"x": rand(rng, 8)})
    assert c.loop_iters_by_tag["dft1d_real.inner"] == 64
    assert c.trig_calls == 64
    # one angle product plus one multiply-accumulate per inner iteration
    assert c.mults == 128
    assert c.adds == 64


def test_filter_hamm_opt_L5_counts():
    g = compile_graph("def main() { print(lowPassFIRFilter(5, 1.2) * hammingWindow(5)); }",
                      opt=True)
    _, c = evaluate_loop_ir(lower_graph(g), {})
    assert c.loop_iters_by_tag["filter_hamm_opt"] == 3
    assert c.stores == 5   # two mirrored stores per trip, one for the middle
    assert c.trig_calls == 5  # the middle tap needs no sinc evaluation


def test_delay_zero_is_single_copy_loop():
    rng = random.Random(4)
    _, _, c = run_both("def main(x) { print(delay(x, 0)); }",
                          {"x": 20}, {"x": rand(rng, 20)})
    assert c.loop_iters_by_tag["delay"] == 20
    assert c.loads == 20 and c.stores == 20
    assert c.mults == 0 and c.adds == 0


def test_const_print_counts_small():
    _, _, c = run_both("def main() { print([1, 2, 3]); }", None, {})
    assert c.loop_iterations <= 3
    assert c.mults == 0 and c.trig_calls == 0


# --------------------------------------------------------------------------
# structural checks


def test_loads_by_buffer_tracks_taps():
    rng = random.Random(5)
    src = "def main(x) { print(firFilterResponse(x, [0.5, 0.5])); }"
    g = compile_graph(src, {"x": 6})
    program = lower_graph(g)
    _, c = evaluate_loop_ir(program, {"x": rand(rng, 6)})
    # h is loaded unconditionally on every inner trip: 6 outputs x 2 taps
    h_buf = program.calls and next(
        b.name for b in program.buffers if b.init is not None)
    assert c.loads_by_buffer[h_buf] == 12


GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden_lowering"


def test_golden_loop_text_and_generated_source():
    # pins the generated Python, the loop program's text form, for buffer,
    # print and loop-tag comments, a nonzero lower bound, IfCmp/DynAppend, a
    # guard with an else branch, a run-time division guard and CheckFinite
    g = compile_graph(GOLDEN.with_suffix(".dsp").read_text(), {"x": 3, "d": 3})
    program = lower_graph(g)
    assert (compiled_source(program) + "\n"
            == GOLDEN.with_suffix(".py.txt").read_text())


GOLDEN_CORPUS = GOLDEN.with_name("golden_corpus_loop.py.txt")


def corpus_loop_text():
    """The generated Python of every corpus app at default sizes on both
    routes, one `## <app>/<route>` section each."""
    from dspc import corpus
    sections = []
    for app in corpus.APPS:
        sizes = app.default_sizes()
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        for route, graph in (("none", g), ("dsp", apply_dsp_patterns(g)[0])):
            sections.append(f"## {app.name}/{route}\n"
                            f"{compiled_source(lower_graph(graph))}\n")
    return "".join(sections)


def test_golden_corpus_loop_text():
    # pins the loop text of all 14 corpus programs: every split, every
    # guard kept or dropped, every literal
    assert corpus_loop_text() == GOLDEN_CORPUS.read_text()


@pytest.mark.parametrize("opt", [False, True], ids=["none", "dsp"])
@pytest.mark.parametrize("name", ["LowPassFiltering", "AudioEqualizer"])
def test_every_counted_tag_is_a_for_line_comment(name, opt):
    from dspc import corpus
    app = corpus.find_app(name)
    sizes = app.default_sizes()
    g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
    if opt:
        g, _ = apply_dsp_patterns(g)
    program = lower_graph(g)
    _, c = evaluate_loop_ir(program, app.synth_inputs(sizes, 1))
    for_tags = [line.rsplit("  # ", 1)[1]
                for line in compiled_source(program).splitlines()
                if " in range(" in line]
    assert set(c.loop_iters_by_tag) <= set(for_tags)
    # a split nest: its guarded prologue and guard-free interior share a tag
    assert any(for_tags.count(tag) >= 2 for tag in c.loop_iters_by_tag)


def test_each_op_has_one_call_line_labelled_with_its_id():
    # AudioEqualizer's three FIR ops share one loop tag but are three calls
    # of the one unit function their common shape compiles to
    from dspc import corpus
    app = corpus.find_app("AudioEqualizer")
    sizes = app.default_sizes()
    g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
    program = lower_graph(g)
    lines = compiled_source(program).splitlines()
    calls = [line for line in lines if line.endswith(" fir_filter_response")]
    assert len(calls) == 3
    assert len({line.rsplit("  # ", 1)[1] for line in calls}) == 3
    assert [line.split()[-2] for line in calls] == [
        f"%{op.id}" for op in g.ops if op.opcode.value == "fir_filter_response"]
    (called,) = {line.split("(", 1)[0] for line in calls}
    assert sum(line.startswith(f"def {called}(") for line in lines) == 1
    assert len(program.calls) == len(
        [line for line in lines if line.startswith("_run")])


def test_validator_rejects_static_out_of_bounds():
    i = AffineExpr.of("i")
    prog = one_unit([BufferDecl("y", 4)],
                    [For("i", 0, 5, [Store("y", i, ConstF(0.0))], "bad")],
                    inputs=[], outputs=[], returns=[])
    with pytest.raises(OutOfBounds, match=r"^buffer 'y': index i spans \[0, 4\] "
                       r"outside \[0, 4\)$"):
        compiled_source(prog)


def _nested_load_program(guarded):
    # y[i] = 2.0 * (1.0 + x[i + 1]): the load sits two levels deep and
    # reads one past the end of x on the last trip
    i = AffineExpr.of("i")
    store = Store("y", i, 2.0 * (1.0 + Load("x", i.shifted(1))))
    body = [SelectGuard(i.shifted(1), 0, 4, [store])] if guarded else [store]
    return one_unit([BufferDecl("x", 4), BufferDecl("y", 4)],
                    [For("i", 0, 4, body, "nested")], inputs=[], outputs=[])


def test_validator_checks_loads_inside_trees():
    with pytest.raises(OutOfBounds, match=r"^buffer 'x': index i \+ 1 spans "
                       r"\[1, 4\] outside \[0, 4\)$"):
        compiled_source(_nested_load_program(guarded=False))
    compiled_source(_nested_load_program(guarded=True))


def test_validator_accepts_lowered_corpus():
    # every app builds a program that passes bounds validation at small
    # sizes, where nests are split or left whole, on both routes
    from dspc import corpus
    for app in corpus.APPS:
        sizes = dict((k, min(v, 32)) for k, v in app.sizes)
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        compiled_source(lower_graph(g))
        g2, _ = apply_dsp_patterns(g)
        compiled_source(lower_graph(g2))


def _loop_tags(stmts):
    for s in stmts:
        if isinstance(s, For):
            yield s.tag
            yield from _loop_tags(s.body)
        elif isinstance(s, (SelectGuard, IfCmp)):
            yield from _loop_tags(s.body)
            yield from _loop_tags(s.orelse)


# the full-coverage program of acceptance test 10
FULL_COVERAGE = """
def main(x) {
  var lagged = delay(x, 2);
  var smooth = slidingWindowAvg(lagged, 3);
  var packed = runLenEncoding(quantize(threshold(x, 0.5), 8, 0 - 1, 1));
  var resampled = downsample(upsample(smooth, 2), 2);
  var back = idft1d(dft1dreal(x), dft1dimg(x));
  var tones = sinVec(12, 2, 12.0) + cosVec(12, 3, 12.0) + rangeVec(0, 1, 12);
  print(packed);
  print(resampled - back / 2.0);
  print(tones);
  return sum(reverse(x));
}
"""


def test_loop_tags_name_an_opcode_of_the_graph():
    # a tag is `v` or `v.<part>`, v the opcode value of an op in the graph
    from dspc import corpus
    graphs = [corpus.compile_source(FULL_COVERAGE, {"x": 12})]
    for app in corpus.APPS:
        sizes = app.default_sizes()
        graphs.append(corpus.compile_source(app.source(sizes),
                                            app.input_lengths(sizes)))
    graphs += [apply_dsp_patterns(g)[0] for g in graphs]
    for g in graphs:
        values = {op.opcode.value for op in g.ops}
        tags = list(_loop_tags(statements(lower_graph(g))))
        assert tags
        for tag in tags:
            base, dot, part = tag.partition(".")
            assert base in values and bool(dot) == bool(part), tag


# --------------------------------------------------------------------------
# index-set splitting of guarded nests, in the walk that renders a unit

# a boundary guard's line: `if <lower> <= <index expression> < <upper>:`
GUARD = re.compile(r"^\s+if (-?\d+) <= (.+) < (-?\d+):$", re.M)


def _call_text(program, k):
    """The `_run` function of the program's k-th call as its text form shows
    it, each literal parameter spelled as the call's value."""
    lines = compiled_source(program).splitlines()
    call = [line for line in lines if line.startswith("_run")][k]
    name = call.split("(", 1)[0]
    header = next(j for j, line in enumerate(lines) if line.startswith(f"def {name}("))
    params = lines[header][len(f"def {name}("):-2].split(", ")
    args = ast.parse(call.split("  # ")[0]).body[0].value.args
    value = dict(zip(params, map(ast.unparse, args)))
    body = itertools.takewhile(lambda line: line.startswith("    "), lines[header + 1:])
    return "\n".join(re.sub(r"\bc\d+\b", lambda m: value[m[0]], line) for line in body)


def _text_pieces(text):
    """(lower, upper, guarded) of each outermost loop over the index of the
    first one in a unit's text; a loop is guarded if a boundary guard in it
    reads that index."""
    pieces, index, inside = [], None, False
    for line in text.splitlines():
        loop = re.match(r"    for (\w+) in range\((-?\d+), (-?\d+)\):", line)
        if loop:
            index = index or loop[1]
            inside = loop[1] == index
            if inside:
                pieces.append([int(loop[2]), int(loop[3]), False])
        elif not line.startswith("     "):
            inside = False
        elif inside and (g := GUARD.match(line)) and re.search(rf"\b{index}\b", g[2]):
            pieces[-1][2] = True
    return [tuple(p) for p in pieces]


def _call_pieces(program, op):
    """`_text_pieces` of the unit that the call of `op` renders to."""
    (k,) = [k for k, (label, _, _) in enumerate(program.calls)
            if label.split()[0] == f"%{op.id}"]
    return _text_pieces(_call_text(program, k))


def _alone(unit, stmts):
    """A program of one call of `stmts` over the buffers of `unit`."""
    return one_unit(list(unit.buffers), stmts, inputs=[], outputs=[])


def _nest_pieces(unit, nest):
    """`_text_pieces` of `nest`, an outermost loop of `unit`, rendered alone."""
    return _text_pieces(_call_text(_alone(unit, [nest]), 0))


def _wrapped(program):
    """`program` with each unit in a one-trip loop tagged `wrap`: none of its
    nests is outermost, so each renders unsplit."""
    return replace(program, calls=[
        (label, Unit(unit.buffers, [For("w", 0, 1, unit.body, "wrap")]), names)
        for label, unit, names in program.calls])


def _run(program, inputs, wraps=0):
    """Outputs and every counter but wall time of a run, less `wraps` trips
    of the loop tagged `wrap`."""
    outs, counters = evaluate_loop_ir(program, inputs)
    d = counters.as_dict()
    del d["wall_time_ns"]
    if wraps:
        assert d["loop_iters_by_tag"].pop("wrap") == wraps
        d["loop_iterations"] -= wraps
    return outs, d


def _guards_over(index, stmts):
    """SelectGuards anywhere in `stmts` whose expression uses `index`."""
    for s in stmts:
        if isinstance(s, SelectGuard) and any(n == index for n, _ in s.expr.terms):
            yield s
        for sub in (getattr(s, "body", ()), getattr(s, "orelse", ())):
            yield from _guards_over(index, sub)


def _guarded_nest(s):
    """Whether `s` is a loop nest with a guard over its index under an inner loop."""
    return isinstance(s, For) and any(
        _guards_over(s.index, [t for t in s.body if isinstance(t, For)]))


def _hand_unguarded(stmts, index, inner=False):
    """`stmts` with each guard under an inner loop whose expression uses
    `index` replaced by its body."""
    out = []
    for s in stmts:
        if isinstance(s, For):
            out.append(replace(s, body=_hand_unguarded(s.body, index, True)))
        elif isinstance(s, SelectGuard) and inner and any(
                n == index for n, _ in s.expr.terms):
            out += _hand_unguarded(s.body, index, inner)
        elif isinstance(s, SelectGuard):
            out.append(replace(s, body=_hand_unguarded(s.body, index, inner),
                               orelse=_hand_unguarded(s.orelse, index, inner)))
        else:
            out.append(s)
    return out


SYMM = "firFilterResponse(x, lowPassFIRFilter(%d, 1.2) * hammingWindow(%d))"

# (id, source, lengths, opt, opcode of the nest, its expected pieces); the
# interior of FIR, sliding average and LMS is [taps-1, N), of conv1d
# [taps-1, N) out of N+taps-1, of the symmetric FIR [L-1, N) and of the
# autocorrelation [N-1, N)
SPLIT_CASES = [
    ("fir_empty_taps_longer", "firFilterResponse(x, h)", {"x": 5, "h": 7},
     False, "fir_filter_response", [(0, 5, True)]),
    ("fir_one_step", "firFilterResponse(x, h)", {"x": 8, "h": 8},
     False, "fir_filter_response", [(0, 8, True)]),
    ("fir_exactly_half", "firFilterResponse(x, h)", {"x": 8, "h": 5},
     False, "fir_filter_response", [(0, 4, True), (4, 8, False)]),
    ("fir_whole_one_tap", "firFilterResponse(x, h)", {"x": 8, "h": 1},
     False, "fir_filter_response", [(0, 8, False)]),
    ("conv_empty_taps_longer", "conv1d(x, h)", {"x": 3, "h": 6},
     False, "conv1d_full", [(0, 8, True)]),
    ("conv_one_step", "conv1d(x, h)", {"x": 6, "h": 6},
     False, "conv1d_full", [(0, 11, True)]),
    ("conv_exactly_half", "conv1d(x, h)", {"x": 6, "h": 3},
     False, "conv1d_full", [(0, 2, True), (2, 6, False), (6, 8, True)]),
    ("conv_whole_one_tap", "conv1d(x, h)", {"x": 7, "h": 1},
     False, "conv1d_full", [(0, 7, False)]),
    ("symm_empty_taps_longer", SYMM % (9, 9), {"x": 4},
     True, "filter_res_symm_opt", [(0, 4, True)]),
    ("symm_one_step", SYMM % (6, 6), {"x": 6},
     True, "filter_res_symm_opt", [(0, 6, True)]),
    ("symm_exactly_half_odd", SYMM % (5, 5), {"x": 8},
     True, "filter_res_symm_opt", [(0, 4, True), (4, 8, False)]),
    ("symm_all_but_one_two_taps", SYMM % (2, 2), {"x": 9},
     True, "filter_res_symm_opt", [(0, 1, True), (1, 9, False)]),
    ("sliding_empty_window_longer", "slidingWindowAvg(x, 9)", {"x": 6},
     False, "sliding_window_avg", [(0, 6, True)]),
    ("sliding_one_step", "slidingWindowAvg(x, 7)", {"x": 7},
     False, "sliding_window_avg", [(0, 7, True)]),
    ("sliding_exactly_half", "slidingWindowAvg(x, 4)", {"x": 6},
     False, "sliding_window_avg", [(0, 3, True), (3, 6, False)]),
    ("sliding_whole", "slidingWindowAvg(x, 1)", {"x": 6},
     False, "sliding_window_avg", [(0, 6, False)]),
    ("lms_empty_order_longer", "lmsFilter(x, d, 0.05, 9)", {"x": 6, "d": 6},
     False, "lms_filter", [(0, 6, True)]),
    ("lms_one_step", "lmsFilter(x, d, 0.05, 6)", {"x": 6, "d": 6},
     False, "lms_filter", [(0, 6, True)]),
    ("lms_exactly_half", "lmsFilter(x, d, 0.05, 5)", {"x": 8, "d": 8},
     False, "lms_filter", [(0, 4, True), (4, 8, False)]),
    ("lms_whole", "lmsFilter(x, d, 0.05, 1)", {"x": 6, "d": 6},
     False, "lms_filter", [(0, 6, False)]),
    ("lms_gain_exactly_half", "gain(lmsFilter(x, d, 0.05, 3), 2.0)",
     {"x": 6, "d": 6}, True, "lms_filter_gain_opt",
     [(0, 2, True), (2, 6, False)]),
    # the autocorrelation's palindrome store is guarded on the outer index
    # alone; a split interior must keep it where it does not hold
    ("autocorr_one_step", "conv1d(x, reverse(x))", {"x": 5},
     True, "filter_y_symm_opt", [(0, 5, True)]),
    ("autocorr_half_keeps_mirror_guard", "conv1d(x, reverse(x))", {"x": 2},
     True, "filter_y_symm_opt", [(0, 1, True), (1, 2, True)]),
]


def _case_source(expr, lengths):
    return f"def main({', '.join(lengths)}) {{ print({expr}); }}"


@pytest.mark.parametrize("name,expr,lengths,opt,opcode,pieces", SPLIT_CASES,
                         ids=[c[0] for c in SPLIT_CASES])
def test_split_matches_unsplit_nest(name, expr, lengths, opt, opcode, pieces):
    # against the same units wrapped, so that they render unsplit: the
    # same outputs to the bit and the same counters
    rng = random.Random(name)
    g = compile_graph(_case_source(expr, lengths), lengths, opt=opt)
    program = lower_graph(g)
    op = next(op for op in g.ops if op.opcode.value == opcode)
    assert _call_pieces(program, op) == pieces
    inputs = {k: rand(rng, n) for k, n in lengths.items()}
    assert _run(program, inputs) == _run(_wrapped(program), inputs, len(program.calls))


@pytest.mark.parametrize("L", [4, 5, 8, 101])
def test_mirror_store_guard_is_dropped_where_it_always_holds(L):
    # filter_hamm_opt stores each tap of its first half twice but the middle
    # tap of an odd L once: at even L the mirror store's guard holds on
    # every trip of the whole loop, so the walk renders the store bare
    g = compile_graph("def main() { print(lowPassFIRFilter(%d, 1.2) * "
                      "hammingWindow(%d)); }" % (L, L), opt=True)
    program = lower_graph(g)
    text = _call_text(program, 0)
    assert bool(re.search(r"^\s+if ", text, re.M)) == (L % 2 == 1)
    assert (f"if 0 <= i0 < {L // 2}:" in text) == (L % 2 == 1)
    assert _run(program, {}) == _run(_wrapped(program), {}, len(program.calls))


def _interiors():
    """(unit, nest, lower, upper) of the guard-free interior of each split
    nest of the split cases and three corpus apps on both routes."""
    from dspc import corpus
    graphs = [compile_graph(_case_source(expr, lengths), lengths, opt=opt)
              for _name, expr, lengths, opt, _op, _pieces in SPLIT_CASES]
    for name in ("LowPassFiltering", "HearingAid", "AudioEqualizer"):
        app = corpus.find_app(name)
        sizes = app.default_sizes()
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        graphs += [g, apply_dsp_patterns(g)[0]]
    for g in graphs:
        for _, unit, _ in lower_graph(g).calls:
            for nest in unit.body:
                if _guarded_nest(nest):
                    for lower, upper, guarded in _nest_pieces(unit, nest):
                        if not guarded:
                            yield unit, nest, lower, upper


def test_widened_interior_keeps_a_guard():
    # the guard-free interior is exactly as wide as the walk proves its
    # guards: rendered unsplit, it keeps none, and one trip wider into a
    # guarded piece keeps at least one
    checked = 0
    for unit, nest, a, b in _interiors():
        for lower, upper in ((a, b), (a - 1, b), (a, b + 1)):
            if lower < nest.lower or upper > nest.upper:
                continue
            wrapped = For("w", 0, 1, [replace(nest, lower=lower, upper=upper)], "wrap")
            text = _call_text(_alone(unit, [wrapped]), 0)
            assert bool(GUARD.search(text)) == ((lower, upper) != (a, b)), nest.tag
        checked += 1
    assert checked >= 20


def test_widened_interior_fails_validation():
    # the interior's accesses are in bounds without its inner guards, and
    # one trip wider at either end they are not
    checked = 0
    for unit, nest, a, b in _interiors():
        bare = replace(nest, body=_hand_unguarded(nest.body, nest.index))
        for lower, upper in ((a - 1, b), (a, b + 1)):
            with pytest.raises(OutOfBounds):
                compiled_source(_alone(unit, [replace(bare, lower=lower, upper=upper)]))
        compiled_source(_alone(unit, [replace(bare, lower=a, upper=b)]))
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("app_name", ["LowPassFiltering", "AudioEqualizer",
                                      "HearingAid", "SpectralAnalysis"])
@pytest.mark.parametrize("opt", [False, True], ids=["none", "dsp"])
def test_guarded_corpus_nests_are_split(app_name, opt):
    from dspc import corpus
    app = corpus.find_app(app_name)
    sizes = app.default_sizes()
    g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
    if opt:
        g, _ = apply_dsp_patterns(g)
    guarded = [(unit, s) for _, unit, _ in lower_graph(g).calls for s in unit.body
               if _guarded_nest(s)]
    assert guarded
    for unit, nest in guarded:
        pieces = _nest_pieces(unit, nest)
        if app_name == "SpectralAnalysis":
            # full convolutions have a one-step interior and stay whole
            assert pieces == [(nest.lower, nest.upper, True)]
            continue
        assert len(pieces) > 1, nest.tag
        assert [p[2] for p in pieces].count(False) == 1, nest.tag
        assert pieces[0][0] == nest.lower and pieces[-1][1] == nest.upper
        assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))


# --------------------------------------------------------------------------
# one unit per distinct op


def _calls(expr, lengths):
    return lower_graph(compile_graph(_case_source(expr, lengths), lengths)).calls


def test_equal_ops_share_one_unit():
    # the same gain is %1 over (v0, v1) in one program and %3 over (v1, v3)
    # in the other: one unit, two bindings
    a = _calls("gain(x, 2.0)", {"x": 8})
    b = lower_graph(compile_graph(
        "def main(x, y) { print(x + y); print(gain(y, 2.0)); }",
        {"x": 8, "y": 8})).calls
    assert a[0][1] is b[1][1]
    assert [(label, names) for label, _, names in (a[0], b[1])] == [
        ("%1 gain", ("v0", "v1")), ("%3 gain", ("v1", "v3"))]
    # another attribute value or operand shape is another op
    assert _calls("gain(x, 3.0)", {"x": 8})[0][1] is not a[0][1]
    assert _calls("gain(x, 2.0)", {"x": 9})[0][1] is not a[0][1]
    # an operand read twice is one unit buffer, so `x + x` is not `x + y`
    xx, xy = _calls("x + x", {"x": 4, "y": 4}), _calls("x + y", {"x": 4, "y": 4})
    assert [len(u.buffers) for _, u, _ in xx + xy] == [2, 3]
    assert xx[0][2] == ("v0", "v2")


def test_evicted_ops_relower_to_the_same_program():
    g = compile_graph(FULL_COVERAGE, {"x": 12})
    inputs = {"x": rand(random.Random(4), 12)}

    def compiled():
        p = lower_graph(g)
        out, counters = evaluate_loop_ir(p, inputs)
        d = counters.as_dict()
        del d["wall_time_ns"]
        return p, compiled_source(p), out, d

    op_unit.cache_clear()
    first = compiled()
    hits = op_unit.cache_info().hits  # the two adds of `tones` are one op
    assert hits == 1
    # more distinct ops than the memo holds push every unit of `first` out
    for k in range(UNIT_MEMO_SIZE):
        lower_graph(compile_graph(_case_source(f"gain(x, {k}.5)", {"x": 2}), {"x": 2}))
    again = compiled()
    assert op_unit.cache_info().hits == 2 * hits
    assert all(a[1] is not b[1] for a, b in zip(first[0].calls, again[0].calls,
                                                strict=True))
    assert again[1:] == first[1:]

import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from dspc import corpus
from dspc.cli import main
from dspc.frontend import parse_source
from dspc.graph import (_CHECKERS, DspGraph, build_graph, graph_to_text, infer_shapes,
                        verify_graph)
from dspc.interp import evaluate_loop_ir, tensor
from dspc.lowering import lower_graph
from dspc.ops import OpCode
from dspc import rewriter
from dspc.rewriter import PatternId, RewriteError, apply_dsp_patterns

from dce import dead_ops, producer_map, renumber, use_counts
import kernels as K


def compile_graph(source, lengths=None):
    return infer_shapes(build_graph(parse_source(source)), lengths)


def rewrite(source, lengths=None, enabled=None):
    g = compile_graph(source, lengths)
    return apply_dsp_patterns(g, enabled)


def opcodes(graph):
    return [op.opcode for op in graph.ops]


def rand(rng, n):
    return tensor([rng.uniform(-1, 1) for _ in range(n)])


def assert_equivalent(source, lengths, inputs, rel=1e-9):
    """The rewritten graph, run on the loop backend, computes what the
    reference kernels compute for the graph before rewriting."""
    g = compile_graph(source, lengths)
    g2, _ = apply_dsp_patterns(g)
    out1 = K.eval_graph(g, inputs)
    out2, _ = evaluate_loop_ir(lower_graph(g2), inputs)
    for v1, v2 in zip(g.prints, g2.prints):
        a, b = out1[v1], out2[v2]
        assert len(a) == len(b)
        for x, y in zip(a.values, b.values):
            assert x == pytest.approx(y, rel=rel, abs=1e-12)


FILTER_DESIGN = """
def main() {
  var ideal = lowPassFIRFilter(%d, 1.2);
  var window = hammingWindow(%d);
  print(ideal * window);
}
"""


def test_no_match_leaves_graph_unchanged():
    g = compile_graph("def main(x) { print(gain(x, 2.0)); }", {"x": 8})
    g2, stats = apply_dsp_patterns(g)
    assert len(stats.log) == 0
    assert opcodes(g2) == opcodes(g)


def test_pattern1_filter_design():
    g2, stats = rewrite(FILTER_DESIGN % (11, 11))
    assert OpCode.FILTER_HAMM_OPT in opcodes(g2)
    assert OpCode.LOW_PASS_FIR_COEFFS not in opcodes(g2)
    assert stats.applications[PatternId.SYMMETRIC_FILTER] == 1


def test_pattern1_commuted_operands():
    g2, _ = rewrite("""
def main() {
  var window = hammingWindow(8);
  var ideal = lowPassFIRFilter(8, 0.9);
  print(window * ideal);
}
""")
    assert OpCode.FILTER_HAMM_OPT in opcodes(g2)


def test_pattern1_rejects_wrong_operands():
    g2, stats = rewrite("""
def main() {
  var w = hammingWindow(8);
  print(w * w);
}
""")
    assert len(stats.log) == 0


def test_pattern1_rejects_length_mismatch():
    # broadcastable but different L attributes: the symmetry proof needs
    # the window and the ideal response to cover the same taps
    g2, stats = rewrite("""
def main() {
  var ideal = lowPassFIRFilter(1, 1.2);
  var window = hammingWindow(5);
  print(ideal * window);
}
""")
    assert OpCode.FILTER_HAMM_OPT not in opcodes(g2)


def test_pattern2_needs_symmetric_producer():
    # a const-tensor h might be symmetric, but nothing proves it
    g2, stats = rewrite("""
def main(x) {
  print(firFilterResponse(x, [0.25, 0.5, 0.25]));
}
""", {"x": 16})
    assert OpCode.FILTER_RES_SYMM_OPT not in opcodes(g2)
    assert len(stats.log) == 0


@pytest.mark.parametrize("L", [5, 8, 101])
def test_pattern2_equivalence(L):
    rng = random.Random(40 + L)
    src = """
def main(x) {
  var h = lowPassFIRFilter(%d, 1.1) * hammingWindow(%d);
  print(firFilterResponse(x, h));
}
""" % (L, L)
    assert_equivalent(src, {"x": 64}, {"x": rand(rng, 64)})


def test_pattern3_matches_only_same_value():
    g2, _ = rewrite("def main(x) { print(conv1d(x, reverse(x))); }", {"x": 9})
    assert OpCode.FILTER_Y_SYMM_OPT in opcodes(g2)

    g3, stats = rewrite(
        "def main(x, z) { print(conv1d(x, reverse(z))); }", {"x": 9, "z": 9})
    assert OpCode.FILTER_Y_SYMM_OPT not in opcodes(g3)
    assert len(stats.log) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 9, 17, 32])
def test_pattern3_equivalence(n):
    rng = random.Random(60 + n)
    assert_equivalent("def main(x) { print(conv1d(x, reverse(x))); }",
                      {"x": n}, {"x": rand(rng, n)})


def test_pattern4_gated_on_symmetric_producer():
    # raw input: nothing proves the signal symmetric, DFT stays full
    g2, stats = rewrite("def main(x) { print(dft1dreal(x)); }", {"x": 12})
    assert OpCode.DFT1D_REAL_SYMM not in opcodes(g2)

    chain = """
def main(x) {
  var auto = conv1d(x, reverse(x));
  print(dft1dreal(auto));
  print(dft1dimg(auto));
}
"""
    g3, stats = rewrite(chain, {"x": 12})
    assert OpCode.DFT1D_REAL_SYMM in opcodes(g3)
    assert OpCode.DFT1D_IMAG_SYMM in opcodes(g3)


@pytest.mark.parametrize("n", [4, 5])  # even and odd autocorrelation lengths
def test_pattern4_equivalence(n):
    rng = random.Random(70 + n)
    src = """
def main(x) {
  var auto = conv1d(x, reverse(x));
  print(dft1dreal(auto));
  print(dft1dimg(auto));
}
"""
    assert_equivalent(src, {"x": n}, {"x": rand(rng, n)})


ENERGY = """
def main(x) {
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  var energy = sum(square(re) + square(im)) / %d;
  print(energy);
}
"""


def test_pattern5_collapses_energy_chain():
    g2, stats = rewrite(ENERGY % 16, {"x": 16})
    codes = opcodes(g2)
    assert OpCode.DFT1D_REAL not in codes and OpCode.DFT1D_FUSED not in codes
    assert codes.count(OpCode.SQUARE) == 1 and OpCode.SUM in codes
    assert stats.applications[PatternId.PARSEVAL] == 1


def test_pattern5_divisor_must_equal_length():
    g2, stats = rewrite(ENERGY % 32, {"x": 16})  # divisor 2N
    assert stats.applications[PatternId.PARSEVAL] == 0
    # the dangling DFT pair still fuses, which is fine and still correct
    assert OpCode.DFT1D_FUSED in opcodes(g2)


@pytest.mark.parametrize("n", [2, 16, 33, 64])
def test_pattern5_equivalence(n):
    rng = random.Random(80 + n)
    assert_equivalent(ENERGY % n, {"x": n}, {"x": rand(rng, n)})


def test_pattern6_fuses_shared_operand_only():
    g2, _ = rewrite("""
def main(x) {
  print(dft1dreal(x));
  print(dft1dimg(x));
}
""", {"x": 8})
    assert opcodes(g2).count(OpCode.DFT1D_FUSED) == 1

    g3, stats = rewrite("def main(x) { print(dft1dimg(x)); }", {"x": 8})
    assert OpCode.DFT1D_FUSED not in opcodes(g3)

    g4, stats = rewrite("""
def main(x, z) {
  print(dft1dreal(x));
  print(dft1dimg(z));
}
""", {"x": 8, "z": 8})
    assert OpCode.DFT1D_FUSED not in opcodes(g4)


def test_pattern7_gain_of_lms():
    src = "def main(x, d) { print(gain(lmsFilter(x, d, 0.01, 4), 2.0)); }"
    g2, stats = rewrite(src, {"x": 32, "d": 32})
    assert OpCode.LMS_FILTER_GAIN_OPT in opcodes(g2)
    fused = next(op for op in g2.ops
                 if op.opcode is OpCode.LMS_FILTER_GAIN_OPT)
    assert fused.attr("g") == 2.0 and fused.attr("M") == 4
    rng = random.Random(70)
    assert_equivalent(src, {"x": 32, "d": 32},
                      {"x": rand(rng, 32), "d": rand(rng, 32)})


def test_pattern7_rejects_const_operand():
    g2, stats = rewrite("def main() { print(gain([1, 2], 2.0)); }")
    assert len(stats.log) == 0


def test_pattern7_rejects_shared_lms_result():
    # the weights escape through a second print, so the fused op, which
    # scales them in place, would change an observable value
    g2, stats = rewrite("""
def main(x, d) {
  var w = lmsFilter(x, d, 0.01, 4);
  print(w);
  print(gain(w, 2.0));
}
""", {"x": 32, "d": 32})
    assert OpCode.LMS_FILTER_GAIN_OPT not in opcodes(g2)


ESCAPES = ("print(%s);", "return %s;")


@pytest.mark.parametrize("escape", ESCAPES, ids=["print", "return"])
@pytest.mark.parametrize("name", ["s", "t", "a", "b", "re", "im"])
def test_pattern5_rejects_an_escaping_intermediate(name, escape):
    # a second use of any intermediate keeps the whole chain alive
    src = """
def main(x) {
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  var a = square(re);
  var b = square(im);
  var t = a + b;
  var s = sum(t);
  print(s / 16);
  %s
}
""" % (escape % name)
    _, stats = rewrite(src, {"x": 16})
    assert stats.applications[PatternId.PARSEVAL] == 0


def test_pattern7_rejects_returned_lms_result():
    g2, stats = rewrite("""
def main(x, d) {
  var w = lmsFilter(x, d, 0.01, 4);
  print(gain(w, 2.0));
  return w;
}
""", {"x": 32, "d": 32})
    assert stats.applications[PatternId.LMS_GAIN_FUSION] == 0
    assert OpCode.LMS_FILTER_GAIN_OPT not in opcodes(g2)


# Pattern 8 and its rounding contract: |dsp - none| <= 2*gamma(L+J)*m_i per
# output, m_i = sum_k |x[i-k]| * sum_j |g_j|*|h_j[k]| (see `pat_fir_merge`).

U = 2.0 ** -53


def gamma(n):
    return n * U / (1 - n * U)


def fir_merge_violations(x, bands, none, dsp):
    """The outputs i where none and dsp differ by more than pattern 8's bound,
    for a signal `x` and the (taps, gain) of each of the J bands."""
    L, J = len(bands[0][0]), len(bands)
    w = [sum(abs(g * h[k]) for h, g in bands) for k in range(L)]
    bad = []
    for i, (a, b) in enumerate(zip(none, dsp)):
        m = sum(abs(x[i - k]) * w[k] for k in range(min(L, i + 1)))
        if abs(a - b) > 2 * gamma(L + J) * m:
            bad.append(i)
    return bad


def test_pattern8_meets_its_contract_on_audio_equalizer():
    from test_acceptance import REL_TOL
    app = corpus.find_app("AudioEqualizer")
    sizes = app.default_sizes()
    g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
    dsp, stats = apply_dsp_patterns(g)
    assert stats.applications[PatternId.FIR_MERGE] == 1
    values = K.eval_graph(g, app.synth_inputs(sizes, 0))  # the taps read no input
    readers = {v: op for op in g.ops for v in op.operands}
    bands = [(values[op.operands[1]].values,
              readers[op.id].attr("g") if readers[op.id].opcode is OpCode.GAIN else 1.0)
             for op in g.ops if op.opcode is OpCode.FIR_FILTER_RESPONSE]
    assert len(bands) == 3 and {len(h) for h, _ in bands} == {sizes["L"]}
    routes = [lower_graph(g), lower_graph(dsp)]
    for seed in range(5):
        inputs = app.synth_inputs(sizes, seed)
        (none, _), (opt, _) = (evaluate_loop_ir(p, inputs) for p in routes)
        a, b = (out[p.outputs[0][0]] for out, p in zip((none, opt), routes))
        assert fir_merge_violations(inputs["x"].values, bands, a.values, b.values) == []
        assert corpus.max_relative_deviation([a], [b]) <= REL_TOL


def fir_merge_sweep(N, L, J):
    """Pattern 8's region, J bands of L taps over x of N samples with gains
    1.0 (a bare leaf for J = 2), 0.5 and -2.0, the three right-nested, run
    on both routes for every unit impulse of x; the impulses whose outputs
    break the bound."""
    gains = (1.0, 0.5, -2.0)[:J]
    leaves = [f"gain(firFilterResponse(x, h{j}), {g})".replace("-", "0 - ")  # no unary minus
              for j, g in enumerate(gains)]
    if J == 2:
        leaves[0] = "firFilterResponse(x, h0)"
    expr = " + ".join(leaves) if J == 2 else f"{leaves[0]} + ({leaves[1]} + {leaves[2]})"
    names = [f"h{j}" for j in range(J)]
    source = f"def main(x, {', '.join(names)}) {{ print({expr}); }}"
    g = compile_graph(source, {"x": N, **dict.fromkeys(names, L)})
    dsp, stats = apply_dsp_patterns(g, {PatternId.FIR_MERGE})
    assert stats.applications[PatternId.FIR_MERGE] == 1
    rng = random.Random(f"{N}/{L}/{J}")
    taps = {name: rand(rng, L) for name in names}
    routes = [lower_graph(g), lower_graph(dsp)]
    bad = []
    for k in range(N):
        x = [float(i == k) for i in range(N)]
        a, b = ([*evaluate_loop_ir(p, {"x": tensor(x), **taps})[0][p.outputs[0][0]].values]
                for p in routes)
        if fir_merge_violations(x, [(taps[n].values, g) for n, g in zip(names, gains)], a, b):
            bad.append(k)
    return bad


SWEEP = [(N, L, J) for N in (1, 2, 3, 8, 17) for L in (1, 2, 5, 9) for J in (2, 3)]


def test_pattern8_meets_its_contract_on_every_impulse():
    assert [case for case in SWEEP if fir_merge_sweep(*case)] == []


def test_pattern8_impulse_sweep_catches_a_dropped_gain(monkeypatch):
    bands = rewriter._fir_bands

    def drop_last_gain(*args):
        found = bands(*args)
        return found and [*found[:-1], (found[-1][0], 1.0)]

    monkeypatch.setattr(rewriter, "_fir_bands", drop_last_gain)
    assert [case for case in SWEEP if not fir_merge_sweep(*case)] == []


def test_pattern8_merges_the_equalizer_bands_in_one_application():
    app = corpus.find_app("AudioEqualizer")
    sizes = app.default_sizes()
    g2, stats = rewrite(app.source(sizes), app.input_lengths(sizes))
    assert {pid.value: n for pid, n in stats.applications.items() if n} == {"1": 3, "8": 1}
    assert opcodes(g2).count(OpCode.FIR_FILTER_RESPONSE) == 1
    assert OpCode.FILTER_RES_SYMM_OPT not in opcodes(g2)
    # the gain of 1.0 is dropped: two gains of the taps, and two adds chain them
    assert opcodes(g2).count(OpCode.GAIN) == 2 and opcodes(g2).count(OpCode.ADD) == 2
    assert [op.attr("g") for op in g2.ops if op.opcode is OpCode.GAIN] == [0.5, 2.0]
    # with pattern 8 off, pattern 2 pairs the one band whose taps it trusts
    _, stats = rewrite(app.source(sizes), app.input_lengths(sizes),
                       {PatternId.SYMMETRIC_FILTER, PatternId.SYMMETRIC_FILTER_RESPONSE})
    assert {pid.value: n for pid, n in stats.applications.items() if n} == {"1": 3, "2": 1}


FIR_MERGE_MISSES = {
    "different signals": ("print(firFilterResponse(x, [0.5, 0.25]) + "
                          "firFilterResponse(z, [1.0, 2.0]));"),
    "unequal tap lengths": ("print(firFilterResponse(x, [0.5, 0.25]) + "
                            "firFilterResponse(x, [1.0, 2.0, 3.0]));"),
    "fir read twice": ("var a = firFilterResponse(x, [0.5, 0.25]);\n"
                       "  print(a + firFilterResponse(x, [1.0, 2.0]));\n  print(a);"),
    "gain read twice": ("var a = gain(firFilterResponse(x, [0.5, 0.25]), 2.0);\n"
                        "  print(a + firFilterResponse(x, [1.0, 2.0]));\n  return a;"),
    "non-fir leaf": "print(x + firFilterResponse(x, [0.5, 0.25]));",
    "non-fir leaf among firs": ("print(x + firFilterResponse(x, [0.5, 0.25]) + "
                                "firFilterResponse(x, [1.0, 2.0]));"),
    # the whole tree merges or nothing does: (fir + fir) + x keeps its firs
    "firs under a non-fir leaf": ("print(firFilterResponse(x, [0.5, 0.25]) + "
                                  "firFilterResponse(x, [1.0, 2.0]) + x);"),
    "two gains": ("print(gain(gain(firFilterResponse(x, [0.5, 0.25]), 2.0), 3.0) + "
                  "firFilterResponse(x, [1.0, 2.0]));"),
    "sub of firs": ("print(firFilterResponse(x, [0.5, 0.25]) - "
                    "firFilterResponse(x, [1.0, 2.0]));"),
    "sum of conv1d": "print(conv1d(x, [0.5, 0.25]) + conv1d(x, [1.0, 2.0]));",
}


@pytest.mark.parametrize("case", sorted(FIR_MERGE_MISSES))
def test_pattern8_rejects(case):
    g2, stats = rewrite(f"def main(x, z) {{\n  {FIR_MERGE_MISSES[case]}\n}}\n", {"x": 8, "z": 8})
    assert stats.applications[PatternId.FIR_MERGE] == 0


def test_rewrite_rewires_a_returned_value():
    g2, stats = rewrite("def main(x) { return downsample(upsample(x, 2), 2); }", {"x": 8})
    assert stats.fired == {PatternId.IDENTITY_UP_DOWN}
    assert opcodes(g2)[0] is OpCode.INPUT and g2.returns == [g2.ops[0].id]


def test_identity_dft_idft_removed():
    g2, stats = rewrite("""
def main(x) {
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  print(idft1d(re, im));
}
""", {"x": 16})
    assert opcodes(g2) == [OpCode.INPUT, OpCode.PRINT]
    assert PatternId.IDENTITY_DFT_IDFT in stats.fired


def test_identity_with_extra_use_keeps_transform_alive():
    # the inverse transform still folds to x, but the printed spectrum
    # keeps its (fused) producer in the graph
    g2, _ = rewrite("""
def main(x) {
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  print(re);
  print(idft1d(re, im));
}
""", {"x": 16})
    codes = opcodes(g2)
    assert OpCode.IDFT1D not in codes
    assert OpCode.DFT1D_FUSED in codes
    assert g2.prints[1] == 0  # second print reads the input directly


AUTOCORR_IDFT = """
def main(x) {
  var a = conv1d(x, reverse(x));
  print(idft1d(dft1dreal(a), dft1dimg(a)));
}
"""

AUTOCORR_ENERGY = """
def main(x) {
  var a = conv1d(x, reverse(x));
  print(sum(square(dft1dreal(a)) + square(dft1dimg(a))) / 15);
}
"""


@pytest.mark.parametrize("source, fired", [
    (AUTOCORR_IDFT, {"3": 1, "4": 2, "C3a": 1}),
    (AUTOCORR_ENERGY, {"3": 1, "4": 2, "5": 1}),
], ids=["identity", "parseval"])
def test_transform_pair_mirrored_by_pattern4_is_a_full_dft(source, fired):
    # pattern 4 turns the pair into dft1d_real_symm/dft1d_imag_symm first
    g2, stats = rewrite(source, {"x": 8})
    assert {pid.value: n for pid, n in stats.applications.items() if n} == fired
    assert OpCode.DFT1D_REAL_SYMM not in opcodes(g2)
    assert_equivalent(source, {"x": 8}, {"x": rand(random.Random(8), 8)})


def test_identity_updown_removed():
    g2, stats = rewrite("""
def main(x) {
  print(downsample(upsample(x, 3), 3));
}
""", {"x": 10})
    assert opcodes(g2) == [OpCode.INPUT, OpCode.PRINT]
    assert PatternId.IDENTITY_UP_DOWN in stats.fired


def test_identity_updown_requires_matching_factor():
    g2, stats = rewrite("""
def main(x) {
  print(downsample(upsample(x, 3), 2));
}
""", {"x": 10})
    assert OpCode.DOWNSAMPLE in opcodes(g2)
    assert len(stats.log) == 0


def test_idempotent_second_pass():
    g2, stats = rewrite(FILTER_DESIGN % (11, 11))
    g3, stats2 = apply_dsp_patterns(g2)
    assert len(stats2.log) == 0
    assert opcodes(g3) == opcodes(g2)


def test_rewritten_graph_verifies():
    g2, _ = rewrite(ENERGY % 16, {"x": 16})
    assert verify_graph(g2) == []


def test_stats_shrinkage():
    g = compile_graph(ENERGY % 16, {"x": 16})
    g2, stats = apply_dsp_patterns(g)
    assert len(g2.ops) == stats.log[-1].ops < len(g.ops)


def test_enabled_subset_restricts_firing():
    only5 = {PatternId.PARSEVAL}
    g2, stats = rewrite(ENERGY % 16, {"x": 16}, enabled=only5)
    assert stats.fired == only5

    g3, stats2 = rewrite(ENERGY % 16, {"x": 16}, enabled=set())
    assert len(stats2.log) == 0
    assert opcodes(g3) == opcodes(compile_graph(ENERGY % 16, {"x": 16}))


def test_enabled_fusion_without_parseval():
    g2, stats = rewrite(ENERGY % 16, {"x": 16},
                        enabled={PatternId.DFT_FUSION})
    assert stats.fired == {PatternId.DFT_FUSION}
    assert OpCode.DFT1D_FUSED in opcodes(g2)


# Golden rewrites: where the new ops land, under the ids the log gives them.
SPLICE_GOLDEN = {
    # the fused op lands at the earlier of the two transforms
    "fusion_real_first": ("""
def main(x) {
  var re = dft1dreal(x);
  var g = gain(x, 2.0);
  var im = dft1dimg(x);
  print(re);
  print(g);
  print(im);
}
""", {"x": 8}, """\
%0 = input() {name=x} : tensor<8>
%4, %5 = dft1d_fused(%0) : tensor<8>, tensor<8>
%2 = gain(%0) {g=2.0} : tensor<8>
print(%4)
print(%2)
print(%5)
"""),
    "fusion_imag_first": ("""
def main(x) {
  var im = dft1dimg(x);
  var g = gain(x, 2.0);
  var re = dft1dreal(x);
  print(re);
  print(g);
  print(im);
}
""", {"x": 8}, """\
%0 = input() {name=x} : tensor<8>
%4, %5 = dft1d_fused(%0) : tensor<8>, tensor<8>
%2 = gain(%0) {g=2.0} : tensor<8>
print(%4)
print(%2)
print(%5)
"""),
    # the fused LMS lands where the LMS was, not where the gain was
    "lms_gain": ("""
def main(x, d) {
  var w = lmsFilter(x, d, 0.01, 4);
  var s = sum(x);
  print(gain(w, 2.0));
  print(s);
}
""", {"x": 32, "d": 32}, """\
%0 = input() {name=x} : tensor<32>
%1 = input() {name=d} : tensor<32>
%5 = lms_filter_gain_opt(%0, %1) {mu=0.01, M=4, g=2.0} : tensor<4>
%3 = sum(%0) : tensor<1>
print(%5)
print(%3)
"""),
    # both new ops, in order, where the division was
    "parseval": ("""
def main(x) {
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  var energy = sum(square(re) + square(im)) / 16;
  print(gain(x, 2.0));
  print(energy);
}
""", {"x": 16}, """\
%0 = input() {name=x} : tensor<16>
%10 = square(%0) : tensor<16>
%11 = sum(%10) : tensor<1>
%9 = gain(%0) {g=2.0} : tensor<16>
print(%9)
print(%11)
"""),
    # an unbound input leaves the response unshaped; the taps are shaped
    "filter_unbound": ("""
def main(x) {
  var h = lowPassFIRFilter(5, 1.1) * hammingWindow(5);
  print(firFilterResponse(x, h));
}
""", None, """\
%0 = input() {name=x} : tensor<?>
%5 = filter_hamm_opt() {L=5, wc=1.1} : tensor<5>
%6 = filter_res_symm_opt(%0, %5) : tensor<?>
print(%6)
"""),
}


@pytest.mark.parametrize("case", sorted(SPLICE_GOLDEN))
def test_rewrite_splice_golden(case):
    source, lengths, expected = SPLICE_GOLDEN[case]
    g2, _ = rewrite(source, lengths)
    assert graph_to_text(g2) == expected


def test_rewrite_that_reshapes_a_rewired_value_fails_verification(monkeypatch):
    # an unsound up/down identity that ignores the factors: the gain would
    # read a 10-sample value where its result says 15
    def any_factor(ctx, site):
        up = ctx.made_by(site.operands[0], OpCode.UPSAMPLE)
        if up is None:
            return None
        return rewriter.replace_site(site, up.operands[0])

    monkeypatch.setitem(rewriter._MATCHERS, PatternId.IDENTITY_UP_DOWN,
                        (any_factor, {OpCode.DOWNSAMPLE}))
    with pytest.raises(RewriteError) as exc:
        rewrite("def main(x) { print(gain(downsample(upsample(x, 3), 2), 2.0)); }",
                {"x": 10})
    assert "patterns C3b produced an invalid graph" in str(exc.value)
    assert "inconsistent" in str(exc.value)


def test_rewrite_that_builds_a_malformed_op_fails_verification(monkeypatch):
    # `ctx.new` counts no operands; the verifier at the fixpoint does
    def two_operand_square(ctx, site):
        a = site.operands[0]
        square = ctx.new(OpCode.SQUARE, (a, a))
        return rewriter.replace_site(site, square.id, square)

    monkeypatch.setitem(rewriter._MATCHERS, PatternId.IDENTITY_UP_DOWN,
                        (two_operand_square, {OpCode.DOWNSAMPLE}))
    with pytest.raises(RewriteError) as exc:
        rewrite("def main(x) { print(downsample(x, 2)); }", {"x": 10})
    assert str(exc.value) == ("patterns C3b produced an invalid graph: "
                              "%2 square: expects 1 operand(s), has 2")


def test_rewrite_that_reuses_a_live_id_fails_the_fixpoint_check(monkeypatch):
    # a new op that takes a live id instead of one from `ctx.new` passes its
    # splice, which checks nothing; the check of the whole graph at the
    # fixpoint names the clash
    def live_id_square(ctx, site):
        x = site.operands[0]
        square = rewriter.OpNode(2, OpCode.SQUARE, (x,), (), (ctx.shape(x),))
        return rewriter.replace_site(site, square.id, square)

    monkeypatch.setitem(rewriter._MATCHERS, PatternId.IDENTITY_UP_DOWN,
                        (live_id_square, {OpCode.DOWNSAMPLE}))
    with pytest.raises(RewriteError) as exc:
        rewrite("def main(x) { print(downsample(x, 1)); print(square(x)); }", {"x": 4})
    assert str(exc.value) == ("patterns C3b produced an invalid graph: "
                              "%2 square: value %2 defined more than once")


def test_rewrite_that_always_matches_hits_the_sweep_limit(monkeypatch, tmp_path, capsys):
    # each new downsample is a root again, so no sweep comes back empty
    def same_downsample(ctx, site):
        new = ctx.new(OpCode.DOWNSAMPLE, site.operands, site.attributes)
        return rewriter.replace_site(site, new.id, new)

    monkeypatch.setitem(rewriter._MATCHERS, PatternId.IDENTITY_UP_DOWN,
                        (same_downsample, {OpCode.DOWNSAMPLE}))
    source = "def main(x) { print(downsample(x, 1)); }"
    with pytest.raises(RewriteError) as exc:
        rewrite(source, {"x": 4})
    assert str(exc.value) == "rewriter exceeded 12 sweeps without reaching a fixpoint"
    path = tmp_path / "loop.dsp"
    path.write_text(source)
    assert main(["run", str(path), "--opt=dsp", "--synth", "x=4,1"]) == 3
    err = capsys.readouterr().err
    assert err == f"verify error: {exc.value}\n"


def test_ops_inserted_before_one_op_keep_their_order(monkeypatch):
    # no default pattern anchors at an op that outlives its splice; this one
    # inserts before the op reading the site, so both new gains go before the add
    def gain_before_reader(ctx, site):
        new = ctx.new(OpCode.GAIN, (site.operands[0],), (1.0,))
        return rewriter._Rewrite(at=ctx.users(site.id)[0], new_ops=(new,),
                                 subst={site.id: new.id})

    monkeypatch.setitem(rewriter._MATCHERS, PatternId.IDENTITY_UP_DOWN,
                        (gain_before_reader, {OpCode.DOWNSAMPLE}))
    g = compile_graph("def main(x) { print(downsample(x, 1) + downsample(gain(x, 3.0), 1)); }",
                      {"x": 4})
    want, applications = reference_rewrite(g)
    got, stats = apply_dsp_patterns(g)
    assert graph_to_text(renumber(got)) == graph_to_text(want)
    assert stats.applications == applications
    assert graph_to_text(got).splitlines()[2:5] == ["%5 = gain(%0) {g=1.0} : tensor<4>",
                                                    "%6 = gain(%2) {g=1.0} : tensor<4>",
                                                    "%4 = add(%5, %6) : tensor<4>"]


# --------------------------------------------------------------------------
# The in-place driver against the per-application reference


def reference_rewrite(graph, enabled=None):
    """The rewriter with whole-graph work before each sweep: prune with dead_ops
    and renumber, verify the whole graph, then rebuild every op."""
    wanted = [pid for pid in PatternId if enabled is None or pid in enabled]
    applications = {pid: 0 for pid in wanted}
    ops = graph.ops
    while True:
        producer = producer_map(DspGraph(ops))
        dead = dead_ops(producer, use_counts(DspGraph(ops)), producer)
        current = renumber(DspGraph([op for op in ops if id(op) not in dead]))
        assert verify_graph(current) == []
        ctx = rewriter._Ctx(current)
        hit = next(((pid, rw) for pid in wanted for op in current.ops
                    if op.opcode in rewriter._MATCHERS[pid][1]
                    and (rw := rewriter._MATCHERS[pid][0](ctx, op)) is not None), None)
        if hit is None:
            return current, applications
        pid, rw = hit
        get = rw.subst.get
        ops = [replace(op, operands=tuple(get(v, v) for v in op.operands)) for op in current.ops]
        at = next(i for i, op in enumerate(current.ops) if op is rw.at)
        ops[at:at] = rw.new_ops
        applications[pid] += 1


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

# a dead stage pruned before the first sweep, and stages whose rewrites
# feed each other: 1 then 2, 3 then 4 twice, 6 then C3a
CHAINED = """
def main(x) {
  var unused = sum(square(x));
  var auto = conv1d(x, reverse(x));
  var h = lowPassFIRFilter(7, 1.1) * hammingWindow(7);
  var back = idft1d(dft1dreal(x), dft1dimg(x));
  print(firFilterResponse(back, h));
  print(dft1dreal(auto));
  print(dft1dimg(auto));
  print(downsample(upsample(x, 2), 2));
}
"""

ENABLED_SUBSETS = {
    "all": None,
    "none": set(),
    "5+6": {PatternId.PARSEVAL, PatternId.DFT_FUSION},
    "6": {PatternId.DFT_FUSION},
    "3+4": {PatternId.FILTER_Y_SYMM, PatternId.DFT_CONJ_SYMM},
    "1+C3a+C3b": {PatternId.SYMMETRIC_FILTER, PatternId.IDENTITY_DFT_IDFT,
                  PatternId.IDENTITY_UP_DOWN},
}


def _reference_cases():
    for app in corpus.APPS:
        sizes = app.default_sizes()
        yield app.name, app.source(sizes), app.input_lengths(sizes)
    yield "full_coverage", FULL_COVERAGE, {"x": 12}
    yield "chained", CHAINED, {"x": 9}
    yield "energy", ENERGY % 16, {"x": 16}
    for case, (source, lengths, _) in sorted(SPLICE_GOLDEN.items()):
        yield case, source, lengths


@pytest.mark.parametrize("subset", sorted(ENABLED_SUBSETS))
@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
def test_driver_matches_reference(case, subset):
    _, source, lengths = case
    enabled = ENABLED_SUBSETS[subset]
    g = compile_graph(source, lengths)
    want, applications = reference_rewrite(g, enabled)
    got, stats = apply_dsp_patterns(g, enabled)
    assert graph_to_text(renumber(got)) == graph_to_text(want)
    assert stats.applications == applications
    assert len(got.ops) == len(want.ops)


def test_priority_scan_fires_parseval_before_fusion():
    # a per-op worklist would reach the transforms first and fuse them
    _, stats = rewrite(ENERGY % 16, {"x": 16})
    assert {pid: n for pid, n in stats.applications.items() if n} == {PatternId.PARSEVAL: 1}
    assert stats.applications[PatternId.DFT_FUSION] == 0


def test_dead_ops_pruned_before_the_first_sweep(monkeypatch):
    src = "def main(x) { var unused = sum(square(x)); print(%s); }"
    fired, stats = rewrite(src % "downsample(upsample(x, 2), 2)", {"x": 8})
    assert len(stats.log) == 1
    assert opcodes(fired) == [OpCode.INPUT, OpCode.PRINT]
    # with no application the dead ops go too, and the graph is not verified again
    monkeypatch.setattr(rewriter, "verify_graph", None)
    for enabled in (None, set()):
        g = compile_graph(src % "gain(x, 2.0)", {"x": 8})
        pruned, stats = apply_dsp_patterns(g, enabled)
        assert len(stats.log) == 0
        assert opcodes(pruned) == [OpCode.INPUT, OpCode.GAIN, OpCode.PRINT]
        assert (len(g.ops), len(pruned.ops)) == (5, 3)
        assert graph_to_text(pruned).splitlines()[1] == "%3 = gain(%0) {g=2.0} : tensor<8>"
    g = compile_graph("def main(x) { print(gain(x, 2.0)); }", {"x": 8})
    assert apply_dsp_patterns(g)[0] is g


# Stage kinds of the differential programs, each as (firing form, near-miss
# form) in the stage index i, the input length n and a source value s.  The
# near miss changes one detail so that the kind's own pattern does not match
# (another may).  Energy's near miss squares a transform as r * r, the
# dft/idft form gives a transform a second reader, and up/down's identity
# rewires a reverse so that pattern 3 then matches.  A stage whose first line
# declares a value may also get a dead reader of it, which the rewriter
# prunes before its first sweep.
STAGES = {
    "fir": ("var h{i} = lowPassFIRFilter(7, 1.{i}) * hammingWindow(7);\n"
            "  print(firFilterResponse(x, h{i}));",
            "var h{i} = lowPassFIRFilter(7, 1.{i}) * gain(hammingWindow(7), 1.0);\n"
            "  print(firFilterResponse(x, h{i}));"),
    "autocorr": ("var a{i} = conv1d({s}, reverse({s}));\n"
                 "  print(square(dft1dreal(a{i})) + square(dft1dimg(a{i})));",
                 "var a{i} = conv1d({s}, reverse(gain({s}, 1.0)));\n"
                 "  print(square(dft1dreal(a{i})) + square(dft1dimg(a{i})));"),
    "energy": ("var r{i} = dft1dreal({s});\n"
               "  print(sum(square(r{i}) + square(dft1dimg({s}))) / {n});",
               "var r{i} = dft1dreal({s});\n"
               "  print(sum(r{i} * r{i} + square(dft1dimg({s}))) / {n});"),
    "compress": ("print(threshold(dft1dreal({s}), 0.5));\n"
                 "  print(quantize(dft1dimg({s}), 8, 0 - 4, 4));",
                 "print(threshold(dft1dreal({s}), 0.5));\n"
                 "  print(quantize(dft1dimg(gain({s}, 1.0)), 8, 0 - 4, 4));"),
    "lms": ("var w{i} = lmsFilter(x, d, 0.01, 4);\n"
            "  print(firFilterResponse(x, gain(w{i}, 2.0)));",
            "var w{i} = lmsFilter(x, d, 0.01, 4);\n"
            "  print(firFilterResponse(x, gain(w{i}, 2.0)));\n  print(w{i});"),
    "dft_idft": ("var r{i} = dft1dreal({s});\n"
                 "  print(idft1d(r{i}, dft1dimg({s})));\n  print(r{i});",
                 "print(idft1d(dft1dimg({s}), dft1dreal({s})));"),
    "up_down": ("var c{i} = downsample(upsample({s}, 2), 2);\n"
                "  print(conv1d({s}, reverse(c{i})));",
                "print(downsample(upsample({s}, 2), 3));"),
    "fir_bands": ("var b{i} = firFilterResponse({s}, [0.5, 0.{i}]);\n"
                  "  print(gain(b{i}, 2.0) + firFilterResponse({s}, [1.0, 0.25]));",
                  "var b{i} = firFilterResponse({s}, [0.5, 0.{i}]);\n"
                  "  print(gain(b{i}, 2.0) + firFilterResponse({s}, [1.0, 0.25, 0.5]));"),
}


def composed_program(seed):
    """A seeded program of 1-15 stages of random kinds, each firing or a near
    miss, reading the input or a gain of it; its input lengths; and a random
    pattern subset (None for all) for half the seeds."""
    rng = random.Random(seed)
    n = rng.choice((8, 12, 16))
    lines = []
    for i in range(rng.randint(1, 15)):
        fire, miss = STAGES[rng.choice(sorted(STAGES))]
        s = rng.choice(("x", f"s{i}"))
        if s != "x":
            lines.append(f"var s{i} = gain(x, {rng.choice((0.5, 2.0))});")
        lines.append(rng.choice((fire, miss)).format(i=i, n=n, s=s))
        declared = re.match(r"var (\w+) =", lines[-1])
        if declared and rng.random() < 0.3:
            lines.append(f"var u{i} = sum({declared.group(1)});")
    names = ("x", "d") if any("lmsFilter" in line for line in lines) else ("x",)
    source = f"def main({', '.join(names)}) {{\n  " + "\n  ".join(lines) + "\n}\n"
    enabled = None if seed % 2 else set(rng.sample(list(PatternId), rng.randint(1, 8)))
    return source, dict.fromkeys(names, n), enabled


@pytest.mark.parametrize("seed", range(40))
def test_composed_programs_match_reference(seed):
    source, lengths, enabled = composed_program(seed)
    g = compile_graph(source, lengths)
    want, applications = reference_rewrite(g, enabled)
    got, stats = apply_dsp_patterns(g, enabled)
    assert graph_to_text(renumber(got)) == graph_to_text(want), source
    assert stats.applications == applications
    assert len(got.ops) == len(want.ops)
    assert len(stats.log) == sum(stats.applications.values())
    assert stats.log == [] or stats.log[-1].ops == len(got.ops)


def test_composed_programs_cover_every_pattern():
    fired = set()
    for seed in range(1, 40, 2):  # the seeds with every pattern enabled
        source, lengths, _ = composed_program(seed)
        fired |= rewrite(source, lengths)[1].fired
    assert fired == set(PatternId)


def test_rewrite_log_names_each_application_in_working_ids():
    g2, stats = rewrite(CHAINED, {"x": 9})
    # %0-%15 as `--emit=dsp` numbers them; new ops take %16 up
    assert [(a.pattern.value, a.site, a.opcode.value, a.new, a.ops) for a in stats.log] == [
        ("1", 7, "mul", (16,), 16),
        ("2", 11, "fir_filter_response", (17,), 16),
        ("3", 4, "conv1d_full", (18,), 15),
        ("4", 12, "dft1d_real", (19,), 15),
        ("4", 13, "dft1d_imag", (20,), 15),
        ("6", 9, "dft1d_imag", (21,), 14),
        ("C3a", 10, "idft1d", (), 12),
        ("C3b", 15, "downsample", (), 10),
    ]
    assert len(g2.ops) == 10
    assert rewrite("def main(x) { print(gain(x, 2.0)); }", {"x": 4})[1].log == []


def _routes_and_composed_programs():
    for app in corpus.APPS:
        sizes = app.default_sizes()
        for enabled in (None, set()):
            yield app.source(sizes), app.input_lengths(sizes), enabled
    for seed in range(40):
        yield composed_program(seed)


def test_result_and_log_share_one_id_space():
    # an op of the input graph keeps its id and opcode; any other op has an
    # id that the log gave a new op, and no new op takes an input graph's id
    fired = 0
    for source, lengths, enabled in _routes_and_composed_programs():
        g = compile_graph(source, lengths)
        got, stats = apply_dsp_patterns(g, enabled)
        before = {op.id: op.opcode for op in g.ops}
        new = {v for a in stats.log for v in a.new}
        assert not new & before.keys(), source
        assert all(before.get(op.id) is op.opcode or op.id in new for op in got.ops), source
        assert verify_graph(got) == []
        fired += bool(new)
    assert fired >= 40


# A root whose match failed comes back once a splice changes what its matcher
# read.  Parseval fails while the inverse transform reads the transforms too,
# until fusion and then identity C3a take it away.  Pattern 3 fails while the
# reverse reads another value, until identity C3b rewires it to read x.
RETRIED = {
    "readers": ("""
def main(x) {
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  print(idft1d(re, im));
  print(sum(square(re) + square(im)) / 8);
}
""", {"x": 8}, {"5": 1, "6": 1, "C3a": 1}),
    "producer": ("""
def main(x) {
  var c = downsample(upsample(x, 2), 2);
  print(conv1d(x, reverse(c)));
}
""", {"x": 8}, {"3": 1, "C3b": 1}),
}


@pytest.mark.parametrize("case", sorted(RETRIED))
def test_failed_root_is_retried_when_what_it_read_changes(case):
    source, lengths, fired = RETRIED[case]
    g = compile_graph(source, lengths)
    want, applications = reference_rewrite(g)
    got, stats = apply_dsp_patterns(g)
    assert graph_to_text(renumber(got)) == graph_to_text(want)
    assert stats.applications == applications
    assert {pid.value: n for pid, n in stats.applications.items() if n} == fired


def test_rewrite_work_does_not_grow_with_unrelated_stages(monkeypatch):
    """Per application, the ops rebuilt do not depend on how many unrelated
    gain stages precede the program; each such gain (a root of pattern 7)
    costs one matcher call in one sweep, then none."""
    counts = {}
    splice, op_node = rewriter._Ctx.splice, rewriter.OpNode

    def counted_splice(ctx, *args, **kwargs):
        counts["in_splice"] = True
        counts["rebuilt"].append(0)
        try:
            return splice(ctx, *args, **kwargs)
        finally:
            counts["in_splice"] = False
            counts["calls"].append(0)  # the next sweep

    def counted_op_node(*args):
        if counts["in_splice"]:
            counts["rebuilt"][-1] += 1
        return op_node(*args)

    def counted(match):
        def wrapper(ctx, site):
            counts["calls"][-1] += 1
            return match(ctx, site)
        return wrapper

    monkeypatch.setattr(rewriter._Ctx, "splice", counted_splice)
    monkeypatch.setattr(rewriter, "OpNode", counted_op_node)
    for pid, (match, roots) in list(rewriter._MATCHERS.items()):
        monkeypatch.setitem(rewriter._MATCHERS, pid, (counted(match), roots))

    def profile(k):
        counts.update(in_splice=False, rebuilt=[], calls=[0])
        gains = "".join(f"  print(gain(x, {j + 2}.0));\n" for j in range(k))
        _, stats = rewrite(CHAINED.replace("def main(x) {\n", "def main(x) {\n" + gains),
                           {"x": 9})
        assert len(stats.log) == 8
        return counts["rebuilt"], counts["calls"]

    rebuilt, calls = profile(0)
    wide_rebuilt, wide_calls = profile(60)
    assert wide_rebuilt == rebuilt
    assert sum(rebuilt) > 0
    extra = [wide - narrow for wide, narrow in zip(wide_calls, calls)]
    assert len(wide_calls) == len(calls) == 9
    assert sorted(extra) == [0] * 8 + [60]


def test_whole_graph_passes_run_once_per_call(monkeypatch):
    # the rewriter's one check is the verifier on its result: one checker call
    # per op of the result once a pattern fired, none when none did
    calls, checks = [], []

    def counted(graph):
        calls.append(graph)
        return verify_graph(graph)

    def counted_check(check):
        def wrapper(op, shapes):
            checks.append(op)
            return check(op, shapes)
        return wrapper

    monkeypatch.setattr(rewriter, "verify_graph", counted)
    for opcode, check in list(_CHECKERS.items()):
        monkeypatch.setitem(_CHECKERS, opcode, counted_check(check))
    result, stats = rewrite(CHAINED, {"x": 9})
    assert len(stats.log) >= 5
    assert len(calls) == 1 and checks == result.ops
    _, stats = rewrite("def main(x) { print(gain(x, 2.0)); }", {"x": 8})
    assert len(stats.log) == 0
    assert len(calls) == 1 and checks == result.ops  # no checker call


# --------------------------------------------------------------------------
# Golden graph text of every corpus app before and after rewriting, and of
# the full-coverage and chained programs with all patterns and with none

GOLDEN_GRAPHS = Path(__file__).resolve().parent / "fixtures" / "golden_graphs.txt"


def golden_graphs():
    out = {}
    for app in corpus.APPS:
        sizes = app.default_sizes()
        g = compile_graph(app.source(sizes), app.input_lengths(sizes))
        out[f"{app.name}/before"] = graph_to_text(g)
        out[f"{app.name}/after"] = graph_to_text(apply_dsp_patterns(g)[0])
    for name, source, lengths in (("full_coverage", FULL_COVERAGE, {"x": 12}),
                                  ("chained", CHAINED, {"x": 9})):
        g = compile_graph(source, lengths)
        for subset, enabled in (("all", None), ("none", set())):
            out[f"{name}/{subset}"] = graph_to_text(apply_dsp_patterns(g, enabled)[0])
    return out


def test_golden_graphs():
    parts = re.split(r"^## (\S+)\n", GOLDEN_GRAPHS.read_text(), flags=re.M)[1:]
    want = dict(zip(parts[::2], parts[1::2]))
    got = golden_graphs()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key

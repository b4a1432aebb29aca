import random

import pytest

from dspc.frontend import parse_source
from dspc.graph import build_graph, graph_to_text, infer_shapes, verify_graph
from dspc.kernels import eval_graph, tensor
from dspc.ops import OpCode
from dspc import rewriter
from dspc.rewriter import PatternId, RewriteError, apply_dsp_patterns


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
    """Kernel-evaluate the graph before and after rewriting."""
    g = compile_graph(source, lengths)
    g2, _ = apply_dsp_patterns(g)
    out1 = eval_graph(g, inputs)
    out2 = eval_graph(g2, inputs)
    for v1, v2 in zip(g.prints, g2.prints):
        a, b = out1[v1], out2[v2]
        assert a.logical_length == b.logical_length
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
    assert stats.total_applications() == 0
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
    assert stats.total_applications() == 0


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
    assert stats.total_applications() == 0


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
    assert stats.total_applications() == 0


@pytest.mark.parametrize("n", [1, 2, 3, 17, 32])
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
    g2, stats = rewrite("""
def main(x, d) {
  var w = lmsFilter(x, d, 0.01, 4);
  print(gain(w, 2.0));
}
""", {"x": 32, "d": 32})
    assert OpCode.LMS_FILTER_GAIN_OPT in opcodes(g2)
    fused = next(op for op in g2.ops
                 if op.opcode is OpCode.LMS_FILTER_GAIN_OPT)
    attrs = {a.name: a.value for a in fused.attributes}
    assert attrs["g"] == 2.0 and attrs["M"] == 4


def test_pattern7_rejects_const_operand():
    g2, stats = rewrite("def main() { print(gain([1, 2], 2.0)); }")
    assert stats.total_applications() == 0


def test_pattern7_rejects_shared_lms_result():
    # the weights escape through a second print, so folding the gain into
    # the recursion would change an observable value
    g2, stats = rewrite("""
def main(x, d) {
  var w = lmsFilter(x, d, 0.01, 4);
  print(w);
  print(gain(w, 2.0));
}
""", {"x": 32, "d": 32})
    assert OpCode.LMS_FILTER_GAIN_OPT not in opcodes(g2)


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
    assert stats.total_applications() == 0


def test_idempotent_second_pass():
    g2, stats = rewrite(FILTER_DESIGN % (11, 11))
    g3, stats2 = apply_dsp_patterns(g2)
    assert stats2.total_applications() == 0
    assert opcodes(g3) == opcodes(g2)


def test_rewritten_graph_verifies():
    g2, _ = rewrite(ENERGY % 16, {"x": 16})
    assert verify_graph(g2) == []


def test_stats_shrinkage():
    _, stats = rewrite(ENERGY % 16, {"x": 16})
    assert stats.ops_after < stats.ops_before


def test_enabled_subset_restricts_firing():
    only5 = {PatternId.PARSEVAL}
    g2, stats = rewrite(ENERGY % 16, {"x": 16}, enabled=only5)
    assert stats.fired == only5

    g3, stats2 = rewrite(ENERGY % 16, {"x": 16}, enabled=set())
    assert stats2.total_applications() == 0
    assert opcodes(g3) == opcodes(compile_graph(ENERGY % 16, {"x": 16}))


def test_enabled_fusion_without_parseval():
    g2, stats = rewrite(ENERGY % 16, {"x": 16},
                        enabled={PatternId.DFT_FUSION})
    assert stats.fired == {PatternId.DFT_FUSION}
    assert OpCode.DFT1D_FUSED in opcodes(g2)


# Golden rewrites: where the new ops land and how the result is numbered.
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
%1, %2 = dft1d_fused(%0) : tensor<8>, tensor<8>
%3 = gain(%0) {g=2.0} : tensor<8>
print(%1)
print(%3)
print(%2)
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
%1, %2 = dft1d_fused(%0) : tensor<8>, tensor<8>
%3 = gain(%0) {g=2.0} : tensor<8>
print(%1)
print(%3)
print(%2)
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
%2 = lms_filter_gain_opt(%0, %1) {mu=0.01, M=4, g=2.0} : tensor<4>
%3 = sum(%0) : tensor<1>
print(%2)
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
%1 = square(%0) : tensor<16>
%2 = sum(%1) : tensor<1>
%3 = gain(%0) {g=2.0} : tensor<16>
print(%3)
print(%2)
"""),
    # an unbound input leaves the response unshaped; the taps are shaped
    "filter_unbound": ("""
def main(x) {
  var h = lowPassFIRFilter(5, 1.1) * hammingWindow(5);
  print(firFilterResponse(x, h));
}
""", None, """\
%0 = input() {name=x} : tensor<?>
%1 = filter_hamm_opt() {L=5, wc=1.1} : tensor<5>
%2 = filter_res_symm_opt(%0, %1) : tensor<?>
print(%2)
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
        up = ctx.prod(site.operands[0]) if site.opcode is OpCode.DOWNSAMPLE else None
        if up is None or up.opcode is not OpCode.UPSAMPLE:
            return None
        return rewriter.replace_site(ctx, site, up.operands[0])

    monkeypatch.setitem(rewriter._MATCHERS, PatternId.IDENTITY_UP_DOWN, any_factor)
    with pytest.raises(RewriteError) as exc:
        rewrite("def main(x) { print(gain(downsample(upsample(x, 3), 2), 2.0)); }",
                {"x": 10})
    assert "pattern C3b produced an invalid graph" in str(exc.value)
    assert "inconsistent" in str(exc.value)

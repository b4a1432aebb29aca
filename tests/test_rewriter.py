import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from dspc import corpus
from dspc.frontend import parse_source
from dspc.graph import (DspGraph, build_graph, eliminate_dead_ops, graph_to_text,
                        infer_shapes, verify_graph)
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
    assert fused.attr("g") == 2.0 and fused.attr("M") == 4


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

    monkeypatch.setitem(rewriter._MATCHERS, PatternId.IDENTITY_UP_DOWN,
                        (any_factor, {OpCode.DOWNSAMPLE}))
    with pytest.raises(RewriteError) as exc:
        rewrite("def main(x) { print(gain(downsample(upsample(x, 3), 2), 2.0)); }",
                {"x": 10})
    assert "pattern C3b produced an invalid graph" in str(exc.value)
    assert "inconsistent" in str(exc.value)


# --------------------------------------------------------------------------
# The in-place driver against the per-application reference


def reference_rewrite(graph, enabled=None):
    """The driver with whole-graph work per application: rebuild every op,
    prune and renumber with eliminate_dead_ops, verify the whole graph."""
    wanted = [pid for pid in PatternId if enabled is None or pid in enabled]
    applications = {pid: 0 for pid in wanted}
    current = graph
    while True:
        ctx = rewriter._Ctx(current)
        hit = next(((pid, rw) for pid in wanted for op in current.ops
                    if op.opcode in rewriter._MATCHERS[pid][1]
                    and (rw := rewriter._MATCHERS[pid][0](ctx, op)) is not None), None)
        if hit is None:
            return current, applications
        pid, rw = hit
        get = rw.subst.get
        ops = [replace(op, operands=tuple(get(v, v) for v in op.operands)) for op in current.ops]
        ops[rw.at:rw.at] = rw.new_ops
        current = eliminate_dead_ops(DspGraph(ops))
        assert verify_graph(current) == []
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

# a dead stage the first application prunes, and stages whose rewrites
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
    assert graph_to_text(got) == graph_to_text(want)
    assert stats.applications == applications
    assert (stats.ops_before, stats.ops_after) == (len(g.ops), len(want.ops))


def test_priority_scan_fires_parseval_before_fusion():
    # a per-op worklist would reach the transforms first and fuse them
    _, stats = rewrite(ENERGY % 16, {"x": 16})
    assert {pid: n for pid, n in stats.applications.items() if n} == {PatternId.PARSEVAL: 1}
    assert stats.applications[PatternId.DFT_FUSION] == 0


def test_dead_op_pruned_once_a_pattern_fires():
    src = "def main(x) { var unused = sum(square(x)); print(%s); }"
    fired, stats = rewrite(src % "downsample(upsample(x, 2), 2)", {"x": 8})
    assert stats.total_applications() == 1
    assert opcodes(fired) == [OpCode.INPUT, OpCode.PRINT]

    g = compile_graph(src % "gain(x, 2.0)", {"x": 8})
    kept, stats = apply_dsp_patterns(g)
    assert stats.total_applications() == 0
    assert kept is g and OpCode.SQUARE in opcodes(kept)


def test_whole_graph_passes_run_once_per_call(monkeypatch):
    calls = {"verify_graph": 0, "renumber": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(rewriter, name, counted(name, getattr(rewriter, name)))
    _, stats = rewrite(CHAINED, {"x": 9})
    assert stats.total_applications() >= 5
    assert calls == {"verify_graph": 1, "renumber": 1}
    _, stats = rewrite("def main(x) { print(gain(x, 2.0)); }", {"x": 8})
    assert stats.total_applications() == 0
    assert calls == {"verify_graph": 1, "renumber": 1}


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

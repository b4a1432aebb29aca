"""The loop backend held to `loop_eval.evaluate`, which runs loop programs as
emitted and counts each metered operation as it runs it: outputs (by
`float.hex`), every counter but wall time and error types must agree on each
program's first three runs from no twiddle tables: the first builds the
tables, then reads them twice."""

import math
import random
import re
from pathlib import Path

import pytest

import loop_eval
from dspc import corpus, interp
from dspc.interp import TABLES, compiled_source, evaluate_loop_ir, tensor
from dspc.loop_ir import (AffineExpr, Assign, BufferDecl, ConstF, For, Load, LoopProgram,
                          OutOfBounds, SelectGuard, Store, TempRef, Trig, Unit)
from dspc.lowering import lower_graph
from dspc.rewriter import apply_dsp_patterns
from dspc.synth import noise

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Tier-1 sizes, chosen for time alone; `python tests/loop_eval.py` runs every
# app at its default sizes.  AudioCompression keeps its 256 samples, so its
# DFTs read tables, and SpectralAnalysis at 129 transforms 257 samples: its
# unoptimized DFTs are over the table bound, its halved ones under it.
TIER1 = {"LowPassFiltering": {"N": 256}, "EnergyOfSignal": {"N": 64},
         "SpectralAnalysis": {"N": 129}, "HearingAid": {"N": 128},
         "AudioEqualizer": {"N": 128}}


def _routes(source, lengths):
    g = corpus.compile_source(source, lengths)
    return lower_graph(g), lower_graph(apply_dsp_patterns(g)[0])


def _tables():
    """The trig of each table built, sorted."""
    return sorted(key[1] for key in TABLES)


@pytest.mark.parametrize("app", corpus.APPS, ids=lambda app: app.name)
def test_corpus_routes_count_as_emitted(app):
    sizes = {**app.default_sizes(), **TIER1.get(app.name, {})}
    tables = []
    for p in _routes(app.source(sizes), app.input_lengths(sizes)):
        assert loop_eval.differences(p, app.synth_inputs(sizes, 0)) == []
        tables.append(_tables())
    want = {"AudioCompression": [["cos", "sin"]] * 2, "SpectralAnalysis": [[], ["cos", "sin"]],
            "EnergyOfSignal": [["cos", "sin"], []]}
    assert tables == want.get(app.name, [[], []])


def test_golden_lowering_counts_and_fails_as_emitted():
    rng = random.Random(3)
    x = tensor([rng.uniform(-1, 1) for _ in range(3)])
    for p in _routes((FIXTURES / "golden_lowering.dsp").read_text(), {"x": 3, "d": 3}):
        for d, error in ((x, None), (tensor([1.0, 0.0, 1.0]), "LoopDivisionByZero")):
            assert loop_eval.differences(p, {"x": x, "d": d}) == []
            got = loop_eval.outcome(lambda: loop_eval.evaluate(p, {"x": x, "d": d}))
            assert (got[0].__name__ if error else None) == error
    # a diverging adaptive filter is non-finite on both
    p = _routes("def main(x, d) { print(lmsFilter(x, d, 100000.0, 8)); }",
                {"x": 256, "d": 256})[0]
    x = noise(256, 9)
    assert loop_eval.differences(p, {"x": x, "d": x}) == []
    assert loop_eval.outcome(lambda: loop_eval.evaluate(p, {"x": x, "d": x}))[0].__name__ == \
        "NonFinite"


@pytest.mark.parametrize("workload", ["compile-fire", "compile-miss"])
def test_compile_workload_programs_count_as_emitted(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import programs  # the compile workloads' program generator
    for seed in (1, 9001):
        for prog in programs.make_block(workload, seed, 0)[::5]:
            inputs = {name: noise(prog.length, s) for name, s in prog.input_seeds}
            for p in _routes(prog.source, {name: len(t) for name, t in inputs.items()}):
                assert loop_eval.differences(p, inputs) == [], prog.source


def _nest(n, inner, first=0):
    """y[i] = acc for first <= i < n, acc summed by `inner` over j < n; x holds n samples."""
    acc = TempRef("acc")
    body = [Assign(acc, ConstF(0.0)), For("j", 0, n, inner, "inner"),
            Store("y", AffineExpr.of("i"), acc)]
    buffers = [BufferDecl("x", n), BufferDecl("y", n)]
    return LoopProgram(buffers, [("x", "x")], [(0, "y")],
                       calls=[("", Unit(tuple(buffers), [For("i", first, n, body, "outer")]),
                               ("x", "y"))])


_ACC, _X = TempRef("acc"), Load("x", AffineExpr.of("j"))


def _direct(c):
    return [Assign(_ACC, _ACC + _X * Trig("cos", c, "i", "j"))]


def _shared(c):  # the cosine pays for the angle the sine reads too
    return [Assign(_ACC, _ACC + _X * Trig("cos", c, "i", "j") - Trig("sin", c, "i", "j", 0))]


_CASES = {  # case: (inner body of c, first row, whether tables are read, over their bound)
    "direct": (_direct, 0, True, False),
    "shared": (_shared, 0, True, False),
    "over the bound": (_shared, 0, False, True),
    "row from 1": (_direct, 1, False, False),
    # a divisor checked at run time keeps a short loop indexed
    "checked divisor": (lambda c: [Assign(TempRef("d"), _X), Assign(
        _ACC, _ACC + Trig("cos", c, "i", "j") / TempRef("d"))], 0, True, False),
}


@pytest.mark.parametrize("n", [47, 48])  # either side of STREAM_MIN_TRIPS
@pytest.mark.parametrize("case", list(_CASES))
def test_hand_built_trig_nests_count_as_emitted(monkeypatch, case, n):
    inner, first, tabled, over = _CASES[case]
    if over:
        monkeypatch.setattr(interp, "TABLE_ENTRIES", 4 * n * n - 1)
    p = _nest(n, inner(ConstF(2.0 * math.pi / n)), first)
    text = compiled_source(p)
    assert ("_table(" in text) == tabled, text
    # a call computes its angle once per trip, however many twiddles read it
    copies = n if "straight-line" in text else 1
    assert len(re.findall(r"\* \(i0\*", text)) == (0 if tabled else copies), text
    assert loop_eval.differences(p, {"x": noise(n, 4)}) == []


@pytest.mark.parametrize("source, opcode, names", [
    ("def main(x) { print(dft1dreal(x)); print(dft1dimg(x)); }", "dft1d_fused", "x"),
    ("def main(x, y) { print(idft1d(x, y)); }", "idft1d", "xy")], ids=["fused", "inverse"])
def test_two_part_nests_over_the_table_bound_compute_each_angle_once(source, opcode, names):
    # at 257 points the tables are over their bound: each trip calls cos and
    # sin of one angle, which the cosine's call names for the sine's
    inputs = {name: noise(257, k) for k, name in enumerate(names)}
    p = _routes(source, dict.fromkeys(inputs, 257))[1]
    text = compiled_source(p)
    assert f"# {opcode}.inner" in text and "_table(" not in text, text
    assert len(re.findall(r"\* \(i0\*i1\)", text)) == 1, text
    assert loop_eval.differences(p, inputs) == []


@pytest.mark.parametrize("taps, pieces", [(9, 2), (10, 1)])  # either side of the half-loop cut
def test_a_guarded_nest_counts_as_emitted_split_or_whole(taps, pieces):
    # a 16-output FIR over 16 samples: the guard-free interior [taps - 1, 16)
    # is split off only where it covers half the outputs (`interp._pieces`)
    i, j, acc = AffineExpr.of("i"), AffineExpr.of("j"), TempRef("acc")
    at = i.plus(AffineExpr.of("j", -1))
    buffers = [BufferDecl("x", 16), BufferDecl("h", taps), BufferDecl("y", 16)]
    p = LoopProgram(buffers, [("x", "x"), ("h", "h")], [(0, "y")], calls=[("", Unit(
        tuple(buffers), [For("i", 0, 16, [Assign(acc, ConstF(0.0)), For("j", 0, taps, [
            SelectGuard(at, 0, 16, [Assign(acc, acc + Load("h", j) * Load("x", at))])], "inner"),
            Store("y", i, acc)], "outer")]), ("x", "h", "y"))])
    assert compiled_source(p).count("# outer") == pieces
    assert loop_eval.differences(p, {"x": noise(16, 1), "h": noise(taps, 2)}) == []


def test_an_access_out_of_bounds_fails_alike():
    i = AffineExpr.of("i")
    buffers = [BufferDecl("y", 4)]
    p = LoopProgram(buffers, [], [(0, "y")], calls=[("", Unit(tuple(buffers), [
        For("i", 0, 4, [Store("y", i.shifted(1), ConstF(1.0))], "fill")]), ("y",))])
    assert loop_eval.differences(p, {}) == []
    with pytest.raises(OutOfBounds):
        evaluate_loop_ir(p, {})

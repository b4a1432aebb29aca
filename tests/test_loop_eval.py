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
from dspc import corpus
from dspc.interp import TABLES, compiled_source, evaluate_loop_ir, tensor
from dspc.loop_ir import (AffineExpr, Assign, BufferDecl, Call, ConstF, For, IndexProdF, Load,
                          LoopProgram, OutOfBounds, SelectGuard, Store, TempRef, Unit)
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


def _nest(n, head, inner, tail):
    """y[i] = acc for i < n, acc summed by `inner` over j < n between `head`
    and `tail`; x holds n samples."""
    acc = TempRef("acc")
    body = [*head, Assign(acc, ConstF(0.0)), For("j", 0, n, inner, "inner"), *tail,
            Store("y", AffineExpr.of("i"), acc)]
    buffers = [BufferDecl("x", n), BufferDecl("y", n), BufferDecl("z", n)]
    return LoopProgram(buffers, [("x", "x")], [(0, "y"), (1, "z")],
                       calls=[("", Unit(tuple(buffers), [For("i", 0, n, body, "outer")]),
                               ("x", "y", "z"))])


def _angle(n):
    return 2.0 * math.pi / n * IndexProdF("i", "j")


_ACC, _ANG, _X = TempRef("acc"), TempRef("ang"), Load("x", AffineExpr.of("j"))
_CASES = {  # case: (head, inner body, tail), whether tables are read and the angle kept
    # a direct call, and an angle that two calls read
    "direct": lambda n: (((), [Assign(_ACC, _ACC + _X * Call("cos", _angle(n)))], ()),
                         True, False),
    "shared": lambda n: (((), [Assign(_ANG, _angle(n)),
                               Assign(_ACC, _ACC + _X * Call("cos", _ANG) - Call("sin", _ANG))],
                          ()), True, False),
    # the angle is read after the loop too, or a call before its Assign reads
    # the last trip's: no table
    "read after": lambda n: (((), [Assign(_ANG, _angle(n)), Assign(_ACC, _ACC + Call("sin", _ANG))],
                              [Store("z", AffineExpr.of("i"), _ANG)]), False, True),
    "loop-carried": lambda n: (([Assign(_ANG, ConstF(0.0))],
                                [Assign(_ACC, _ACC + Call("cos", _ANG)), Assign(_ANG, _angle(n))],
                                ()), False, True),
    # a divisor checked at run time keeps a short loop indexed
    "checked divisor": lambda n: (((), [Assign(TempRef("d"), _X), Assign(
        _ACC, _ACC + Call("cos", _angle(n)) / TempRef("d"))], ()), True, False),
}


@pytest.mark.parametrize("n", [47, 48])  # either side of STREAM_MIN_TRIPS
@pytest.mark.parametrize("case", list(_CASES))
def test_hand_built_trig_nests_count_as_emitted(case, n):
    parts, tabled, kept = _CASES[case](n)
    p = _nest(n, *parts)
    text = compiled_source(p)
    assert ("_table(" in text, bool(re.search(r"= c\d+ \* \(i0\*", text))) == (tabled, kept), text
    assert loop_eval.differences(p, {"x": noise(n, 4)}) == []


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

"""Acceptance checklist for the optimizing pipeline.

Ten end-to-end checks, one per test, each printing a single PASS/FAIL line
(visible even under captured output) with the measured quantities.  The
assertions carry exactly the same conditions as the printed lines.  A last
test runs every check `dspc bench` enforces on each app.
"""

import math
import random
import time
from types import SimpleNamespace

import pytest

from dspc import corpus
from dspc.interp import evaluate_loop_ir, tensor
from dspc.lowering import LoweringUnsupported, lower_graph
from dspc.ops import OpCode
from dspc.rewriter import apply_dsp_patterns

import kernels as K

REL_TOL = 1e-9
ABS_FLOOR = 1e-12

TRANSFORM_OPS = frozenset({
    OpCode.DFT1D_REAL, OpCode.DFT1D_IMAG, OpCode.DFT1D_FUSED,
    OpCode.DFT1D_REAL_SYMM, OpCode.DFT1D_IMAG_SYMM, OpCode.IDFT1D,
    OpCode.UPSAMPLE, OpCode.DOWNSAMPLE,
})


@pytest.fixture(scope="module")
def pipelines():
    """Both compilation routes for every corpus app at its default sizes."""
    records = {}
    for app in corpus.APPS:
        sizes = app.default_sizes()
        g_none = corpus.compile_source(app.source(sizes),
                                       app.input_lengths(sizes))
        g_dsp, stats = apply_dsp_patterns(g_none)
        records[app.name] = SimpleNamespace(
            app=app, sizes=sizes, g_none=g_none, g_dsp=g_dsp, stats=stats,
            p_none=lower_graph(g_none), p_dsp=lower_graph(g_dsp))
    return records


@pytest.fixture
def say(capsys):
    def _say(ok, label, detail):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} [{label}] {detail}")
        return ok
    return _say


def loop_outputs(program, inputs):
    outs, counters = evaluate_loop_ir(program, inputs)
    return [outs[vid] for vid, _ in program.outputs], counters


def kernel_outputs(graph, inputs):
    values = K.eval_graph(graph, inputs)
    return [values[vid] for vid in graph.prints]


def run_counters(record, inputs=None):
    inputs = inputs or record.app.synth_inputs(record.sizes,
                                               record.app.base_seed)
    _, before = loop_outputs(record.p_none, inputs)
    _, after = loop_outputs(record.p_dsp, inputs)
    return before, after


def test_01_equivalence_twenty_seeds(pipelines, say):
    started = time.perf_counter()
    worst = 0.0
    for rec in pipelines.values():
        for s in range(20):
            inputs = rec.app.synth_inputs(rec.sizes,
                                          rec.app.base_seed + 7919 * s)
            got, _ = loop_outputs(rec.p_dsp, inputs)
            ref, _ = loop_outputs(rec.p_none, inputs)
            dev = corpus.max_relative_deviation(got, ref)
            worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    ok = worst <= REL_TOL and elapsed < 30.0
    assert say(ok, "1 equivalence",
               f"7 apps x 20 seeds, worst deviation {worst:.3e} "
               f"(tol {REL_TOL:.0e}), {elapsed:.1f}s of 30s"), \
        f"worst deviation {worst}, elapsed {elapsed}"


def test_02_filter_design_trig_halves(pipelines, say):
    rec = pipelines["FilterDesign"]
    L = rec.sizes["L"]
    before, after = run_counters(rec)
    expected = 2 * ((L + 1) // 2) - 1
    ratio = after.trig_calls / before.trig_calls
    ok = abs(after.trig_calls - expected) <= 2 and 0.48 <= ratio <= 0.52
    assert say(ok, "2 trig halving",
               f"L={L}: trig {before.trig_calls}->{after.trig_calls} "
               f"(expect {expected} +-2), ratio {ratio:.4f} in [0.48, 0.52]")


def test_03_energy_multiplies_collapse(pipelines, say):
    rec = pipelines["EnergyOfSignal"]
    inputs = rec.app.synth_inputs(rec.sizes, rec.app.base_seed)
    wall_before = []
    wall_after = []
    for _ in range(3):
        _, b = loop_outputs(rec.p_none, inputs)
        _, a = loop_outputs(rec.p_dsp, inputs)
        wall_before.append(b.wall_time_ns)
        wall_after.append(a.wall_time_ns)
    before, after = run_counters(rec, inputs)
    ratio = after.mults / before.mults
    speedup = min(wall_before) / max(min(wall_after), 1)
    ok = ratio <= 0.001 and after.trig_calls == 0 and speedup >= 5.0
    assert say(ok, "3 spectral energy",
               f"N=1024: mults {before.mults}->{after.mults} "
               f"(ratio {ratio:.6f} <= 0.001), trig after "
               f"{after.trig_calls} == 0, wall speedup {speedup:.0f}x >= 5x")


def test_04_fused_transform_inner_trips(pipelines, say):
    rec = pipelines["AudioCompression"]
    n = rec.sizes["N"]
    before, after = run_counters(rec)
    tb, ta = before.loop_iters_by_tag, after.loop_iters_by_tag
    got_b = tb.get("dft1d_real.inner", 0) + tb.get("dft1d_imag.inner", 0)
    got_a = ta.get("dft1d_fused.inner", 0)
    ok = got_b == 2 * n * n and got_a == n * n
    assert say(ok, "4 transform fusion",
               f"N={n}: inner trips {got_b} == {2*n*n} before, "
               f"{got_a} == {n*n} after (exact)")


def test_05_symmetry_halves_outer_trips(pipelines, say):
    rec = pipelines["SpectralAnalysis"]
    n = rec.sizes["N"]
    full = 2 * n - 1
    before, after = run_counters(rec)
    tb, ta = before.loop_iters_by_tag, after.loop_iters_by_tag
    conv_b = tb.get("conv1d_full.outer", 0)
    conv_a = ta.get("filter_y_symm_opt.outer", 0)
    dft_b = (tb.get("dft1d_real.outer", 0), tb.get("dft1d_imag.outer", 0))
    dft_a = (ta.get("dft1d_real_symm.outer", 0),
             ta.get("dft1d_imag_symm.outer", 0))
    half_up = (full + 1) // 2
    half_down = full // 2 + 1
    ok = (conv_b == full and conv_a == half_up
          and dft_b == (full, full) and dft_a == (half_down, half_down))
    assert say(ok, "5 conjugate symmetry",
               f"N={n}: conv outer {conv_b}->{conv_a} (expect {full}->"
               f"{half_up}), DFT outer {dft_b}->{dft_a} "
               f"(expect {full}->{half_down} each, exact)")


def _tap_buffer(graph, opcode):
    op = next(op for op in graph.ops if op.opcode is opcode)
    return f"v{op.operands[1]}"


def test_06_tap_loads_halve(pipelines, say):
    rec = pipelines["LowPassFiltering"]
    n, L = rec.sizes["N"], rec.sizes["L"]
    before, after = run_counters(rec)
    got_b = before.loads_by_buffer[
        _tap_buffer(rec.g_none, OpCode.FIR_FILTER_RESPONSE)]
    got_a = after.loads_by_buffer[
        _tap_buffer(rec.g_dsp, OpCode.FILTER_RES_SYMM_OPT)]
    per_b, per_a = got_b // n, got_a // n
    ok = got_b == n * L and got_a == n * (L // 2 + 1)
    assert say(ok, "6 tap loads",
               f"N={n}, L={L}: h loads per output {per_b}->{per_a} "
               f"(expect {L}->{L // 2 + 1}, exact totals "
               f"{n * L}/{n * (L // 2 + 1)})")


def test_07_fired_pattern_audit(pipelines, say):
    mismatches = []
    table = {}
    for rec in pipelines.values():
        fired = {pid.value for pid in rec.stats.fired}
        table[rec.app.alias] = sorted(fired)
        if fired != set(rec.app.expected_patterns):
            mismatches.append(
                f"{rec.app.name}: {sorted(fired)} != "
                f"{sorted(rec.app.expected_patterns)}")
    ok = not mismatches
    assert say(ok, "7 pattern audit",
               "; ".join(mismatches) if mismatches else
               " ".join(f"{k}={v}" for k, v in table.items()))


def test_08_kernel_property_suites(say):
    rng = random.Random(0xD5BC)
    started = time.perf_counter()
    cases = 1000
    failures = []

    def randx(n):
        return tensor([rng.uniform(-1, 1) for _ in range(n)])

    for _ in range(cases):
        n = rng.randint(2, 64)
        x = randx(n)
        re, im = K.k_dft_real(x), K.k_dft_imag(x)

        # Parseval: time-domain and spectral energy agree up to 1/N
        e_time = sum(v * v for v in x.values)
        e_freq = sum(r * r + i * i for r, i in zip(re.values, im.values)) / n
        if abs(e_time - e_freq) > REL_TOL * max(abs(e_time), 1.0):
            failures.append(f"parseval n={n}")

        # conjugate symmetry of the real-signal spectrum
        for k in range(1, n):
            if abs(re.values[n - k] - re.values[k]) > 1e-9 or \
               abs(im.values[n - k] + im.values[k]) > 1e-9:
                failures.append(f"conjugate n={n} k={k}")
                break

        # forward/inverse round trip
        back = K.k_idft(re, im)
        if any(abs(a - b) > 1e-9 for a, b in zip(back.values, x.values)):
            failures.append(f"roundtrip n={n}")

        # autocorrelation is a palindrome
        auto = K.k_conv1d_full(x, K.k_reverse(x)).values
        if any(abs(a - b) > ABS_FLOOR + REL_TOL * abs(a)
               for a, b in zip(auto, reversed(auto))):
            failures.append(f"palindrome n={n}")

        # FIR filtering is linear
        z, h = randx(n), randx(rng.randint(1, 9))
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        mixed = tensor([a * u + b * v for u, v in zip(x.values, z.values)])
        lhs = K.k_fir_response(mixed, h).values
        fx = K.k_fir_response(x, h).values
        fz = K.k_fir_response(z, h).values
        if any(abs(l - (a * u + b * v)) > ABS_FLOOR + REL_TOL * abs(l)
               for l, u, v in zip(lhs, fx, fz)):
            failures.append(f"linearity n={n}")

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    assert say(ok, "8 kernel properties",
               f"5 suites x {cases} cases, N in 2..64, "
               f"{len(failures)} failures, {elapsed:.1f}s of 60s"), failures[:5]


def test_09_identity_programs_pass_through(say):
    import pathlib
    fixtures = pathlib.Path(__file__).resolve().parent / "fixtures"
    leftovers = []
    exact = True
    for name in ("identity_dftidft.dsp", "identity_updown.dsp"):
        src = (fixtures / name).read_text()
        g = corpus.compile_source(src, {"x": 48})
        g2, _ = apply_dsp_patterns(g)
        kept = {op.opcode for op in g2.ops} & TRANSFORM_OPS
        if kept:
            leftovers.append(f"{name}: {sorted(o.value for o in kept)}")
        x = tensor([math.sin(0.1 * i) for i in range(48)])
        outs, _ = loop_outputs(lower_graph(g2), {"x": x})
        exact = exact and outs[0].values == x.values
    ok = not leftovers and exact
    assert say(ok, "9 identity elimination",
               "transform/resample ops left: "
               f"{leftovers or 'none'}, passthrough bit-identical: {exact}")


def test_10_lowering_soundness(pipelines, say):
    worst = 0.0
    unsupported = []
    for rec in pipelines.values():
        inputs = rec.app.synth_inputs(rec.sizes, rec.app.base_seed + 1)
        # both routes against the kernels of the unrewritten graph: the
        # rewriter's opcodes have no kernel of their own
        ref = kernel_outputs(rec.g_none, inputs)
        for program in (rec.p_none, rec.p_dsp):
            got, _ = loop_outputs(program, inputs)
            worst = max(worst, corpus.max_relative_deviation(got, ref))
    # the whole operation set must lower, not only what the corpus uses
    sink = """
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
    g = corpus.compile_source(sink, {"x": 12})
    for graph in (g, apply_dsp_patterns(g, set())[0]):
        try:
            program = lower_graph(graph)
        except LoweringUnsupported as exc:
            unsupported.append(str(exc))
            continue
        x = {"x": tensor([math.cos(0.3 * i) for i in range(12)])}
        got, _ = loop_outputs(program, x)
        ref = kernel_outputs(graph, x)
        worst = max(worst, corpus.max_relative_deviation(got, ref))
    ok = worst <= REL_TOL and not unsupported
    assert say(ok, "10 lowering soundness",
               f"corpus + full-coverage graphs, worst deviation "
               f"{worst:.3e} (tol {REL_TOL:.0e}), "
               f"unsupported: {unsupported or 'none'}")


def test_bench_checks_pass_on_every_app(pipelines):
    for rec in pipelines.values():
        inputs = rec.app.synth_inputs(rec.sizes, rec.app.base_seed)
        outs_none, before = loop_outputs(rec.p_none, inputs)
        outs_dsp, after = loop_outputs(rec.p_dsp, inputs)
        ctx = corpus.BenchContext(
            app=rec.app, sizes=rec.sizes,
            fired=frozenset(pid.value for pid in rec.stats.fired),
            before=before, after=after, graph_none=rec.g_none, graph_dsp=rec.g_dsp,
            deviation=corpus.max_relative_deviation(outs_none, outs_dsp))
        for name, ok, detail in (check(ctx) for check in rec.app.checks):
            assert ok, f"{rec.app.name}: {name} ({detail})"

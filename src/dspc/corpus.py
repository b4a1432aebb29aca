"""The seven shipped applications, as size-parameterized source templates.

The `.dsp` files under ``dspc/apps/`` are the templates instantiated at
their default sizes; a test pins the two in sync.  Keeping templates here
lets the bench harness and the test suite rebuild any app at a different
input size (the energy divisor, oscillator lengths, and so on must track
the size, so plain string sources would not do).

Each app carries its expected rewrite firings and the counter assertions
the bench command enforces, so the CLI and the tests share one registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .frontend import parse_source
from .graph import (DspGraph, VerificationFailed, build_graph, infer_shapes,
                    verify_graph)
from .interp import ExecCounters, Tensor
from .ops import OpCode
from .synth import noise

# Cutoffs in radians/sample, written out as decimal literals for the DSL.
_WC_DEFAULT = repr(0.4 * math.pi)
_WC_LOW = repr(0.2 * math.pi)
_WC_MID = repr(0.5 * math.pi)
_WC_HIGH = repr(0.8 * math.pi)


def compile_source(source: str,
                   input_lengths: Optional[dict[str, int]] = None) -> DspGraph:
    """Parse, build, shape-infer and verify; raises on any violation."""
    graph = infer_shapes(build_graph(parse_source(source)), input_lengths)
    violations = verify_graph(graph)
    if violations:
        raise VerificationFailed(violations)
    return graph


def max_relative_deviation(a: Sequence[Tensor], b: Sequence[Tensor]) -> float:
    """Worst relative elementwise difference.

    Equal values (the same infinity, NaN and NaN) and values at most 1e-12
    apart score 0; a length mismatch or any other pair with a non-finite
    member scores inf.
    """
    worst = 0.0
    if len(a) != len(b):
        return math.inf
    for ta, tb in zip(a, b):
        va, vb = ta.values, tb.values
        if len(va) != len(vb):
            return math.inf
        for x, y in zip(va, vb):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                return math.inf
            d = abs(x - y)
            if d <= 1e-12:
                continue
            worst = max(worst, d / max(abs(x), abs(y)))
    return worst


# --------------------------------------------------------------------------
# Templates


def _t_filter_design(L: int = 101) -> str:
    return f"""\
# FilterDesign: windowed low-pass coefficient design
# patterns: 1
def main() {{
  var ideal = lowPassFIRFilter({L}, {_WC_DEFAULT});
  var window = hammingWindow({L});
  var h = ideal * window;
  print(h);
}}
"""


def _t_low_pass_filtering(N: int = 4096, L: int = 101) -> str:
    return f"""\
# LowPassFiltering: tone + noise through a designed low-pass filter
# patterns: 1, 2
def main(x) {{
  var tone = sinVec({N}, 200, 8000);
  var mix = tone + x;
  var ideal = lowPassFIRFilter({L}, {_WC_DEFAULT});
  var window = hammingWindow({L});
  var h = ideal * window;
  var y = firFilterResponse(mix, h);
  print(y);
}}
"""


def _t_energy_of_signal(N: int = 1024) -> str:
    return f"""\
# EnergyOfSignal: spectral energy, normalized by the transform length
# patterns: 5
def main(x) {{
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  var power = square(re) + square(im);
  var energy = sum(power) / {N};
  print(energy);
}}
"""


def _t_spectral_analysis(N: int = 255) -> str:
    return f"""\
# SpectralAnalysis: autocorrelation power spectrum
# patterns: 3, 4
def main(x) {{
  var y = conv1d(x, reverse(x));
  var re = dft1dreal(y);
  var im = dft1dimg(y);
  var power = square(re) + square(im);
  print(power);
}}
"""


def _t_audio_compression(N: int = 256) -> str:
    return f"""\
# AudioCompression: transform, drop small coefficients, quantize, pack
# patterns: 6
def main(x) {{
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  var keptRe = threshold(re, 0.5);
  var keptIm = threshold(im, 0.5);
  var qRe = quantize(keptRe, 16, 0 - 16, 16);
  var qIm = quantize(keptIm, 16, 0 - 16, 16);
  print(runLenEncoding(qRe));
  print(runLenEncoding(qIm));
}}
"""


def _t_hearing_aid(N: int = 1024, M: int = 16) -> str:
    return f"""\
# HearingAid: adaptive noise-canceling weights, amplified and applied
# patterns: 7
def main(x, d) {{
  var w = lmsFilter(x, d, 0.01, {M});
  var amplified = gain(w, 2.0);
  var y = firFilterResponse(x, amplified);
  print(y);
}}
"""


def _t_audio_equalizer(N: int = 1024, L: int = 101) -> str:
    return f"""\
# AudioEqualizer: three-band split from stacked low-pass designs
# patterns: 1, 2
def main(x) {{
  var window = hammingWindow({L});
  var low = lowPassFIRFilter({L}, {_WC_LOW}) * window;
  var midCut = lowPassFIRFilter({L}, {_WC_MID}) * window;
  var highCut = lowPassFIRFilter({L}, {_WC_HIGH}) * window;
  var bass = firFilterResponse(x, low);
  var mid = firFilterResponse(x, midCut - low);
  var treble = firFilterResponse(x, highCut - midCut);
  var out = gain(bass, 0.5) + gain(mid, 1.0) + gain(treble, 2.0);
  print(out);
}}
"""


# --------------------------------------------------------------------------
# Bench checks


@dataclass
class BenchContext:
    app: "CorpusApp"
    sizes: dict[str, int]
    fired: frozenset[str]
    before: ExecCounters
    after: ExecCounters
    graph_none: DspGraph
    graph_dsp: DspGraph
    deviation: float


CheckResult = tuple[str, bool, str]


def _response_tap_buffer(graph: DspGraph, opcodes) -> Optional[str]:
    for op in graph.ops:
        if op.opcode in opcodes:
            return f"v{op.operands[1]}"
    return None


def _check_deviation(ctx: BenchContext) -> CheckResult:
    ok = ctx.deviation <= 1e-9
    return ("output deviation vs unoptimized run <= 1e-9", ok,
            f"max relative deviation {ctx.deviation:.3e}")


def _check_fired(ctx: BenchContext) -> CheckResult:
    exp = set(ctx.app.expected_patterns)
    ok = set(ctx.fired) == exp
    return (f"fired patterns == {sorted(exp)}", ok, f"fired {sorted(ctx.fired)}")


def _check_never_worse(ctx: BenchContext) -> CheckResult:
    ok = (ctx.after.mults <= ctx.before.mults
          and ctx.after.trig_calls <= ctx.before.trig_calls)
    return ("optimized never worse (mults, trig)", ok,
            f"mults {ctx.before.mults}->{ctx.after.mults}, "
            f"trig {ctx.before.trig_calls}->{ctx.after.trig_calls}")


def _check_trig_half(ctx: BenchContext) -> CheckResult:
    L = ctx.sizes["L"]
    expect = 2 * ((L + 1) // 2) - 1
    got = ctx.after.trig_calls
    ratio = got / ctx.before.trig_calls
    ok = abs(got - expect) <= 2 and 0.48 <= ratio <= 0.52
    return (f"trig calls halve ({expect} +- 2, ratio in [0.48, 0.52])", ok,
            f"trig {ctx.before.trig_calls}->{got}, ratio {ratio:.4f}")


def _check_tap_loads(ctx: BenchContext) -> CheckResult:
    N, L = ctx.sizes["N"], ctx.sizes["L"]
    buf_b = _response_tap_buffer(ctx.graph_none, (OpCode.FIR_FILTER_RESPONSE,))
    buf_a = _response_tap_buffer(ctx.graph_dsp, (OpCode.FILTER_RES_SYMM_OPT,))
    got_b = ctx.before.loads_by_buffer.get(buf_b, -1) if buf_b else -1
    got_a = ctx.after.loads_by_buffer.get(buf_a, -1) if buf_a else -1
    ok = got_b == N * L and got_a == N * (L // 2 + 1)
    return (f"tap loads per output {L} -> {L // 2 + 1} (exact)", ok,
            f"total tap loads {got_b}->{got_a} over {N} outputs")


def _check_parseval_counts(ctx: BenchContext) -> CheckResult:
    ratio = ctx.after.mults / ctx.before.mults
    ok = ratio <= 0.001 and ctx.after.trig_calls == 0
    return ("mult ratio <= 0.001 and zero trig calls", ok,
            f"mults {ctx.before.mults}->{ctx.after.mults} "
            f"(ratio {ratio:.6f}), trig after {ctx.after.trig_calls}")


def _check_symm_trips(ctx: BenchContext) -> CheckResult:
    n_out = 2 * ctx.sizes["N"] - 1
    half_conv = (n_out + 1) // 2
    half_dft = n_out // 2 + 1
    tb, ta = ctx.before.loop_iters_by_tag, ctx.after.loop_iters_by_tag
    checks = (
        tb.get("conv1d_full.outer") == n_out,
        ta.get("filter_y_symm_opt.outer") == half_conv,
        tb.get("dft1d_real.outer") == n_out,
        tb.get("dft1d_imag.outer") == n_out,
        ta.get("dft1d_real_symm.outer") == half_dft,
        ta.get("dft1d_imag_symm.outer") == half_dft,
    )
    ok = all(checks)
    return (f"outer trips {n_out} -> {half_conv} (conv) and "
            f"{half_dft} (each DFT)", ok,
            f"conv {tb.get('conv1d_full.outer')}->"
            f"{ta.get('filter_y_symm_opt.outer')}, dft "
            f"{tb.get('dft1d_real.outer')}/{tb.get('dft1d_imag.outer')}->"
            f"{ta.get('dft1d_real_symm.outer')}/"
            f"{ta.get('dft1d_imag_symm.outer')}")


def _check_fused_inner(ctx: BenchContext) -> CheckResult:
    n = ctx.sizes["N"]
    tb, ta = ctx.before.loop_iters_by_tag, ctx.after.loop_iters_by_tag
    got_b = tb.get("dft1d_real.inner", 0) + tb.get("dft1d_imag.inner", 0)
    got_a = ta.get("dft1d_fused.inner", 0)
    ok = got_b == 2 * n * n and got_a == n * n
    return (f"DFT inner iterations {2 * n * n} -> {n * n}", ok,
            f"inner {got_b}->{got_a}")


# --------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class InputPlan:
    name: str
    size_param: str
    seed_offset: int = 0


@dataclass(frozen=True)
class CorpusApp:
    name: str
    alias: str  # short handle: app1..app7
    filename: str
    template: Callable[..., str]
    sizes: tuple[tuple[str, int], ...]
    inputs: tuple[InputPlan, ...]
    expected_patterns: frozenset[str]
    checks: tuple[Callable[[BenchContext], CheckResult], ...]
    base_seed: int = 0

    def default_sizes(self) -> dict[str, int]:
        return dict(self.sizes)

    def source(self, sizes: Optional[dict[str, int]] = None) -> str:
        return self.template(**(sizes or self.default_sizes()))

    def synth_inputs(self, sizes: dict[str, int], seed: int
                     ) -> dict[str, Tensor]:
        return {p.name: noise(sizes[p.size_param], seed + p.seed_offset)
                for p in self.inputs}

    def input_lengths(self, sizes: dict[str, int]) -> dict[str, int]:
        return {p.name: sizes[p.size_param] for p in self.inputs}


_COMMON = (_check_deviation, _check_fired, _check_never_worse)

APPS: tuple[CorpusApp, ...] = (
    CorpusApp(
        name="FilterDesign", alias="app1", filename="filter_design.dsp",
        template=_t_filter_design, sizes=(("L", 101),), inputs=(),
        expected_patterns=frozenset({"1"}),
        checks=_COMMON + (_check_trig_half,), base_seed=1100),
    CorpusApp(
        name="LowPassFiltering", alias="app2",
        filename="low_pass_filtering.dsp",
        template=_t_low_pass_filtering, sizes=(("N", 4096), ("L", 101)),
        inputs=(InputPlan("x", "N"),),
        expected_patterns=frozenset({"1", "2"}),
        checks=_COMMON + (_check_tap_loads,), base_seed=1200),
    CorpusApp(
        name="EnergyOfSignal", alias="app3", filename="energy_of_signal.dsp",
        template=_t_energy_of_signal, sizes=(("N", 1024),),
        inputs=(InputPlan("x", "N"),),
        expected_patterns=frozenset({"5"}),
        checks=_COMMON + (_check_parseval_counts,), base_seed=1300),
    CorpusApp(
        name="SpectralAnalysis", alias="app4",
        filename="spectral_analysis.dsp",
        template=_t_spectral_analysis, sizes=(("N", 255),),
        inputs=(InputPlan("x", "N"),),
        expected_patterns=frozenset({"3", "4"}),
        checks=_COMMON + (_check_symm_trips,), base_seed=1400),
    CorpusApp(
        name="AudioCompression", alias="app5",
        filename="audio_compression.dsp",
        template=_t_audio_compression, sizes=(("N", 256),),
        inputs=(InputPlan("x", "N"),),
        expected_patterns=frozenset({"6"}),
        checks=_COMMON + (_check_fused_inner,), base_seed=1500),
    CorpusApp(
        name="HearingAid", alias="app6", filename="hearing_aid.dsp",
        template=_t_hearing_aid, sizes=(("N", 1024), ("M", 16)),
        inputs=(InputPlan("x", "N"), InputPlan("d", "N", seed_offset=1)),
        expected_patterns=frozenset({"7"}),
        checks=_COMMON, base_seed=1600),
    CorpusApp(
        name="AudioEqualizer", alias="app7", filename="audio_equalizer.dsp",
        template=_t_audio_equalizer, sizes=(("N", 1024), ("L", 101)),
        inputs=(InputPlan("x", "N"),),
        expected_patterns=frozenset({"1", "2"}),
        checks=_COMMON, base_seed=1700),
)


def find_app(key: str) -> Optional[CorpusApp]:
    low = key.lower()
    for app in APPS:
        names = {app.alias, app.name.lower(),
                 app.filename.removesuffix(".dsp")}
        if low in names:
            return app
    return None

"""The seven shipped applications and the checks `dspc bench` runs on them.

Each app's program is its packaged file under ``dspc/apps/``, written at the
app's default sizes and read once when the registry is built.  A new size is
rebound into that text: `CorpusApp.source` turns every whole-number literal
equal to the size's default (the energy divisor, an oscillator or filter
length) into the new value.  The file's ``# patterns:`` line names the
rewrites the bench asserts fire, and each app carries the counter checks the
bench enforces, so the CLI and the tests share one registry.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .frontend import parse_source
from .graph import (DspGraph, VerificationFailed, build_graph, infer_shapes,
                    verify_graph)
from .interp import ExecCounters, Tensor
from .ops import OpCode
from .synth import noise


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


def _check_fir_merge(ctx: BenchContext) -> CheckResult:
    # F products per FIR.  Before: three FIRs, three output gains, the window (2L),
    # three ideal responses (3L, less 3 at an odd L's centre tap) and three
    # products (L each); after: one FIR, two tap gains and three designs (3L each).
    N, L = ctx.sizes["N"], ctx.sizes["L"]
    fir = sum(min(i + 1, L) for i in range(N))
    want = (3 * fir + 3 * N + 14 * L - 9 * (L % 2), fir + 11 * L)
    firs = [op.opcode.value for op in ctx.graph_dsp.ops
            if op.opcode in (OpCode.FIR_FILTER_RESPONSE, OpCode.FILTER_RES_SYMM_OPT)]
    ok = firs == ["fir_filter_response"] and (ctx.before.mults, ctx.after.mults) == want
    return (f"bands merge into one FIR, mults {want[0]} -> {want[1]} (exact)", ok,
            f"FIR ops {firs}, mults {ctx.before.mults}->{ctx.after.mults}")


def _check_parseval_counts(ctx: BenchContext) -> CheckResult:
    # Before: two DFTs (2N^2 each: a product and an angle per term), 2N squares
    # and the division; after: the N squares of sum(square(x)).
    N = ctx.sizes["N"]
    want = (4 * N * N + 2 * N + 1, N)
    ok = (ctx.before.mults, ctx.after.mults) == want and ctx.after.trig_calls == 0
    return (f"mults {want[0]} -> {want[1]} (exact) and zero trig calls", ok,
            f"mults {ctx.before.mults}->{ctx.after.mults}, trig after {ctx.after.trig_calls}")


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


# A comment, matched whole so it is left as it is, or a whole-number literal
# bounded by neither a word character nor ".", so no digit of a float or a
# name is ever rebound.
_INT_OR_COMMENT = re.compile(r"#.*|(?<![\w.])\d+(?![\w.])")


@dataclass(frozen=True)
class CorpusApp:
    name: str
    alias: str  # short handle: app1..app7
    filename: str
    text: str  # the program at its default `sizes`
    sizes: tuple[tuple[str, int], ...]
    inputs: tuple[InputPlan, ...]
    checks: tuple[Callable[[BenchContext], CheckResult], ...]
    base_seed: int = 0

    @property
    def expected_patterns(self) -> frozenset[str]:
        """The pattern ids on the text's ``# patterns:`` line, if it has one."""
        line = re.search(r"^# patterns:(.*)", self.text, re.M)
        return frozenset(line[1].replace(",", " ").split() if line else ())

    def default_sizes(self) -> dict[str, int]:
        return dict(self.sizes)

    def source(self, sizes: Optional[dict[str, int]] = None) -> str:
        """The text, with each size that `sizes` binds to another value than
        its default rebound; all in one pass, so a swap comes out right."""
        new = {str(d): str(sizes[k]) for k, d in self.sizes
               if sizes and sizes.get(k, d) != d}
        if not new:
            return self.text
        return _INT_OR_COMMENT.sub(lambda m: new.get(m[0], m[0]), self.text)

    def synth_inputs(self, sizes: dict[str, int], seed: int
                     ) -> dict[str, Tensor]:
        return {p.name: noise(sizes[p.size_param], seed + p.seed_offset)
                for p in self.inputs}

    def input_lengths(self, sizes: dict[str, int]) -> dict[str, int]:
        return {p.name: sizes[p.size_param] for p in self.inputs}


def _packaged(alias: str, name: str, filename: str, **fields) -> CorpusApp:
    text = (Path(__file__).with_name("apps") / filename).read_text()
    return CorpusApp(name, alias, filename, text, **fields)


_COMMON = (_check_deviation, _check_fired, _check_never_worse)

APPS: tuple[CorpusApp, ...] = (
    _packaged("app1", "FilterDesign", "filter_design.dsp",
              sizes=(("L", 101),), inputs=(),
              checks=_COMMON + (_check_trig_half,), base_seed=1100),
    _packaged("app2", "LowPassFiltering", "low_pass_filtering.dsp",
              sizes=(("N", 4096), ("L", 101)), inputs=(InputPlan("x", "N"),),
              checks=_COMMON + (_check_tap_loads,), base_seed=1200),
    _packaged("app3", "EnergyOfSignal", "energy_of_signal.dsp",
              sizes=(("N", 1024),), inputs=(InputPlan("x", "N"),),
              checks=_COMMON + (_check_parseval_counts,), base_seed=1300),
    _packaged("app4", "SpectralAnalysis", "spectral_analysis.dsp",
              sizes=(("N", 255),), inputs=(InputPlan("x", "N"),),
              checks=_COMMON + (_check_symm_trips,), base_seed=1400),
    _packaged("app5", "AudioCompression", "audio_compression.dsp",
              sizes=(("N", 256),), inputs=(InputPlan("x", "N"),),
              checks=_COMMON + (_check_fused_inner,), base_seed=1500),
    _packaged("app6", "HearingAid", "hearing_aid.dsp",
              sizes=(("N", 1024), ("M", 16)),
              inputs=(InputPlan("x", "N"), InputPlan("d", "N", seed_offset=1)),
              checks=_COMMON, base_seed=1600),
    _packaged("app7", "AudioEqualizer", "audio_equalizer.dsp",
              sizes=(("N", 1024), ("L", 101)), inputs=(InputPlan("x", "N"),),
              checks=_COMMON + (_check_fir_merge,), base_seed=1700),
)


def find_app(key: str) -> Optional[CorpusApp]:
    """The app of alias, name or file stem `key` (any case), or of a path to its packaged file."""
    path = Path(key)
    if path.is_file() and path.resolve().parent == Path(__file__).resolve().with_name("apps"):
        key = path.stem
    low = key.lower()
    for app in APPS:
        names = {app.alias, app.name.lower(),
                 app.filename.removesuffix(".dsp")}
        if low in names:
            return app
    return None

"""Reference semantics for every opcode.

These are direct transcriptions of the defining recurrences, evaluated with
plain Python floats.  Reductions accumulate strictly left to right; nothing
here is vectorized or reassociated, so the functions double as the oracle
for the loop-level backend.  Attribute values come from a verified graph,
so no kernel checks their ranges; a kernel raises only on its data: division
by zero, divergence, or unequal operand lengths (which the verifier cannot
see while input shapes are unknown).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul, sub, truediv
from typing import Iterable, Optional

from .errors import DspcError
from .graph import DspGraph, ValueId
from .ops import OpCode


@dataclass(frozen=True)
class Tensor:
    """Rank-1 float tensor."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


def tensor(values: Iterable[float]) -> Tensor:
    return Tensor(tuple(float(v) for v in values))


class KernelError(DspcError):
    pass


class DivisionByZero(KernelError):
    def __init__(self, index: int):
        super().__init__(f"division by zero at element {index}")
        self.index = index


class Diverged(KernelError):
    def __init__(self, step: int):
        super().__init__(f"adaptive filter diverged at sample {step}")
        self.step = step


def _sinc(z: float) -> float:
    """Unnormalized sinc: sin(z)/z with sinc(0) = 1."""
    if z == 0.0:
        return 1.0
    return math.sin(z) / z


# --------------------------------------------------------------------------
# Structural ops


def k_delay(x: Tensor, k: int) -> Tensor:
    """y[n] = x[n-k], zero for n < k."""
    xs = x.values
    return tensor(xs[n - k] if n - k >= 0 else 0.0 for n in range(len(xs)))


def _convolve(x: Tensor, h: Tensor, n_out: int) -> Tensor:
    """y[n] = sum_i h[i] * x[n-i] for n < n_out (missing samples are zero)."""
    xs, hs = x.values, h.values
    out = []
    for n in range(n_out):
        acc = 0.0
        for i in range(len(hs)):
            if 0 <= n - i < len(xs):
                acc += hs[i] * xs[n - i]
        out.append(acc)
    return tensor(out)


def k_fir_response(x: Tensor, h: Tensor) -> Tensor:
    """FIR response, same length as x."""
    return _convolve(x, h, len(x))


def k_conv1d_full(x: Tensor, h: Tensor) -> Tensor:
    """Full linear convolution, length N + L - 1."""
    return _convolve(x, h, len(x) + len(h) - 1)


def k_sliding_window_avg(x: Tensor, window: int) -> Tensor:
    """Trailing-window mean: y[n] = mean of the up-to-`window` samples ending at n."""
    xs = x.values
    out = []
    for n in range(len(xs)):
        acc = 0.0
        for i in range(window):
            if 0 <= n - i < len(xs):
                acc += xs[n - i]
        out.append(acc / window)
    return tensor(out)


def k_reverse(x: Tensor) -> Tensor:
    return tensor(reversed(x.values))


# --------------------------------------------------------------------------
# Transforms


def _two_pi_over(n: int) -> float:
    return 2.0 * math.pi / n


def _dft(x: Tensor, real: bool = True, imag: bool = True,
         half: bool = False) -> tuple[Tensor, Tensor]:
    """X_real[k] = sum_n x[n]*cos(2*pi*k*n/N), X_imag[k] = -sum_n x[n]*sin(...).

    Only the requested parts are accumulated (the other stays zero).  With
    ``half``, bins k <= N/2 are computed and mirrored by conjugate symmetry:
    X_real[N-k] = X_real[k], X_imag[N-k] = -X_imag[k].
    """
    xs = x.values
    n_len = len(xs)
    c = _two_pi_over(n_len)
    re, im = [0.0] * n_len, [0.0] * n_len
    for k in range(n_len // 2 + 1 if half else n_len):
        acc_r = acc_i = 0.0
        for n in range(n_len):
            ang = c * (k * n)
            if real:
                acc_r += xs[n] * math.cos(ang)
            if imag:
                acc_i -= xs[n] * math.sin(ang)
        re[k], im[k] = acc_r, acc_i
        if half and 1 <= k and n_len - k != k:
            re[n_len - k], im[n_len - k] = acc_r, -acc_i
    return tensor(re), tensor(im)


def k_dft_real(x: Tensor) -> Tensor:
    """X_real[k] = sum_n x[n] * cos(2*pi*k*n/N)."""
    return _dft(x, imag=False)[0]


def k_dft_imag(x: Tensor) -> Tensor:
    """X_imag[k] = -sum_n x[n] * sin(2*pi*k*n/N)."""
    return _dft(x, real=False)[1]


def k_idft(xr: Tensor, xi: Tensor) -> Tensor:
    """x[n] = (1/N) * sum_k [Xr[k]*cos(2*pi*k*n/N) - Xi[k]*sin(2*pi*k*n/N)]."""
    rs, is_ = xr.values, xi.values
    if len(rs) != len(is_):
        raise KernelError("idft real/imag lengths differ")
    n_len = len(rs)
    c = _two_pi_over(n_len)
    out = []
    for n in range(n_len):
        acc = 0.0
        for k in range(n_len):
            acc += rs[k] * math.cos(c * (n * k))
            acc -= is_[k] * math.sin(c * (n * k))
        out.append(acc / n_len)
    return tensor(out)


# --------------------------------------------------------------------------
# Filter design


def k_lowpass_fir_coeffs(L: int, wc: float) -> Tensor:
    """Ideal low-pass taps: (wc/pi)*sinc(wc*(n - (L-1)/2)), midpoint wc/pi."""
    mid = (L - 1) / 2.0
    out = []
    for n in range(L):
        if n == mid:
            out.append(wc / math.pi)
        else:
            out.append((wc / math.pi) * _sinc(wc * (n - mid)))
    return tensor(out)


def k_hamming(L: int) -> Tensor:
    """ham[n] = 0.54 - 0.46*cos(2*pi*n/(L-1))."""
    c = 2.0 * math.pi / (L - 1)
    return tensor(0.54 - 0.46 * math.cos(c * n) for n in range(L))


# --------------------------------------------------------------------------
# Adaptive filtering


def k_lms_filter(x: Tensor, d: Tensor, mu: float, M: int) -> Tensor:
    """LMS weight adaptation; returns the final M-tap weight vector.

    Per sample n: y = w . x_window, e = d[n] - y, w += mu * e * x_window.
    Missing samples (n - i < 0) read as zero.
    """
    return _lms(x, d, mu, M, None)


def k_lms_filter_gain(x: Tensor, d: Tensor, mu: float, M: int, g: float) -> Tensor:
    """LMS with the gain folded into the update: w += (mu*g) * e * x_window."""
    return _lms(x, d, mu, M, g)


def _lms(x: Tensor, d: Tensor, mu: float, M: int, g: Optional[float]) -> Tensor:
    xs, ds = x.values, d.values
    if len(xs) != len(ds):
        raise KernelError("lmsFilter input/desired lengths differ")
    step = mu if g is None else mu * g
    w = [0.0] * M
    for n in range(len(xs)):
        y = 0.0
        for i in range(M):
            if n - i >= 0:
                y += w[i] * xs[n - i]
        e = ds[n] - y
        t = step * e
        for i in range(M):
            if n - i >= 0:
                w[i] += t * xs[n - i]
        for v in w:
            if not math.isfinite(v):
                raise Diverged(n)
    return tensor(w)


# --------------------------------------------------------------------------
# Elementwise / reductions


def _operands(a: Tensor, b: Tensor) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The values of a binary op's operands, a length-1 operand broadcast."""
    xs, ys = a.values, b.values
    if len(xs) != len(ys):
        if len(xs) == 1:
            xs *= len(ys)
        elif len(ys) == 1:
            ys *= len(xs)
        else:
            raise KernelError(f"elementwise lengths {len(xs)} and {len(ys)} do not broadcast")
    return xs, ys


def k_div(a: Tensor, b: Tensor) -> Tensor:
    xs, ys = _operands(a, b)
    if 0.0 in ys:
        raise DivisionByZero(ys.index(0.0))
    return tensor(map(truediv, xs, ys))


def k_sum(x: Tensor) -> Tensor:
    acc = 0.0
    for v in x.values:
        acc += v
    return tensor([acc])


def k_threshold(x: Tensor, t: float) -> Tensor:
    """Keep samples with |x| >= t, zero the rest."""
    return tensor(v if abs(v) >= t else 0.0 for v in x.values)


def k_quantize(x: Tensor, levels: int, lo: float, hi: float) -> Tensor:
    """Uniform mid-tread quantizer over [lo, hi] with `levels` levels.

    step = (hi-lo)/(levels-1); values are clamped, snapped to the nearest
    level (ties round half away from zero), and mapped back.
    """
    step = (hi - lo) / (levels - 1)
    out = []
    for v in x.values:
        c = lo if v < lo else hi if v > hi else v
        q = (c - lo) / step
        r = math.floor(q + 0.5)  # q >= 0 after clamping
        out.append(lo + r * step)
    return tensor(out)


def k_rle(x: Tensor) -> Tensor:
    """Flattened (value, run) pairs, twice as many values as runs."""
    xs = x.values
    pairs: list[float] = []
    run_val = xs[0]
    run_len = 1
    for v in xs[1:]:
        if v == run_val:
            run_len += 1
        else:
            pairs.extend((run_val, float(run_len)))
            run_val = v
            run_len = 1
    pairs.extend((run_val, float(run_len)))
    return tensor(pairs)


def k_upsample(x: Tensor, k: int) -> Tensor:
    """Insert k-1 zeros after each sample; length N*k."""
    out = [0.0] * (len(x.values) * k)
    for n, v in enumerate(x.values):
        out[n * k] = v
    return tensor(out)


def k_downsample(x: Tensor, k: int) -> Tensor:
    """Keep every k-th sample starting at 0; length ceil(N/k)."""
    return tensor(x.values[::k])


# --------------------------------------------------------------------------
# Signal generators


def k_sin_vec(n: int, f: float, fs: float) -> Tensor:
    c = 2.0 * math.pi * f / fs
    return tensor(math.sin(c * i) for i in range(n))


def k_cos_vec(n: int, f: float, fs: float) -> Tensor:
    c = 2.0 * math.pi * f / fs
    return tensor(math.cos(c * i) for i in range(n))


def k_range_vec(start: float, step: float, n: int) -> Tensor:
    return tensor(start + step * i for i in range(n))


# --------------------------------------------------------------------------
# Rewriter-created opcodes: evaluated via their defining mirrored recurrences


def k_filter_hamm_opt(L: int, wc: float) -> Tensor:
    """Windowed low-pass taps computed for the first half and mirrored."""
    lpf = k_lowpass_fir_coeffs(L, wc).values
    ham = k_hamming(L).values
    out = [0.0] * L
    for n in range(math.ceil(L / 2)):
        v = lpf[n] * ham[n]
        out[n] = v
        out[L - 1 - n] = v
    return tensor(out)


def k_filter_res_symm(x: Tensor, h: Tensor) -> Tensor:
    """FIR response using tap symmetry: pair x[n-i] with x[n-(L-1-i)]."""
    xs, hs = x.values, h.values
    n_len, L = len(xs), len(hs)
    out = []
    for n in range(n_len):
        acc = 0.0
        for i in range(L // 2):
            t = 0.0
            if 0 <= n - i < n_len:
                t += xs[n - i]
            if 0 <= n - (L - 1 - i) < n_len:
                t += xs[n - (L - 1 - i)]
            acc += hs[i] * t
        if L % 2 == 1:
            mid = (L - 1) // 2
            if 0 <= n - mid < n_len:
                acc += hs[mid] * xs[n - mid]
        out.append(acc)
    return tensor(out)


def k_filter_y_symm(x: Tensor) -> Tensor:
    """Autocorrelation-style conv(x, reverse(x)): first half computed, rest mirrored."""
    xs = x.values
    n_len = len(xs)
    n_out = 2 * n_len - 1
    out = [0.0] * n_out
    for n in range(math.ceil(n_out / 2)):
        acc = 0.0
        for i in range(n_len):
            if 0 <= n - i < n_len:
                acc += xs[n_len - 1 - i] * xs[n - i]
        out[n] = acc
        out[n_out - 1 - n] = acc
    return tensor(out)


def k_dft_real_symm(x: Tensor) -> Tensor:
    """Real DFT of an even signal: compute k <= N/2, mirror X[N-k] = X[k]."""
    return _dft(x, imag=False, half=True)[0]


def k_dft_imag_symm(x: Tensor) -> Tensor:
    """Imag DFT with conjugate symmetry: X[N-k] = -X[k]."""
    return _dft(x, real=False, half=True)[1]


def k_dft_fused(x: Tensor) -> tuple[Tensor, Tensor]:
    """Real and imaginary DFT accumulated in a single pass over (k, n)."""
    return _dft(x)


# --------------------------------------------------------------------------
# Graph evaluation


# The kernel of each opcode, called with the operand tensors and then the
# attribute values in schema order.  Inputs are bound by eval_graph and
# print computes nothing.
KERNELS = {
    OpCode.CONST_TENSOR: tensor,
    OpCode.DELAY: k_delay,
    OpCode.FIR_FILTER_RESPONSE: k_fir_response,
    OpCode.CONV1D_FULL: k_conv1d_full,
    OpCode.SLIDING_WINDOW_AVG: k_sliding_window_avg,
    OpCode.DFT1D_REAL: k_dft_real,
    OpCode.DFT1D_IMAG: k_dft_imag,
    OpCode.IDFT1D: k_idft,
    OpCode.LOW_PASS_FIR_COEFFS: k_lowpass_fir_coeffs,
    OpCode.HAMMING_WINDOW: k_hamming,
    OpCode.LMS_FILTER: k_lms_filter,
    OpCode.ADD: lambda a, b: tensor(map(add, *_operands(a, b))),
    OpCode.SUB: lambda a, b: tensor(map(sub, *_operands(a, b))),
    OpCode.MUL: lambda a, b: tensor(map(mul, *_operands(a, b))),
    OpCode.DIV: k_div,
    OpCode.SQUARE: lambda x: tensor(v * v for v in x.values),
    OpCode.GAIN: lambda x, g: tensor(g * v for v in x.values),
    OpCode.REVERSE: k_reverse,
    OpCode.SUM: k_sum,
    OpCode.THRESHOLD: k_threshold,
    OpCode.QUANTIZE: k_quantize,
    OpCode.RUN_LEN_ENCODING: k_rle,
    OpCode.UPSAMPLE: k_upsample,
    OpCode.DOWNSAMPLE: k_downsample,
    OpCode.SIN_VEC: k_sin_vec,
    OpCode.COS_VEC: k_cos_vec,
    OpCode.RANGE_VEC: k_range_vec,
    OpCode.FILTER_HAMM_OPT: k_filter_hamm_opt,
    OpCode.FILTER_RES_SYMM_OPT: k_filter_res_symm,
    OpCode.FILTER_Y_SYMM_OPT: k_filter_y_symm,
    OpCode.DFT1D_REAL_SYMM: k_dft_real_symm,
    OpCode.DFT1D_IMAG_SYMM: k_dft_imag_symm,
    OpCode.DFT1D_FUSED: k_dft_fused,
    OpCode.LMS_FILTER_GAIN_OPT: k_lms_filter_gain,
}


def eval_graph(graph: DspGraph, inputs: Optional[dict[str, Tensor]] = None
               ) -> dict[ValueId, Tensor]:
    """Evaluate every op of a verified graph (see `verify_graph`) with the
    reference kernels, which check no attribute; returns value -> Tensor."""
    inputs = inputs or {}

    def bound_input(name: str) -> Tensor:
        if name not in inputs:
            raise KernelError(f"unbound input {name!r}")
        return inputs[name]

    kernels = {**KERNELS, OpCode.INPUT: bound_input}
    values: dict[ValueId, Tensor] = {}
    for op in graph.ops:
        if not op.n_results:
            continue
        kernel = kernels[op.opcode]
        out = kernel(*(values[v] for v in op.operands), *op.attributes)
        for rid, t in zip(op.result_ids, out if isinstance(out, tuple) else (out,)):
            values[rid] = t
    return values

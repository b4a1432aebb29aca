"""Reference semantics for every source-level opcode: the test oracle.

These are direct transcriptions of the defining recurrences, evaluated with
plain Python floats.  Reductions accumulate strictly left to right; nothing
here is vectorized or reassociated, so the tests hold every emitter in
``dspc.lowering`` to these functions.  Only opcodes the source language can
spell (and constant tensors) have a kernel: an opcode the rewriter creates is
held to the kernels of the program it replaces, run on the loop backend.
Attribute values come from a verified graph, so no kernel checks their
ranges; a kernel raises only on its data: division by zero, divergence, or
unequal operand lengths (which the verifier cannot see while input shapes
are unknown).
"""

from __future__ import annotations

import math
from operator import add, mul, sub, truediv
from typing import Optional

from dspc.errors import DspcError
from dspc.graph import DspGraph, ValueId
from dspc.interp import Tensor, tensor
from dspc.ops import OpCode


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


def _rows(n_len: int, term) -> Tensor:
    """out[k] = term(k, 0) + ... + term(k, N-1), accumulated left to right."""
    out = []
    for k in range(n_len):
        acc = 0.0
        for n in range(n_len):
            acc += term(k, n)
        out.append(acc)
    return tensor(out)


def k_dft_real(x: Tensor) -> Tensor:
    """X_real[k] = sum_n x[n] * cos(2*pi*k*n/N)."""
    xs, c = x.values, _two_pi_over(len(x))
    return _rows(len(xs), lambda k, n: xs[n] * math.cos(c * (k * n)))


def k_dft_imag(x: Tensor) -> Tensor:
    """X_imag[k] = -sum_n x[n] * sin(2*pi*k*n/N)."""
    xs, c = x.values, _two_pi_over(len(x))
    return _rows(len(xs), lambda k, n: -(xs[n] * math.sin(c * (k * n))))


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
    xs, ds = x.values, d.values
    if len(xs) != len(ds):
        raise KernelError("lmsFilter input/desired lengths differ")
    w = [0.0] * M
    for n in range(len(xs)):
        y = 0.0
        for i in range(M):
            if n - i >= 0:
                y += w[i] * xs[n - i]
        e = ds[n] - y
        t = mu * e
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
# Graph evaluation


# The kernel of each source-level opcode, called with the operand tensors and
# then the attribute values in schema order.  Inputs are bound by eval_graph,
# and print and return compute nothing.
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
}


def eval_graph(graph: DspGraph, inputs: Optional[dict[str, Tensor]] = None
               ) -> dict[ValueId, Tensor]:
    """Evaluate every op of a verified source-level graph (see `verify_graph`)
    with the reference kernels, which check no attribute; returns value ->
    Tensor."""
    inputs = inputs or {}

    def bound_input(name: str) -> Tensor:
        if name not in inputs:
            raise KernelError(f"unbound input {name!r}")
        return inputs[name]

    kernels = {**KERNELS, OpCode.INPUT: bound_input}
    values: dict[ValueId, Tensor] = {}
    for op in graph.ops:
        if op.n_results:
            values[op.id] = kernels[op.opcode](*(values[v] for v in op.operands),
                                               *op.attributes)
    return values

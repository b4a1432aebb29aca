"""Independent numpy oracle for every builtin the benchmark workloads use.

Each function transcribes a builtin's defining formula with numpy and shares
no code with dspc.  Transform phase angles are ``c * (k*n)`` with
``c = 2*pi/N``, the same expression the language defines, so that a correct
route agrees with the oracle to rounding even for near-zero spectral bins;
``self_test`` checks the transforms against ``np.fft.fft`` and the filters
against hand-derived values.

Outputs are compared at the repository's tolerance: relative 1e-9, with
element differences up to 1e-12 ignored.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
ABS_FLOOR = 1e-12

_ROWS = 128  # transform rows per block, bounds the oracle's memory


def fir(x, h):
    """firFilterResponse: y[n] = sum_i h[i] x[n-i], same length as x."""
    return np.convolve(x, h)[: len(x)]


def conv1d(x, h):
    """conv1d: full linear convolution, length N + L - 1."""
    return np.convolve(x, h)


def _transform(values, n_out, sign_rows):
    """Rows k of sum_n values[n] * trig(c*(k*n)) for cos and sin, in blocks."""
    n = len(values)
    c = 2.0 * math.pi / n
    cols = np.arange(n, dtype=np.int64)
    re = np.empty(n_out)
    im = np.empty(n_out)
    for lo in range(0, n_out, _ROWS):
        rows = np.arange(lo, min(lo + _ROWS, n_out), dtype=np.int64)
        ang = c * np.outer(rows, cols).astype(np.float64)
        re[rows] = np.cos(ang) @ values
        im[rows] = sign_rows * (np.sin(ang) @ values)
    return re, im


def dft(x):
    """(dft1dreal(x), dft1dimg(x)): X[k] = sum_n x[n] e^{-2 pi i k n / N}."""
    return _transform(np.asarray(x, dtype=np.float64), len(x), -1.0)


def idft(re, im):
    """idft1d: x[n] = (1/N) sum_k re[k] cos(c n k) - im[k] sin(c n k)."""
    n = len(re)
    a, _ = _transform(np.asarray(re, dtype=np.float64), n, 1.0)
    _, b = _transform(np.asarray(im, dtype=np.float64), n, 1.0)
    return (a - b) / n


def low_pass(L, wc):
    """lowPassFIRFilter: (wc/pi) sinc(wc (n - (L-1)/2)), unnormalized sinc."""
    z = wc * (np.arange(L) - (L - 1) / 2.0)
    safe = np.where(z == 0.0, 1.0, z)
    return (wc / math.pi) * np.where(z == 0.0, 1.0, np.sin(safe) / safe)


def hamming(L):
    """hammingWindow: 0.54 - 0.46 cos(2 pi n / (L-1))."""
    return 0.54 - 0.46 * np.cos((2.0 * math.pi / (L - 1)) * np.arange(L))


def lms(x, d, mu, M):
    """lmsFilter: final weights of w += mu e x_window, e = d[n] - w . x_window."""
    x = np.asarray(x, dtype=np.float64)
    padded = np.concatenate([np.zeros(M - 1), x])
    w = np.zeros(M)
    for n in range(len(x)):
        window = padded[n: n + M][::-1]  # x[n], x[n-1], ..., zeros before 0
        e = d[n] - w @ window
        w = w + (mu * e) * window
    return w


def threshold(x, t):
    """threshold: keep samples with |x| >= t, zero the rest."""
    return np.where(np.abs(x) >= t, x, 0.0)


def quantize(x, levels, lo, hi):
    """quantize: clamp, snap to the nearest of `levels` uniform levels."""
    step = (hi - lo) / (levels - 1)
    r = np.floor((np.clip(x, lo, hi) - lo) / step + 0.5)
    return lo + r * step


def run_length(x):
    """runLenEncoding: flattened (value, run length) pairs."""
    x = np.asarray(x)
    starts = np.flatnonzero(np.concatenate([[True], x[1:] != x[:-1]]))
    runs = np.diff(np.append(starts, len(x)))
    return np.column_stack([x[starts], runs]).ravel().astype(np.float64)


def upsample(x, k):
    """upsample: k-1 zeros after each sample."""
    out = np.zeros(len(x) * k)
    out[::k] = x
    return out


def downsample(x, k):
    """downsample: every k-th sample from 0."""
    return np.asarray(x)[::k]


def sin_vec(n, f, fs):
    """sinVec: sin(2 pi f / fs * i)."""
    return np.sin((2.0 * math.pi * f / fs) * np.arange(n))


def deviation(got, want):
    """Worst relative element difference; a length mismatch is infinite."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    diff = np.abs(got - want)
    if not np.all(np.isfinite(diff)):
        return math.inf
    big = diff > ABS_FLOOR
    if not big.any():
        return 0.0
    scale = np.maximum(np.abs(got[big]), np.abs(want[big]))
    return float(np.max(diff[big] / scale))


def matches(got, want):
    return deviation(got, want) <= REL_TOL


def self_test():
    """Hand-derived and library cross-checks; returns the failed case names."""
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, 37)
    h = rng.uniform(-1.0, 1.0, 6)
    direct = np.array([sum(h[i] * x[n - i] for i in range(6) if 0 <= n - i)
                       for n in range(37)])
    spectrum = np.fft.fft(x)
    re, im = dft(x)
    cases = {
        "fir": (fir([1.0, 2.0, 3.0], [1.0, 1.0]), [1.0, 3.0, 5.0]),
        "fir-direct": (fir(x, h), direct),
        "conv1d": (conv1d([1.0, 2.0, 3.0], [0.0, 1.0, 0.5]),
                   [0.0, 1.0, 2.5, 4.0, 1.5]),
        "dft-impulse": (np.concatenate(dft([0.0, 1.0, 0.0, 0.0])),
                        [1.0, 0.0, -1.0, 0.0, 0.0, -1.0, 0.0, 1.0]),
        "dft-fft-real": (re, spectrum.real),
        "dft-fft-imag": (im, spectrum.imag),
        "idft-roundtrip": (idft(re, im), x),
        "low-pass": (low_pass(3, math.pi / 2), [1 / math.pi, 0.5, 1 / math.pi]),
        "hamming": (hamming(3), [0.08, 1.0, 0.08]),
        "lms": (lms([1.0, 1.0], [1.0, 1.0], 0.5, 2), [0.75, 0.25]),
        "threshold": (threshold(np.array([0.2, -0.6, 0.5]), 0.5),
                      [0.0, -0.6, 0.5]),
        "quantize": (quantize(np.array([-20.0, 0.1, 3.3, 20.0]), 5, -4.0, 4.0),
                     [-4.0, 0.0, 4.0, 4.0]),
        "rle": (run_length([1.0, 1.0, 2.0, 2.0, 2.0, 1.0]),
                [1.0, 2.0, 2.0, 3.0, 1.0, 1.0]),
        "upsample": (upsample(np.array([1.0, 2.0]), 3),
                     [1.0, 0.0, 0.0, 2.0, 0.0, 0.0]),
        "downsample": (downsample([1.0, 2.0, 3.0, 4.0, 5.0], 2), [1.0, 3.0, 5.0]),
        "sin-vec": (sin_vec(4, 1.0, 4.0), [0.0, 1.0, 0.0, -1.0]),
    }
    failed = [name for name, (got, want) in cases.items()
              if not matches(got, want)]
    if deviation([1.0, 2.0], [1.0, 2.0 + 1e-13]) != 0.0 \
            or deviation([1.0], [1.0, 2.0]) != math.inf \
            or not 0.5 - 1e-12 < deviation([1.0], [2.0]) < 0.5 + 1e-12:
        failed.append("deviation")
    return failed

"""Kernel semantics, checked against hand-derived values and numpy.

numpy is a test-side oracle only; the package itself never imports it.
"""

import math
import random

import numpy as np
import pytest

from dspc import kernels as K
from dspc.kernels import DivisionByZero, Diverged, Tensor, tensor
from dspc.ops import OpCode


def approx(values, abs_tol=1e-12):
    return pytest.approx(values, rel=1e-9, abs=abs_tol)


def rand_signal(rng, n, scale=1.0):
    return tensor([rng.uniform(-scale, scale) for _ in range(n)])


# --------------------------------------------------------------------------
# pinned single-shot examples


def test_delay_shifts_and_zero_fills():
    assert K.k_delay(tensor([1, 2, 3, 4]), 2).values == (0.0, 0.0, 1.0, 2.0)


def test_delay_zero_is_identity():
    x = tensor([3.5, -1.25, 0.0])
    assert K.k_delay(x, 0).values == x.values


def test_fir_response_impulse_recovers_taps():
    y = K.k_fir_response(tensor([1, 0, 0]), tensor([0.5, 0.5]))
    assert y.values == (0.5, 0.5, 0.0)


def test_fir_response_unit_tap_is_identity():
    x = tensor([2, -4, 8])
    assert K.k_fir_response(x, tensor([1])).values == x.values


def test_conv_small():
    assert K.k_conv1d_full(tensor([1, 2]), tensor([2, 1])).values == (2.0, 5.0, 2.0)


def test_conv_matches_numpy():
    rng = random.Random(101)
    for _ in range(25):
        n, m = rng.randint(1, 32), rng.randint(1, 32)
        x, h = rand_signal(rng, n), rand_signal(rng, m)
        ref = np.convolve(x.values, h.values)
        got = K.k_conv1d_full(x, h)
        assert len(got) == n + m - 1
        assert list(got.values) == approx(ref.tolist())


def test_sliding_avg():
    assert K.k_sliding_window_avg(tensor([2, 4, 6]), 2).values == (1.0, 3.0, 5.0)


def test_sliding_avg_constant_ramps_up():
    y = K.k_sliding_window_avg(tensor([3.0] * 6), 3)
    assert y.values == (1.0, 2.0, 3.0, 3.0, 3.0, 3.0)


def test_reverse():
    assert K.k_reverse(tensor([1, 2, 3])).values == (3.0, 2.0, 1.0)


def test_dft_shifted_impulse():
    # X[k] = e^{-2πik/4}: real part cos, imaginary part -sin
    assert list(K.k_dft_real(tensor([0, 1, 0, 0])).values) == approx([1, 0, -1, 0])
    assert list(K.k_dft_imag(tensor([0, 1, 0, 0])).values) == approx([0, -1, 0, 1])


def test_dft_matches_numpy():
    rng = random.Random(7)
    for n in (2, 3, 8, 17):
        x = rand_signal(rng, n)
        ref = np.fft.fft(x.values)
        assert list(K.k_dft_real(x).values) == approx(ref.real.tolist(), abs_tol=1e-9)
        assert list(K.k_dft_imag(x).values) == approx(ref.imag.tolist(), abs_tol=1e-9)


def test_idft_round_trip():
    rng = random.Random(12)
    for n in (2, 5, 16, 31):
        x = rand_signal(rng, n)
        back = K.k_idft(K.k_dft_real(x), K.k_dft_imag(x))
        assert list(back.values) == approx(list(x.values), abs_tol=1e-9)


def test_lowpass_coeffs_quarter_band():
    y = K.k_lowpass_fir_coeffs(5, math.pi / 2)
    assert list(y.values) == approx([0.0, 1 / math.pi, 0.5, 1 / math.pi, 0.0])


def test_lowpass_coeffs_symmetric():
    y = K.k_lowpass_fir_coeffs(11, 0.3 * math.pi).values
    assert y == tuple(reversed(y))


def test_hamming_five_points():
    assert list(K.k_hamming(5).values) == approx([0.08, 0.54, 1.0, 0.54, 0.08])


def test_hamming_peak_is_one():
    # mirrored angles are not exact float negations, so allow an ulp or two
    w = K.k_hamming(9).values
    assert w[4] == 1.0
    assert list(w) == approx(list(reversed(w)), abs_tol=1e-15)


def test_lms_two_step_recursion():
    # n=0: y=0, e=1, w=0.5;  n=1: y=0.5, e=0.5, w=0.75
    y = K.k_lms_filter(tensor([1, 1]), tensor([1, 1]), 0.5, 1)
    assert y.values == (0.75,)


def test_lms_gain_fused_matches_plain_at_unit_gain():
    rng = random.Random(3)
    x, d = rand_signal(rng, 40), rand_signal(rng, 40)
    plain = K.k_lms_filter(x, d, 0.05, 4)
    fused = K.k_lms_filter_gain(x, d, 0.05, 4, 1.0)
    assert list(fused.values) == approx(list(plain.values), abs_tol=0.0)


def test_lms_diverges_on_huge_step():
    rng = random.Random(9)
    x = rand_signal(rng, 256, scale=10.0)
    with pytest.raises(Diverged):
        K.k_lms_filter(x, x, 1e6, 8)


def test_threshold():
    assert K.k_threshold(tensor([0.5, -3, 2]), 1.0).values == (0.0, -3.0, 2.0)


def test_quantize_three_levels():
    assert K.k_quantize(tensor([0, 0.4, 1]), 3, 0.0, 1.0).values == (0.0, 0.5, 1.0)


def test_quantize_clamps_out_of_range():
    y = K.k_quantize(tensor([-9.0, 9.0]), 5, -1.0, 1.0)
    assert y.values == (-1.0, 1.0)


def test_rle_pairs():
    y = K.k_rle(tensor([5, 5, 0, 0, 0, 7]))
    assert len(y) == 6
    assert y.values[:6] == (5.0, 2.0, 0.0, 3.0, 7.0, 1.0)


def test_rle_worst_case_alternating():
    y = K.k_rle(tensor([1, 2, 1, 2]))
    assert y.values == (1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0)


def test_upsample_zero_stuffing():
    assert K.k_upsample(tensor([1, 2]), 2).values == (1.0, 0.0, 2.0, 0.0)


def test_up_down_k1_identity():
    x = tensor([4, 5, 6])
    assert K.k_upsample(x, 1).values == x.values
    assert K.k_downsample(x, 1).values == x.values


def test_downsample_keeps_every_kth():
    assert K.k_downsample(tensor([1, 0, 2, 0]), 2).values == (1.0, 2.0)


def test_sinvec_quarter_periods():
    assert list(K.k_sin_vec(4, 1.0, 4.0).values) == approx([0.0, 1.0, 0.0, -1.0])


def test_elementwise_div_by_zero_reports_index():
    with pytest.raises(DivisionByZero) as exc:
        K.KERNELS[OpCode.DIV](tensor([1, 2]), tensor([1, 0]))
    assert exc.value.index == 1


def test_elementwise_broadcast_scalar():
    y = K.KERNELS[OpCode.ADD](tensor([1, 2, 3]), tensor([10]))
    assert y.values == (11.0, 12.0, 13.0)


def test_sum_cancellation():
    assert K.k_sum(tensor([-1, 1])).values == (0.0,)


# --------------------------------------------------------------------------
# rewriter-only kernels agree with the plain ones


def test_filter_hamm_opt_matches_product():
    for L in (4, 5, 101):
        wc = 0.4 * math.pi
        plain = K.KERNELS[OpCode.MUL](K.k_lowpass_fir_coeffs(L, wc), K.k_hamming(L))
        opt = K.k_filter_hamm_opt(L, wc)
        assert list(opt.values) == approx(list(plain.values), abs_tol=0.0)


def test_filter_res_symm_matches_plain():
    rng = random.Random(21)
    for L in (5, 8, 101):
        h = K.k_filter_hamm_opt(L, 0.4 * math.pi)
        x = rand_signal(rng, 64)
        plain = K.k_fir_response(x, h)
        opt = K.k_filter_res_symm(x, h)
        assert list(opt.values) == approx(list(plain.values))


def test_filter_y_symm_matches_autocorrelation():
    rng = random.Random(22)
    for n in (1, 2, 9, 32):
        x = rand_signal(rng, n)
        plain = K.k_conv1d_full(x, K.k_reverse(x))
        opt = K.k_filter_y_symm(x)
        assert list(opt.values) == approx(list(plain.values), abs_tol=1e-12)


def test_dft_symm_matches_full():
    rng = random.Random(23)
    for n in (2, 3, 16, 17):
        x = rand_signal(rng, n)
        assert list(K.k_dft_real_symm(x).values) == approx(
            list(K.k_dft_real(x).values), abs_tol=1e-9)
        assert list(K.k_dft_imag_symm(x).values) == approx(
            list(K.k_dft_imag(x).values), abs_tol=1e-9)


def test_dft_fused_matches_unfused():
    rng = random.Random(24)
    x = rand_signal(rng, 24)
    re, im = K.k_dft_fused(x)
    assert list(re.values) == approx(list(K.k_dft_real(x).values), abs_tol=0.0)
    assert list(im.values) == approx(list(K.k_dft_imag(x).values), abs_tol=0.0)


# --------------------------------------------------------------------------
# graph evaluation


def test_eval_graph_const_print():
    from dspc.graph import parse_graph_text
    g = parse_graph_text("%0 = const_tensor() {values=[1, 2, 3]} : tensor<3>\nprint(%0)\n")
    out = K.eval_graph(g, {})
    assert out[0].values == (1.0, 2.0, 3.0)


def test_eval_graph_energy_parseval_hand_check():
    # energy of [1,2] is 5 in both domains: sum x^2 = 5, X = (3, -1)
    from dspc.frontend import parse_source
    from dspc.graph import build_graph, infer_shapes
    src = """
def main(x) {
  var re = dft1dreal(x);
  var im = dft1dimg(x);
  var energy = sum(square(re) + square(im)) / 2;
  print(energy);
}
"""
    g = infer_shapes(build_graph(parse_source(src)), {"x": 2})
    out = K.eval_graph(g, {"x": tensor([1, 2])})
    assert list(out[g.prints[0]].values) == approx([5.0])


def test_eval_graph_missing_input():
    from dspc.frontend import parse_source
    from dspc.graph import build_graph
    g = build_graph(parse_source("def main(x) { print(x); }"))
    with pytest.raises(K.KernelError):
        K.eval_graph(g, {})

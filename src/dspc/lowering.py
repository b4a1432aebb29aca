"""Lowering from the op graph to explicit loop nests.

Each opcode gets a dedicated emitter, its one implementation, that
transcribes its defining recurrence into loads, stores and scalar arithmetic.
Reductions accumulate strictly left to right, the order of the test oracle's
reference kernels (``tests/kernels.py``), so an emitter agrees with its kernel
(a rewriter-only one with the kernels of the ops it replaces) to the last bit
wherever rounding allows.  An emitter builds each statement's operand as one
expression tree, e.g. ``acc = acc + th * x[n - j]``, and names a value in a
temporary only where it must: a value read twice, a loop-carried accumulator,
a value that crosses a guard boundary, and a non-constant divisor (the
run-time zero check reads it first).  Cost-model conventions baked in here:

* filter taps are loaded unconditionally in the inner loop; only the signal
  load and the accumulate sit behind the boundary guard.  Emitters build only
  the guarded nest: the walk that renders it (`interp`) cuts off the outer
  range where every guard holds and renders that interior guard-free, so its
  guarded work is static cost,
* transform phase angles are ``c * (k*n)`` with ``c = 2*pi/N`` folded at
  lowering time, so one multiply per inner iteration buys the angle,
* mirrored producers (symmetric taps, conjugate-symmetric spectra) compute
  the first half and store each value twice, skipping the middle duplicate,
* index arithmetic, comparisons, ``abs`` and ``floor`` are free.

An op's unit depends only on its opcode, its attributes and the shapes of
its operands, so `lower_graph` lowers each distinct op once: `op_unit`
lowers the op's canonical copy, whose buffers it declares from the shapes
alone (its k distinct operands ``v0..v<k-1>``, its results from ``v<k>``),
and keeps the unit in a bounded memo; a program calls the unit with its own
buffer names.  Inputs, constants, prints and returns have no unit:
`lower_graph` alone declares the input and constant buffers and records
which buffers are bound, printed and returned.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

from .errors import DspcError
from .graph import DspGraph, OpNode
from .loop_ir import (AffineExpr, Arith, Assign, BufferDecl, Call, CheckFinite,
                      Cond, ConstF, DynAppend, Expr, For, IfCmp, IndexF,
                      IndexProdF, Load, LoopProgram, SelectGuard, Stmt, Store,
                      TempRef, Unit, UnitCall)
from .ops import OP_DEFS, OpCode, TensorShape


class LoweringUnsupported(DspcError):
    """An op reached the backend without a static shape (an input is
    unbound), or it reads a tensor whose length is known only at run time."""


def _af(index: str, coeff: int = 1, const: int = 0) -> AffineExpr:
    return AffineExpr.of(index, coeff, const)


class _Lowerer:
    """Builds the statements of an op's canonical copy, whose value ``v<j>``
    has shape ``shapes[j]``."""

    def __init__(self, shapes: tuple[TensorShape, ...]):
        self.shapes = shapes
        self.body: list[Stmt] = []
        self._temp_seq = 0

    # -- small helpers ------------------------------------------------------

    def t(self) -> TempRef:
        self._temp_seq += 1
        return TempRef(f"t{self._temp_seq}")

    def buf(self, vid: int) -> str:
        return f"v{vid}"

    def length(self, vid: int) -> int:
        return self.shapes[vid].length

    def operand_len(self, op: OpNode, slot: int) -> int:
        return self.length(op.operands[slot])

    # -- shared loop shapes --------------------------------------------------

    def loop(self, op: OpNode, index: str, n: int, body: list[Stmt],
             part: str = "", lower: int = 0) -> For:
        """``for index in [lower, n)``, tagged ``<opcode>`` or ``<opcode>.<part>``."""
        tag = f"{op.opcode.value}.{part}" if part else op.opcode.value
        return For(index, lower, n, body, tag=tag)

    def copy_loop(self, op: OpNode, src_index_of, n: int, transform) -> None:
        """``for i in [0, n)``: the statements `transform(i, x)` builds from
        the load ``x = src[src_index_of(i)]``."""
        i = f"i{op.id}"
        x = Load(self.buf(op.operands[0]), src_index_of(i))
        self.body.append(self.loop(op, i, n, transform(i, x)))

    def guarded_mac(self, n_idx: str, i_idx: str, x_buf: str, x_len: int,
                    tap: Expr, acc: TempRef, offset: int = 0,
                    i_coeff: int = -1) -> Stmt:
        """Guarded ``acc = acc + tap * x[n + i_coeff*i + offset]``."""
        at = _af(n_idx).plus(_af(i_idx, i_coeff)).shifted(offset)
        return SelectGuard(at, 0, x_len,
                           body=[Assign(acc, acc + tap * Load(x_buf, at))])


def _e_delay(lw: _Lowerer, op: OpNode) -> None:
    n = lw.length(op.id)
    k = int(op.attr("k"))
    x = lw.buf(op.operands[0])
    out = lw.buf(op.id)
    i = f"i{op.id}"
    at = _af(i, const=-k)
    body: list[Stmt] = [Store(out, _af(i), Load(x, at))]
    if k:
        body = [SelectGuard(at, 0, n, body=body,
                            orelse=[Store(out, _af(i), ConstF(0.0))])]
    lw.body.append(lw.loop(op, i, n, body))


def _e_fir(lw: _Lowerer, op: OpNode) -> None:
    """Shared shape of firFilterResponse / conv1d: taps loaded every step."""
    x, h = lw.buf(op.operands[0]), lw.buf(op.operands[1])
    n_x = lw.operand_len(op, 0)
    n_h = lw.operand_len(op, 1)
    out = lw.buf(op.id)
    n_i, i_i = f"i{op.id}", f"j{op.id}"
    acc, th = lw.t(), lw.t()
    inner: list[Stmt] = [
        Assign(th, Load(h, _af(i_i))),
        lw.guarded_mac(n_i, i_i, x, n_x, th, acc),
    ]
    body: list[Stmt] = [
        Assign(acc, ConstF(0.0)),
        lw.loop(op, i_i, n_h, inner, "inner"),
        Store(out, _af(n_i), acc),
    ]
    lw.body.append(lw.loop(op, n_i, lw.length(op.id), body, "outer"))


def _e_sliding_avg(lw: _Lowerer, op: OpNode) -> None:
    n = lw.length(op.id)
    w = int(op.attr("window"))
    x, out = lw.buf(op.operands[0]), lw.buf(op.id)
    n_i, i_i = f"i{op.id}", f"j{op.id}"
    acc = lw.t()
    at = _af(n_i).plus(_af(i_i, -1))
    inner: list[Stmt] = [
        SelectGuard(at, 0, n, body=[Assign(acc, acc + Load(x, at))])]
    body: list[Stmt] = [
        Assign(acc, ConstF(0.0)),
        lw.loop(op, i_i, w, inner, "inner"),
        Store(out, _af(n_i), acc / float(w)),
    ]
    lw.body.append(lw.loop(op, n_i, n, body, "outer"))


def _e_dft(lw: _Lowerer, op: OpNode, *, real: bool = True, imag: bool = True,
           half: bool = False) -> None:
    """Real and/or imaginary DFT accumulated in one nest, optionally mirrored.

    Each enabled part stores into the op's next result.  With ``half`` (one
    part only) bins k <= N/2 are computed and mirrored by conjugate symmetry.
    """
    n = lw.operand_len(op, 0)
    x = lw.buf(op.operands[0])
    c1 = 2.0 * math.pi / n
    k_i, n_i = f"i{op.id}", f"j{op.id}"
    parts = [(trig, sign) for on, trig, sign in ((real, "cos", "add"), (imag, "sin", "sub"))
             if on]
    accs = [lw.t() for _ in parts]
    xn: Expr = Load(x, _af(n_i))
    ang: Expr = c1 * IndexProdF(k_i, n_i)
    inner: list[Stmt] = []
    if len(parts) > 1:  # both parts read the sample and the angle
        tx, ta = lw.t(), lw.t()
        inner += [Assign(tx, xn), Assign(ta, ang)]
        xn, ang = tx, ta
    for acc, (trig, sign) in zip(accs, parts):
        inner.append(Assign(acc, Arith(sign, acc, xn * Call(trig, ang))))
    body: list[Stmt] = [Assign(acc, ConstF(0.0)) for acc in accs]
    body.append(lw.loop(op, n_i, n, inner, "inner"))
    body += [Store(lw.buf(rid), _af(k_i), acc) for rid, acc in zip(op.result_ids, accs)]
    if half:
        # real part: X[N-k] = X[k]; imaginary part: X[N-k] = -X[k]
        acc = accs[0]
        body.append(SelectGuard(_af(k_i), 1, (n + 1) // 2, body=[
            Store(lw.buf(op.id), _af(k_i, -1, n), acc if real else 0.0 - acc)]))
    lw.body.append(lw.loop(op, k_i, n // 2 + 1 if half else n, body, "outer"))


def _e_idft(lw: _Lowerer, op: OpNode) -> None:
    n = lw.length(op.id)
    xr, xi = lw.buf(op.operands[0]), lw.buf(op.operands[1])
    out = lw.buf(op.id)
    c1 = 2.0 * math.pi / n
    n_i, k_i = f"i{op.id}", f"j{op.id}"
    acc, ang = lw.t(), lw.t()
    inner: list[Stmt] = [
        Assign(ang, c1 * IndexProdF(n_i, k_i)),
        Assign(acc, acc + Load(xr, _af(k_i)) * Call("cos", ang)
               - Load(xi, _af(k_i)) * Call("sin", ang)),
    ]
    body: list[Stmt] = [
        Assign(acc, ConstF(0.0)),
        lw.loop(op, k_i, n, inner, "inner"),
        Store(out, _af(n_i), acc / float(n)),
    ]
    lw.body.append(lw.loop(op, n_i, n, body, "outer"))


def _lowpass_tap(lw: _Lowerer, n_i: str, L: int, wc: float, lp: TempRef
                 ) -> list[Stmt]:
    """lp = (wc/pi) * sinc(wc * (n - (L-1)/2)), midpoint guarded when L odd."""
    scale = wc / math.pi
    z = lw.t()  # sinc_eval reads its argument three times
    calc: list[Stmt] = [
        Assign(z, wc * (IndexF(_af(n_i)) - (L - 1) / 2.0)),
        Assign(lp, scale * Call("sinc_eval", z)),
    ]
    if L % 2 == 1:
        midi = (L - 1) // 2
        return [SelectGuard(_af(n_i), midi, midi + 1,
                            body=[Assign(lp, ConstF(scale))], orelse=calc)]
    return calc


def _hamming_tap(n_i: str, L: int) -> Expr:
    """0.54 - 0.46 * cos(2*pi*n/(L-1))."""
    c2 = 2.0 * math.pi / (L - 1)
    return 0.54 - 0.46 * Call("cos", c2 * IndexF(_af(n_i)))


def _e_lowpass(lw: _Lowerer, op: OpNode) -> None:
    L = int(op.attr("L"))
    n_i = f"i{op.id}"
    lp = lw.t()
    body = _lowpass_tap(lw, n_i, L, float(op.attr("wc")), lp)
    body.append(Store(lw.buf(op.id), _af(n_i), lp))
    lw.body.append(lw.loop(op, n_i, L, body))


def _e_hamming(lw: _Lowerer, op: OpNode) -> None:
    L = int(op.attr("L"))
    n_i = f"i{op.id}"
    lw.body.append(lw.loop(op, n_i, L, [
        Store(lw.buf(op.id), _af(n_i), _hamming_tap(n_i, L))]))


def _e_filter_hamm_opt(lw: _Lowerer, op: OpNode) -> None:
    L = int(op.attr("L"))
    out = lw.buf(op.id)
    n_i = f"i{op.id}"
    lp, hv = lw.t(), lw.t()
    body = _lowpass_tap(lw, n_i, L, float(op.attr("wc")), lp)
    body.append(Assign(hv, lp * _hamming_tap(n_i, L)))
    body.append(Store(out, _af(n_i), hv))
    # mirrored tap; the middle of an odd-length window is stored once
    body.append(SelectGuard(_af(n_i), 0, L // 2,
                            body=[Store(out, _af(n_i, -1, L - 1), hv)]))
    half = (L + 1) // 2
    lw.body.append(lw.loop(op, n_i, half, body))


def _e_filter_res_symm(lw: _Lowerer, op: OpNode) -> None:
    x, h = lw.buf(op.operands[0]), lw.buf(op.operands[1])
    n_x = lw.operand_len(op, 0)
    L = lw.operand_len(op, 1)
    out = lw.buf(op.id)
    n_i, i_i = f"i{op.id}", f"j{op.id}"
    acc, tp = lw.t(), lw.t()
    at_lo = _af(n_i).plus(_af(i_i, -1))                    # n - i
    at_hi = _af(n_i).plus(_af(i_i, 1)).shifted(-(L - 1))   # n - (L-1-i)
    inner: list[Stmt] = [
        Assign(tp, ConstF(0.0)),
        SelectGuard(at_lo, 0, n_x, body=[Assign(tp, tp + Load(x, at_lo))]),
        SelectGuard(at_hi, 0, n_x, body=[Assign(tp, tp + Load(x, at_hi))]),
        Assign(acc, acc + Load(h, _af(i_i)) * tp),
    ]
    body: list[Stmt] = [
        Assign(acc, ConstF(0.0)),
        lw.loop(op, i_i, L // 2, inner, "inner"),
    ]
    if L % 2 == 1:
        midi = (L - 1) // 2
        th = lw.t()  # loaded whether or not the guard holds
        body.append(Assign(th, Load(h, AffineExpr.lit(midi))))
        body.append(lw.guarded_mac(n_i, i_i, x, n_x, th, acc,
                                   offset=-midi, i_coeff=0))
    body.append(Store(out, _af(n_i), acc))
    lw.body.append(lw.loop(op, n_i, lw.length(op.id), body, "outer"))


def _e_filter_y_symm(lw: _Lowerer, op: OpNode) -> None:
    x = lw.buf(op.operands[0])
    n = lw.operand_len(op, 0)
    n_out = 2 * n - 1
    out = lw.buf(op.id)
    n_i, i_i = f"i{op.id}", f"j{op.id}"
    acc, th = lw.t(), lw.t()
    inner: list[Stmt] = [
        Assign(th, Load(x, _af(i_i, -1, n - 1))),  # reversed tap x[N-1-i]
        lw.guarded_mac(n_i, i_i, x, n, th, acc),
    ]
    body: list[Stmt] = [
        Assign(acc, ConstF(0.0)),
        lw.loop(op, i_i, n, inner, "inner"),
        Store(out, _af(n_i), acc),
        # palindrome: y[Nout-1-n] = y[n], middle stored once
        SelectGuard(_af(n_i), 0, n - 1,
                    body=[Store(out, _af(n_i, -1, n_out - 1), acc)]),
    ]
    lw.body.append(lw.loop(op, n_i, n, body, "outer"))


def _e_lms(lw: _Lowerer, op: OpNode) -> None:
    """LMS adaptation with step mu.  The gain-fused form is exactly
    ``gain(lmsFilter(...), g)``: after the divergence check it scales the
    final weights in place, ``w[j] = g * w[j]``, at the gain's cost."""
    mu = float(op.attr("mu"))
    x, d = lw.buf(op.operands[0]), lw.buf(op.operands[1])
    n = lw.operand_len(op, 0)
    m = int(op.attr("M"))
    w = lw.buf(op.id)  # weights accumulate in the result buffer
    n_i, i_i = f"i{op.id}", f"j{op.id}"
    y, t = lw.t(), lw.t()
    at = _af(n_i).plus(_af(i_i, -1))
    wi, xi = Load(w, _af(i_i)), Load(x, at)
    body: list[Stmt] = [
        Assign(y, ConstF(0.0)),
        lw.loop(op, i_i, m, [SelectGuard(at, 0, n, body=[
            Assign(y, y + wi * xi)])], "dot"),
        Assign(t, mu * (Load(d, _af(n_i)) - y)),
        lw.loop(op, i_i, m, [SelectGuard(at, 0, n, body=[
            Store(w, _af(i_i), wi + t * xi)])], "update"),
    ]
    lw.body.append(lw.loop(op, n_i, n, body, "outer"))
    lw.body.append(CheckFinite(w))
    if op.opcode is OpCode.LMS_FILTER_GAIN_OPT:
        g = float(op.attr("g"))
        lw.body.append(lw.loop(op, i_i, m, [Store(w, _af(i_i), g * wi)], "scale"))


def _e_binary(lw: _Lowerer, op: OpNode) -> None:
    n = lw.length(op.id)
    na, nb = lw.operand_len(op, 0), lw.operand_len(op, 1)
    i = f"i{op.id}"
    a = Load(lw.buf(op.operands[0]), _af(i) if na != 1 else AffineExpr.lit(0))
    b: Expr = Load(lw.buf(op.operands[1]), _af(i) if nb != 1 else AffineExpr.lit(0))
    body: list[Stmt] = []
    if op.opcode is OpCode.DIV:  # the zero check reads the divisor first
        tb = lw.t()
        body.append(Assign(tb, b))
        b = tb
    body.append(Store(lw.buf(op.id), _af(i), Arith(op.opcode.value, a, b)))
    lw.body.append(lw.loop(op, i, n, body))


def _e_square(lw: _Lowerer, op: OpNode) -> None:
    out = lw.buf(op.id)
    tv = lw.t()
    lw.copy_loop(op, lambda i: _af(i), lw.length(op.id),
                 lambda i, x: [Assign(tv, x), Store(out, _af(i), tv * tv)])


def _e_gain(lw: _Lowerer, op: OpNode) -> None:
    g = float(op.attr("g"))
    out = lw.buf(op.id)
    lw.copy_loop(op, lambda i: _af(i), lw.length(op.id),
                 lambda i, x: [Store(out, _af(i), g * x)])


def _e_reverse(lw: _Lowerer, op: OpNode) -> None:
    n = lw.length(op.id)
    out = lw.buf(op.id)
    lw.copy_loop(op, lambda i: _af(i, -1, n - 1), n,
                 lambda i, x: [Store(out, _af(i), x)])


def _e_sum(lw: _Lowerer, op: OpNode) -> None:
    n = lw.operand_len(op, 0)
    x, out = lw.buf(op.operands[0]), lw.buf(op.id)
    i = f"i{op.id}"
    acc = lw.t()
    lw.body.append(Assign(acc, ConstF(0.0)))
    lw.body.append(lw.loop(op, i, n, [Assign(acc, acc + Load(x, _af(i)))]))
    lw.body.append(Store(out, AffineExpr.lit(0), acc))


def _e_threshold(lw: _Lowerer, op: OpNode) -> None:
    t = float(op.attr("t"))
    out = lw.buf(op.id)
    tv = lw.t()
    lw.copy_loop(op, lambda i: _af(i), lw.length(op.id),
                 lambda i, x: [
                     Assign(tv, x),
                     Store(out, _af(i),
                           Cond("ge", Call("abs", tv), ConstF(t), tv, ConstF(0.0))),
                 ])


def _e_quantize(lw: _Lowerer, op: OpNode) -> None:
    levels = int(op.attr("levels"))
    lo = float(op.attr("min"))
    hi = float(op.attr("max"))
    step = (hi - lo) / (levels - 1)
    out = lw.buf(op.id)
    tv, tc = lw.t(), lw.t()  # tc: the lower clamp, read twice by the upper
    clamped = Cond("gt", tc, ConstF(hi), ConstF(hi), tc)
    lw.copy_loop(op, lambda i: _af(i), lw.length(op.id),
                 lambda i, x: [
                     Assign(tv, x),
                     Assign(tc, Cond("lt", tv, ConstF(lo), ConstF(lo), tv)),
                     Store(out, _af(i),
                           lo + Call("floor", (clamped - lo) / step + 0.5) * step),
                 ])


def _e_rle(lw: _Lowerer, op: OpNode) -> None:
    n = lw.operand_len(op, 0)
    x, out = lw.buf(op.operands[0]), lw.buf(op.id)
    i = f"i{op.id}"
    rv, rl, tv = lw.t(), lw.t(), lw.t()
    lw.body.append(Assign(rv, Load(x, AffineExpr.lit(0))))
    lw.body.append(Assign(rl, ConstF(1.0)))
    lw.body.append(lw.loop(op, i, n, [
        Assign(tv, Load(x, _af(i))),
        IfCmp("eq", tv, rv,
              body=[Assign(rl, rl + 1.0)],
              orelse=[DynAppend(out, rv),
                      DynAppend(out, rl),
                      Assign(rv, tv),
                      Assign(rl, ConstF(1.0))]),
    ], lower=1))
    lw.body.append(DynAppend(out, rv))
    lw.body.append(DynAppend(out, rl))


def _e_upsample(lw: _Lowerer, op: OpNode) -> None:
    k = int(op.attr("k"))
    n = lw.operand_len(op, 0)
    out = lw.buf(op.id)
    lw.copy_loop(op, lambda i: _af(i), n,
                 lambda i, x: [Store(out, _af(i, k), x)])


def _e_downsample(lw: _Lowerer, op: OpNode) -> None:
    k = int(op.attr("k"))
    out = lw.buf(op.id)
    lw.copy_loop(op, lambda i: _af(i, k), lw.length(op.id),
                 lambda i, x: [Store(out, _af(i), x)])


def _e_osc(lw: _Lowerer, op: OpNode, trig: str) -> None:
    n = int(op.attr("n"))
    c = 2.0 * math.pi * float(op.attr("f")) / float(op.attr("fs"))
    i = f"i{op.id}"
    lw.body.append(lw.loop(op, i, n, [
        Store(lw.buf(op.id), _af(i), Call(trig, c * IndexF(_af(i))))]))


def _e_range_vec(lw: _Lowerer, op: OpNode) -> None:
    n = int(op.attr("n"))
    start = float(op.attr("start"))
    step = float(op.attr("step"))
    i = f"i{op.id}"
    lw.body.append(lw.loop(op, i, n, [
        Store(lw.buf(op.id), _af(i), start + step * IndexF(_af(i)))]))


# The loop-nest emitter of each opcode; inputs and constants are data only,
# and print and return lower to nothing (`lower_graph` handles all four).
EMITTERS = {
    OpCode.DELAY: _e_delay,
    OpCode.FIR_FILTER_RESPONSE: _e_fir,
    OpCode.CONV1D_FULL: _e_fir,
    OpCode.SLIDING_WINDOW_AVG: _e_sliding_avg,
    OpCode.DFT1D_REAL: partial(_e_dft, imag=False),
    OpCode.DFT1D_IMAG: partial(_e_dft, real=False),
    OpCode.IDFT1D: _e_idft,
    OpCode.LOW_PASS_FIR_COEFFS: _e_lowpass,
    OpCode.HAMMING_WINDOW: _e_hamming,
    OpCode.LMS_FILTER: _e_lms,
    OpCode.ADD: _e_binary,
    OpCode.SUB: _e_binary,
    OpCode.MUL: _e_binary,
    OpCode.DIV: _e_binary,
    OpCode.SQUARE: _e_square,
    OpCode.GAIN: _e_gain,
    OpCode.REVERSE: _e_reverse,
    OpCode.SUM: _e_sum,
    OpCode.THRESHOLD: _e_threshold,
    OpCode.QUANTIZE: _e_quantize,
    OpCode.RUN_LEN_ENCODING: _e_rle,
    OpCode.UPSAMPLE: _e_upsample,
    OpCode.DOWNSAMPLE: _e_downsample,
    OpCode.SIN_VEC: partial(_e_osc, trig="sin"),
    OpCode.COS_VEC: partial(_e_osc, trig="cos"),
    OpCode.RANGE_VEC: _e_range_vec,
    OpCode.FILTER_HAMM_OPT: _e_filter_hamm_opt,
    OpCode.FILTER_RES_SYMM_OPT: _e_filter_res_symm,
    OpCode.FILTER_Y_SYMM_OPT: _e_filter_y_symm,
    OpCode.DFT1D_REAL_SYMM: partial(_e_dft, imag=False, half=True),
    OpCode.DFT1D_IMAG_SYMM: partial(_e_dft, real=False, half=True),
    OpCode.DFT1D_FUSED: _e_dft,
    OpCode.LMS_FILTER_GAIN_OPT: _e_lms,
}


# Distinct ops whose units `op_unit` keeps, least recently used first out;
# an entry holds an op's statements and render products, about 4 KB.
UNIT_MEMO_SIZE = 256


@lru_cache(maxsize=UNIT_MEMO_SIZE)
def op_unit(opcode: OpCode, attributes: tuple, spelled: tuple[str, ...],
            operands: tuple[int, ...], shapes: tuple[TensorShape, ...]) -> Unit:
    """The unit of every op with this opcode, these attributes (`spelled` is
    their reprs, which tell 0.0 from -0.0 and 1 from 1.0 where `==` does not)
    and these operands: `operands` numbers each operand by the first slot that
    reads the same value, and `shapes` holds the shape of each distinct
    operand, then of each result.  Lowers the op's canonical copy, whose
    buffer ``v<j>`` has shape ``shapes[j]``, as its emitter builds it."""
    lw = _Lowerer(shapes)
    k = len(shapes) - OP_DEFS[opcode].n_results
    EMITTERS[opcode](lw, OpNode(k, opcode, operands, attributes, shapes[k:]))
    return Unit(tuple(BufferDecl(lw.buf(j), s.length, dynamic=s.dynamic)
                      for j, s in enumerate(shapes)), lw.body)


def lower_graph(graph: DspGraph) -> LoopProgram:
    """Lower every op to loop nests: declare its result buffers, bind an
    input's or fill a constant's, and call any other op's unit (`op_unit`) on
    them; `interp` checks each unit's bounds as it first renders it."""
    buffers: list[BufferDecl] = []
    inputs: list[tuple[str, str]] = []
    shapes: dict[int, TensorShape] = {}
    calls: list[UnitCall] = []
    for op in graph.ops:
        oc = op.opcode
        if oc is OpCode.PRINT or oc is OpCode.RETURN:
            continue
        if any(shape is None for shape in op.result_shapes):
            raise LoweringUnsupported(
                f"op %{op.id} ({oc.value}) has an unresolved "
                "shape; bind all inputs before lowering")
        init = (tuple(map(float, op.attr("values")))
                if oc is OpCode.CONST_TENSOR else None)
        for rid, shape in zip(op.result_ids, op.result_shapes):
            buffers.append(BufferDecl(f"v{rid}", shape.length, init=init,
                                      dynamic=shape.dynamic))
            shapes[rid] = shape
        if oc is OpCode.INPUT:
            inputs.append((str(op.attr("name")), f"v{op.id}"))
        if oc is OpCode.INPUT or oc is OpCode.CONST_TENSOR:
            continue
        distinct = list(dict.fromkeys(op.operands))
        operand_shapes = [shapes[vid] for vid in distinct]
        if any(shape.dynamic for shape in operand_shapes):
            raise LoweringUnsupported(
                f"op %{op.id} ({oc.value}) consumes a dynamic tensor")
        unit = op_unit(oc, op.attributes, tuple(map(repr, op.attributes)),
                       tuple(map(distinct.index, op.operands)),
                       (*operand_shapes, *op.result_shapes))
        if unit.body:
            calls.append((f"%{op.id} {oc.value}", unit,
                          tuple(f"v{vid}" for vid in (*distinct, *op.result_ids))))
    return LoopProgram(
        buffers=buffers,
        inputs=inputs,
        outputs=[(vid, f"v{vid}") for vid in graph.prints],
        returns=[(vid, f"v{vid}") for vid in graph.returns],
        calls=calls,
    )

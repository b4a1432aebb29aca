"""Lowering from the op graph to explicit loop nests.

Each opcode gets a dedicated emitter, its one implementation, that
transcribes its defining recurrence into loads, stores and scalar arithmetic.
An emitter is a pure function of an op's canonical copy (see `op_unit`):
``EMITTERS[opcode](op, lengths)`` returns the op's statements, where value
``v`` lives in buffer ``v<v>`` and has length ``lengths[v]``.  Statements
name their temporaries literally (``acc``, ``tap``, ...) and their loop
indices ``i`` (outer) and ``j`` (inner).  The walk that renders a unit
(`interp`) renames every buffer, temporary and index by first use, so these
names never reach the generated code; only their order does, since an index
sum sorts its terms by name (`AffineExpr.plus`) and ``i`` before ``j`` puts
the outer index first.

Reductions accumulate strictly left to right, the order of the test oracle's
reference kernels (``tests/kernels.py``), so an emitter agrees with its kernel
(a rewriter-only one with the kernels of the ops it replaces) to the last bit
wherever rounding allows.  An emitter builds each statement's operand as one
expression tree, e.g. ``acc = acc + tap * x[i - j]``, and names a value in a
temporary only where it must: a value read twice, a loop-carried accumulator,
a value that crosses a guard boundary, and a non-constant divisor (the
run-time zero check reads it first).  The reductions but the DFTs (FIR and
conv1d, the sliding average, the inverse DFT and both symmetric filters) share
one nest, `_reduce`: per output ``i``, ``acc = 0``, an inner loop over ``j``,
then ``v<op>[i]`` stored from ``acc``.  Cost-model conventions baked in here:

* filter taps are loaded unconditionally in the inner loop; only the signal
  load and the accumulate sit behind the boundary guard.  Emitters build only
  the guarded nest: the walk that renders it (`interp`) cuts off the outer
  range where every guard holds and renders that interior guard-free, so its
  guarded work is static cost,
* a transform's twiddles are `Trig` leaves, ``trig(c * (k*n))`` with
  ``c = 2*pi/N`` folded at lowering time: one multiply per inner iteration
  buys the angle, paid by the first part of a two-part nest (its second
  part's Trig has ``mults=0``),
* mirrored producers (symmetric taps, conjugate-symmetric spectra) compute
  the first half and store each value twice, skipping the middle duplicate,
* index arithmetic, comparisons, ``abs`` and ``floor`` are free.

An op's unit depends only on its opcode, its attributes and the shapes of
its operands, so `lower_graph` lowers each distinct op once: `op_unit`
lowers the op's canonical copy, whose buffers it declares from the shapes
alone (its k distinct operands ``v0..v<k-1>``, its results from ``v<k>``),
and keeps the unit in a bounded memo; a program calls the unit with its own
buffer names.  A float attribute reaches the statements only as ConstF
values, so ops that differ only in float attributes have one op shape
(`Unit.shape`), which `interp` renders once.  Inputs, constants, prints and
returns have no unit: `lower_graph` alone declares the input and constant
buffers and records which buffers are bound, printed and returned, and which
calls are input-free (read only constants and input-free values): `interp`
runs those once per program.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Sequence

from .errors import DspcError
from .graph import DspGraph, OpNode
from .loop_ir import (AffineExpr, Arith, Assign, BufferDecl, Call, CheckFinite,
                      Cond, ConstF, DynAppend, Expr, For, IfCmp, IndexF,
                      Load, LoopProgram, SelectGuard, Stmt, Store, TempRef, Trig,
                      UNIT_MEMO_SIZE, Unit, UnitCall)
from .ops import OP_DEFS, OpCode, TensorShape


class LoweringUnsupported(DspcError):
    """An op reached the backend without a static shape (an input is unbound)."""


def _af(index: str, coeff: int = 1, const: int = 0) -> AffineExpr:
    return AffineExpr.of(index, coeff, const)


def _loop(op: OpNode, n: int, body: list[Stmt], part: str = "",
          index: str = "i", lower: int = 0) -> For:
    """``for index in [lower, n)``, tagged ``<opcode>`` or ``<opcode>.<part>``."""
    return For(index, lower, n, body,
               tag=f"{op.opcode.value}.{part}" if part else op.opcode.value)


def _map(op: OpNode, n: int, value: Expr, at: AffineExpr = _af("i"),
         pre: Sequence[Stmt] = ()) -> list[Stmt]:
    """``for i in [0, n)``: the statements `pre`, then ``v<op>[at] = value``."""
    return [_loop(op, n, [*pre, Store(f"v{op.id}", at, value)])]


_ACC = TempRef("acc")


def _reduce(op: OpNode, n: int, trips: int, inner: list[Stmt], value: Expr = _ACC,
            mid: Sequence[Stmt] = (), tail: Sequence[Stmt] = ()) -> list[Stmt]:
    """The reduction nest ``for i in [0, n)``: ``acc = 0``, `inner` for ``j`` in
    ``[0, trips)``, the statements `mid`, ``v<op>[i] = value`` and `tail`."""
    return [_loop(op, n, [Assign(_ACC, ConstF(0.0)), _loop(op, trips, inner, "inner", "j"),
                          *mid, Store(f"v{op.id}", _af("i"), value), *tail], "outer")]


def _x(op: OpNode, at: AffineExpr = _af("i")) -> Load:
    """The load ``x[at]`` from the op's first operand."""
    return Load(f"v{op.operands[0]}", at)


def _guarded_mac(x: str, n: int, tap: Expr, acc: TempRef, offset: int = 0,
                 j_coeff: int = -1) -> Stmt:
    """Guarded ``acc = acc + tap * x[i + j_coeff*j + offset]``."""
    at = _af("i").plus(_af("j", j_coeff)).shifted(offset)
    return SelectGuard(at, 0, n, body=[Assign(acc, acc + tap * Load(x, at))])


def _e_delay(op: OpNode, lengths: list[int]) -> list[Stmt]:
    n, k = lengths[op.id], int(op.attr("k"))
    out, at = f"v{op.id}", _af("i", const=-k)
    body: list[Stmt] = [Store(out, _af("i"), _x(op, at))]
    if k:
        body = [SelectGuard(at, 0, n, body=body,
                            orelse=[Store(out, _af("i"), ConstF(0.0))])]
    return [_loop(op, n, body)]


def _e_fir(op: OpNode, lengths: list[int]) -> list[Stmt]:
    """Shared shape of firFilterResponse / conv1d: taps loaded every step."""
    x, h = (f"v{v}" for v in op.operands)
    n_x, n_h = (lengths[v] for v in op.operands)
    tap = TempRef("tap")
    return _reduce(op, lengths[op.id], n_h, [Assign(tap, Load(h, _af("j"))),
                                            _guarded_mac(x, n_x, tap, _ACC)])


def _e_sliding_avg(op: OpNode, lengths: list[int]) -> list[Stmt]:
    n, w = lengths[op.id], int(op.attr("window"))
    at = _af("i").plus(_af("j", -1))
    return _reduce(op, n, w, [SelectGuard(at, 0, n, body=[Assign(_ACC, _ACC + _x(op, at))])],
                   _ACC / float(w))


def _e_dft(op: OpNode, lengths: list[int], *, real: bool = True,
           imag: bool = True, half: bool = False) -> list[Stmt]:
    """Real and/or imaginary DFT accumulated in one nest, optionally mirrored.

    Each enabled part stores into the op's next result.  With ``half`` (one
    part only) bins k <= N/2 are computed and mirrored by conjugate symmetry.
    """
    n = lengths[op.operands[0]]
    c = ConstF(2.0 * math.pi / n)
    parts = [(TempRef(name), trig, sign) for on, name, trig, sign in
             ((real, "re", "cos", "add"), (imag, "im", "sin", "sub")) if on]
    xn: Expr = _x(op, _af("j"))
    inner: list[Stmt] = []
    if len(parts) > 1:  # both parts read the sample; the first pays for the angle
        inner.append(Assign(TempRef("x"), xn))
        xn = TempRef("x")
    inner += [Assign(acc, Arith(sign, acc, xn * Trig(trig, c, "i", "j", int(not k))))
              for k, (acc, trig, sign) in enumerate(parts)]
    body: list[Stmt] = [Assign(acc, ConstF(0.0)) for acc, _, _ in parts]
    body.append(_loop(op, n, inner, "inner", "j"))
    body += [Store(f"v{rid}", _af("i"), acc)
             for rid, (acc, _, _) in zip(op.result_ids, parts)]
    if half:
        # real part: X[N-k] = X[k]; imaginary part: X[N-k] = -X[k]
        acc = parts[0][0]
        body.append(SelectGuard(_af("i"), 1, (n + 1) // 2, body=[
            Store(f"v{op.id}", _af("i", -1, n), acc if real else 0.0 - acc)]))
    return [_loop(op, n // 2 + 1 if half else n, body, "outer")]


def _e_idft(op: OpNode, lengths: list[int]) -> list[Stmt]:
    n = lengths[op.id]
    xr, xi = (Load(f"v{v}", _af("j")) for v in op.operands)
    c = ConstF(2.0 * math.pi / n)
    return _reduce(op, n, n, [Assign(_ACC, _ACC + xr * Trig("cos", c, "i", "j")
                                     - xi * Trig("sin", c, "i", "j", 0))], _ACC / float(n))


def _lowpass_tap(L: int, wc: float) -> list[Stmt]:
    """lp = (wc/pi) * sinc(wc * (i - (L-1)/2)), midpoint guarded when L odd."""
    scale, lp, z = wc / math.pi, TempRef("lp"), TempRef("z")
    calc: list[Stmt] = [  # sinc_eval reads its argument three times
        Assign(z, wc * (IndexF(_af("i")) - (L - 1) / 2.0)),
        Assign(lp, scale * Call("sinc_eval", z)),
    ]
    if L % 2 == 1:
        midi = (L - 1) // 2
        return [SelectGuard(_af("i"), midi, midi + 1,
                            body=[Assign(lp, ConstF(scale))], orelse=calc)]
    return calc


def _hamming_tap(L: int) -> Expr:
    """0.54 - 0.46 * cos(2*pi*i/(L-1))."""
    return 0.54 - 0.46 * Call("cos", 2.0 * math.pi / (L - 1) * IndexF(_af("i")))


def _e_lowpass(op: OpNode, lengths: list[int]) -> list[Stmt]:
    L = int(op.attr("L"))
    return _map(op, L, TempRef("lp"), pre=_lowpass_tap(L, float(op.attr("wc"))))


def _e_hamming(op: OpNode, lengths: list[int]) -> list[Stmt]:
    L = int(op.attr("L"))
    return _map(op, L, _hamming_tap(L))


def _e_filter_hamm_opt(op: OpNode, lengths: list[int]) -> list[Stmt]:
    L = int(op.attr("L"))
    out, hv = f"v{op.id}", TempRef("hv")
    return [_loop(op, (L + 1) // 2, [
        *_lowpass_tap(L, float(op.attr("wc"))),
        Assign(hv, TempRef("lp") * _hamming_tap(L)),
        Store(out, _af("i"), hv),
        # mirrored tap; the middle of an odd-length window is stored once
        SelectGuard(_af("i"), 0, L // 2,
                    body=[Store(out, _af("i", -1, L - 1), hv)]),
    ])]


def _e_filter_res_symm(op: OpNode, lengths: list[int]) -> list[Stmt]:
    x, h = (f"v{v}" for v in op.operands)
    n_x, L = (lengths[v] for v in op.operands)
    pair = TempRef("pair")
    at_lo = _af("i").plus(_af("j", -1))                  # i - j
    at_hi = _af("i").plus(_af("j")).shifted(-(L - 1))    # i - (L-1-j)
    inner: list[Stmt] = [
        Assign(pair, ConstF(0.0)),
        SelectGuard(at_lo, 0, n_x, body=[Assign(pair, pair + Load(x, at_lo))]),
        SelectGuard(at_hi, 0, n_x, body=[Assign(pair, pair + Load(x, at_hi))]),
        Assign(_ACC, _ACC + Load(h, _af("j")) * pair),
    ]
    mid: list[Stmt] = []
    if L % 2 == 1:
        midi, tap = (L - 1) // 2, TempRef("tap")  # loaded whether or not the guard holds
        mid = [Assign(tap, Load(h, AffineExpr.lit(midi))),
               _guarded_mac(x, n_x, tap, _ACC, offset=-midi, j_coeff=0)]
    return _reduce(op, lengths[op.id], L // 2, inner, mid=mid)


def _e_filter_y_symm(op: OpNode, lengths: list[int]) -> list[Stmt]:
    x, n, tap = f"v{op.operands[0]}", lengths[op.operands[0]], TempRef("tap")
    inner: list[Stmt] = [Assign(tap, Load(x, _af("j", -1, n - 1))),  # reversed tap x[N-1-j]
                         _guarded_mac(x, n, tap, _ACC)]
    # palindrome: y[2N-2-i] = y[i], middle stored once
    return _reduce(op, n, n, inner, tail=[SelectGuard(_af("i"), 0, n - 1, body=[
        Store(f"v{op.id}", _af("i", -1, 2 * n - 2), _ACC)])])


def _e_lms(op: OpNode, lengths: list[int]) -> list[Stmt]:
    """LMS adaptation with step mu.  The gain-fused form is exactly
    ``gain(lmsFilter(...), g)``: after the divergence check it scales the
    final weights in place, ``w[j] = g * w[j]``, at the gain's cost."""
    x, d = (f"v{v}" for v in op.operands)
    w = f"v{op.id}"  # weights accumulate in the result buffer
    n, m = lengths[op.operands[0]], int(op.attr("M"))
    y, step = TempRef("y"), TempRef("step")
    at = _af("i").plus(_af("j", -1))
    wj, xj = Load(w, _af("j")), Load(x, at)
    body: list[Stmt] = [
        Assign(y, ConstF(0.0)),
        _loop(op, m, [SelectGuard(at, 0, n, body=[
            Assign(y, y + wj * xj)])], "dot", "j"),
        Assign(step, float(op.attr("mu")) * (Load(d, _af("i")) - y)),
        _loop(op, m, [SelectGuard(at, 0, n, body=[
            Store(w, _af("j"), wj + step * xj)])], "update", "j"),
    ]
    stmts = [_loop(op, n, body, "outer"), CheckFinite(w)]
    if op.opcode is OpCode.LMS_FILTER_GAIN_OPT:
        g = float(op.attr("g"))
        stmts.append(_loop(op, m, [Store(w, _af("j"), g * wj)], "scale", "j"))
    return stmts


def _e_binary(op: OpNode, lengths: list[int]) -> list[Stmt]:
    a, b = (Load(f"v{v}", _af("i") if lengths[v] != 1 else AffineExpr.lit(0))
            for v in op.operands)
    pre: list[Stmt] = []
    if op.opcode is OpCode.DIV:  # the zero check reads the divisor first
        pre, b = [Assign(TempRef("b"), b)], TempRef("b")
    return _map(op, lengths[op.id], Arith(op.opcode.value, a, b), pre=pre)


def _e_square(op: OpNode, lengths: list[int]) -> list[Stmt]:
    x = TempRef("x")
    return _map(op, lengths[op.id], x * x, pre=[Assign(x, _x(op))])


def _e_gain(op: OpNode, lengths: list[int]) -> list[Stmt]:
    return _map(op, lengths[op.id], float(op.attr("g")) * _x(op))


def _e_reverse(op: OpNode, lengths: list[int]) -> list[Stmt]:
    n = lengths[op.id]
    return _map(op, n, _x(op, _af("i", -1, n - 1)))


def _e_sum(op: OpNode, lengths: list[int]) -> list[Stmt]:
    acc = TempRef("acc")
    return [Assign(acc, ConstF(0.0)),
            _loop(op, lengths[op.operands[0]], [Assign(acc, acc + _x(op))]),
            Store(f"v{op.id}", AffineExpr.lit(0), acc)]


# Threshold would map a NaN to 0 and quantize an infinity to a bound, so both
# check their operand first: a non-finite value is an error, not data.
def _e_threshold(op: OpNode, lengths: list[int]) -> list[Stmt]:
    x, t = TempRef("x"), ConstF(float(op.attr("t")))
    return [CheckFinite(f"v{op.operands[0]}"), *_map(
        op, lengths[op.id], Cond("ge", Call("abs", x), t, x, ConstF(0.0)),
        pre=[Assign(x, _x(op))])]


def _e_quantize(op: OpNode, lengths: list[int]) -> list[Stmt]:
    levels = int(op.attr("levels"))
    lo, hi = float(op.attr("min")), float(op.attr("max"))
    step = (hi - lo) / (levels - 1)
    x, clamp = TempRef("x"), TempRef("clamp")  # the lower clamp, read twice by the upper
    clamped = Cond("gt", clamp, ConstF(hi), ConstF(hi), clamp)
    return [CheckFinite(f"v{op.operands[0]}"), *_map(
        op, lengths[op.id], lo + Call("floor", (clamped - lo) / step + 0.5) * step,
        pre=[Assign(x, _x(op)),
             Assign(clamp, Cond("lt", x, ConstF(lo), ConstF(lo), x))])]


def _e_rle(op: OpNode, lengths: list[int]) -> list[Stmt]:
    out = f"v{op.id}"
    value, run, x = TempRef("value"), TempRef("run"), TempRef("x")
    return [
        Assign(value, _x(op, AffineExpr.lit(0))),
        Assign(run, ConstF(1.0)),
        _loop(op, lengths[op.operands[0]], [
            Assign(x, _x(op)),
            IfCmp("eq", x, value,
                  body=[Assign(run, run + 1.0)],
                  orelse=[DynAppend(out, value),
                          DynAppend(out, run),
                          Assign(value, x),
                          Assign(run, ConstF(1.0))]),
        ], lower=1),
        DynAppend(out, value),
        DynAppend(out, run),
    ]


def _e_upsample(op: OpNode, lengths: list[int]) -> list[Stmt]:
    return _map(op, lengths[op.operands[0]], _x(op),
                at=_af("i", int(op.attr("k"))))


def _e_downsample(op: OpNode, lengths: list[int]) -> list[Stmt]:
    return _map(op, lengths[op.id], _x(op, _af("i", int(op.attr("k")))))


def _e_osc(op: OpNode, lengths: list[int], trig: str) -> list[Stmt]:
    c = 2.0 * math.pi * float(op.attr("f")) / float(op.attr("fs"))
    return _map(op, int(op.attr("n")), Call(trig, c * IndexF(_af("i"))))


def _e_range_vec(op: OpNode, lengths: list[int]) -> list[Stmt]:
    start, step = float(op.attr("start")), float(op.attr("step"))
    return _map(op, int(op.attr("n")), start + step * IndexF(_af("i")))


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


@lru_cache(maxsize=UNIT_MEMO_SIZE)
def op_unit(opcode: OpCode, attributes: tuple, spelled: str, operands: tuple[int, ...],
            shapes: tuple[tuple[int, bool], ...]) -> Unit:
    """The unit of every op with this opcode, these attributes (`spelled` is
    their repr, which tells -0.0 from 0.0 and 1 from 1.0 where `==` does not)
    and these operands: `operands` numbers each operand by the first slot that
    reads the same value, and `shapes` holds the (length, dynamic) of each
    distinct operand, then of each result.  Lowers the op's canonical copy,
    whose buffer ``v<j>`` has shape ``shapes[j]``, with the statements its
    emitter returns; the unit's op shape is this key but the float attributes."""
    k = len(shapes) - OP_DEFS[opcode].n_results
    op = OpNode(k, opcode, operands, attributes, tuple(TensorShape(*s) for s in shapes[k:]))
    ints = tuple(v for spec, v in zip(OP_DEFS[opcode].attrs, attributes) if spec.kind != "float")
    return Unit(tuple(BufferDecl(f"v{j}", n, dynamic=d) for j, (n, d) in enumerate(shapes)),
                EMITTERS[opcode](op, [n for n, _ in shapes]), (opcode, ints, operands, shapes))


def lower_graph(graph: DspGraph) -> LoopProgram:
    """Lower every op to loop nests: declare its result buffers, bind an
    input's or fill a constant's, and call any other op's unit (`op_unit`) on
    them; `interp` checks each unit's bounds as it first renders it, and
    fails a unit that loads a dynamic tensor, which in a verified graph only
    a print or a return reads."""
    buffers: list[BufferDecl] = []
    inputs: list[tuple[str, str]] = []
    outputs, returns = [], []  # (value printed or returned, its buffer)
    shapes: dict[int, tuple[int, bool]] = {}  # (length, dynamic) of each value
    calls: list[UnitCall] = []
    free, input_free = set(), set()  # input-free values; the calls that make them
    new = tuple.__new__  # builds a BufferDecl without its NamedTuple __new__ frame
    for op in graph.ops:
        oc = op.opcode
        called = oc in EMITTERS  # all but inputs, constants, prints and returns
        if not called and (oc is OpCode.PRINT or oc is OpCode.RETURN):
            v = op.operands[0]
            (outputs if oc is OpCode.PRINT else returns).append((v, f"v{v}"))
            continue
        init = (tuple(map(float, op.attr("values")))
                if not called and oc is OpCode.CONST_TENSOR else None)
        rid = op.id
        for shape in op.result_shapes:
            if shape is None:
                raise LoweringUnsupported(
                    f"op %{op.id} ({oc.value}) has an unresolved "
                    "shape; bind all inputs before lowering")
            buffers.append(new(BufferDecl, (f"v{rid}", shape.length, init, shape.dynamic)))
            shapes[rid] = shape.length, shape.dynamic
            rid += 1
        if (called or init is not None) and free.issuperset(op.operands):
            free.update(range(op.id, rid))
        if not called:
            if oc is OpCode.INPUT:
                inputs.append((str(op.attr("name")), f"v{op.id}"))
            continue
        values = (*dict.fromkeys(op.operands), *range(op.id, rid))
        unit = op_unit(oc, op.attributes, repr(op.attributes),
                       tuple(map(values.index, op.operands)),
                       tuple(map(shapes.__getitem__, values)))
        if unit.body:
            if op.id in free:
                input_free.add(len(calls))
            calls.append((f"%{op.id} {oc._value_}", unit, tuple([f"v{v}" for v in values])))
    return LoopProgram(buffers, inputs, outputs, returns, calls, frozenset(input_free))

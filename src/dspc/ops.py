"""The DSP opcode set: one ``OpDef`` record per opcode.

An ``OpDef`` holds everything the graph layer knows about an opcode: its
source-language spelling (if any), operand count, attribute schema (names,
types and legal ranges), result count, cross-attribute check and shape rule.
It is the only record of an attribute's name and legal range: an op stores
just its attribute values, in schema order, and ``graph.check_op`` is the one
place that enforces the ranges.  The graph builder, shape inference, the
verifier, the textual round trip and the rewriter all read this one record.
The two other per-opcode facts live in one table each, next to the code they
call: the reference kernel (``kernels.KERNELS``) and the loop-nest emitter
(``lowering.EMITTERS``); both take a verified graph and check no attribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import DspcError


class OpCode(Enum):
    __hash__ = object.__hash__  # members are singletons compared by identity

    INPUT = "input"
    CONST_TENSOR = "const_tensor"
    DELAY = "delay"
    FIR_FILTER_RESPONSE = "fir_filter_response"
    CONV1D_FULL = "conv1d_full"
    SLIDING_WINDOW_AVG = "sliding_window_avg"
    DFT1D_REAL = "dft1d_real"
    DFT1D_IMAG = "dft1d_imag"
    IDFT1D = "idft1d"
    LOW_PASS_FIR_COEFFS = "low_pass_fir_coeffs"
    HAMMING_WINDOW = "hamming_window"
    LMS_FILTER = "lms_filter"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    SQUARE = "square"
    GAIN = "gain"
    REVERSE = "reverse"
    SUM = "sum"
    THRESHOLD = "threshold"
    QUANTIZE = "quantize"
    RUN_LEN_ENCODING = "run_len_encoding"
    UPSAMPLE = "upsample"
    DOWNSAMPLE = "downsample"
    SIN_VEC = "sin_vec"
    COS_VEC = "cos_vec"
    RANGE_VEC = "range_vec"
    PRINT = "print"
    RETURN = "return"
    # Created only by the rewriter, never by the graph builder.
    FILTER_HAMM_OPT = "filter_hamm_opt"
    FILTER_RES_SYMM_OPT = "filter_res_symm_opt"
    FILTER_Y_SYMM_OPT = "filter_y_symm_opt"
    DFT1D_REAL_SYMM = "dft1d_real_symm"
    DFT1D_IMAG_SYMM = "dft1d_imag_symm"
    DFT1D_FUSED = "dft1d_fused"
    LMS_FILTER_GAIN_OPT = "lms_filter_gain_opt"


@dataclass(frozen=True)
class TensorShape:
    """Length of a rank-1 tensor; dynamic shapes bound a run-time length."""

    length: int
    dynamic: bool = False

    def __str__(self) -> str:
        return f"tensor<{self.length}{'?' if self.dynamic else ''}>"


class ShapeMismatch(DspcError):
    def __init__(self, op: "OpNode", detail: str):
        super().__init__(f"%{op.id} {op.opcode.value}: {detail}")
        self.op = op
        self.detail = detail


@dataclass(frozen=True)
class AttrSpec:
    name: str
    kind: str  # "int" | "float" | "float_list" | "str"
    check: Optional[Callable[[object], bool]] = None
    legal: str = ""  # human-readable range, used in verifier messages

    def ok(self, value: object) -> bool:
        return self.check is None or bool(self.check(value))


if TYPE_CHECKING:  # a runtime alias would pin TensorShape in typing's caches
    from .graph import OpNode

    # Result shapes of an op from its static operand shapes; raises ShapeMismatch.
    ShapeRule = Callable[[OpNode, Sequence[TensorShape]], tuple[TensorShape, ...]]


@dataclass(frozen=True)
class OpDef:
    opcode: OpCode
    builtin: Optional[str]  # source-language spelling; None if not callable
    n_operands: int
    attrs: tuple[AttrSpec, ...]
    shape: Optional[ShapeRule]  # None only for inputs, shaped by bindings
    n_results: int = 1
    cross_check: Optional[Callable[[dict], Optional[str]]] = None

    def result_shapes(self, op: "OpNode", ins: Sequence[Optional[TensorShape]]
                      ) -> tuple[Optional[TensorShape], ...]:
        """The shape rule's result shapes; all unknown if an operand shape is
        or an attribute fails its AttrSpec (the verifier reports it)."""
        if None in ins or not all(map(AttrSpec.ok, self.attrs, op.attributes)):
            return (None,) * self.n_results
        return self.shape(op, ins)


# -- attribute schemas ------------------------------------------------------


def _quantize_bounds(attrs: dict) -> Optional[str]:
    if attrs["min"] >= attrs["max"]:
        return f"quantize requires min < max, got min={attrs['min']} max={attrs['max']}"
    return None


def _at_least(name: str, low: int) -> AttrSpec:
    return AttrSpec(name, "int", lambda v: v >= low, f"{name} >= {low}")


def _finite_phase(attrs: dict) -> Optional[str]:
    """sin and cos raise on an infinite phase; the largest is 2*pi*f/fs*(n-1).
    A non-finite f or an fs <= 0 is left to its AttrSpec."""
    n, f, fs = attrs["n"], attrs["f"], attrs["fs"]
    if fs > 0.0 and math.isfinite(f) and not math.isfinite(2.0 * math.pi * f / fs * (n - 1)):
        return f"phase 2*pi*f/fs*(n-1) is not finite for n={n} f={f} fs={fs}"
    return None


_CUTOFF = AttrSpec("wc", "float", lambda v: 0.0 < v < math.pi, "0 < wc < pi")
_MU = AttrSpec("mu", "float", lambda v: v > 0.0, "mu > 0")
_OSC = (_at_least("n", 1), AttrSpec("f", "float"),
        AttrSpec("fs", "float", lambda v: v > 0.0, "fs > 0"))


# -- shape rules ------------------------------------------------------------


def _static(op: "OpNode", shape: TensorShape, what: str = "operand") -> TensorShape:
    if shape.dynamic:
        raise ShapeMismatch(op, f"{what} must have a static shape")
    return shape


def _same(op, ins):
    return (_static(op, ins[0]),)


def _filter(op, ins):
    _static(op, ins[1], "coefficients")
    return (_static(op, ins[0], "signal"),)


def _conv_full(op, ins):
    n = _static(op, ins[0], "signal").length
    return (TensorShape(n + _static(op, ins[1], "kernel").length - 1),)


def _autocorr(op, ins):
    return (TensorShape(2 * _static(op, ins[0], "signal").length - 1),)


def _paired(what_a: str, what_b: str, pair: str) -> ShapeRule:
    """Two static operands of equal length; the result is shaped like them."""
    def rule(op, ins):
        a, b = _static(op, ins[0], what_a), _static(op, ins[1], what_b)
        if a.length != b.length:
            raise ShapeMismatch(op, f"{pair} lengths differ: {a.length} vs {b.length}")
        return (a,)
    return rule


_idft = _paired("real part", "imaginary part", "real/imag")
_lms_operands = _paired("input", "desired signal", "input/desired")


def _lms(op, ins):
    _lms_operands(op, ins)
    return (TensorShape(op.attr("M")),)


def _length_attr(name: str) -> ShapeRule:
    return lambda op, ins: (TensorShape(op.attr(name)),)


def _broadcast(op, ins):
    a, b = ins
    if a.dynamic or b.dynamic:
        raise ShapeMismatch(op, "dynamic tensors cannot feed arithmetic ops")
    if a.length == b.length:
        return (TensorShape(a.length),)
    if a.length == 1:
        return (TensorShape(b.length),)
    if b.length == 1:
        return (TensorShape(a.length),)
    raise ShapeMismatch(op, f"operand lengths {a.length} and {b.length} do not broadcast")


def _sum(op, ins):
    _static(op, ins[0])
    return (TensorShape(1),)


def _rle(op, ins):
    return (TensorShape(2 * _static(op, ins[0]).length, dynamic=True),)


def _upsample(op, ins):
    return (TensorShape(_static(op, ins[0]).length * op.attr("k")),)


def _downsample(op, ins):
    return (TensorShape(math.ceil(_static(op, ins[0]).length / op.attr("k"))),)


def _fused(op, ins):
    s = _static(op, ins[0])
    return (s, s)


_L2 = (_at_least("L", 2),)

OP_DEFS: dict[OpCode, OpDef] = {d.opcode: d for d in (
    OpDef(OpCode.INPUT, None, 0, (AttrSpec("name", "str"),), None),
    OpDef(OpCode.CONST_TENSOR, None, 0,
          (AttrSpec("values", "float_list", lambda v: len(v) >= 1, "at least one element"),),
          lambda op, ins: (TensorShape(len(op.attr("values"))),)),
    OpDef(OpCode.DELAY, "delay", 1, (_at_least("k", 0),), _same),
    OpDef(OpCode.FIR_FILTER_RESPONSE, "firFilterResponse", 2, (), _filter),
    OpDef(OpCode.CONV1D_FULL, "conv1d", 2, (), _conv_full),
    OpDef(OpCode.SLIDING_WINDOW_AVG, "slidingWindowAvg", 1, (_at_least("window", 1),), _same),
    OpDef(OpCode.DFT1D_REAL, "dft1dreal", 1, (), _same),
    OpDef(OpCode.DFT1D_IMAG, "dft1dimg", 1, (), _same),
    OpDef(OpCode.IDFT1D, "idft1d", 2, (), _idft),
    OpDef(OpCode.LOW_PASS_FIR_COEFFS, "lowPassFIRFilter", 0, (_at_least("L", 1), _CUTOFF),
          _length_attr("L")),
    OpDef(OpCode.HAMMING_WINDOW, "hammingWindow", 0, _L2, _length_attr("L")),
    OpDef(OpCode.LMS_FILTER, "lmsFilter", 2, (_MU, _at_least("M", 1)), _lms),
    OpDef(OpCode.ADD, None, 2, (), _broadcast),
    OpDef(OpCode.SUB, None, 2, (), _broadcast),
    OpDef(OpCode.MUL, None, 2, (), _broadcast),
    OpDef(OpCode.DIV, None, 2, (), _broadcast),
    OpDef(OpCode.SQUARE, "square", 1, (), _same),
    OpDef(OpCode.GAIN, "gain", 1, (AttrSpec("g", "float"),), _same),
    OpDef(OpCode.REVERSE, "reverse", 1, (), _same),
    OpDef(OpCode.SUM, "sum", 1, (), _sum),
    OpDef(OpCode.THRESHOLD, "threshold", 1,
          (AttrSpec("t", "float", lambda v: v >= 0.0, "t >= 0"),), _same),
    OpDef(OpCode.QUANTIZE, "quantize", 1,
          (_at_least("levels", 2), AttrSpec("min", "float"), AttrSpec("max", "float")),
          _same, cross_check=_quantize_bounds),
    OpDef(OpCode.RUN_LEN_ENCODING, "runLenEncoding", 1, (), _rle),
    OpDef(OpCode.UPSAMPLE, "upsample", 1, (_at_least("k", 1),), _upsample),
    OpDef(OpCode.DOWNSAMPLE, "downsample", 1, (_at_least("k", 1),), _downsample),
    OpDef(OpCode.SIN_VEC, "sinVec", 0, _OSC, _length_attr("n"), cross_check=_finite_phase),
    OpDef(OpCode.COS_VEC, "cosVec", 0, _OSC, _length_attr("n"), cross_check=_finite_phase),
    OpDef(OpCode.RANGE_VEC, "rangeVec", 0,
          (AttrSpec("start", "float"), AttrSpec("step", "float"), _at_least("n", 1)),
          _length_attr("n")),
    OpDef(OpCode.PRINT, None, 1, (), lambda op, ins: (), n_results=0),
    OpDef(OpCode.RETURN, None, 1, (), lambda op, ins: (), n_results=0),
    OpDef(OpCode.FILTER_HAMM_OPT, None, 0, _L2 + (_CUTOFF,), _length_attr("L")),
    OpDef(OpCode.FILTER_RES_SYMM_OPT, None, 2, (), _filter),
    OpDef(OpCode.FILTER_Y_SYMM_OPT, None, 1, (), _autocorr),
    OpDef(OpCode.DFT1D_REAL_SYMM, None, 1, (), _same),
    OpDef(OpCode.DFT1D_IMAG_SYMM, None, 1, (), _same),
    OpDef(OpCode.DFT1D_FUSED, None, 1, (), _fused, n_results=2),
    OpDef(OpCode.LMS_FILTER_GAIN_OPT, None, 2,
          (_MU, _at_least("M", 1), AttrSpec("g", "float")), _lms),
)}

OPDEF_BY_BUILTIN: dict[str, OpDef] = {d.builtin: d for d in OP_DEFS.values() if d.builtin}
OPCODE_BY_NAME: dict[str, OpCode] = {op.value: op for op in OpCode}

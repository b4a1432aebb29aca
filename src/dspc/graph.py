"""SSA graph of DSP operations.

Ops live in a topologically ordered list; every value is defined exactly once
and referenced only by later ops.  The list is the whole graph: the inputs,
prints and returns are ops too (the last two resultless).  Shapes are static
one-dimensional lengths, except run-length encoding whose result carries a
dynamic logical length bounded by its buffer capacity.  The verifier checks an
op with the checker built from its `OpDef` at import, which formats nothing
for an op without a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Optional

from . import frontend as fe
from .errors import DspcError
from .ops import OP_DEFS, OPDEF_BY_BUILTIN, AttrSpec, OpCode, OpDef, ShapeMismatch, TensorShape

ValueId = int

# Opcodes that per-op loops use, bound once, as reading an enum member is slow.
_INPUT, _PRINT, _RETURN, _CONST = OpCode.INPUT, OpCode.PRINT, OpCode.RETURN, OpCode.CONST_TENSOR


@dataclass(slots=True, unsafe_hash=True)  # set field by field; not changed once in a graph
class OpNode:
    """One operation; ``id`` is the ValueId of its first result.

    Print and return produce no result and use id -1.  Dft1DFused is the
    only opcode with two results; its second result is addressed as ``id + 1``.
    ``attributes`` holds values (int, float, str or a tuple of floats) in the
    order of the opcode's ``OpDef.attrs``, which names them.
    """

    id: ValueId
    opcode: OpCode
    operands: tuple[ValueId, ...] = ()
    attributes: tuple[object, ...] = ()
    result_shapes: tuple[Optional[TensorShape], ...] = ()

    def attr(self, name: str) -> object:
        for spec, value in zip(OP_DEFS[self.opcode].attrs, self.attributes):
            if spec.name == name:
                return value
        raise KeyError(f"{self.opcode.value} has no attribute {name!r}")

    @property
    def n_results(self) -> int:
        return OP_DEFS[self.opcode].n_results

    @property
    def result_ids(self) -> range:
        return range(self.id, self.id + self.n_results)


@dataclass
class DspGraph:
    """The ops of ``main`` in list order; its interface is read off them."""

    ops: list[OpNode] = field(default_factory=list)

    @property
    def inputs(self) -> list[tuple[str, ValueId]]:
        return [(op.attr("name"), op.id) for op in self.ops if op.opcode is _INPUT]

    @property
    def prints(self) -> list[ValueId]:
        return [op.operands[0] for op in self.ops if op.opcode is _PRINT]

    @property
    def returns(self) -> list[ValueId]:
        return [op.operands[0] for op in self.ops if op.opcode is _RETURN]


class GraphBuildError(DspcError):
    def __init__(self, span: Optional[fe.SourceSpan], message: str):
        where = f"{span}: " if span is not None else ""
        super().__init__(f"{where}{message}")
        self.span = span


class UnknownBuiltin(GraphBuildError):
    def __init__(self, span, name: str):
        super().__init__(span, f"unknown builtin {name!r} (user-defined calls are not supported)")


class ArityMismatch(GraphBuildError):
    def __init__(self, span, op: str, expected: int, got: int):
        super().__init__(span, f"{op} expects {expected} argument(s), got {got}")


class UndefinedVariable(GraphBuildError):
    def __init__(self, span, name: str):
        super().__init__(span, f"undefined variable {name!r}")


class BadAttribute(GraphBuildError):
    pass


class VerificationFailed(DspcError):
    """Raised by callers that treat a non-empty violation list as fatal."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))


class _Builder:
    def __init__(self) -> None:
        self.graph = DspGraph()
        self.next_id: ValueId = 0
        self.env: dict[str, ValueId] = {}

    def emit(self, opcode: OpCode, operands: tuple[ValueId, ...] = (),
             attributes: tuple[object, ...] = ()) -> ValueId:
        n_results = OP_DEFS[opcode].n_results
        op_id = self.next_id if n_results > 0 else -1
        self.graph.ops.append(OpNode(op_id, opcode, operands, attributes, (None,) * n_results))
        self.next_id += n_results
        return op_id

    def build(self, module: fe.AstModule) -> DspGraph:
        main = module.main
        for param in main.params:
            self.env[param] = self.emit(_INPUT, (), (param,))
        for stmt in main.body:
            self.statement(stmt)
        return self.graph

    def statement(self, stmt: fe.AstStatement) -> None:
        if isinstance(stmt, fe.VarDecl):
            self.env[stmt.name] = self.expression(stmt.initializer)
        elif isinstance(stmt, fe.PrintStmt):
            self.emit(_PRINT, (self.expression(stmt.expr),))
        elif isinstance(stmt, fe.ReturnStmt):
            if stmt.expr is not None:
                self.emit(_RETURN, (self.expression(stmt.expr),))
        elif isinstance(stmt, fe.ExprStmt):
            self.expression(stmt.expr)
        else:
            raise TypeError(f"not a statement node: {stmt!r}")

    def expression(self, expr: fe.AstExpression) -> ValueId:
        if isinstance(expr, fe.VariableRef):
            if expr.name not in self.env:
                raise UndefinedVariable(expr.span, expr.name)
            return self.env[expr.name]
        if isinstance(expr, fe.Call):
            return self.call(expr)
        if isinstance(expr, fe.NumberLiteral):
            return self.emit(_CONST, (), ((expr.value,),))
        if isinstance(expr, fe.BinaryOp):
            lhs = self.expression(expr.lhs)
            rhs = self.expression(expr.rhs)
            return self.emit(OPDEF_BY_BUILTIN[expr.op].opcode, (lhs, rhs))
        if isinstance(expr, fe.TensorLiteral):
            return self.emit(_CONST, (), (tuple(expr.values),))
        raise TypeError(f"not an expression node: {expr!r}")

    def call(self, expr: fe.Call) -> ValueId:
        sig = OPDEF_BY_BUILTIN.get(expr.callee)
        if sig is None:
            raise UnknownBuiltin(expr.span, expr.callee)
        expected = sig.n_operands + len(sig.attrs)
        if len(expr.args) != expected:
            raise ArityMismatch(expr.span, expr.callee, expected, len(expr.args))
        return self.emit(sig.opcode, tuple(map(self.expression, expr.args[:sig.n_operands])),
                         tuple([self._const_attr(spec, arg, expr.callee) for spec, arg
                                in zip(sig.attrs, expr.args[sig.n_operands:])]))

    def _const_attr(self, spec: AttrSpec, arg: fe.AstExpression, callee: str) -> object:
        what = f"{callee} attribute {spec.name!r}"
        value = arg.value if type(arg) is fe.NumberLiteral else _fold_constant(arg, what)
        if value is None:
            raise BadAttribute(arg.span, f"{what} must be a constant number")
        if spec.kind == "int":
            if not math.isfinite(value) or value != int(value):
                raise BadAttribute(arg.span, f"{what} must be an integer, got {value}")
            return int(value)
        return float(value)


def _fold_constant(expr: fe.AstExpression, what: str) -> Optional[float]:
    """Evaluate an attribute-position expression built from number literals;
    None if it reads anything else.  Raises BadAttribute, naming the attribute
    `what`, at a division by zero."""
    if isinstance(expr, fe.NumberLiteral):
        return expr.value
    if isinstance(expr, fe.BinaryOp):
        lhs = _fold_constant(expr.lhs, what)
        rhs = _fold_constant(expr.rhs, what)
        if lhs is None or rhs is None:
            return None
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if rhs == 0.0:
            raise BadAttribute(expr.span, f"{what} divides by zero")
        return lhs / rhs
    return None


def build_graph(module: fe.AstModule) -> DspGraph:
    """Lower the AST of ``main`` into an SSA op graph (shapes unresolved)."""
    return _Builder().build(module)


# --------------------------------------------------------------------------
# Shape inference


def infer_shapes(graph: DspGraph,
                 input_lengths: Optional[Mapping[str, int]] = None) -> DspGraph:
    """Return a copy of the graph with result shapes resolved.

    Input shapes come from ``input_lengths`` (or stay unknown, leaving every
    dependent shape unknown as well).  Re-running is idempotent; a binding
    that contradicts an already-resolved input raises ShapeMismatch.
    """
    bindings = dict(input_lengths or {})
    shapes: dict[ValueId, Optional[TensorShape]] = {}
    new_ops: list[OpNode] = []

    for op in graph.ops:
        sig = OP_DEFS[op.opcode]
        ins = [shapes.get(v) for v in op.operands]
        if sig.shape is None:  # an input: shaped by its binding
            existing = op.result_shapes[0] if op.result_shapes else None
            bound = bindings.get(op.attr("name"))
            if bound is not None:
                if existing is not None and existing.length != bound:
                    raise ShapeMismatch(op, f"input bound to length {bound} but already "
                                            f"shaped {existing.length}")
                resolved: Optional[TensorShape] = TensorShape(int(bound))
            else:
                resolved = existing
            shaped: tuple[Optional[TensorShape], ...] = (resolved,)
        else:
            shaped = sig.result_shapes(op, ins)
        new_ops.append(OpNode(op.id, op.opcode, op.operands, op.attributes, shaped))
        shapes.update(zip(range(op.id, op.id + sig.n_results), shaped))
    return DspGraph(new_ops)


# --------------------------------------------------------------------------
# Verification


def verify_graph(graph: DspGraph) -> list[str]:
    """Check structural, range and shape invariants; returns violations, never raises.

    One pass in list order, applying its opcode's checker (`_check`) to every
    op.  The front end and the rewriter, on its result, both call it.
    """
    violations: list[str] = []
    shapes: dict[ValueId, Optional[TensorShape]] = {}  # every value defined so far
    for op in graph.ops:
        violations += _CHECKERS[op.opcode](op, shapes)
    return violations


def _check(sig: OpDef, op: OpNode, shapes: dict) -> list[str]:
    """The violations of an op of `sig`, given the shapes of the values defined
    before it, to which the op's results are added.  Its `AttrSpec.problem`
    alone judges an attribute value.  With no other violation and all shapes
    known, the result shapes must be those the shape rule derives from the
    operands'.  Bound to each OpDef at import, in `_CHECKERS`."""
    problems = [f"operand %{v} not defined before use" for v in op.operands if v not in shapes]
    if len(op.operands) != sig.n_operands:
        problems.append(f"expects {sig.n_operands} operand(s), has {len(op.operands)}")
    if len(op.attributes) != len(sig.attrs):
        problems.append(f"has {len(op.attributes)} attribute(s), schema says {len(sig.attrs)}")
    elif op.attributes:
        problems += filter(None, map(AttrSpec.problem, sig.attrs, op.attributes))
    if sig.cross_check:
        try:
            msg = sig.cross_check(*op.attributes)
        except TypeError:  # a wrong count or a mistyped attribute, reported above
            msg = None
        if msg:
            problems.append(msg)
    if len(op.result_shapes) != sig.n_results:
        problems.append(f"has {len(op.result_shapes)} result shape slot(s), "
                        f"schema says {sig.n_results}")
    if not sig.n_results and op.id != -1:
        problems.append("resultless op must use id -1")
    for i, rid in enumerate(range(op.id, op.id + sig.n_results)):
        if rid in shapes:
            problems.append(f"value %{rid} defined more than once")
        shapes[rid] = op.result_shapes[i] if i < len(op.result_shapes) else None
    if problems:
        return [f"%{op.id} {op.opcode.value}: {p}" for p in problems]
    ins = [shapes[v] for v in op.operands]
    if sig.shape is None or not all(op.result_shapes) or not all(ins):  # None: unknown
        return problems
    try:
        expected = sig.derive(op, ins)
    except ShapeMismatch as exc:
        return [str(exc)]
    if tuple(op.result_shapes) != expected:
        return [f"%{op.id} {op.opcode.value}: result shapes {tuple(map(str, op.result_shapes))} "
                f"inconsistent, expected {tuple(map(str, expected))}"]
    return problems


_CHECKERS = {opcode: partial(_check, sig) for opcode, sig in OP_DEFS.items()}


# --------------------------------------------------------------------------
# Textual form


def _format_attr_value(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean attribute")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "[" + ", ".join(_format_list_elem(v) for v in value) + "]"
    raise TypeError(f"unsupported attribute value {value!r}")


def _format_list_elem(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _format_shape(shape: Optional[TensorShape]) -> str:
    if shape is None:
        return "tensor<?>"
    return str(shape)


def graph_to_text(graph: DspGraph) -> str:
    """One op per line: ``%id = opcode(%a, %b) {attr=value} : tensor<shape>``."""
    lines: list[str] = []
    for op in graph.ops:
        args = ", ".join(f"%{v}" for v in op.operands)
        if op.opcode is _PRINT:
            lines.append(f"print({args})")
            continue
        if op.opcode is _RETURN:
            lines.append(f"return {args}")
            continue
        heads = ", ".join(f"%{r}" for r in op.result_ids)
        text = f"{heads} = {op.opcode.value}({args})"
        if op.attributes:
            attrs = ", ".join(f"{spec.name}={_format_attr_value(value)}" for spec, value
                              in zip(OP_DEFS[op.opcode].attrs, op.attributes))
            text += f" {{{attrs}}}"
        shapes = ", ".join(_format_shape(s) for s in op.result_shapes)
        text += f" : {shapes}"
        lines.append(text)
    return "\n".join(lines) + "\n"

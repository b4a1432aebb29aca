"""SSA graph of DSP operations.

Ops live in a topologically ordered list; every value is defined exactly once
and referenced only by later ops.  The list is the whole graph: the inputs,
prints and returns are ops too (the last two resultless).  Shapes are static
one-dimensional lengths, except run-length encoding whose result carries a
dynamic logical length bounded by its buffer capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional

from . import frontend as fe
from .errors import DspcError
from .ops import (OP_DEFS, OPCODE_BY_NAME, OPDEF_BY_BUILTIN, AttrSpec, OpCode,
                  ShapeMismatch, TensorShape)

ValueId = int


@dataclass(frozen=True)
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
        return [(op.attr("name"), op.id) for op in self.ops if op.opcode is OpCode.INPUT]

    @property
    def prints(self) -> list[ValueId]:
        return [op.operands[0] for op in self.ops if op.opcode is OpCode.PRINT]

    @property
    def returns(self) -> list[ValueId]:
        return [op.operands[0] for op in self.ops if op.opcode is OpCode.RETURN]

    def producer_map(self) -> dict[ValueId, OpNode]:
        out: dict[ValueId, OpNode] = {}
        for op in self.ops:
            for rid in op.result_ids:
                out[rid] = op
        return out

    def use_counts(self) -> dict[ValueId, int]:
        counts: dict[ValueId, int] = {}
        for op in self.ops:
            for v in op.operands:
                counts[v] = counts.get(v, 0) + 1
        return counts


class GraphBuildError(DspcError):
    def __init__(self, span: Optional[fe.SourceSpan], message: str):
        where = f"{span}: " if span is not None else ""
        super().__init__(f"{where}{message}")
        self.span = span


class UnknownBuiltin(GraphBuildError):
    def __init__(self, span, name: str):
        super().__init__(span, f"unknown builtin {name!r} (user-defined calls are not supported)")
        self.name = name


class ArityMismatch(GraphBuildError):
    def __init__(self, span, op: str, expected: int, got: int):
        super().__init__(span, f"{op} expects {expected} argument(s), got {got}")
        self.op = op
        self.expected = expected
        self.got = got


class UndefinedVariable(GraphBuildError):
    def __init__(self, span, name: str):
        super().__init__(span, f"undefined variable {name!r}")
        self.name = name


class BadAttribute(GraphBuildError):
    pass


class GraphTextError(DspcError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class VerificationFailed(DspcError):
    """Raised by callers that treat a non-empty violation list as fatal."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


_BINOP_OPCODE = {"+": OpCode.ADD, "-": OpCode.SUB, "*": OpCode.MUL, "/": OpCode.DIV}


class _Builder:
    def __init__(self) -> None:
        self.graph = DspGraph()
        self.next_id: ValueId = 0
        self.env: dict[str, ValueId] = {}

    def emit(self, opcode: OpCode, operands: tuple[ValueId, ...] = (),
             attributes: tuple[object, ...] = ()) -> ValueId:
        n_results = OP_DEFS[opcode].n_results
        op_id = self.next_id if n_results > 0 else -1
        node = OpNode(id=op_id, opcode=opcode, operands=operands, attributes=attributes,
                      result_shapes=(None,) * n_results)
        self.graph.ops.append(node)
        self.next_id += n_results
        return op_id

    def build(self, module: fe.AstModule) -> DspGraph:
        main = module.main
        for param in main.params:
            self.env[param] = self.emit(OpCode.INPUT, attributes=(param,))
        for stmt in main.body:
            self.statement(stmt)
        return self.graph

    def statement(self, stmt: fe.AstStatement) -> None:
        if isinstance(stmt, fe.VarDecl):
            self.env[stmt.name] = self.expression(stmt.initializer)
        elif isinstance(stmt, fe.PrintStmt):
            self.emit(OpCode.PRINT, operands=(self.expression(stmt.expr),))
        elif isinstance(stmt, fe.ReturnStmt):
            if stmt.expr is not None:
                self.emit(OpCode.RETURN, operands=(self.expression(stmt.expr),))
        elif isinstance(stmt, fe.ExprStmt):
            self.expression(stmt.expr)
        else:
            raise TypeError(f"not a statement node: {stmt!r}")

    def expression(self, expr: fe.AstExpression) -> ValueId:
        if isinstance(expr, fe.NumberLiteral):
            return self.emit(OpCode.CONST_TENSOR, attributes=((expr.value,),))
        if isinstance(expr, fe.TensorLiteral):
            return self.emit(OpCode.CONST_TENSOR, attributes=(tuple(expr.values),))
        if isinstance(expr, fe.VariableRef):
            if expr.name not in self.env:
                raise UndefinedVariable(expr.span, expr.name)
            return self.env[expr.name]
        if isinstance(expr, fe.BinaryOp):
            lhs = self.expression(expr.lhs)
            rhs = self.expression(expr.rhs)
            return self.emit(_BINOP_OPCODE[expr.op], operands=(lhs, rhs))
        if isinstance(expr, fe.Call):
            return self.call(expr)
        raise TypeError(f"not an expression node: {expr!r}")

    def call(self, expr: fe.Call) -> ValueId:
        sig = OPDEF_BY_BUILTIN.get(expr.callee)
        if sig is None:
            raise UnknownBuiltin(expr.span, expr.callee)
        expected = sig.n_operands + len(sig.attrs)
        if len(expr.args) != expected:
            raise ArityMismatch(expr.span, expr.callee, expected, len(expr.args))
        operands = tuple(self.expression(a) for a in expr.args[:sig.n_operands])
        attributes = tuple(self._const_attr(spec, arg, expr.callee)
                           for spec, arg in zip(sig.attrs, expr.args[sig.n_operands:]))
        return self.emit(sig.opcode, operands=operands, attributes=attributes)

    def _const_attr(self, spec: AttrSpec, arg: fe.AstExpression, callee: str) -> object:
        value = _fold_constant(arg)
        if value is None:
            raise BadAttribute(arg.span,
                               f"{callee} attribute {spec.name!r} must be a constant number")
        if spec.kind == "int":
            if not math.isfinite(value) or value != int(value):
                raise BadAttribute(arg.span,
                                   f"{callee} attribute {spec.name!r} must be an integer, "
                                   f"got {value}")
            return int(value)
        return float(value)


def _fold_constant(expr: fe.AstExpression) -> Optional[float]:
    """Evaluate an attribute-position expression built from number literals."""
    if isinstance(expr, fe.NumberLiteral):
        return expr.value
    if isinstance(expr, fe.BinaryOp):
        lhs = _fold_constant(expr.lhs)
        rhs = _fold_constant(expr.rhs)
        if lhs is None or rhs is None:
            return None
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if rhs == 0.0:
            return None
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
        new_op = replace(op, result_shapes=shaped)
        new_ops.append(new_op)
        for rid, s in zip(new_op.result_ids, shaped):
            shapes[rid] = s
    return DspGraph(new_ops)


# --------------------------------------------------------------------------
# Verification


def verify_graph(graph: DspGraph) -> list[str]:
    """Check structural, range and shape invariants; returns violations, never raises.

    One pass in list order, applying `check_op` to every op.
    """
    violations: list[str] = []
    shapes: dict[ValueId, Optional[TensorShape]] = {}  # every value defined so far
    for op in graph.ops:
        violations += check_op(op, shapes)
    return violations


def check_op(op: OpNode, shapes: dict[ValueId, Optional[TensorShape]]) -> list[str]:
    """The violations of one op, given the shapes of the values defined before
    it; the op's results are then added to `shapes`.

    Where the op has no other violation and all its operand and result shapes
    are known, its result shapes must equal what its OpDef shape rule derives
    from the operand shapes.
    """
    sig = OP_DEFS.get(op.opcode)
    label = f"%{op.id} {op.opcode.value}"
    if sig is None:
        return [f"{label}: unknown opcode"]
    violations: list[str] = []
    for v in op.operands:
        if v not in shapes:
            violations.append(f"{label}: operand %{v} not defined before use")
    if len(op.operands) != sig.n_operands:
        violations.append(f"{label}: expects {sig.n_operands} operand(s), "
                          f"has {len(op.operands)}")
    if len(op.attributes) != len(sig.attrs):
        violations.append(f"{label}: has {len(op.attributes)} attribute(s), "
                          f"schema says {len(sig.attrs)}")
    else:
        for spec, value in zip(sig.attrs, op.attributes):
            if not _attr_type_ok(spec, value):
                violations.append(f"{label}: attribute {spec.name!r} has wrong type")
            elif not _attr_finite(spec, value):
                violations.append(f"{label}: attribute {spec.name}={value!r} "
                                  "is not finite")
            elif not spec.ok(value):
                violations.append(f"{label}: attribute {spec.name}={value!r} "
                                  f"violates {spec.legal}")
        if sig.cross_check is not None:
            msg = sig.cross_check({s.name: v for s, v in zip(sig.attrs, op.attributes)})
            if msg:
                violations.append(f"{label}: {msg}")
    if len(op.result_shapes) != sig.n_results:
        violations.append(f"{label}: has {len(op.result_shapes)} result shape slot(s), "
                          f"schema says {sig.n_results}")
    if sig.n_results == 0 and op.id != -1:
        violations.append(f"{label}: resultless op must use id -1")
    ins = [shapes.get(v) for v in op.operands]
    for i, rid in enumerate(op.result_ids):
        if sig.n_results and rid in shapes:
            violations.append(f"{label}: value %{rid} defined more than once")
        shapes[rid] = op.result_shapes[i] if i < len(op.result_shapes) else None
    if not violations and sig.shape is not None \
            and None not in ins and None not in op.result_shapes:
        try:
            expected = sig.shape(op, ins)
        except ShapeMismatch as exc:
            return [str(exc)]
        if tuple(op.result_shapes) != expected:
            violations.append(f"{label}: result shapes "
                              f"{tuple(map(str, op.result_shapes))} "
                              f"inconsistent, expected {tuple(map(str, expected))}")
    return violations


def _attr_type_ok(spec: AttrSpec, value: object) -> bool:
    if spec.kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if spec.kind == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if spec.kind == "float_list":
        return isinstance(value, tuple) and all(isinstance(v, (int, float)) for v in value)
    if spec.kind == "str":
        return isinstance(value, str)
    return False


def _attr_finite(spec: AttrSpec, value) -> bool:
    if spec.kind == "float":
        return math.isfinite(value)
    if spec.kind == "float_list":
        return all(map(math.isfinite, value))
    return True


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
        if op.opcode is OpCode.PRINT:
            lines.append(f"print({args})")
            continue
        if op.opcode is OpCode.RETURN:
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


class _LineScanner:
    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def error(self, message: str) -> GraphTextError:
        return GraphTextError(self.line_no, self.pos + 1, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an identifier")
        return self.text[start:self.pos]

    def value_id(self) -> ValueId:
        self.expect("%")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a value id")
        return int(self.text[start:self.pos])

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and (self.text[self.pos].isdecimal()
                                             or self.text[self.pos] in ".eE+-"):
            if self.text[self.pos] in "+-" and self.text[self.pos - 1] not in "eE":
                break
            self.pos += 1
        token = self.text[start:self.pos]
        try:
            return float(token)
        except ValueError:
            raise self.error(f"bad number {token!r}") from None

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_attr_value(scanner: _LineScanner, spec: AttrSpec) -> object:
    if spec.kind == "int":
        v = scanner.number()
        if v != int(v):
            raise scanner.error(f"attribute {spec.name!r} must be an integer")
        return int(v)
    if spec.kind == "float":
        return float(scanner.number())
    if spec.kind == "float_list":
        scanner.expect("[")
        values = [scanner.number()]
        while scanner.take(","):
            values.append(scanner.number())
        scanner.expect("]")
        return tuple(float(v) for v in values)
    if spec.kind == "str":
        return scanner.ident()
    raise AssertionError(spec.kind)


def _parse_shape(scanner: _LineScanner) -> Optional[TensorShape]:
    scanner.expect("tensor<")
    if scanner.take("?>"):
        return None
    start = scanner.pos
    while scanner.pos < len(scanner.text) and scanner.text[scanner.pos].isdecimal():
        scanner.pos += 1
    if scanner.pos == start:
        raise scanner.error("expected a tensor length")
    length = int(scanner.text[start:scanner.pos])
    dynamic = scanner.take("?")
    scanner.expect(">")
    return TensorShape(length, dynamic=dynamic)


def parse_graph_text(text: str) -> DspGraph:
    """Parse the output of graph_to_text back into a DspGraph."""
    graph = DspGraph()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        sc = _LineScanner(line, line_no)
        if sc.take("print("):
            vid = sc.value_id()
            sc.expect(")")
            graph.ops.append(OpNode(id=-1, opcode=OpCode.PRINT, operands=(vid,)))
            continue
        if sc.take("return"):
            graph.ops.append(OpNode(id=-1, opcode=OpCode.RETURN, operands=(sc.value_id(),)))
            continue
        first = sc.value_id()
        ids = [first]
        while sc.take(","):
            ids.append(sc.value_id())
        sc.expect("=")
        name = sc.ident()
        opcode = OPCODE_BY_NAME.get(name)
        if opcode is None or not OP_DEFS[opcode].n_results:
            raise sc.error(f"unknown opcode {name!r}")
        sig = OP_DEFS[opcode]
        if len(ids) != sig.n_results:
            raise sc.error(f"{name} defines {sig.n_results} result(s), line has {len(ids)}")
        if ids != [first + i for i in range(len(ids))]:
            raise sc.error("multi-result ids must be consecutive")
        sc.expect("(")
        operands: list[ValueId] = []
        if not sc.take(")"):
            operands.append(sc.value_id())
            while sc.take(","):
                operands.append(sc.value_id())
            sc.expect(")")
        raw_attrs: dict[str, object] = {}
        if sc.take("{"):
            while True:
                attr_name = sc.ident()
                sc.expect("=")
                spec = next((s for s in sig.attrs if s.name == attr_name), None)
                if spec is None:
                    raise sc.error(f"{name} has no attribute {attr_name!r}")
                raw_attrs[attr_name] = _parse_attr_value(sc, spec)
                if sc.take("}"):
                    break
                sc.expect(",")
        missing = [s.name for s in sig.attrs if s.name not in raw_attrs]
        if missing:
            raise sc.error(f"{name} missing attribute(s) {missing}")
        shapes: list[Optional[TensorShape]] = []
        if sc.take(":"):
            shapes.append(_parse_shape(sc))
            while sc.take(","):
                shapes.append(_parse_shape(sc))
        else:
            shapes = [None] * sig.n_results
        if len(shapes) != sig.n_results:
            raise sc.error(f"{name} needs {sig.n_results} shape(s), line has {len(shapes)}")
        if not sc.at_end():
            raise sc.error("trailing text after op")
        attributes = tuple(raw_attrs[s.name] for s in sig.attrs)
        graph.ops.append(OpNode(id=first, opcode=opcode, operands=tuple(operands),
                                attributes=attributes, result_shapes=tuple(shapes)))
    return graph


# --------------------------------------------------------------------------
# Shared helpers used by the rewriter and lowering


def renumber(graph: DspGraph) -> DspGraph:
    """Assign dense ValueIds in list order, keeping multi-result ids adjacent."""
    mapping: dict[ValueId, ValueId] = {}
    next_id = 0
    staged: list[tuple[OpNode, ValueId]] = []
    for op in graph.ops:
        if op.n_results == 0:
            staged.append((op, -1))
            continue
        staged.append((op, next_id))
        for i, rid in enumerate(op.result_ids):
            mapping[rid] = next_id + i
        next_id += op.n_results
    return DspGraph([replace(op, id=new_id, operands=tuple(mapping[v] for v in op.operands))
                     for op, new_id in staged])


def dead_ops(producer: Mapping[ValueId, OpNode], uses: dict[ValueId, int],
             values: Iterable[ValueId]) -> dict[int, OpNode]:
    """The ops left dead once `values` may have lost their last use, by `id()`.

    An op other than an input dies when none of its results is used; its
    operands then lose a use in `uses` (updated in place) and the check
    cascades to their producers.  Prints and returns have no result and
    never die, and their operands are counted uses like any other.  With
    every value as a candidate this prunes all that prints and returns do
    not reach.
    """
    dead: dict[int, OpNode] = {}
    work = list(values)
    while work:
        op = producer.get(work.pop())
        if op is None or id(op) in dead or op.opcode is OpCode.INPUT \
                or any(uses.get(r, 0) for r in op.result_ids):
            continue
        dead[id(op)] = op
        for v in op.operands:
            uses[v] -= 1
        work += op.operands
    return dead


def eliminate_dead_ops(graph: DspGraph) -> DspGraph:
    """Drop ops whose results are unused; prints, returns, and inputs stay."""
    producer = graph.producer_map()
    dead = dead_ops(producer, graph.use_counts(), producer)
    return renumber(DspGraph([op for op in graph.ops if id(op) not in dead]))

"""The verifier's op check as one generic walk of an op's schema, the
reference that the checkers `graph` builds from each schema are held to."""

from typing import Optional

from dspc.graph import DspGraph, OpNode, ValueId
from dspc.ops import OP_DEFS, AttrSpec, ShapeMismatch, TensorShape


def verify_graph(graph: DspGraph) -> list[str]:
    violations: list[str] = []
    shapes: dict[ValueId, Optional[TensorShape]] = {}  # every value defined so far
    for op in graph.ops:
        violations += check_op(op, shapes)
    return violations


def check_op(op: OpNode, shapes: dict[ValueId, Optional[TensorShape]]) -> list[str]:
    sig = OP_DEFS.get(op.opcode)
    label = f"%{op.id} {op.opcode.value}: "
    if sig is None:
        return [f"{label}unknown opcode"]
    problems: list[str] = []
    for v in op.operands:
        if v not in shapes:
            problems.append(f"operand %{v} not defined before use")
    if len(op.operands) != sig.n_operands:
        problems.append(f"expects {sig.n_operands} operand(s), has {len(op.operands)}")
    if len(op.attributes) != len(sig.attrs):
        problems.append(f"has {len(op.attributes)} attribute(s), schema says {len(sig.attrs)}")
    else:
        problems += filter(None, map(AttrSpec.problem, sig.attrs, op.attributes))
        if sig.cross_check is not None:
            try:
                msg = sig.cross_check(*op.attributes)
            except TypeError:  # a mistyped attribute, reported above
                msg = None
            if msg:
                problems.append(msg)
    if len(op.result_shapes) != sig.n_results:
        problems.append(f"has {len(op.result_shapes)} result shape slot(s), "
                        f"schema says {sig.n_results}")
    if sig.n_results == 0 and op.id != -1:
        problems.append("resultless op must use id -1")
    ins = [shapes.get(v) for v in op.operands]
    for i, rid in enumerate(op.result_ids):
        if sig.n_results and rid in shapes:
            problems.append(f"value %{rid} defined more than once")
        shapes[rid] = op.result_shapes[i] if i < len(op.result_shapes) else None
    if not problems and sig.shape is not None \
            and None not in ins and None not in op.result_shapes:
        try:
            expected = sig.derive(op, ins)
        except ShapeMismatch as exc:
            return [str(exc)]
        if tuple(op.result_shapes) != expected:
            problems.append(f"result shapes {tuple(map(str, op.result_shapes))} "
                            f"inconsistent, expected {tuple(map(str, expected))}")
    return [label + p for p in problems] if problems else problems

"""A second statement of the cost model: loop programs run as emitted.

`evaluate(program, inputs)` runs each call's unit as lowering emitted it: no
index-set splitting, folding, streams, straight-line code or twiddle tables,
every guard tested and every trig call made.  It counts each metered
operation as it runs it, under the cost model of `dspc.interp`: a load per
buffer read, keyed by the program buffer; a store per Store or DynAppend; a
multiply per `*` or `/`; an add per `+` or `-`; a trig call per sin or cos; a
trig call and a multiply per sinc_eval; a trig call and `mults` multiplies per
twiddle (`Trig`), which it computes as ``fn(c * (row*col))``; an iteration per
loop trip, keyed by tag.  abs, floor, comparisons and index arithmetic are
free.  It raises the error types the generated code raises, so its outputs,
counters and errors must equal `evaluate_loop_ir`'s on every run of a program.

`python tests/loop_eval.py` holds the 14 corpus routes at default sizes to
`evaluate_loop_ir` on their first three runs, as a CI step does.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import Counter

from dspc.interp import (MAX_ELEMENTS, BufferTooLarge, CapacityExceeded, ExecCounters,
                         InputMismatch, LoopDivisionByZero, NonFinite, Tensor, TABLES,
                         evaluate_loop_ir)
from dspc.loop_ir import (Arith, Assign, CheckFinite, Cond, ConstF, DynAppend, For, IfCmp,
                          IndexF, Load, OutOfBounds, SelectGuard, Store, TempRef, Trig)

ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}
COST = {"add": "adds", "sub": "adds", "mul": "mults", "div": "mults"}
TRIG = {"sin": math.sin, "cos": math.cos}
CMP = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt, "le": operator.le,
       "gt": operator.gt, "ge": operator.ge}


def evaluate(program, inputs: dict[str, Tensor]) -> tuple[dict[int, Tensor], ExecCounters]:
    """Printed and returned tensors and counters (wall time 0) of one run."""
    if sum(b.capacity for b in program.buffers) > MAX_ELEMENTS:
        raise BufferTooLarge("too many elements")
    bufs = {b.name: list(b.init) if b.init is not None else [] if b.dynamic
            else [0.0] * b.capacity for b in program.buffers}
    for name, buf in program.inputs:
        if name not in inputs or len(inputs[name]) != len(bufs[buf]):
            raise InputMismatch(name)
        bufs[buf] = list(inputs[name].values)
    count, tags, loads = Counter(), Counter(), Counter()
    for _, unit, names in program.calls:
        bound = {b.name: (bufs[n], n, b) for b, n in zip(unit.buffers, names)}
        _Call(bound, count, tags, loads).block(unit.body)
    return ({vid: Tensor(tuple(bufs[b])) for vid, b in program.outputs + program.returns},
            ExecCounters(sum(tags.values()), sum(loads.values()), count["stores"], count["mults"],
                         count["adds"], count["trig_calls"], 0, dict(tags), dict(loads)))


class _Call:
    """One call of a unit: its buffers (list, program name, declaration) and temporaries."""

    def __init__(self, bufs: dict, count: Counter, tags: Counter, loads: Counter):
        self.bufs, self.count, self.tags, self.loads = bufs, count, tags, loads
        self.temps, self.index = {}, {}

    def at(self, expr) -> int:
        return expr.const + sum(c * self.index[n] for n, c in expr.terms)

    def slot(self, buffer: str, expr) -> tuple[list, int]:
        buf, _, decl = self.bufs[buffer]
        k = self.at(expr)
        if decl.dynamic or not 0 <= k < decl.capacity:
            raise OutOfBounds(buffer, f"index {k} outside [0, {decl.capacity})")
        return buf, k

    def ev(self, e):
        kind = type(e)
        if kind is TempRef:
            return self.temps[e.name]
        if kind is ConstF:
            return e.value
        if kind is Load:
            buf, k = self.slot(e.buffer, e.index)
            self.loads[self.bufs[e.buffer][1]] += 1
            return buf[k]
        if kind is Arith:
            lhs, rhs = self.ev(e.lhs), self.ev(e.rhs)
            self.count[COST[e.op]] += 1
            if e.op == "div" and type(e.rhs) is not ConstF and rhs == 0.0:
                raise LoopDivisionByZero("division by zero")
            return ARITH[e.op](lhs, rhs)
        if kind is IndexF:
            return self.at(e.expr)
        if kind is Trig:
            self.count.update(trig_calls=1, mults=e.mults)
            return TRIG[e.fn](e.c.value * (self.index[e.row] * self.index[e.col]))
        if kind is Cond:
            taken = CMP[e.cmp](self.ev(e.lhs), self.ev(e.rhs))
            return self.ev(e.if_true if taken else e.if_false)
        a = self.ev(e.arg)  # a Call
        if e.fn in ("sin", "cos", "sinc_eval"):
            self.count["trig_calls"] += 1
        if e.fn == "sinc_eval":
            self.count["mults"] += 1
            return math.sin(a) / a if a != 0.0 else 1.0
        return {**TRIG, "abs": abs, "floor": math.floor}[e.fn](a)

    def block(self, stmts) -> None:
        for s in stmts:
            kind = type(s)
            if kind is Assign:
                self.temps[s.target.name] = self.ev(s.value)
            elif kind is Store:
                buf, k = self.slot(s.buffer, s.index)
                buf[k] = self.ev(s.source)
                self.count["stores"] += 1
            elif kind is For:
                for i in range(s.lower, s.upper):
                    self.index[s.index] = i
                    self.tags[s.tag] += 1
                    self.block(s.body)
            elif kind is SelectGuard:
                self.block(s.body if s.lower <= self.at(s.expr) < s.upper else s.orelse)
            elif kind is IfCmp:
                self.block(s.body if CMP[s.cmp](self.ev(s.lhs), self.ev(s.rhs)) else s.orelse)
            elif kind is DynAppend:
                buf, _, decl = self.bufs[s.buffer]
                if len(buf) >= decl.capacity:
                    raise CapacityExceeded(s.buffer)
                buf.append(self.ev(s.value))
                self.count["stores"] += 1
            elif kind is CheckFinite:
                if not all(map(math.isfinite, self.bufs[s.buffer][0])):
                    raise NonFinite(s.buffer)


def outcome(run) -> tuple:
    """What a run shows: outputs by `float.hex` and counters but wall time, or its error type."""
    try:
        outputs, c = run()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return (type(exc),)
    return ({vid: [float(v).hex() for v in t.values] for vid, t in outputs.items()},
            {**c.as_dict(), "wall_time_ns": 0})


def differences(program, inputs, runs: int = 3) -> list[str]:
    """How `evaluate_loop_ir`'s first `runs` runs of `program`, from no twiddle
    tables (the first builds them, the others read them), differ from `evaluate`."""
    TABLES.clear()
    want = outcome(lambda: evaluate(program, inputs))
    return [f"run {r + 1}: {got} != {want}" for r in range(runs)
            if (got := outcome(lambda: evaluate_loop_ir(program, inputs))) != want]


def main() -> int:
    from dspc import corpus
    from dspc.lowering import lower_graph
    from dspc.rewriter import apply_dsp_patterns
    bad = 0
    for app in corpus.APPS:
        sizes = app.default_sizes()
        g = corpus.compile_source(app.source(sizes), app.input_lengths(sizes))
        for route, graph in (("none", g), ("dsp", apply_dsp_patterns(g)[0])):
            diffs = differences(lower_graph(graph), app.synth_inputs(sizes, 0))
            print(f"{app.name}/{route}: {'; '.join(diffs)[:300] or 'equal'}")
            bad += bool(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Instrumented execution of loop programs.

A program is bounds-checked (`validate_program`) and translated into a plain
Python function once, at its first compile; the function is cached on the
program object and exec'd.  The generated source (`compiled_source`) is the
program's text form: it opens with one comment line per buffer (capacity,
`dyn`, bound input, up to 8 initial values) and per printed or returned
value, and each loop's tag is a comment on its `for` line.  Operation
counters follow the cost model the backend was lowered against: loads/stores
per buffer access, multiplies (including divides), adds (including
subtracts), trig calls, and loop iterations split by tag.  Loop bounds are
static ints, so the cost of one run of any block is known at codegen time.
The generated code counts only how often each branch body (a boundary guard
or a data-dependent comparison) ran, with one `+=` per run; the totals are
the static cost plus each branch body's runs times its cost.  The generated
function takes the buffers as a list in declaration order.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DspcError
from .kernels import Tensor
from .loop_ir import (BinaryArith, CheckFinite, ConstF, DynAppend, For, IfCmp,
                      IndexF, IndexProdF, IntrinsicCall, Load, LoopProgram,
                      Operand, Select, SelectGuard, SetTemp, Stmt, Store,
                      TempRef, validate_program)


class LoopRuntimeError(DspcError):
    """Base for failures raised while a loop program is executing."""


class LoopDivisionByZero(LoopRuntimeError):
    pass


class NonFinite(LoopRuntimeError):
    pass


class CapacityExceeded(LoopRuntimeError):
    pass


class InputMismatch(LoopRuntimeError):
    pass


@dataclass
class ExecCounters:
    loop_iterations: int = 0
    loads: int = 0
    stores: int = 0
    mults: int = 0  # multiplies and divides
    adds: int = 0  # adds and subtracts
    trig_calls: int = 0
    wall_time_ns: int = 0
    loop_iters_by_tag: dict[str, int] = field(default_factory=dict)
    loads_by_buffer: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "loop_iterations": self.loop_iterations,
            "loads": self.loads,
            "stores": self.stores,
            "mults": self.mults,
            "adds": self.adds,
            "trig_calls": self.trig_calls,
            "wall_time_ns": self.wall_time_ns,
            "loop_iters_by_tag": dict(sorted(self.loop_iters_by_tag.items())),
            "loads_by_buffer": dict(sorted(self.loads_by_buffer.items())),
        }


# Python spelling of BinaryArith ops and of comparisons.
ARITH_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
CMP_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_COST_OF_ARITH = {"add": "adds", "sub": "adds", "mul": "mults",
                  "div": "mults"}


class _Compiler:
    """Translates a loop program into one Python function, `_run`.

    A block's cost per run is static: a Counter keyed by the `ExecCounters`
    fields `stores`, `mults`, `adds` and `trig_calls`, plus ("tag", t) per
    iteration of a loop tagged t and ("load", b) per load from buffer b.  A
    loop adds its body's cost and one count of its tag, times its trip count.
    A branch body or else arm runs a data-dependent number of times, so it is
    not part of its enclosing block's cost: if its own cost is non-zero it
    gets a run counter `b_<k>`, bumped once at its end, and its cost is kept
    in `branch_costs[k]`.  `_run(_bufs, _cursors)` unpacks the buffer list
    in one statement, zeroes the run counters and append cursors in one
    chained assignment, stores each dynamic buffer's final cursor in
    `_cursors` and returns the run counters.  The comment lines before it
    declare the buffers and the printed and returned values.
    """

    def __init__(self, program: LoopProgram):
        self.program = program
        self.branch_costs: list[Counter] = []

    def _operand(self, v: Operand) -> str:
        if isinstance(v, TempRef):
            return v.name
        if isinstance(v, ConstF):  # a folded constant may have overflowed
            return repr(v.value) if math.isfinite(v.value) else f"float('{v.value}')"
        if isinstance(v, IndexF):
            return f"({v.expr.source()})"
        if isinstance(v, IndexProdF):
            return f"({v.a}*{v.b})"
        raise TypeError(f"not an operand: {v!r}")

    def _block(self, stmts: list[Stmt], depth: int,
               loop_stack: list[str]) -> tuple[list[str], Counter]:
        pad = "    " * depth
        lines: list[str] = []
        cost: Counter = Counter()
        for stmt in stmts:
            if isinstance(stmt, Load):
                lines.append(f"{pad}{stmt.target} = "
                             f"{stmt.buffer}[{stmt.index.source()}]")
                cost["load", stmt.buffer] += 1
            elif isinstance(stmt, Store):
                lines.append(f"{pad}{stmt.buffer}[{stmt.index.source()}] = "
                             f"{self._operand(stmt.source)}")
                cost["stores"] += 1
            elif isinstance(stmt, BinaryArith):
                lhs, rhs = self._operand(stmt.lhs), self._operand(stmt.rhs)
                if stmt.op == "div" and not isinstance(stmt.rhs, ConstF):
                    at = (f" at element {{{loop_stack[-1]}}}"
                          if loop_stack else "")
                    lines.append(f"{pad}if {rhs} == 0.0:")
                    lines.append(f"{pad}    raise _DivZero("
                                 f"f'division by zero{at}')")
                lines.append(f"{pad}{stmt.target} = {lhs} "
                             f"{ARITH_SYMBOLS[stmt.op]} {rhs}")
                cost[_COST_OF_ARITH[stmt.op]] += 1
            elif isinstance(stmt, IntrinsicCall):
                a = self._operand(stmt.arg)
                if stmt.fn in ("sin", "cos"):
                    lines.append(f"{pad}{stmt.target} = _{stmt.fn}({a})")
                    cost["trig_calls"] += 1
                elif stmt.fn == "sinc_eval":
                    lines.append(f"{pad}{stmt.target} = "
                                 f"_sin({a}) / {a} if {a} != 0.0 else 1.0")
                    cost.update(trig_calls=1, mults=1)
                elif stmt.fn == "abs":
                    lines.append(f"{pad}{stmt.target} = abs({a})")
                elif stmt.fn == "floor":
                    lines.append(f"{pad}{stmt.target} = _floor({a})")
                else:
                    raise LoopRuntimeError(f"unknown intrinsic {stmt.fn}")
            elif isinstance(stmt, SetTemp):
                lines.append(f"{pad}{stmt.target} = "
                             f"{self._operand(stmt.source)}")
            elif isinstance(stmt, Select):
                lines.append(
                    f"{pad}{stmt.target} = {self._operand(stmt.if_true)} "
                    f"if {self._operand(stmt.lhs)} {CMP_SYMBOLS[stmt.cmp]} "
                    f"{self._operand(stmt.rhs)} "
                    f"else {self._operand(stmt.if_false)}")
            elif isinstance(stmt, (SelectGuard, IfCmp)):
                if isinstance(stmt, SelectGuard):
                    lines.append(f"{pad}if {stmt.lower} <= "
                                 f"{stmt.expr.source()} < {stmt.upper}:")
                else:
                    lines.append(f"{pad}if {self._operand(stmt.lhs)} "
                                 f"{CMP_SYMBOLS[stmt.cmp]} "
                                 f"{self._operand(stmt.rhs)}:")
                lines.extend(self._branch(stmt.body, depth + 1, loop_stack))
                if stmt.orelse:
                    lines.append(f"{pad}else:")
                    lines.extend(self._branch(stmt.orelse, depth + 1,
                                              loop_stack))
            elif isinstance(stmt, DynAppend):
                cap = self.program.buffer(stmt.buffer).capacity
                cur = f"n_{stmt.buffer}"
                lines.append(f"{pad}if {cur} >= {cap}:")
                lines.append(f"{pad}    raise _Capacity("
                             f"'buffer {stmt.buffer} exceeded capacity {cap}')")
                lines.append(f"{pad}{stmt.buffer}[{cur}] = "
                             f"{self._operand(stmt.value)}")
                lines.append(f"{pad}{cur} += 1")
                cost["stores"] += 1
            elif isinstance(stmt, CheckFinite):
                lines.append(f"{pad}for _v in {stmt.buffer}:")
                lines.append(f"{pad}    if not _isfinite(_v):")
                lines.append(f"{pad}        raise _NonFinite("
                             f"'non-finite value in {stmt.buffer}')")
            elif isinstance(stmt, For):
                body_lines, body_cost = self._block(
                    stmt.body, depth + 1, loop_stack + [stmt.index])
                body_cost["tag", stmt.tag] += 1
                trip = max(0, stmt.upper - stmt.lower)
                cost.update({k: v * trip for k, v in body_cost.items()})
                lines.append(f"{pad}for {stmt.index} in range({stmt.lower}, "
                             f"{stmt.upper}):  # {stmt.tag}")
                lines.extend(body_lines or [f"{pad}    pass"])
            else:
                raise LoopRuntimeError(f"unknown statement {stmt!r}")
        return lines, cost

    def _branch(self, stmts: list[Stmt], depth: int,
                loop_stack: list[str]) -> list[str]:
        lines, cost = self._block(stmts, depth, loop_stack)
        if any(cost.values()):
            lines.append(f"{'    ' * depth}b_{len(self.branch_costs)} += 1")
            self.branch_costs.append(cost)
        return lines or [f"{'    ' * depth}pass"]

    def _header(self) -> list[str]:
        program = self.program
        bound = {buf: name for name, buf in program.inputs}
        lines = []
        for b in program.buffers:
            decl = f"# buffer {b.name}[{b.capacity}]"
            if b.dynamic:
                decl += " dyn"
            if b.name in bound:
                decl += f" input {bound[b.name]}"
            if b.init is not None:
                preview = ", ".join(repr(v) for v in b.init[:8])
                decl += f" = [{preview}{', ...' if len(b.init) > 8 else ''}]"
            lines.append(decl)
        lines += [f"# print %{vid} ({buf})" for vid, buf in program.outputs]
        lines += [f"# return %{vid} ({buf})" for vid, buf in program.returns]
        return lines

    def build(self) -> tuple[Callable, Counter, list[Counter]]:
        body, static_cost = self._block(self.program.body, 1, [])
        runs = [f"b_{k}" for k in range(len(self.branch_costs))]
        dyn = [b.name for b in self.program.buffers if b.dynamic]
        zeroed = runs + [f"n_{name}" for name in dyn]
        lines = self._header() + ["def _run(_bufs, _cursors):"]
        if self.program.buffers:
            names = ", ".join(b.name for b in self.program.buffers)
            lines.append(f"    {names}, = _bufs")
        if zeroed:
            lines.append(f"    {' = '.join(zeroed)} = 0")
        lines += body
        lines += [f"    _cursors[{name!r}] = n_{name}" for name in dyn]
        lines.append(f"    return [{', '.join(runs)}]")
        src = "\n".join(lines)
        ns = {
            "_sin": math.sin,
            "_cos": math.cos,
            "_floor": math.floor,
            "_isfinite": math.isfinite,
            "_DivZero": LoopDivisionByZero,
            "_NonFinite": NonFinite,
            "_Capacity": CapacityExceeded,
        }
        exec(compile(src, "<loop-program>", "exec"), ns)
        fn = ns["_run"]
        fn._source = src
        return fn, static_cost, self.branch_costs


def _ensure_compiled(program: LoopProgram
                     ) -> tuple[Callable, Counter, list[Counter]]:
    compiled = getattr(program, "_compiled", None)
    if compiled is None:
        validate_program(program)
        compiled = program._compiled = _Compiler(program).build()
    return compiled


def compiled_source(program: LoopProgram) -> str:
    """The generated Python of a program: its text form, compiled if need be."""
    return _ensure_compiled(program)[0]._source


def evaluate_loop_ir(program: LoopProgram,
                     inputs: Optional[dict[str, Tensor]] = None
                     ) -> tuple[dict[int, Tensor], ExecCounters]:
    """Run a loop program; returns printed/returned tensors and counters."""
    inputs = inputs or {}
    fn, static_cost, branch_costs = _ensure_compiled(program)

    slot = {b.name: k for k, b in enumerate(program.buffers)}
    bufs = [list(b.init) if b.init is not None else [0.0] * b.capacity
            for b in program.buffers]
    for name, bname in program.inputs:
        if name not in inputs:
            raise InputMismatch(f"input {name!r} is not bound")
        t = inputs[name]
        cap = program.buffer(bname).capacity
        if len(t) != cap:
            raise InputMismatch(
                f"input {name!r} expects {cap} samples, got {len(t)}")
        bufs[slot[bname]] = list(t.values)

    cursors: dict[str, int] = {}
    t0 = time.perf_counter_ns()
    runs = fn(bufs, cursors)
    wall = time.perf_counter_ns() - t0

    total = Counter(static_cost)
    for n, cost in zip(runs, branch_costs):
        total.update({k: v * n for k, v in cost.items()})
    by_kind: dict[str, dict[str, int]] = {"tag": {}, "load": {}}
    for key, v in total.items():
        if isinstance(key, tuple) and v:
            by_kind[key[0]][key[1]] = v
    counters = ExecCounters(
        loop_iterations=sum(by_kind["tag"].values()),
        loads=sum(by_kind["load"].values()), stores=total["stores"],
        mults=total["mults"], adds=total["adds"],
        trig_calls=total["trig_calls"], wall_time_ns=wall,
        loop_iters_by_tag=by_kind["tag"], loads_by_buffer=by_kind["load"])

    outputs: dict[int, Tensor] = {}
    for vid, bname in program.outputs + program.returns:
        buf = bufs[slot[bname]]  # a dynamic buffer is trimmed to its cursor
        outputs[vid] = Tensor(tuple(buf[:cursors[bname]] if bname in cursors else buf))
    return outputs, counters


_REPORT_KEYS = ("loop_iterations", "loads", "stores", "mults", "adds",
                "trig_calls", "wall_time_ns")


def counters_report(before: ExecCounters, after: ExecCounters) -> dict:
    """Per-counter after/before ratios; JSON-ready with stable key order."""
    ratios = {}
    for key in _REPORT_KEYS:
        b, a = getattr(before, key), getattr(after, key)
        ratios[key] = (a / b) if b else (1.0 if a == 0 else float("inf"))
    return {
        "before": before.as_dict(),
        "after": after.as_dict(),
        "ratios": ratios,
    }


def report_table(report: dict) -> str:
    """Render a counters_report dict as an aligned human-readable table."""
    rows = [("counter", "before", "after", "ratio")]
    for key in _REPORT_KEYS:
        rows.append((key, str(report["before"][key]),
                     str(report["after"][key]),
                     f"{report['ratios'][key]:.6g}"))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    return "\n".join(
        "  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
        for row in rows)

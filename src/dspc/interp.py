"""Instrumented execution of loop programs.

A program is bounds-checked (`validate_program`) and translated into a plain
Python function once, at its first compile; the function is cached on the
program object and exec'd.  Each statement becomes one Python statement and
its expression trees one Python expression each, parenthesised only where
the tree's association needs it, so the generated code runs no statement
per load or multiply.  The generated source (`compiled_source`) is the
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
from .loop_ir import (LEAVES, Arith, Assign, Call, CheckFinite, ConstF,
                      DynAppend, Expr, For, IfCmp, IndexF, IndexProdF, Load,
                      LoopIrError, LoopProgram, Select, SelectGuard, Stmt,
                      Store, TempRef, validate_program)


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


class BufferTooLarge(LoopRuntimeError):
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


# Python spelling, binding strength and cost of Arith ops; comparisons.
ARITH_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2}
_COST_OF_ARITH = {"add": "adds", "sub": "adds", "mul": "mults",
                  "div": "mults"}
CMP_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


class _Compiler:
    """Translates a loop program into one Python function, `_run`.

    A block's cost per run is static: a Counter keyed by the `ExecCounters`
    fields `stores`, `mults`, `adds` and `trig_calls`, plus ("tag", t) per
    iteration of a loop tagged t and ("load", b) per load from buffer b.
    The walk that renders an expression tree also adds up its cost.  A
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

    def _expr(self, e: Expr, cost: Counter, divisors: list[str],
              prec: int = 0) -> str:
        """Python for tree `e` in a context binding at least `prec` (0: the
        whole right side, 1: `+`/`-` or a comparison operand, 2: `*`/`/`,
        plus one on a right operand, since Arith is left-associative and
        float arithmetic does not reassociate); adds `e`'s cost to `cost`
        and each run-time-checked divisor to `divisors`."""
        if isinstance(e, TempRef):
            return e.name
        if isinstance(e, ConstF):  # a folded constant may have overflowed
            return repr(e.value) if math.isfinite(e.value) else f"float('{e.value}')"
        if isinstance(e, IndexF):
            return f"({e.expr.source()})"
        if isinstance(e, IndexProdF):
            return f"({e.a}*{e.b})"
        if isinstance(e, Load):
            cost["load", e.buffer] += 1
            return f"{e.buffer}[{e.index.source()}]"
        if isinstance(e, Arith):
            p = _PRECEDENCE[e.op]
            lhs = self._expr(e.lhs, cost, divisors, p)
            rhs = self._expr(e.rhs, cost, divisors, p + 1)
            if e.op == "div" and not isinstance(e.rhs, ConstF):
                if not isinstance(e.rhs, LEAVES):  # the check reads it again
                    raise LoopIrError(f"checked divisor is not a leaf: {e!r}")
                divisors.append(rhs)
            cost[_COST_OF_ARITH[e.op]] += 1
            text = f"{lhs} {ARITH_SYMBOLS[e.op]} {rhs}"
            return f"({text})" if p < prec else text
        if isinstance(e, Call):
            a = self._expr(e.arg, cost, divisors)
            if e.fn in ("sin", "cos"):
                cost["trig_calls"] += 1
                return f"_{e.fn}({a})"
            if e.fn == "sinc_eval":
                if not isinstance(e.arg, LEAVES):  # read three times
                    raise LoopIrError(f"sinc_eval argument is not a leaf: {e!r}")
                cost.update(trig_calls=1, mults=1)
                text = f"_sin({a}) / {a} if {a} != 0.0 else 1.0"
                return f"({text})" if prec else text
            if e.fn == "abs":
                return f"abs({a})"
            if e.fn == "floor":
                return f"_floor({a})"
            raise LoopRuntimeError(f"unknown intrinsic {e.fn}")
        raise TypeError(f"not an expression: {e!r}")

    def _block(self, stmts: list[Stmt], depth: int,
               loop_stack: list[str]) -> tuple[list[str], Counter]:
        pad = "    " * depth
        lines: list[str] = []
        cost: Counter = Counter()
        divisors: list[str] = []
        at = f" at element {{{loop_stack[-1]}}}" if loop_stack else ""

        def ex(e: Expr, prec: int = 0) -> str:
            return self._expr(e, cost, divisors, prec)

        def emit(line: str) -> None:
            """`line`, after a zero check of each divisor it reads."""
            for d in divisors:
                lines.append(f"{pad}if {d} == 0.0:")
                lines.append(f"{pad}    raise _DivZero(f'division by zero{at}')")
            divisors.clear()
            lines.append(pad + line)

        for stmt in stmts:
            if isinstance(stmt, Assign):
                emit(f"{stmt.target.name} = {ex(stmt.value)}")
            elif isinstance(stmt, Store):
                emit(f"{stmt.buffer}[{stmt.index.source()}] = "
                     f"{ex(stmt.source)}")
                cost["stores"] += 1
            elif isinstance(stmt, Select):
                arms: Counter = Counter()
                t, f = (self._expr(v, arms, divisors, 1)
                        for v in (stmt.if_true, stmt.if_false))
                if arms:
                    raise LoopIrError(f"metered work in a select arm: {stmt!r}")
                emit(f"{stmt.target.name} = {t} if {ex(stmt.lhs, 1)} "
                     f"{CMP_SYMBOLS[stmt.cmp]} {ex(stmt.rhs, 1)} else {f}")
            elif isinstance(stmt, (SelectGuard, IfCmp)):
                if isinstance(stmt, SelectGuard):
                    emit(f"if {stmt.lower} <= {stmt.expr.source()} "
                         f"< {stmt.upper}:")
                else:
                    emit(f"if {ex(stmt.lhs, 1)} {CMP_SYMBOLS[stmt.cmp]} "
                         f"{ex(stmt.rhs, 1)}:")
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
                emit(f"{stmt.buffer}[{cur}] = {ex(stmt.value)}")
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
    bufs = []
    for b in program.buffers:
        try:
            bufs.append(list(b.init) if b.init is not None
                        else [0.0] * b.capacity)
        except (OverflowError, MemoryError):
            raise BufferTooLarge(f"buffer {b.name} of capacity {b.capacity} "
                                 "cannot be allocated") from None
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

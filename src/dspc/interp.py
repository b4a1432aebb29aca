"""Instrumented execution of loop programs.

A program is translated once into a plain Python function (cached on the
program object) and exec'd.  Operation counters follow the cost model the
backend was lowered against: loads/stores per buffer access, multiplies
(including divides), adds (including subtracts), trig calls, and loop
iterations split by tag.  Loop bounds are static ints, so every loop's
counter increments are hoisted out of it, scaled by its trip count: the
totals are exact but nearly free.  Only the bodies of branches (boundary
guards, data-dependent comparisons) are metered inline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DspcError
from .kernels import Tensor
from .loop_ir import (ARITH_SYMBOLS, CMP_SYMBOLS, BinaryArith, CheckFinite,
                      ConstF, DynAppend, For, IfCmp, IndexF, IndexProdF,
                      IntrinsicCall, Load, LoopProgram, Operand, Select,
                      SelectGuard, SetTemp, Stmt, Store, TempRef,
                      validate_program)


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


_COST_OF_ARITH = {"add": "c_ad", "sub": "c_ad", "mul": "c_mu", "div": "c_mu"}


def _merge(into: dict[str, int], cost: dict[str, int], times: int = 1) -> None:
    for k, v in cost.items():
        into[k] = into.get(k, 0) + v * times


class _Compiler:
    def __init__(self, program: LoopProgram):
        self.program = program
        self.tags: list[str] = []
        self.tag_slot: dict[str, int] = {}
        self.load_bufs: list[str] = []
        self.buf_slot: dict[str, int] = {}
        self.dyn = [b.name for b in program.buffers if b.dynamic]

    def _tag_counter(self, tag: str) -> str:
        if tag not in self.tag_slot:
            self.tag_slot[tag] = len(self.tags)
            self.tags.append(tag)
        return f"ct_{self.tag_slot[tag]}"

    def _buf_counter(self, name: str) -> str:
        if name not in self.buf_slot:
            self.buf_slot[name] = len(self.load_bufs)
            self.load_bufs.append(name)
        return f"cb_{self.buf_slot[name]}"

    def _operand(self, v: Operand) -> str:
        if isinstance(v, TempRef):
            return v.name
        if isinstance(v, ConstF):
            return repr(v.value)
        if isinstance(v, IndexF):
            return f"({v.expr.source()})"
        if isinstance(v, IndexProdF):
            return f"({v.a}*{v.b})"
        raise TypeError(f"not an operand: {v!r}")

    def _flush(self, cost: dict[str, int], pad: str) -> list[str]:
        return [f"{pad}{k} += {v}" for k, v in sorted(cost.items()) if v]

    def _block(self, stmts: list[Stmt], depth: int,
               loop_stack: list[str]) -> tuple[list[str], dict[str, int]]:
        pad = "    " * depth
        lines: list[str] = []
        cost: dict[str, int] = {}
        for stmt in stmts:
            if isinstance(stmt, Load):
                lines.append(f"{pad}{stmt.target} = "
                             f"{stmt.buffer}[{stmt.index.source()}]")
                _merge(cost, {"c_ld": 1, self._buf_counter(stmt.buffer): 1})
            elif isinstance(stmt, Store):
                lines.append(f"{pad}{stmt.buffer}[{stmt.index.source()}] = "
                             f"{self._operand(stmt.source)}")
                _merge(cost, {"c_st": 1})
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
                _merge(cost, {_COST_OF_ARITH[stmt.op]: 1})
            elif isinstance(stmt, IntrinsicCall):
                a = self._operand(stmt.arg)
                if stmt.fn in ("sin", "cos"):
                    lines.append(f"{pad}{stmt.target} = _{stmt.fn}({a})")
                    _merge(cost, {"c_tr": 1})
                elif stmt.fn == "sinc_eval":
                    lines.append(f"{pad}{stmt.target} = "
                                 f"_sin({a}) / {a} if {a} != 0.0 else 1.0")
                    _merge(cost, {"c_tr": 1, "c_mu": 1})
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
            elif isinstance(stmt, SelectGuard):
                lines.append(f"{pad}if {stmt.lower} <= {stmt.expr.source()} "
                             f"< {stmt.upper}:")
                lines.extend(self._branch(stmt.body, depth + 1, loop_stack))
                if stmt.orelse:
                    lines.append(f"{pad}else:")
                    lines.extend(self._branch(stmt.orelse, depth + 1,
                                              loop_stack))
            elif isinstance(stmt, IfCmp):
                lines.append(f"{pad}if {self._operand(stmt.lhs)} "
                             f"{CMP_SYMBOLS[stmt.cmp]} {self._operand(stmt.rhs)}:")
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
                lines.append(f"{pad}c_st += 1")
            elif isinstance(stmt, CheckFinite):
                lines.append(f"{pad}for _v in {stmt.buffer}:")
                lines.append(f"{pad}    if not _isfinite(_v):")
                lines.append(f"{pad}        raise _NonFinite("
                             f"'non-finite value in {stmt.buffer}')")
            elif isinstance(stmt, For):
                body_lines, body_cost = self._block(
                    stmt.body, depth + 1, loop_stack + [stmt.index])
                trip = max(0, stmt.upper - stmt.lower)
                _merge(cost, body_cost, trip)
                _merge(cost, {"c_it": 1, self._tag_counter(stmt.tag): 1}, trip)
                lines.append(f"{pad}for {stmt.index} in range({stmt.lower}, "
                             f"{stmt.upper}):")
                lines.extend(body_lines or [f"{pad}    pass"])
            else:
                raise LoopRuntimeError(f"unknown statement {stmt!r}")
        return lines, cost

    def _branch(self, stmts: list[Stmt], depth: int,
                loop_stack: list[str]) -> list[str]:
        """Branch bodies carry their own inline counter updates."""
        lines, cost = self._block(stmts, depth, loop_stack)
        out = lines + self._flush(cost, "    " * depth)
        return out or [f"{'    ' * depth}pass"]

    def build(self) -> Callable:
        body, cost = self._block(self.program.body, 1, [])
        lines = ["def _run(_bufs, _cursors):"]
        for b in self.program.buffers:
            lines.append(f"    {b.name} = _bufs[{b.name!r}]")
        for name in ("c_it", "c_ld", "c_st", "c_mu", "c_ad", "c_tr"):
            lines.append(f"    {name} = 0")
        for name in self.dyn:
            lines.append(f"    n_{name} = 0")
        lines.extend(body)
        lines.extend(self._flush(cost, "    "))
        for name in self.dyn:
            lines.append(f"    _cursors[{name!r}] = n_{name}")
        tags = ", ".join(f"ct_{i}" for i in range(len(self.tags)))
        bufs = ", ".join(f"cb_{i}" for i in range(len(self.load_bufs)))
        lines.append(f"    return (c_it, c_ld, c_st, c_mu, c_ad, c_tr, "
                     f"({tags}{',' if len(self.tags) == 1 else ''}), "
                     f"({bufs}{',' if len(self.load_bufs) == 1 else ''}))")
        # Counter locals referenced before the loops that bump them must
        # exist even when a tag's loop is empty; they are all initialised
        # to zero here.
        for i in range(len(self.tags)):
            lines.insert(1, f"    ct_{i} = 0")
        for i in range(len(self.load_bufs)):
            lines.insert(1, f"    cb_{i} = 0")
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
        fn._source = src  # kept around for debugging
        return fn


def _ensure_compiled(program: LoopProgram):
    fn = getattr(program, "_compiled_fn", None)
    if fn is None:
        validate_program(program)
        compiler = _Compiler(program)
        fn = compiler.build()
        program._compiled_fn = fn
        program._counter_names = (list(compiler.tags),
                                  list(compiler.load_bufs))
    return fn


def compiled_source(program: LoopProgram) -> str:
    return _ensure_compiled(program)._source


def evaluate_loop_ir(program: LoopProgram,
                     inputs: Optional[dict[str, Tensor]] = None
                     ) -> tuple[dict[int, Tensor], ExecCounters]:
    """Run a loop program; returns printed/returned tensors and counters."""
    inputs = inputs or {}
    fn = _ensure_compiled(program)
    tag_names, buf_names = program._counter_names

    bufs: dict[str, list[float]] = {}
    for b in program.buffers:
        bufs[b.name] = list(b.init) if b.init is not None else [0.0] * b.capacity
    for name, bname in program.inputs:
        if name not in inputs:
            raise InputMismatch(f"input {name!r} is not bound")
        t = inputs[name]
        cap = program.buffer(bname).capacity
        if len(t) != cap:
            raise InputMismatch(
                f"input {name!r} expects {cap} samples, got {len(t)}")
        bufs[bname] = list(t.values)

    cursors: dict[str, int] = {}
    t0 = time.perf_counter_ns()
    (c_it, c_ld, c_st, c_mu, c_ad, c_tr, tags, load_counts) = fn(bufs, cursors)
    wall = time.perf_counter_ns() - t0

    counters = ExecCounters(
        loop_iterations=c_it, loads=c_ld, stores=c_st, mults=c_mu,
        adds=c_ad, trig_calls=c_tr, wall_time_ns=wall,
        loop_iters_by_tag={n: v for n, v in zip(tag_names, tags) if v},
        loads_by_buffer={n: v for n, v in zip(buf_names, load_counts) if v},
    )

    outputs: dict[int, Tensor] = {}
    for vid, bname in list(program.outputs) + list(program.returns):
        decl = program.buffer(bname)
        if decl.dynamic:
            n = cursors.get(bname, 0)
            outputs[vid] = Tensor(tuple(bufs[bname]), logical_length=n)
        else:
            outputs[vid] = Tensor(tuple(bufs[bname]))
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

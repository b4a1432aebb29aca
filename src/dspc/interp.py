"""Instrumented execution of loop programs.

A program is compiled at its first use: each unit (the statements of one op)
not yet rendered becomes a plain Python function, in one walk that also
proves each of its buffer accesses in bounds, so no unit runs unchecked.  The
same walk decides every boundary guard: it cuts each outermost loop nest into
a guarded prologue, a guard-free interior and a guarded epilogue (index-set
splitting), and renders a guard it proves true as its bare body.  A
unit is shared by every program with an equal op (`lowering.op_unit`), so it
is checked and rendered once, and its render products sit on the unit.  Each
statement becomes one Python statement and its expression trees one Python
expression each, parenthesised only where the tree's association needs it.  A
unit renders with local names and every literal lifted to a parameter, so
units that differ only in names, sizes and constants share one text, a shape:
`UNIT_CODE` compiles each shape once per process.  Linking a program binds
each call's unit to the program's buffers: a new function with the unit's
literals as its defaults, its error messages naming the program's buffers.
The text form (`compiled_source`) has one comment line per buffer and per
printed or returned value, each distinct unit once, with loop tags as comments
on its `for` lines, and one call line per op.  Operation counters follow the
cost model the backend was lowered against: loads/stores per buffer access,
multiplies (including divides), adds (including subtracts), trig calls, and
loop iterations split by tag.  Loop bounds are static ints, so the cost of one
run of any block is known at codegen time.  The generated code counts only
how often each branch body (a boundary guard or a data-dependent comparison)
ran, with one `+=` per run; the totals are the static cost plus each branch
body's runs times its cost, kept per program as integer vectors, so a run
only adds integers.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from types import CodeType, FunctionType
from typing import NamedTuple, Optional

from .errors import DspcError
from .kernels import Tensor
from .loop_ir import (LEAVES, AffineExpr, Arith, Assign, Call, CheckFinite, Cond,
                      ConstF, DynAppend, Expr, For, IfCmp, IndexF, IndexProdF,
                      Load, LoopIrError, LoopProgram, OutOfBounds, SelectGuard,
                      Stmt, Store, TempRef, Unit)


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


# The compiled code of each distinct unit text (a shape) seen in the process;
# every literal is a parameter, so the emitters bound the number of shapes.
UNIT_CODE: dict[str, CodeType] = {}
_NS = {"_sin": math.sin, "_cos": math.cos, "_floor": math.floor,
       "_isfinite": math.isfinite, "_DivZero": LoopDivisionByZero,
       "_NonFinite": NonFinite, "_Capacity": CapacityExceeded}


class _Rendered(NamedTuple):
    """A unit's render products, made at its first use and kept on the unit."""

    text: str  # the function `_run`, interned
    code: CodeType
    literals: tuple  # values of c0, c1, ...; a message names its buffer `{}`
    messages: tuple[tuple[int, int], ...]  # (literal, unit buffer it names)
    params: tuple[int, ...]  # the unit buffer of each b<k>
    appends: tuple[int, ...]  # the unit buffer of each returned cursor
    static: tuple  # (key, cost) of one run of the unit; a load's key names a unit buffer
    branches: tuple[tuple, ...]  # (key, cost) of one run of each counted branch body


def affine_interval(expr: AffineExpr, ranges: dict) -> tuple[int, int]:
    """The inclusive range of `expr`: its own in `ranges` (a guarded
    expression's), else over the inclusive range of each of its indices in
    `ranges`; raises LoopIrError on an index that has none."""
    if expr in ranges:
        return ranges[expr]
    lo = hi = expr.const
    for name, coeff in expr.terms:
        if name not in ranges:
            raise LoopIrError(f"index {name!r} used outside its loop")
        a, b = ranges[name]
        lo += min(coeff * a, coeff * b)
        hi += max(coeff * a, coeff * b)
    return lo, hi


def _pieces(loop: For) -> list[tuple[int, int]]:
    """Index-set splitting of an outermost loop: the bounds of its guarded
    prologue, guard-free interior and guarded epilogue, empty ones dropped,
    or of the whole loop.  The interior is the range of the loop's index
    where every boundary guard under an inner loop holds for all inner index
    values, of each guard whose expression has coefficient +-1 on that index
    and no index but it and the inner ones; the loop is cut only where the
    interior covers at least half of it.  Guards under a data-dependent
    `IfCmp` are left alone.  The walk that renders the interior proves its
    guards and drops them."""
    a, b, cut = loop.lower, loop.upper, False

    def walk(stmts: list[Stmt], inner: dict) -> None:
        nonlocal a, b, cut
        for s in stmts:
            if isinstance(s, For) and s.upper > s.lower:  # an empty loop never runs
                walk(s.body, {**inner, s.index: (s.lower, s.upper - 1)})
            elif isinstance(s, SelectGuard):
                coeff = dict(s.expr.terms).get(loop.index)
                if inner and coeff in (1, -1) and all(
                        n == loop.index or n in inner for n, _ in s.expr.terms):
                    # the range of the expression without its loop.index term
                    lo, hi = affine_interval(s.expr, {**inner, loop.index: (0, 0)})
                    held = ((s.lower - lo, s.upper - hi) if coeff == 1
                            else (hi - s.upper + 1, lo - s.lower + 1))
                    a, b, cut = max(a, held[0]), min(b, held[1]), True
                walk(s.body, inner)
                walk(s.orelse, inner)

    walk(loop.body, {})
    if not cut or b <= a or 2 * (b - a) < loop.upper - loop.lower:
        return [(loop.lower, loop.upper)]
    return [(p, q) for p, q in ((loop.lower, a), (a, b), (b, loop.upper)) if q > p]


def _holds(guard: SelectGuard, known: Optional[dict]) -> bool:
    """Whether `guard` is proved true wherever `known` (see `_Compiler`) holds."""
    if known is None:
        return False
    lo, hi = affine_interval(guard.expr, known)
    return guard.lower <= lo and hi < guard.upper


def _guarded(guard: SelectGuard, known: Optional[dict]) -> Optional[dict]:
    """`known` (see `_Compiler`) in `guard`'s body, once rendering the guard
    has checked that each of its indices has an enclosing loop.  A guard on a
    bare loop index narrows its range, so any expression over it (e.g. a
    mirrored store at N-1-k) inherits the constraint, and an empty narrowed
    range means the body never runs.  Another guard gives its expression its
    range."""
    expr, lo, hi = guard.expr, guard.lower, guard.upper - 1
    if known is None:
        return None
    if not expr.const and [c for _, c in expr.terms] == [1]:
        name = expr.terms[0][0]
        a, b = known[name]
        lo, hi = max(a, lo), min(b, hi)
        return {**known, name: (lo, hi)} if lo <= hi else None
    return {**known, expr: (lo, hi)}


class _Compiler:
    """Checks one unit and translates it into one Python function.

    The walk that renders a buffer access proves it in bounds.  It carries
    `known`: the inclusive range of each enclosing loop index (by name) and
    of each guarded index expression (by AffineExpr, from `_guarded`); an
    access's index, over those ranges, must stay inside its buffer, and each
    index the unit reads must have an enclosing loop.  Code
    that never runs, such as an empty loop's body, has `known` None and is
    rendered but not checked.  The walk cuts each outermost loop of the unit
    into the pieces of `_pieces`, and a SelectGuard whose expression stays
    in its bounds wherever `known` holds renders as its body.

    A block's cost per run is static: a Counter keyed by the `ExecCounters`
    fields `stores`, `mults`, `adds` and `trig_calls`, plus ("tag", t) per
    iteration of a loop tagged t and ("load", j) per load from the unit's
    j-th buffer.  The walk that renders an expression tree also adds up its
    cost.  A loop adds its body's cost and one count of its tag, times its
    trip count.  A branch body or else arm runs a data-dependent number of
    times, so it is not part of its enclosing block's cost: if its own cost
    is non-zero it gets a run counter `r<k>`, bumped once at its end, and its
    cost is kept in `branches`, in program order.  A unit renders with local
    names: buffers `b<k>` (its positional parameters, in order of first use),
    temporaries `t<k>`, loop indices `i<k>`, and each literal a parameter
    `c<k>`.  It zeroes its append cursors and run counters in one chained
    assignment and returns them, in that order.  An op appends only to its
    own result, so each unit's cursors start at 0.
    """

    def __init__(self, unit: Unit):
        self.unit = unit
        self.index = {b.name: j for j, b in enumerate(unit.buffers)}
        self.names: dict[str, dict[str, str]] = {"b": {}, "t": {}, "i": {}}
        # cursor name per appended buffer, literal values, run counter names
        self.cursors: dict[str, str] = {}
        self.lits: list = []
        self.runs: list[str] = []
        self.messages: list[tuple[int, int]] = []
        self.branch_costs: list[Counter] = []

    def _name(self, kind: str, name: str) -> str:
        """The local name of buffer ("b"), temporary ("t") or index ("i") `name`."""
        names = self.names[kind]
        local = names.get(name)
        if local is None:
            local = names[name] = f"{kind}{len(names)}"
        return local

    def _lit(self, value) -> str:
        self.lits.append(value)
        return f"c{len(self.lits) - 1}"

    def _buffer(self, buffer: str) -> tuple[str, int]:
        """The local name and unit slot of `buffer`; raises OutOfBounds on a
        buffer the unit does not have."""
        j = self.index.get(buffer)
        if j is None:
            raise OutOfBounds(buffer, "unknown buffer")
        return self._name("b", buffer), j

    def _message(self, template: str, j: int) -> str:
        """A literal error message naming the unit's j-th buffer where
        `template` has `{}`; each call fills in its own buffer name."""
        self.messages.append((len(self.lits), j))
        return self._lit(template)

    def _access(self, buffer: str, index: AffineExpr,
                known: Optional[dict]) -> tuple[str, int]:
        """Python for `buffer[index]` and the buffer's unit slot, the access
        proved in bounds where `known` holds; raises OutOfBounds."""
        b, j = self._buffer(buffer)
        if known is not None:
            lo, hi = affine_interval(index, known)
            cap = self.unit.buffers[j].capacity
            if lo < 0 or hi >= cap:
                raise OutOfBounds(buffer, f"index {index} spans [{lo}, {hi}] "
                                  f"outside [0, {cap})")
        return f"{b}[{self._affine(index, known)}]", j

    def _index(self, name: str, known: Optional[dict]) -> str:
        """The local name of loop index `name`, bound by an enclosing loop
        where `known` holds; raises LoopIrError."""
        if known is not None and name not in known:
            raise LoopIrError(f"index {name!r} used outside its loop")
        return self._name("i", name)

    def _affine(self, a: AffineExpr, known: Optional[dict]) -> str:
        return a.source(lambda index: self._index(index, known), self._lit)

    def _expr(self, e: Expr, cost: Counter, divisors: list[str], known: Optional[dict],
              prec: int = 0) -> str:
        """Python for tree `e` in a context binding at least `prec` (0: the
        whole right side, 1: `+`/`-`, a comparison operand or a conditional's
        arm, 2: `*`/`/`, plus one on a right operand, since Arith is
        left-associative and float arithmetic does not reassociate); checks
        its loads where `known` holds, adds `e`'s cost to `cost` and each
        run-time-checked divisor to `divisors`."""
        if isinstance(e, TempRef):
            return self._name("t", e.name)
        if isinstance(e, ConstF):
            return self._lit(e.value)
        if isinstance(e, IndexF):
            return f"({self._affine(e.expr, known)})"
        if isinstance(e, IndexProdF):
            return f"({self._index(e.a, known)}*{self._index(e.b, known)})"
        if isinstance(e, Load):
            text, j = self._access(e.buffer, e.index, known)
            cost["load", j] += 1
            return text
        if isinstance(e, Arith):
            p = _PRECEDENCE[e.op]
            lhs = self._expr(e.lhs, cost, divisors, known, p)
            rhs = self._expr(e.rhs, cost, divisors, known, p + 1)
            if e.op == "div" and not isinstance(e.rhs, ConstF):
                if not isinstance(e.rhs, LEAVES):  # the check reads it again
                    raise LoopIrError(f"checked divisor is not a leaf: {e!r}")
                divisors.append(rhs)
            cost[_COST_OF_ARITH[e.op]] += 1
            text = f"{lhs} {ARITH_SYMBOLS[e.op]} {rhs}"
            return f"({text})" if p < prec else text
        if isinstance(e, Cond):
            arms: Counter = Counter()
            t, f = (self._expr(v, arms, divisors, known, 1)
                    for v in (e.if_true, e.if_false))
            if arms:
                raise LoopIrError(f"metered work in a conditional arm: {e!r}")
            lhs, rhs = (self._expr(v, cost, divisors, known, 1) for v in (e.lhs, e.rhs))
            text = f"{t} if {lhs} {CMP_SYMBOLS[e.cmp]} {rhs} else {f}"
            return f"({text})" if prec else text
        if isinstance(e, Call):
            a = self._expr(e.arg, cost, divisors, known)
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
            raise LoopIrError(f"unknown intrinsic {e.fn}")
        raise LoopIrError(f"unknown expression {e!r}")

    def _block(self, stmts: list[Stmt], depth: int, loop_stack: list[str],
               known: Optional[dict]) -> tuple[list[str], Counter]:
        pad = "    " * depth
        lines: list[str] = []
        cost: Counter = Counter()
        divisors: list[str] = []
        at = f" at element {{{loop_stack[-1]}}}" if loop_stack else ""

        def ex(e: Expr, prec: int = 0) -> str:
            return self._expr(e, cost, divisors, known, prec)

        def emit(line: str) -> None:
            """`line`, after a zero check of each divisor it reads."""
            for d in divisors:
                lines.append(f"{pad}if {d} == 0.0:")
                lines.append(f"{pad}    raise _DivZero(f'division by zero{at}')")
            divisors.clear()
            lines.append(pad + line)

        for stmt in stmts:
            if isinstance(stmt, Assign):
                emit(f"{self._name('t', stmt.target.name)} = {ex(stmt.value)}")
            elif isinstance(stmt, Store):
                emit(f"{self._access(stmt.buffer, stmt.index, known)[0]} = "
                     f"{ex(stmt.source)}")
                cost["stores"] += 1
            elif isinstance(stmt, SelectGuard) and _holds(stmt, known):
                body_lines, body_cost = self._block(stmt.body, depth, loop_stack, known)
                lines.extend(body_lines)
                cost.update(body_cost)
            elif isinstance(stmt, (SelectGuard, IfCmp)):
                if isinstance(stmt, SelectGuard):
                    emit(f"if {self._lit(stmt.lower)} <= {self._affine(stmt.expr, known)}"
                         f" < {self._lit(stmt.upper)}:")
                else:
                    emit(f"if {ex(stmt.lhs, 1)} {CMP_SYMBOLS[stmt.cmp]} "
                         f"{ex(stmt.rhs, 1)}:")
                inside = _guarded(stmt, known) if isinstance(stmt, SelectGuard) else known
                lines.extend(self._branch(stmt.body, depth + 1, loop_stack, inside))
                if stmt.orelse:
                    lines.append(f"{pad}else:")
                    lines.extend(self._branch(stmt.orelse, depth + 1, loop_stack, known))
            elif isinstance(stmt, DynAppend):
                buf, j = self._buffer(stmt.buffer)
                cap = self.unit.buffers[j].capacity
                cur = self.cursors.setdefault(stmt.buffer, f"n_{buf}")
                lines.append(f"{pad}if {cur} >= {self._lit(cap)}:")
                message = self._message(f"buffer {{}} exceeded capacity {cap}", j)
                lines.append(f"{pad}    raise _Capacity({message})")
                emit(f"{buf}[{cur}] = {ex(stmt.value)}")
                lines.append(f"{pad}{cur} += 1")
                cost["stores"] += 1
            elif isinstance(stmt, CheckFinite):
                buf, j = self._buffer(stmt.buffer)
                lines.append(f"{pad}for _v in {buf}:")
                lines.append(f"{pad}    if not _isfinite(_v):")
                message = self._message("non-finite value in {}", j)
                lines.append(f"{pad}        raise _NonFinite({message})")
            elif isinstance(stmt, For):
                i = self._name("i", stmt.index)
                for lower, upper in (_pieces(stmt) if depth == 1
                                     else [(stmt.lower, stmt.upper)]):
                    lines.append(f"{pad}for {i} in range({self._lit(lower)}, "
                                 f"{self._lit(upper)}):  # {stmt.tag}")
                    trip = max(0, upper - lower)
                    inside = (None if known is None or not trip else
                              {**known, stmt.index: (lower, upper - 1)})
                    body_lines, body_cost = self._block(
                        stmt.body, depth + 1, loop_stack + [i], inside)
                    body_cost["tag", stmt.tag] += 1
                    cost.update({k: v * trip for k, v in body_cost.items()})
                    lines.extend(body_lines or [f"{pad}    pass"])
            else:
                raise LoopIrError(f"unknown statement {stmt!r}")
        return lines, cost

    def _branch(self, stmts: list[Stmt], depth: int, loop_stack: list[str],
                known: Optional[dict]) -> list[str]:
        lines, cost = self._block(stmts, depth, loop_stack, known)
        if any(cost.values()):
            self.runs.append(f"r{len(self.runs)}")
            lines.append(f"{'    ' * depth}{self.runs[-1]} += 1")
            self.branch_costs.append(cost)
        return lines or [f"{'    ' * depth}pass"]

    def render(self) -> _Rendered:
        """The unit's function `_run`, its accesses proved in bounds before its
        text is interned, so that the units of many ops share it, and its code
        compiled once per text (`UNIT_CODE`)."""
        body, cost = self._block(self.unit.body, 1, [], {})
        params = [*self.names["b"].values(), *(f"c{k}" for k in range(len(self.lits)))]
        zeroed = [*self.cursors.values(), *self.runs]
        if zeroed:
            body = [f"    {' = '.join(zeroed)} = 0", *body,
                    f"    return [{', '.join(zeroed)}]"]
        text = sys.intern("\n".join([f"def _run({', '.join(params)}):", *body]))
        code = UNIT_CODE.get(text)
        if code is None:  # the function's code is the module's first constant
            code = UNIT_CODE[text] = compile(text, "<loop-unit>", "exec").co_consts[0]
        return _Rendered(text, code, tuple(self.lits), tuple(self.messages),
                         tuple(map(self.index.get, self.names["b"])),
                         tuple(map(self.index.get, self.cursors)),
                         tuple(cost.items()),
                         tuple(tuple(c.items()) for c in self.branch_costs))


def _rendered(unit: Unit) -> _Rendered:
    rendered = getattr(unit, "_rendered", None)
    if rendered is None:
        rendered = unit._rendered = _Compiler(unit).render()
    return rendered


# The counters every program reports, at the head of its counter vector.
_FIELDS = ("stores", "mults", "adds", "trig_calls")


class _Linked(NamedTuple):
    """A program's calls and its costs, split once into integer vectors."""

    # per call, in order: (function, buffer slots, appended buffers, text, label)
    calls: list[tuple[FunctionType, tuple[int, ...], tuple[str, ...], str, str]]
    static: list[int]  # cost of one run per counter: _FIELDS, then tags and loads
    branches: list[tuple[tuple[int, int], ...]]  # (counter, cost) per run counter
    tags: list[tuple[str, int]]  # (loop tag, counter)
    loads: list[tuple[str, int]]  # (buffer, counter)


def _link(program: LoopProgram) -> _Linked:
    """Bind each call's unit to the program's buffers: its function, with the
    call's buffer names in its messages, and its costs under program keys."""
    slot = {b.name: k for k, b in enumerate(program.buffers)}
    counter = {key: k for k, key in enumerate(_FIELDS)}
    static = [0] * len(_FIELDS)

    def at(key, names: tuple[str, ...]) -> int:
        if isinstance(key, tuple) and key[0] == "load":
            key = ("load", names[key[1]])
        k = counter.get(key)
        if k is None:
            k = counter[key] = len(static)
            static.append(0)
        return k

    calls, bound = [], []
    for label, unit, names in program.calls:
        r = _rendered(unit)
        literals = list(r.literals)
        for k, j in r.messages:
            literals[k] = literals[k].format(names[j])
        calls.append((FunctionType(r.code, _NS, "_run", tuple(literals)),
                      tuple([slot[names[j]] for j in r.params]),
                      tuple([names[j] for j in r.appends]), r.text, label))
        bound.append((r, names))
    for r, names in bound:  # static keys first, as they sum in this order
        for key, v in r.static:
            static[at(key, names)] += v
    branches = [tuple([(at(key, names), v) for key, v in cost])
                for r, names in bound for cost in r.branches]
    by_kind: dict[str, list[tuple[str, int]]] = {"tag": [], "load": []}
    for key, k in counter.items():
        if isinstance(key, tuple):
            by_kind[key[0]].append((key[1], k))
    return _Linked(calls, static, branches, by_kind["tag"], by_kind["load"])


def _ensure_compiled(program: LoopProgram) -> _Linked:
    compiled = getattr(program, "_compiled", None)
    if compiled is None:
        compiled = program._compiled = _link(program)
    return compiled


def _literal(v) -> str:
    return f"float('{v}')" if isinstance(v, float) and not math.isfinite(v) else repr(v)


def compiled_source(program: LoopProgram) -> str:
    """The text form of a program, compiled if need be; buffer comments show
    capacity, `dyn`, bound input and up to 8 initial values, and the k-th
    distinct unit is named `_run<k>`."""
    source = getattr(program, "_source", None)
    if source is None:
        calls = _ensure_compiled(program).calls
        bound = {buf: name for name, buf in program.inputs}
        lines = []
        for b in program.buffers:
            decl = f"# buffer {b.name}[{b.capacity}]" + " dyn" * b.dynamic
            if b.name in bound:
                decl += f" input {bound[b.name]}"
            if b.init is not None:
                preview = ", ".join(repr(v) for v in b.init[:8])
                decl += f" = [{preview}{', ...' if len(b.init) > 8 else ''}]"
            lines.append(decl)
        lines += [f"# print %{vid} ({buf})" for vid, buf in program.outputs]
        lines += [f"# return %{vid} ({buf})" for vid, buf in program.returns]
        names: dict[str, str] = {}
        for *_, text, _label in calls:
            if text not in names:
                names[text] = f"_run{len(names)}"
                lines.append(f"def {names[text]}{text.removeprefix('def _run')}")
        for fn, slots, _, text, label in calls:  # the literals are the defaults
            args = ", ".join([*(program.buffers[k].name for k in slots),
                              *map(_literal, fn.__defaults__ or ())])
            lines.append(f"{names[text]}({args})" + (f"  # {label}" if label else ""))
        source = program._source = "\n".join(lines)
    return source


def evaluate_loop_ir(program: LoopProgram,
                     inputs: Optional[dict[str, Tensor]] = None
                     ) -> tuple[dict[int, Tensor], ExecCounters]:
    """Run a loop program; returns printed/returned tensors and counters."""
    inputs = inputs or {}
    linked = _ensure_compiled(program)

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
        cap = program.buffers[slot[bname]].capacity
        if len(t) != cap:
            raise InputMismatch(
                f"input {name!r} expects {cap} samples, got {len(t)}")
        bufs[slot[bname]] = list(t.values)

    cursors = {b.name: 0 for b in program.buffers if b.dynamic}
    runs: list[int] = []
    t0 = time.perf_counter_ns()
    for fn, slots, dyn, _, _ in linked.calls:
        got = fn(*[bufs[k] for k in slots])
        if got:
            cursors.update(zip(dyn, got))
            runs += got[len(dyn):]
    wall = time.perf_counter_ns() - t0

    total = linked.static.copy()
    for n, cost in zip(runs, linked.branches):
        if n:
            for k, v in cost:
                total[k] += v * n
    by_tag = {tag: total[k] for tag, k in linked.tags if total[k]}
    by_load = {buf: total[k] for buf, k in linked.loads if total[k]}
    stores, mults, adds, trig_calls = total[:len(_FIELDS)]
    counters = ExecCounters(
        loop_iterations=sum(by_tag.values()), loads=sum(by_load.values()),
        stores=stores, mults=mults, adds=adds, trig_calls=trig_calls,
        wall_time_ns=wall, loop_iters_by_tag=by_tag, loads_by_buffer=by_load)

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

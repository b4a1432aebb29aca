"""Instrumented execution of loop programs.

A program is compiled at its first use: each unit (the statements of one op)
not yet rendered becomes a plain Python function, in one walk that also
proves each of its buffer accesses in bounds, so no unit runs unchecked.  The
same walk decides every boundary guard: it cuts each outermost loop nest into
a guarded prologue, a guard-free interior and a guarded epilogue (index-set
splitting), and renders a guard it proves true as its bare body.  An innermost
loop of `STREAM_MIN_TRIPS` or more trips left guard-free folds its single-use
temporaries into their readers and, if its index only picks loads at +-1, runs
over slices: `for s0, s1 in zip(b0[c0:c1], reversed(b1[i0 + c2:i0 + c3])):`.
A shorter one nested in another loop is straight-line code: a comment with
its tag, then its folded body once per trip, the index a literal in each.
A twiddle (`loop_ir.Trig`) whose row and column run from 0 over at most a
quarter of `TABLE_ENTRIES` reads a table (`TABLES`), which the unit's head
requests and the first request of its key builds; a stream reads a table row.
A unit is shared by every program with an equal op (`lowering.op_unit`), and
units of ops that differ only in float attributes have one op shape
(`Unit.shape`): the walk runs once per op shape held in `SHAPE_RENDERS`, and
each unit keeps that render bound to its own constants (`_bound`).
Each statement but a folded Assign becomes one Python statement and its trees
one Python expression each, parenthesised only where their association needs
it.  A unit renders with local names and every literal lifted to a parameter,
so units that differ only in names, sizes and constants share one text:
`UNIT_CODE` compiles each text once per process.  A unit is one
function, its literals its defaults, that every call runs on the program's
buffers; its non-finite and capacity errors carry the buffer, which the run names.
The text form (`compiled_source`) has one comment line per buffer and per
printed or returned value, each distinct unit once, with loop tags as comments
on its `for` lines, and one call line per op.  Operation counters follow the
cost model the backend was lowered against: loads/stores per buffer access,
multiplies (including divides), adds (including subtracts), trig calls, and
loop iterations split by tag; a twiddle counts one trig call and its `mults`,
read from a table or called.  Loop bounds are static ints, so the cost of one
run of any block is known at codegen time.  The generated code counts only
how often each branch body (a boundary guard or a data-dependent comparison)
ran, with one `+=` per run; the totals are the static cost plus each branch
body's runs times its cost, keyed per program as `ExecCounters` reports
them, so a run only adds integers.  A program's first run that ends without
raising keeps the buffers of its input-free calls and folds their branch runs
into the static cost: later runs bind those buffers, skip those calls, count
the same.
"""

from __future__ import annotations

import math
import re
import sys
import time
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate
from types import CodeType, FunctionType
from typing import Hashable, Iterable, NamedTuple, Optional

from .errors import DspcError
from .loop_ir import (LEAVES, AffineExpr, Arith, Assign, BufferDecl, Call, CheckFinite, Cond,
                      ConstF, DynAppend, Expr, For, IfCmp, IndexF, Load, LoopIrError,
                      LoopProgram, OutOfBounds, SelectGuard, Stmt, Store, TempRef, Trig,
                      UNIT_MEMO_SIZE, Unit)


@dataclass(frozen=True)
class Tensor:
    """Rank-1 float tensor: a program's input or output values."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


def tensor(values: Iterable[float]) -> Tensor:
    return Tensor(tuple(float(v) for v in values))


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
        d = asdict(self)
        for key in ("loop_iters_by_tag", "loads_by_buffer"):
            d[key] = dict(sorted(d[key].items()))
        return d


# Python spelling, binding strength and cost of Arith ops; comparisons.
ARITH_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2}
_COST_OF_ARITH = {"add": "adds", "sub": "adds", "mul": "mults",
                  "div": "mults"}
CMP_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


# Twiddle tables, least recently used first: key (c, trig, cols) holds the rows of
# trig(c * (i*j)) for j < cols requested so far, as the trig nest computes them.  A
# unit reads tables of at most a quarter of TABLE_ENTRIES, the entries all tables
# hold at most (2 MB).
TABLES: dict[tuple, list[array]] = {}
TABLE_ENTRIES = 2 ** 18


def _table(c: float, trig: str, rows: int, cols: int) -> list[array]:
    """The table of key (c, trig, cols), now the most recently used, its missing rows
    below `rows` built in place after evicting the least recently used past TABLE_ENTRIES."""
    key = (c, trig, cols)
    table = TABLES.pop(key, [])
    if len(table) < rows:
        while sum(len(t) * k[2] for k, t in TABLES.items()) + rows * cols > TABLE_ENTRIES:
            del TABLES[next(iter(TABLES))]
        fn = getattr(math, trig)
        table += [array("d", [fn(c * (i * j)) for j in range(cols)])
                  for i in range(len(table), rows)]
    TABLES[key] = table
    return table


# The compiled code of each distinct unit text (a shape) seen in the process;
# every literal is a parameter, so the emitters bound the number of shapes.
UNIT_CODE: dict[str, CodeType] = {}
_NS = {"_sin": math.sin, "_cos": math.cos, "_floor": math.floor, "_table": _table,
       "_isfinite": math.isfinite, "_DivZero": LoopDivisionByZero,
       "_NonFinite": NonFinite, "_Capacity": CapacityExceeded}
# Generated code raises these with the buffer (and the capacity it passed);
# `evaluate_loop_ir` names the program's buffer in the message.
_MESSAGES = {NonFinite: "non-finite value in {}",
             CapacityExceeded: "buffer {} exceeded capacity {}"}


# Trips from which a guard-free innermost loop streams (`_Compiler._fold`);
# below, nested in another loop, it is straight-line code (a 16-tap FIR: 0.64x
# of the indexed loop).  From here on no stream form ran slower than the indexed
# loop (each unit's best of 35 calls over 1024 samples, CPython 3.11.7, 2 vCPUs).
# Two streams (FIR): 1.31x at 17 trips, 1.06-1.12x at 33-41, 0.94-1.10x at 45-101;
# three (symmetric FIR): 1.00x at 16, 0.79-0.86x at 32-50; one (sum): 0.83-0.91x.
STREAM_MIN_TRIPS = 48


def _literal(v) -> str:
    return f"float('{v}')" if isinstance(v, float) and not math.isfinite(v) else repr(v)


class _Rendered(NamedTuple):
    """The render products of an op shape, as each unit keeps them (`_bound`)."""

    text: str  # the function `_run`, interned
    fn: FunctionType  # its compiled code, c0, c1, ... its defaults (a slot: a ConstF till bound)
    literals: str  # ", c0, c1, ..." as a call line spells their values
    params: tuple[int, ...]  # the unit buffer of each b<k>
    static: tuple  # (key, cost) of one run of the unit; a load's key names a unit buffer
    branches: tuple[tuple, ...]  # (key, cost) of one run of each counted branch body
    slots: tuple[tuple[int, int], ...]  # (k, j): c<k> is the unit's j-th ConstF


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


def _checked(e) -> bool:
    """Whether `e` divides by a non-constant: its divisor is checked at run time."""
    return isinstance(e, Arith) and e.op == "div" and not isinstance(e.rhs, ConstF)


# Each IR node type that holds nodes (whose slots `_nodes` walks) and, in
# order, its slots that may hold a ConstF.
_CONST_SLOTS = {Arith: ("lhs", "rhs"), Call: ("arg",), Cond: ("lhs", "rhs", "if_true", "if_false"),
                For: ("body",), Assign: ("value",), Store: ("source",), DynAppend: ("value",),
                SelectGuard: ("body", "orelse"), IfCmp: ("lhs", "rhs", "body", "orelse"),
                Trig: ("c",)}


def _nodes(node, leaf: bool = False):
    """(n, leaf) for IR node (or list) `node` and each node in it, leaf true where
    only a leaf may stand: a checked divisor, sinc_eval's argument, a Cond arm."""
    if isinstance(node, list):
        for n in node:
            yield from _nodes(n)
        return
    yield node, leaf
    for name in node.__slots__ if type(node) in _CONST_SLOTS else ():
        kid = getattr(node, name)
        leaf = (name in ("if_true", "if_false") or name == "arg" and node.fn == "sinc_eval"
                or name == "rhs" and _checked(node))
        yield from _nodes(kid, leaf)


def _refs(node) -> Counter:
    """Each temporary's references in `node` (`_nodes`), a leaf-only read twice."""
    return Counter(n.name for n, leaf in _nodes(node) if isinstance(n, TempRef)
                   for _ in range(1 + leaf))


def _consts(node, out: list) -> list[ConstF]:
    """`out` and the ConstF leaves of IR node (or list) `node`, in `_nodes` order."""
    kind = type(node)
    if kind is list:
        for n in node:
            _consts(n, out)
    elif kind is ConstF:
        out.append(node)
    elif kind in _CONST_SLOTS:
        for name in _CONST_SLOTS[kind]:
            _consts(getattr(node, name), out)
    return out


def _subst(e: Expr, env: dict) -> Expr:
    """Tree `e`, each temporary in `env` replaced by its value (popped) but in a Cond arm."""
    if isinstance(e, TempRef):
        return env.pop(e.name, e)
    if env and isinstance(e, (Arith, Call, Cond)):
        return replace(e, **{name: _subst(getattr(e, name), env)
                             for name in ("lhs", "rhs", "arg") if hasattr(e, name)})
    return e


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
    in its bounds wherever `known` holds renders as its body.  An innermost
    loop of `STREAM_MIN_TRIPS` or more trips left guard-free folds its
    single-use temporaries (`_fold`) and may run over slices (`_stream`), with
    the trees, order and cost of the indexed loop; no slice leaves its loop.
    A shorter one nested in another loop, with no checked divisor (its error
    names the index), renders its folded body once, which proves its accesses
    and costs one trip, and repeats that text once per trip, the index a literal.
    A twiddle reads a table where `_table_of` finds one; a called one that a later
    one of its block reads (`mults` 0) names its angle: `_cos(a0 := c5 * (i0*i1))`.

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
    `c<k>`.  It zeroes its run counters in one chained assignment and
    returns them.  A dynamic buffer is a list the unit appends to, its
    length the logical one, so no load or store may touch it.
    """

    def __init__(self, unit: Unit):
        self.unit = unit
        self.tables: dict[tuple, tuple[str, tuple]] = {}  # (local, key) of each table found
        self.index = {b.name: j for j, b in enumerate(unit.buffers)}
        self.names: dict[str, dict] = {"b": {}, "t": {}, "i": {}, "a": {}}
        # literal values (a ConstF for a slot, see `render`), run counter names
        self.lits: list = []
        self.runs: list[str] = []
        self.branch_costs: list[Counter] = []
        self.streams: dict = {}  # of the loop being rendered (`_stream`)
        self.angles: dict = {}  # the block's shared angles (`_block`): None, or their name
        self.refs: Counter = Counter()  # `_refs` of the unit, made in `_fold`

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

    def _access(self, buffer: str, index: AffineExpr,
                known: Optional[dict]) -> tuple[str, int]:
        """The local name and unit slot of `buffer`, `buffer[index]` proved in
        bounds where `known` holds; raises OutOfBounds."""
        b, j = self._buffer(buffer)
        if self.unit.buffers[j].dynamic:
            raise OutOfBounds(buffer, "a dynamic buffer is only appended to")
        if known is not None:
            lo, hi = affine_interval(index, known)
            cap = self.unit.buffers[j].capacity
            if lo < 0 or hi >= cap:
                raise OutOfBounds(buffer, f"index {index} spans [{lo}, {hi}] "
                                  f"outside [0, {cap})")
        return b, j

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
            return self._lit(e)  # a slot, see `render`
        if isinstance(e, IndexF):
            return f"({self._affine(e.expr, known)})"
        if isinstance(e, Trig):
            cost.update(trig_calls=1, mults=e.mults)
            row, col = self._index(e.row, known), self._index(e.col, known)
            if w := self._table_of(e, known):  # in bounds by construction
                return self.streams.get((w, e.row)) or f"{w}[{row}][{col}]"
            key = id(e.c), e.row, e.col
            if not e.mults and self.angles.get(key):
                return f"_{e.fn}({self.angles[key]})"
            angle = f"{self._lit(e.c)} * ({row}*{col})"
            if e.mults and key in self.angles:  # a later Trig reads it
                self.angles[key] = a = self._name("a", key)
                angle = f"{a} := {angle}"
            return f"_{e.fn}({angle})"
        if isinstance(e, Load):
            b, j = self._access(e.buffer, e.index, known)
            cost["load", j] += 1
            text = self.streams.get(e) if self.streams else None  # hashing costs
            return text or f"{b}[{self._affine(e.index, known)}]"
        if isinstance(e, Arith):
            p = _PRECEDENCE[e.op]
            lhs = self._expr(e.lhs, cost, divisors, known, p)
            rhs = self._expr(e.rhs, cost, divisors, known, p + 1)
            if _checked(e):
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
        outer, self.angles = self.angles, {(id(n.c), n.row, n.col): None for n, _ in _nodes([
            s for s in stmts if type(s) in (Assign, Store)]) if type(n) is Trig and not n.mults}

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
                b = self._access(stmt.buffer, stmt.index, known)[0]
                emit(f"{b}[{self._affine(stmt.index, known)}] = {ex(stmt.source)}")
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
                cap = self._lit(self.unit.buffers[j].capacity)
                lines.append(f"{pad}if len({buf}) >= {cap}:")
                lines.append(f"{pad}    raise _Capacity({buf}, {cap})")
                emit(f"{buf}.append({ex(stmt.value)})")
                cost["stores"] += 1
            elif isinstance(stmt, CheckFinite):
                buf = self._buffer(stmt.buffer)[0]
                lines.append(f"{pad}for _v in {buf}:")
                lines.append(f"{pad}    if not _isfinite(_v):")
                lines.append(f"{pad}        raise _NonFinite({buf})")
            elif isinstance(stmt, For):
                i = self._name("i", stmt.index)
                for lower, upper in (_pieces(stmt) if depth == 1
                                     else [(stmt.lower, stmt.upper)]):
                    trip = max(0, upper - lower)
                    inside = (None if known is None or not trip else
                              {**known, stmt.index: (lower, upper - 1)})
                    flat = self._fold(stmt, inside) if inside and (
                        loop_stack or trip >= STREAM_MIN_TRIPS) else None
                    if flat and trip < STREAM_MIN_TRIPS and not any(
                            _checked(n) for n, _ in _nodes(flat)):  # straight-line
                        body_lines, body_cost = self._block(flat, depth, loop_stack, inside)
                        parts = re.split(rf"\b{i}\b", "\n".join(body_lines))
                        lines.append(f"{pad}# {stmt.tag}: {trip} trips, straight-line")
                        lines += [self._lit(k).join(parts) for k in range(lower, upper)]
                    else:
                        body = flat if flat is not None and trip >= STREAM_MIN_TRIPS else stmt.body
                        head = body is flat and self._stream(stmt.index, flat, lower, upper, inside)
                        head = head or f"{i} in range({self._lit(lower)}, {self._lit(upper)})"
                        body_lines, body_cost = self._block(body, depth + 1, loop_stack + [i],
                                                            inside)
                        self.streams = {}
                        lines.append(f"{pad}for {head}:  # {stmt.tag}")
                        lines.extend(body_lines or [f"{pad}    pass"])
                    body_cost["tag", stmt.tag] += 1
                    cost.update({k: v * trip for k, v in body_cost.items()})
            else:
                raise LoopIrError(f"unknown statement {stmt!r}")
        self.angles = outer
        return lines, cost

    def _fold(self, loop: For, known: dict) -> Optional[list[Stmt]]:
        """The body of `loop` where `known` holds, each guard proved true
        replaced by its body and each single-use temporary folded into its
        reader as a tree; None unless that leaves only Assigns and Stores.  A
        temporary is single-use if nothing outside `loop.body` references it
        and the statement after each Assign to it reads it once, where a tree
        may stand (so nothing in between changes what the value reads)."""
        flat, todo = [], loop.body[::-1]
        while todo:
            s = todo.pop()
            if isinstance(s, SelectGuard) and _holds(s, known):
                todo += s.body[::-1]
            elif not isinstance(s, (Assign, Store)):
                return None
            else:
                flat.append(s)
        wrote = [s.target.name if isinstance(s, Assign) else None for s in flat]
        single = set(wrote) - {None, *wrote[-1:]}
        reads = [_refs(s.value if isinstance(s, Assign) else s.source) for s in flat if single]
        single = {t for t in single if all(n[t] == (w == t) for w, n in zip([None, *wrote], reads))}
        if not single:
            return flat
        self.refs = self.refs or _refs(self.unit.body)
        inside, env, out = _refs(loop.body), {}, []
        for s, t in zip(flat, wrote):
            tree = "value" if t else "source"  # an Assign's, a Store's
            s = replace(s, **{tree: _subst(getattr(s, tree), env)})
            if t in single and inside[t] == self.refs[t]:
                env[t] = s.value
            else:
                out.append(s)
        return out

    def _table_of(self, e: Trig, known: Optional[dict]) -> Optional[str]:
        """The local name of the table (`TABLES`) twiddle `e` reads where `known`
        holds, if its row and column run from 0, in R rows and C columns with
        4*R*C <= TABLE_ENTRIES; else None."""
        if known is None or known[e.row][0] or known[e.col][0]:
            return None
        rows, cols = known[e.row][1] + 1, known[e.col][1] + 1
        return None if 4 * rows * cols > TABLE_ENTRIES else self.tables.setdefault(
            (id(e.c), e.fn, rows, cols), (f"w{len(self.tables)}", (e.c, e.fn, rows, cols)))[0]

    def _stream(self, index: str, body: list[Stmt], lower: int, upper: int,
                known: dict) -> Optional[str]:
        """The `for` header running `body` for `index` in [lower, upper) over a
        slice per distinct load of coefficient +-1 on `index`, proved with the
        load, and a row per table a twiddle of column `index` reads (`self.streams`
        names them); None unless `body` is Assigns, reads `index` no other way,
        and checks no divisor (its error names `index`)."""
        streams: dict = {}  # a Load, or a table's (local name, row index)
        for n, _ in _nodes(body):  # a Store, the first node of its statement, ends it
            terms = dict(n.index.terms if isinstance(n, Load) else
                         n.expr.terms if isinstance(n, IndexF) else
                         ((n.row, 0), (n.col, 0)) if isinstance(n, Trig) else ())
            w = isinstance(n, Trig) and n.col == index != n.row and self._table_of(n, known)
            if w or isinstance(n, Load) and terms.get(index) in (1, -1):
                streams.setdefault((w, n.row) if w else n, f"s{len(streams)}")
            elif isinstance(n, Store) or index in terms or _checked(n):
                return None
        slices = []
        for load in streams:  # load.index less c * index, shifted to each bound
            if type(load) is tuple:  # a table's whole row
                slices.append(f"{load[0]}[{self._index(load[1], known)}]")
                continue
            b, c = self._access(load.buffer, load.index, known)[0], dict(load.index.terms)[index]
            lo, hi = (self._affine(load.index.plus(AffineExpr.of(index, -c, k)), known)
                      for k in ((lower, upper) if c == 1 else (1 - upper, 1 - lower)))
            slices.append(f"{b}[{lo}:{hi}]" if c == 1 else f"reversed({b}[{lo}:{hi}])")
        self.streams = streams
        return f"{', '.join(streams.values())} in " + (  # zip makes 1-tuples
            slices[0] if len(slices) == 1 else f"zip({', '.join(slices)})") if streams else None

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
        compiled once per text (`UNIT_CODE`).  The walk reads no ConstF value:
        each lifts to a literal, a slot that each unit of the same shape fills
        with its own value (`_bound`)."""
        body, cost = self._block(self.unit.body, 1, [], {})
        body[:0] = [f"    {w} = _table({self._lit(c)}, {trig!r}, {', '.join(map(self._lit, size))})"
                    for w, (c, trig, *size) in self.tables.values()]
        params = [*self.names["b"].values(), *(f"c{k}" for k in range(len(self.lits)))]
        if self.runs:
            body = [f"    {' = '.join(self.runs)} = 0", *body,
                    f"    return [{', '.join(self.runs)}]"]
        text = sys.intern("\n".join([f"def _run({', '.join(params)}):", *body]))
        code = UNIT_CODE.get(text)
        if code is None:  # the function's code is the module's first constant
            code = UNIT_CODE[text] = compile(text, "<loop-unit>", "exec").co_consts[0]
        order = {id(c): j for j, c in enumerate(_consts(self.unit.body, []))}
        return _Rendered(text, FunctionType(code, _NS, "_run", tuple(self.lits)), "",
                         tuple(map(self.index.get, self.names["b"])),
                         tuple(cost.items()),
                         tuple(tuple(c.items()) for c in self.branch_costs),
                         tuple((k, order[id(v)]) for k, v in enumerate(self.lits)
                               if isinstance(v, ConstF)))


def _bound(shape: _Rendered, unit: Unit) -> _Rendered:
    """The render of `unit`'s shape, the unit's own ConstF values in its slots."""
    lits, consts = list(shape.fn.__defaults__), _consts(unit.body, [])
    for k, j in shape.slots:
        lits[k] = consts[j].value
    return shape._replace(fn=FunctionType(shape.fn.__code__, _NS, "_run", tuple(lits)),
                          literals="".join([f", {_literal(v)}" for v in lits]))


# The render of each op shape (`Unit.shape`) seen last, least recently used
# first out: a unit of a shape held here is bound to its render, not walked.
SHAPE_RENDERS: dict[Hashable, _Rendered] = {}


def _rendered(unit: Unit) -> _Rendered:
    rendered = getattr(unit, "_rendered", None)
    if rendered is None:
        shape = SHAPE_RENDERS.pop(unit.shape, None) or _Compiler(unit).render()
        rendered = unit._rendered = _bound(shape, unit)
        if unit.shape is not None:
            SHAPE_RENDERS[unit.shape] = shape
            if len(SHAPE_RENDERS) > UNIT_MEMO_SIZE:
                del SHAPE_RENDERS[next(iter(SHAPE_RENDERS))]
    return rendered


# The most elements a program's buffers may hold in all; a run fails before it
# allocates more, since with overcommitted memory that kills, not MemoryError.
MAX_ELEMENTS = 2 ** 24


class _Linked(NamedTuple):
    """A program's calls and buffer slots, its costs keyed as `ExecCounters` reports them:
    a field name, ("tag", t) or ("load", buffer)."""

    # per call, in order: (rendered unit, buffer slots, label)
    calls: list[tuple[_Rendered, tuple[int, ...], str]]
    static: dict  # cost of one run per key
    branches: list[list[tuple]]  # (key, cost) per run counter
    starts: list[int]  # the first run counter of each call's branches, then their count
    too_large: Optional[BufferDecl]  # the buffer that passes MAX_ELEMENTS in all, if any
    inputs: list[tuple[str, int, int]]  # (input name, buffer slot, capacity)
    outputs: list[tuple[int, int]]  # (value printed or returned, buffer slot)
    kept: tuple[tuple[int, list], ...] = ()  # (slot, buffer a run binds), see `_skip_input_free`


def _link(program: LoopProgram) -> _Linked:
    """Bind each call's unit to the program's buffers: the program slot of
    each parameter of its one function, its costs with each load keyed by the
    call's buffer, and the slot of each input and each printed or returned value."""
    slot = {b.name: k for k, b in enumerate(program.buffers)}
    bound = [(_rendered(unit), names) for _, unit, names in program.calls]
    calls = [(r, tuple([slot[names[j]] for j in r.params]), label)
             for (r, names), (label, *_) in zip(bound, program.calls)]
    static: dict = {}
    branches: list[list[tuple]] = []
    for r, names in bound:  # a load's unit slot j becomes the call's buffer names[j]
        for key, v in r.static:
            if key[0] == "load":  # never a field name's first letter
                key = "load", names[key[1]]
            static[key] = static.get(key, 0) + v
        branches += [[(("load", names[key[1]]) if key[0] == "load" else key, v)
                      for key, v in cost] for cost in r.branches]
    starts = [*accumulate([len(r.branches) for r, _ in bound], initial=0)]
    too_large = next((b for b, total in zip(program.buffers, accumulate(
        b.capacity for b in program.buffers)) if total > MAX_ELEMENTS), None)
    inputs = [(name, slot[b], program.buffers[slot[b]].capacity) for name, b in program.inputs]
    outputs = [(vid, slot[b]) for vid, b in program.outputs + program.returns]
    return _Linked(calls, static, branches, starts, too_large, inputs, outputs)


def _skip_input_free(linked: _Linked, input_free: frozenset[int], bufs: list,
                     runs: list[int]) -> _Linked:
    """`linked` less its input-free calls (`input_free`), after a run of it that
    ended without raising: each buffer they touched is kept from the run's
    `bufs`, and their branch runs (in `runs`) fold into the static cost.  It keeps
    no `starts`: a record that keeps buffers is not folded again."""
    calls, static, branches = linked.calls.copy(), linked.static.copy(), linked.branches.copy()
    for c in sorted(input_free, reverse=True):  # a later call first: the earlier stay put
        span = slice(linked.starts[c], linked.starts[c + 1])
        for n, cost in zip(runs[span], linked.branches[span]):
            for key, v in cost:
                static[key] = static.get(key, 0) + v * n
        del calls[c], branches[span]
    return linked._replace(
        calls=calls, static=static, branches=branches, starts=[],
        kept=tuple({k: bufs[k] for c in input_free for k in linked.calls[c][1]}.items()))


def _ensure_compiled(program: LoopProgram) -> _Linked:
    compiled = getattr(program, "_compiled", None)
    if compiled is None:
        compiled = program._compiled = _link(program)
    return compiled


def compiled_source(program: LoopProgram) -> str:
    """The text form of a program, compiled if need be; buffer comments show
    capacity, `dyn`, bound input and up to 8 initial values, and the k-th
    distinct unit is named `_run<k>`."""
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
    for r, *_ in calls:
        if r.text not in names:
            names[r.text] = f"_run{len(names)}"
            lines.append(f"def {names[r.text]}{r.text.removeprefix('def _run')}")
    for c, (r, slots, label) in enumerate(calls):
        args = (", ".join([program.buffers[k].name for k in slots])
                + r.literals).removeprefix(", ")
        lines.append(f"{names[r.text]}({args})" + (f"  # {label}" if label else "")
                     + " (input-free: runs once)" * (c in program.input_free))
    return "\n".join(lines)


def check_budget(program: LoopProgram) -> _Linked:
    """`program` linked, once its buffers are checked against MAX_ELEMENTS: a run, and
    a caller before it draws inputs, fails before allocating."""
    linked = _ensure_compiled(program)
    if b := linked.too_large:
        raise BufferTooLarge(f"buffer {b.name} of capacity {b.capacity} cannot be allocated: "
                             f"a program's buffers hold at most {MAX_ELEMENTS} elements")
    return linked


def evaluate_loop_ir(program: LoopProgram,
                     inputs: Optional[dict[str, Tensor]] = None
                     ) -> tuple[dict[int, Tensor], ExecCounters]:
    """Run a loop program; returns printed/returned tensors and counters."""
    inputs = inputs or {}
    # a program that has a folded record passed `check_budget` on its first run
    linked = getattr(program, "_folded", None) or check_budget(program)
    filled = dict(linked.kept)  # the buffers a run binds, not allocates
    for name, k, cap in linked.inputs:
        if name not in inputs:
            raise InputMismatch(f"input {name!r} is not bound")
        t = inputs[name]
        if len(t) != cap:
            raise InputMismatch(
                f"input {name!r} expects {cap} samples, got {len(t)}")
        filled[k] = list(t.values)
    bufs = [filled[k] if k in filled else list(b.init) if b.init is not None
            else [] if b.dynamic else [0.0] * b.capacity for k, b in enumerate(program.buffers)]

    runs: list[int] = []
    t0 = time.perf_counter_ns()
    try:
        for r, slots, _ in linked.calls:
            runs += r.fn(*[bufs[k] for k in slots]) or ()
    except (NonFinite, CapacityExceeded) as exc:  # raised with the buffer itself
        buf, *cap = exc.args
        name = next(b.name for b, v in zip(program.buffers, bufs) if v is buf)
        raise type(exc)(_MESSAGES[type(exc)].format(name, *cap)) from None
    wall = time.perf_counter_ns() - t0
    if program.input_free and not linked.kept:
        program._folded = _skip_input_free(linked, program.input_free, bufs, runs)

    total = linked.static.copy()
    for n, cost in zip(runs, linked.branches):
        if n:
            for key, v in cost:
                total[key] = total.get(key, 0) + v * n
    fields, tags, loads = {}, {}, {}
    for key, v in total.items():
        if type(key) is str:
            fields[key] = v
        elif v:
            (tags if key[0] == "tag" else loads)[key[1]] = v
    counters = ExecCounters(
        loop_iterations=sum(tags.values()), loads=sum(loads.values()), wall_time_ns=wall,
        loop_iters_by_tag=tags, loads_by_buffer=loads, **fields)

    return {vid: Tensor(tuple(bufs[k])) for vid, k in linked.outputs}, counters


_REPORT_KEYS = ("loop_iterations", "loads", "stores", "mults", "adds",
                "trig_calls", "wall_time_ns")


def counters_report(before: ExecCounters, after: ExecCounters,
                    steady: Optional[tuple[int, int]] = None) -> dict:
    """Per-counter after/before ratios; JSON-ready with stable key order.  With
    `steady`, the (before, after) wall time of runs after the first, a row for it."""
    report = {"before": before.as_dict(), "after": after.as_dict(), "ratios": {}}
    if steady:
        report["before"]["steady_wall_time_ns"], report["after"]["steady_wall_time_ns"] = steady
    for key in _REPORT_KEYS + ("steady_wall_time_ns",) * bool(steady):
        b, a = report["before"][key], report["after"][key]
        report["ratios"][key] = (a / b) if b else (1.0 if a == 0 else float("inf"))
    return report


def report_table(report: dict) -> str:
    """Render a counters_report dict as an aligned human-readable table."""
    rows = [("counter", "before", "after", "ratio")]
    for key in report["ratios"]:
        rows.append((key, str(report["before"][key]),
                     str(report["after"][key]),
                     f"{report['ratios'][key]:.6g}"))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    return "\n".join(
        "  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
        for row in rows)

"""Loop-level IR: counted loops over flat float buffers with affine indexing.

Loop and guard bounds are static ints, so every loop has a trip count known
at build time.  Index arithmetic is exact integer arithmetic over loop
variables and is not metered; the float data path (loads, stores,
multiplies, adds, trig calls) is what the execution counters measure.

A float operand is an expression tree (`Expr`): temporaries, constants and
index values at the leaves, buffer loads, binary arithmetic and intrinsic
calls above them.  A statement evaluates its trees in the association they
are built with; `Assign` keeps a tree's value in a temporary, and `Store`,
`Select`, `IfCmp` and `DynAppend` read trees directly.  All static accesses,
loads inside trees included, are bounds-checked by `validate_program` before
a program is first compiled; a negative or overflowing index is only legal
inside a SelectGuard that establishes its range.

A program is its buffers and one call per op, `(label, unit, buffer names)`.
A `Unit` is an op's statements over its own buffers, named as the op's
canonical copy names them (operands ``v0..v<k-1>``, results from ``v<k>``);
a call binds them, in order, to program buffers.  Units are shared: programs
with an equal op hold the same unit object, which is bounds-checked once.
A program's text form is its generated Python, `interp.compiled_source`: a
function per distinct unit, a call per op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from .errors import DspcError


class LoopIrError(DspcError):
    pass


class OutOfBounds(LoopIrError):
    def __init__(self, buffer: str, detail: str):
        super().__init__(f"buffer {buffer!r}: {detail}")
        self.buffer = buffer


@dataclass(frozen=True, slots=True)
class AffineExpr:
    """const + sum(coeff * index) evaluated in exact integer arithmetic."""

    const: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(index: str, coeff: int = 1, const: int = 0) -> "AffineExpr":
        return AffineExpr(const=const, terms=((index, coeff),))

    @staticmethod
    def lit(const: int) -> "AffineExpr":
        return AffineExpr(const=const)

    def plus(self, other: "AffineExpr") -> "AffineExpr":
        coeffs: dict[str, int] = {}
        for name, c in self.terms + other.terms:
            coeffs[name] = coeffs.get(name, 0) + c
        terms = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
        return AffineExpr(const=self.const + other.const, terms=terms)

    def shifted(self, k: int) -> "AffineExpr":
        return AffineExpr(const=self.const + k, terms=self.terms)

    def source(self, name=str, lit=str) -> str:
        """Render as a Python/int expression string, spelling each index with
        `name` and each literal (a nonzero offset, a coefficient not +-1) with `lit`."""
        parts: list[str] = []
        for index, coeff in self.terms:
            i = name(index)
            parts.append(i if coeff == 1 else f"-{i}" if coeff == -1
                         else f"{lit(coeff)}*{i}")
        if self.const or not parts:
            parts.append(lit(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __str__(self) -> str:
        return self.source()


# Expressions ----------------------------------------------------------------
# A float-valued operand is an expression tree: temporaries, constants and
# index values at the leaves; buffer loads, binary arithmetic and intrinsic
# calls inside.  `a + b`, `a - b`, `a * b` and `a / b` on nodes build an
# `Arith` tree with the association of the Python expression; a plain number
# on either side becomes a `ConstF`.


def _arith(op: str, swap: bool = False):
    def build(self, other):
        if not isinstance(other, _ArithOps):
            other = ConstF(float(other))
        return Arith(op, other, self) if swap else Arith(op, self, other)
    return build


class _ArithOps:
    __slots__ = ()
    __add__, __radd__ = _arith("add"), _arith("add", swap=True)
    __sub__, __rsub__ = _arith("sub"), _arith("sub", swap=True)
    __mul__, __rmul__ = _arith("mul"), _arith("mul", swap=True)
    __truediv__ = _arith("div")


@dataclass(frozen=True, slots=True)
class TempRef(_ArithOps):
    name: str


@dataclass(frozen=True, slots=True)
class ConstF(_ArithOps):
    value: float


@dataclass(frozen=True, slots=True)
class IndexF(_ArithOps):
    """The value of an affine index expression used as float data."""

    expr: AffineExpr


@dataclass(frozen=True, slots=True)
class IndexProdF(_ArithOps):
    """Product of two loop indices as float data (exact below 2**53).

    Transform lowerings need k*n for the phase angle; the product itself is
    index arithmetic and is not metered.
    """

    a: str
    b: str


@dataclass(frozen=True, slots=True)
class Load(_ArithOps):
    buffer: str
    index: AffineExpr


@dataclass(frozen=True, slots=True)
class Arith(_ArithOps):
    op: str  # add | sub | mul | div
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True, slots=True)
class Call(_ArithOps):
    fn: str  # sin | cos | sinc_eval | abs | floor
    arg: "Expr"


LEAVES = (TempRef, ConstF, IndexF, IndexProdF)
Expr = Union[TempRef, ConstF, IndexF, IndexProdF, Load, Arith, Call]


def loads_in(e: Expr) -> Iterator[Load]:
    """Every buffer load in a tree."""
    if isinstance(e, Load):
        yield e
    elif isinstance(e, Arith):
        yield from loads_in(e.lhs)
        yield from loads_in(e.rhs)
    elif isinstance(e, Call):
        yield from loads_in(e.arg)


# Statements -----------------------------------------------------------------


@dataclass(slots=True)
class For:
    """``for index in [lower, upper)``; its iterations are counted under `tag`."""

    index: str
    lower: int
    upper: int
    body: list["Stmt"]
    tag: str


@dataclass(slots=True)
class Assign:
    target: TempRef
    value: Expr


@dataclass(slots=True)
class Store:
    buffer: str
    index: AffineExpr
    source: Expr


@dataclass(slots=True)
class SelectGuard:
    """Boundary guard: run `body` when lower <= expr < upper, else `orelse`."""

    expr: AffineExpr
    lower: int
    upper: int
    body: list["Stmt"]
    orelse: list["Stmt"] = field(default_factory=list)


@dataclass(slots=True)
class IfCmp:
    """Data-dependent branch on a float comparison."""

    cmp: str  # eq | ne | lt | le | gt | ge
    lhs: Expr
    rhs: Expr
    body: list["Stmt"]
    orelse: list["Stmt"] = field(default_factory=list)


@dataclass(slots=True)
class Select:
    """target = if_true if (lhs cmp rhs) else if_false; only the comparison
    may do metered work, since the arm taken is data-dependent."""

    target: TempRef
    cmp: str
    lhs: Expr
    rhs: Expr
    if_true: Expr
    if_false: Expr


@dataclass(slots=True)
class DynAppend:
    buffer: str
    value: Expr


@dataclass(slots=True)
class CheckFinite:
    buffer: str


Stmt = Union[For, Assign, Store, SelectGuard, IfCmp, Select, DynAppend,
             CheckFinite]


def operands(stmt: Stmt) -> tuple[Expr, ...]:
    """The expression trees a statement evaluates (not its branch bodies)."""
    if isinstance(stmt, (Assign, DynAppend)):
        return (stmt.value,)
    if isinstance(stmt, Store):
        return (stmt.source,)
    if isinstance(stmt, Select):
        return (stmt.lhs, stmt.rhs, stmt.if_true, stmt.if_false)
    if isinstance(stmt, IfCmp):
        return (stmt.lhs, stmt.rhs)
    return ()


@dataclass(frozen=True, slots=True)
class BufferDecl:
    name: str
    capacity: int
    init: Optional[tuple[float, ...]] = None  # data segment, e.g. constants
    dynamic: bool = False  # filled by DynAppend; logical length is the cursor


@dataclass(eq=False)
class Unit:
    """The statements of one op over `buffers`, its parameters in call order;
    `checked` once `validate_program` has proved its accesses in bounds.
    Programs share units (and their statements), so none may be changed."""

    buffers: tuple[BufferDecl, ...]
    body: list[Stmt]
    checked: bool = field(default=False, init=False, repr=False)


# (label "%<id> <opcode>", unit, the program buffer bound to each unit buffer)
UnitCall = tuple[str, Unit, tuple[str, ...]]


@dataclass
class LoopProgram:
    buffers: list[BufferDecl]
    inputs: list[tuple[str, str]]  # (source-level input name, buffer name)
    outputs: list[tuple[int, str]]  # (ValueId printed, buffer name), in print order
    returns: list[tuple[int, str]] = field(default_factory=list)
    calls: list[UnitCall] = field(default_factory=list)

    @property
    def body(self) -> list[Stmt]:
        """The statements of every call's unit, in call order (the statement
        count `perfbench/run.py` reports reads them)."""
        return [stmt for _, unit, _ in self.calls for stmt in unit.body]


# Static validation ----------------------------------------------------------


def affine_interval(expr: AffineExpr, ranges: dict[str, tuple[int, int]]
                    ) -> tuple[int, int]:
    """The inclusive range of `expr` with each index in its inclusive range
    in `ranges`; raises LoopIrError on an index that has none."""
    lo = hi = expr.const
    for name, coeff in expr.terms:
        if name not in ranges:
            raise LoopIrError(f"index {name!r} used outside its loop")
        a, b = ranges[name]
        lo += min(coeff * a, coeff * b)
        hi += max(coeff * a, coeff * b)
    return lo, hi


def validate_program(program: LoopProgram) -> None:
    """Prove every static buffer access of each unit not yet checked in
    bounds; raises OutOfBounds.  `interp` runs this once per program, before
    its first compile, so a unit shared by many programs is checked once."""
    for _, unit, _ in program.calls:
        if not unit.checked:
            validate_unit(unit)


def validate_unit(unit: Unit) -> None:
    """Prove every static buffer access of `unit` in bounds against the
    capacities of its buffers; raises OutOfBounds.

    Accesses under a SelectGuard whose guarded expression matches the access
    index are checked against the guard's range instead.
    """
    caps = {b.name: b.capacity for b in unit.buffers}

    def check_block(stmts: Iterable[Stmt], ranges: dict[str, tuple[int, int]],
                    guards: dict[AffineExpr, tuple[int, int]]) -> None:
        for stmt in stmts:
            if isinstance(stmt, DynAppend) and stmt.buffer not in caps:
                raise OutOfBounds(stmt.buffer, "unknown buffer")
            accesses = [load for e in operands(stmt) for load in loads_in(e)]
            for a in accesses + ([stmt] if isinstance(stmt, Store) else []):
                if a.buffer not in caps:
                    raise OutOfBounds(a.buffer, "unknown buffer")
                lo, hi = guards.get(a.index) or affine_interval(a.index, ranges)
                if lo < 0 or hi >= caps[a.buffer]:
                    raise OutOfBounds(
                        a.buffer, f"index {a.index} spans [{lo}, {hi}] "
                        f"outside [0, {caps[a.buffer]})")
            if isinstance(stmt, For):
                if stmt.upper <= stmt.lower:
                    continue  # empty loop, body never executes
                sub = dict(ranges)
                sub[stmt.index] = (stmt.lower, stmt.upper - 1)
                check_block(stmt.body, sub, guards)
            elif isinstance(stmt, SelectGuard):
                if (stmt.expr.const == 0 and len(stmt.expr.terms) == 1
                        and stmt.expr.terms[0][1] == 1):
                    # Guard on a bare loop index: narrow that index's range
                    # so any expression over it (e.g. a mirrored store at
                    # N-1-k) inherits the constraint.
                    name = stmt.expr.terms[0][0]
                    lo, hi = ranges.get(name, (stmt.lower, stmt.upper - 1))
                    narrowed = (max(lo, stmt.lower), min(hi, stmt.upper - 1))
                    if narrowed[0] <= narrowed[1]:
                        sub_r = dict(ranges)
                        sub_r[name] = narrowed
                        check_block(stmt.body, sub_r, guards)
                else:
                    sub = dict(guards)
                    sub[stmt.expr] = (stmt.lower, stmt.upper - 1)
                    check_block(stmt.body, ranges, sub)
                check_block(stmt.orelse, ranges, guards)
            elif isinstance(stmt, IfCmp):
                check_block(stmt.body, ranges, guards)
                check_block(stmt.orelse, ranges, guards)

    check_block(unit.body, {}, {})
    unit.checked = True

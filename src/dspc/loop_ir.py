"""Loop-level IR: counted loops over flat float buffers with affine indexing.

Loop and guard bounds are static ints, so every loop has a trip count known
at build time.  Index arithmetic is exact integer arithmetic over loop
variables and is not metered; the float data path (loads, stores,
multiplies, adds, trig calls) is what the execution counters measure.  All
static accesses are bounds-checked by `validate_program` before a program is
first compiled; a negative or overflowing index is only legal inside a
SelectGuard that establishes its range.  A program's text form is its
generated Python, `interp.compiled_source`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .errors import DspcError


class LoopIrError(DspcError):
    pass


class OutOfBounds(LoopIrError):
    def __init__(self, buffer: str, detail: str):
        super().__init__(f"buffer {buffer!r}: {detail}")
        self.buffer = buffer


@dataclass(frozen=True)
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

    def source(self) -> str:
        """Render as a Python/int expression string."""
        parts: list[str] = []
        for name, coeff in self.terms:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __str__(self) -> str:
        return self.source()


# Float-valued operands ------------------------------------------------------


@dataclass(frozen=True)
class TempRef:
    name: str


@dataclass(frozen=True)
class ConstF:
    value: float


@dataclass(frozen=True)
class IndexF:
    """The value of an affine index expression used as float data."""

    expr: AffineExpr


@dataclass(frozen=True)
class IndexProdF:
    """Product of two loop indices as float data (exact below 2**53).

    Transform lowerings need k*n for the phase angle; the product itself is
    index arithmetic and is not metered.
    """

    a: str
    b: str


Operand = Union[TempRef, ConstF, IndexF, IndexProdF]


# Statements -----------------------------------------------------------------


@dataclass
class For:
    """``for index in [lower, upper)``; its iterations are counted under `tag`."""

    index: str
    lower: int
    upper: int
    body: list["Stmt"]
    tag: str


@dataclass
class Load:
    target: str
    buffer: str
    index: AffineExpr


@dataclass
class Store:
    buffer: str
    index: AffineExpr
    source: Operand


@dataclass
class BinaryArith:
    target: str
    op: str  # add | sub | mul | div
    lhs: Operand
    rhs: Operand


@dataclass
class IntrinsicCall:
    target: str
    fn: str  # sin | cos | sinc_eval | abs | floor
    arg: Operand


@dataclass
class SetTemp:
    target: str
    source: Operand


@dataclass
class SelectGuard:
    """Boundary guard: run `body` when lower <= expr < upper, else `orelse`."""

    expr: AffineExpr
    lower: int
    upper: int
    body: list["Stmt"]
    orelse: list["Stmt"] = field(default_factory=list)


@dataclass
class IfCmp:
    """Data-dependent branch on a float comparison."""

    cmp: str  # eq | ne | lt | le | gt | ge
    lhs: Operand
    rhs: Operand
    body: list["Stmt"]
    orelse: list["Stmt"] = field(default_factory=list)


@dataclass
class Select:
    """target = if_true if (lhs cmp rhs) else if_false."""

    target: str
    cmp: str
    lhs: Operand
    rhs: Operand
    if_true: Operand
    if_false: Operand


@dataclass
class DynAppend:
    buffer: str
    value: Operand


@dataclass
class CheckFinite:
    buffer: str


Stmt = Union[For, Load, Store, BinaryArith, IntrinsicCall, SetTemp, SelectGuard,
             IfCmp, Select, DynAppend, CheckFinite]


@dataclass(frozen=True)
class BufferDecl:
    name: str
    capacity: int
    init: Optional[tuple[float, ...]] = None  # data segment, e.g. constants
    dynamic: bool = False  # filled by DynAppend; logical length is the cursor


@dataclass
class LoopProgram:
    buffers: list[BufferDecl]
    body: list[Stmt]
    inputs: list[tuple[str, str]]  # (source-level input name, buffer name)
    outputs: list[tuple[int, str]]  # (ValueId printed, buffer name), in print order
    returns: list[tuple[int, str]] = field(default_factory=list)

    def buffer(self, name: str) -> BufferDecl:
        for b in self.buffers:
            if b.name == name:
                return b
        raise KeyError(name)


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
    """Prove every static buffer access in bounds; raises OutOfBounds.

    Accesses under a SelectGuard whose guarded expression matches the access
    index are checked against the guard's range instead.  `interp` runs this
    once per program, before its first compile.
    """
    caps = {b.name: b.capacity for b in program.buffers}

    def check_block(stmts: Iterable[Stmt], ranges: dict[str, tuple[int, int]],
                    guards: dict[AffineExpr, tuple[int, int]]) -> None:
        for stmt in stmts:
            if isinstance(stmt, For):
                if stmt.upper <= stmt.lower:
                    continue  # empty loop, body never executes
                sub = dict(ranges)
                sub[stmt.index] = (stmt.lower, stmt.upper - 1)
                check_block(stmt.body, sub, guards)
            elif isinstance(stmt, (Load, Store)):
                if stmt.buffer not in caps:
                    raise OutOfBounds(stmt.buffer, "unknown buffer")
                bound = guards.get(stmt.index)
                if bound is not None:
                    lo, hi = bound
                else:
                    lo, hi = affine_interval(stmt.index, ranges)
                if lo < 0 or hi >= caps[stmt.buffer]:
                    raise OutOfBounds(
                        stmt.buffer,
                        f"index {stmt.index} spans [{lo}, {hi}] outside "
                        f"[0, {caps[stmt.buffer]})")
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
            elif isinstance(stmt, DynAppend):
                if stmt.buffer not in caps:
                    raise OutOfBounds(stmt.buffer, "unknown buffer")

    check_block(program.body, {}, {})

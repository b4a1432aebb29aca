"""Loop-level IR: counted loops over flat float buffers with affine indexing.

Loop and guard bounds are static ints, so every loop has a trip count known
at build time.  Index arithmetic is exact integer arithmetic over loop
variables and is not metered; the float data path (loads, stores,
multiplies, adds, trig calls) is what the execution counters measure.

A float operand is an expression tree (`Expr`): temporaries, constants,
index values and transform twiddles (`Trig`) at the leaves, buffer loads,
binary arithmetic and intrinsic calls and conditionals above them.  A
statement evaluates its trees in the association they are built with;
`Assign` keeps a tree's value in a temporary, and `Store`, `IfCmp` and
`DynAppend` read trees directly.  Every static access, loads inside trees
included, is proved in bounds by the walk that renders its unit (`interp`),
before the unit is first compiled; a negative or overflowing index is only
legal inside a SelectGuard that establishes its range.  The same walk decides
where each guard holds, so the IR keeps every guard as emitted: it splits
guard-free interiors off a nest and drops each guard it proves true only in
the text it renders.

A program is its buffers and one call per op, `(label, unit, buffer names)`.
A `Unit` is an op's statements over its own buffers, named as the op's
canonical copy names them (operands ``v0..v<k-1>``, results from ``v<k>``);
a call binds them, in order, to program buffers.  Units are shared: programs
with an equal op hold the same unit object, checked and rendered once into
one function that every call runs.  A program's text form is its generated
Python, `interp.compiled_source`: a function per distinct unit, a call per op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, NamedTuple, Optional, Union

from .errors import DspcError


class LoopIrError(DspcError):
    pass


class OutOfBounds(LoopIrError):
    def __init__(self, buffer: str, detail: str):
        super().__init__(f"buffer {buffer!r}: {detail}")


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
# A float-valued operand is an expression tree: temporaries, constants, index
# values and twiddles at the leaves; buffer loads, binary arithmetic, intrinsic
# calls and conditionals inside.  `a + b`, `a - b`, `a * b` and `a / b` on
# nodes build an `Arith` tree with the association of the Python expression;
# a plain number on either side becomes a `ConstF`.


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
class Trig(_ArithOps):
    """``fn(c * (row*col))`` of two loop indices, a transform's twiddle: one
    trig call and `mults` multiplies, 0 where an earlier Trig of the same
    angle (the same `c` object and indices) in its statements paid for it.
    The index product is exact below 2**53 and not metered; `interp` reads
    the value from a table where both indices run from 0 over a small range."""

    fn: str  # sin | cos
    c: ConstF
    row: str
    col: str
    mults: int = 1


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


@dataclass(frozen=True, slots=True)
class Cond(_ArithOps):
    """`if_true` if (lhs cmp rhs) else `if_false`; only the comparison may do
    metered work, since the arm taken is data-dependent."""

    cmp: str  # eq | ne | lt | le | gt | ge
    lhs: "Expr"
    rhs: "Expr"
    if_true: "Expr"
    if_false: "Expr"


LEAVES = (TempRef, ConstF, IndexF)  # free to read again
Expr = Union[TempRef, ConstF, IndexF, Trig, Load, Arith, Call, Cond]


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
class DynAppend:
    buffer: str
    value: Expr


@dataclass(slots=True)
class CheckFinite:
    buffer: str


Stmt = Union[For, Assign, Store, SelectGuard, IfCmp, DynAppend, CheckFinite]


class BufferDecl(NamedTuple):
    name: str
    capacity: int
    init: Optional[tuple[float, ...]] = None  # data segment, e.g. constants
    dynamic: bool = False  # a list filled by DynAppend alone, up to capacity


# Units `lowering.op_unit` keeps (statements and bound render, about 2.7 KB each) and op
# shapes whose renders `interp` keeps (about 2.0 KB each), least recently used first out.
UNIT_MEMO_SIZE = 256


@dataclass(eq=False)
class Unit:
    """The statements of one op over `buffers`, its parameters in call order.
    Programs share units (and their statements), so none may be changed.
    Units with one op `shape` (`lowering.op_unit`) differ only in ConstF
    values and share one render; a hand-built unit has none, renders alone."""

    buffers: tuple[BufferDecl, ...]
    body: list[Stmt]
    shape: Optional[Hashable] = None


# (label "%<id> <opcode>", unit, the program buffer bound to each unit buffer)
UnitCall = tuple[str, Unit, tuple[str, ...]]


@dataclass
class LoopProgram:
    buffers: list[BufferDecl]
    inputs: list[tuple[str, str]]  # (source-level input name, buffer name)
    outputs: list[tuple[int, str]]  # (ValueId printed, buffer name), in print order
    returns: list[tuple[int, str]] = field(default_factory=list)
    calls: list[UnitCall] = field(default_factory=list)
    # the position in `calls` of each call whose op is input-free: it reads no
    # input, only constants and input-free values (`interp` runs it once)
    input_free: frozenset[int] = frozenset()

    @property
    def body(self) -> list[Stmt]:
        """The statements of every call's unit as emitted, unsplit, in call
        order (the statement count `perfbench/run.py` reports reads them)."""
        return [stmt for _, unit, _ in self.calls for stmt in unit.body]


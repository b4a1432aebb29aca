"""Graph rewrites that exploit filter/transform structure.

Each pattern matches a small chain of ops by value identity (same SSA value,
not merely an equal-looking subtree), builds the cheaper replacement ops and
names the old values they stand for.  `_MATCHERS` registers each `PatternId`
as ``(matcher, root opcodes)``; the driver tries a matcher only on ops whose
opcode is a root, and applies the patterns in a fixed priority order,
greedily, until a full sweep makes no change.  It keeps one working graph
with its producer and use-count tables for the whole call and updates them in
place: a splice inserts the new ops, rebuilds only the ops that read a
replaced value, prunes the ops left dead (so later patterns never fire on
unused values) and checks the ops it touched.  Ids are made dense and the
whole graph is verified once, at the fixpoint; matchers compare ids only
relatively, so the sparse ids in between change no match.  Pattern ids are
looked up by code with ``PatternId(code)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional

from .errors import DspcError
from .graph import (DspGraph, OpNode, ValueId, check_op, dead_ops, renumber,
                    verify_graph)
from .ops import OP_DEFS, OpCode, TensorShape


class PatternId(Enum):
    SYMMETRIC_FILTER = "1"
    SYMMETRIC_FILTER_RESPONSE = "2"
    FILTER_Y_SYMM = "3"
    DFT_CONJ_SYMM = "4"
    PARSEVAL = "5"
    DFT_FUSION = "6"
    LMS_GAIN_FUSION = "7"
    IDENTITY_DFT_IDFT = "C3a"
    IDENTITY_UP_DOWN = "C3b"


class RewriteError(DspcError):
    pass


class NonTermination(RewriteError):
    def __init__(self, passes: int):
        super().__init__(f"rewriter exceeded {passes} sweeps without reaching a fixpoint")


@dataclass
class RewriteStats:
    applications: dict[PatternId, int] = field(default_factory=dict)
    ops_before: int = 0
    ops_after: int = 0

    @property
    def fired(self) -> set[PatternId]:
        return {pid for pid, n in self.applications.items() if n > 0}

    def total_applications(self) -> int:
        return sum(self.applications.values())


@dataclass(frozen=True)
class _Rewrite:
    """Insert `new_ops` before op index `at` and make every use of a key of
    `subst` read its value instead."""

    at: int
    new_ops: tuple[OpNode, ...]
    subst: dict[ValueId, ValueId]


class _Ctx:
    """The graph being rewritten with its lookup tables, kept current in place
    across applications, and the matchers' op factory."""

    def __init__(self, graph: DspGraph):
        self.graph = graph
        self.producer = graph.producer_map()
        self.uses = graph.use_counts()
        self.index_of = {id(op): i for i, op in enumerate(graph.ops)}
        self.next_id = max((op.id + op.n_results for op in graph.ops if op.n_results),
                           default=0)

    def prod(self, value: ValueId) -> Optional[OpNode]:
        return self.producer.get(value)

    def single_use(self, value: ValueId) -> bool:
        return self.uses.get(value, 0) == 1

    def pos(self, op: OpNode) -> int:
        return self.index_of[id(op)]

    def shape(self, value: ValueId) -> Optional[TensorShape]:
        op = self.prod(value)
        return None if op is None else op.result_shapes[value - op.id]

    def shape_len(self, value: ValueId) -> Optional[int]:
        shape = self.shape(value)
        if shape is None or shape.dynamic:
            return None
        return shape.length

    def new(self, opcode: OpCode, operands: tuple[ValueId, ...] = (),
            attributes: tuple[object, ...] = ()) -> OpNode:
        """A new op with ids above every id in the graph, shaped by its OpDef."""
        sig = OP_DEFS[opcode]
        op = OpNode(id=self.next_id, opcode=opcode, operands=operands, attributes=attributes)
        op = replace(op, result_shapes=sig.result_shapes(op, [self.shape(v) for v in operands]))
        self.next_id += sig.n_results
        for rid in op.result_ids:
            self.producer[rid] = op
        return op

    def splice(self, rw: _Rewrite, prune_all: bool) -> list[str]:
        """Apply `rw` in place and prune the ops it left dead (every dead op
        if `prune_all`); returns the violations of the new and rewired ops."""
        g, subst, get = self.graph, rw.subst, rw.subst.get
        touched, replaced = list(rw.new_ops), subst.keys()
        for i, op in enumerate(g.ops):
            if not replaced.isdisjoint(op.operands):
                g.ops[i] = op = replace(op, operands=tuple(get(v, v) for v in op.operands))
                touched.append(op)
                self.producer.update(dict.fromkeys(op.result_ids, op))
        g.ops[rw.at:rw.at] = rw.new_ops
        moved = {old: self.uses.pop(old, 0) for old in subst}  # a target may be a key too
        for old, n in moved.items():
            self.uses[subst[old]] = self.uses.get(subst[old], 0) + n
        for v in (v for op in rw.new_ops for v in op.operands):
            self.uses[v] = self.uses.get(v, 0) + 1
        dead = dead_ops(self.producer, self.uses, list(self.producer) if prune_all else
                        [*subst, *(r for op in rw.new_ops for r in op.result_ids)])
        if dead:
            g.ops[:] = [op for op in g.ops if id(op) not in dead]
            for r in (r for op in dead.values() for r in op.result_ids):
                del self.producer[r]
        self.index_of = {id(op): i for i, op in enumerate(g.ops)}
        problems: list[str] = []
        for op in (op for op in touched if id(op) not in dead):
            at = self.pos(op)
            problems += check_op(op, {v: self.shape(v) for v in op.operands
                                      if v in self.producer and self.pos(self.producer[v]) < at})
        return problems


def replace_site(ctx: _Ctx, site: OpNode, value: ValueId, *new_ops: OpNode) -> _Rewrite:
    """Replace the single op `site` by `new_ops`; uses of its result read `value`."""
    return _Rewrite(at=ctx.pos(site), new_ops=new_ops, subst={site.id: value})


# --------------------------------------------------------------------------
# Pattern matchers.  Each takes the context and a site op whose opcode is one
# of the pattern's roots in `_MATCHERS` (so it does not test it); on a match
# it builds its new ops with `ctx.new` and returns the splice, else None.


def pat_symmetric_filter(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Mul(low-pass taps, Hamming window) with matching L -> FilterHammOpt."""
    a, b = (ctx.prod(v) for v in site.operands)
    if a is None or b is None:
        return None
    if a.opcode is OpCode.HAMMING_WINDOW and b.opcode is OpCode.LOW_PASS_FIR_COEFFS:
        a, b = b, a
    if a.opcode is not OpCode.LOW_PASS_FIR_COEFFS or b.opcode is not OpCode.HAMMING_WINDOW:
        return None
    if a.attr("L") != b.attr("L"):
        return None
    new = ctx.new(OpCode.FILTER_HAMM_OPT, attributes=a.attributes)  # (L, wc)
    return replace_site(ctx, site, new.id, new)


def pat_symmetric_filter_response(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """FirFilterResponse with coefficients known symmetric -> paired-tap form."""
    h = ctx.prod(site.operands[1])
    if h is None or h.opcode is not OpCode.FILTER_HAMM_OPT:
        return None
    new = ctx.new(OpCode.FILTER_RES_SYMM_OPT, site.operands)
    return replace_site(ctx, site, new.id, new)


def pat_filter_y_symm(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """conv1d(x, reverse(x)) (either operand order) -> half-computed output."""
    a, b = site.operands
    pa, pb = ctx.prod(a), ctx.prod(b)
    x: Optional[ValueId] = None
    if pb is not None and pb.opcode is OpCode.REVERSE and pb.operands[0] == a:
        x = a
    elif pa is not None and pa.opcode is OpCode.REVERSE and pa.operands[0] == b:
        x = b
    if x is None:
        return None
    new = ctx.new(OpCode.FILTER_Y_SYMM_OPT, (x,))
    return replace_site(ctx, site, new.id, new)


def pat_dft_conj_symm(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """DFT of a provably even signal computes half the bins and mirrors."""
    src = ctx.prod(site.operands[0])
    if src is None or src.opcode is not OpCode.FILTER_Y_SYMM_OPT:
        return None
    target = (OpCode.DFT1D_REAL_SYMM if site.opcode is OpCode.DFT1D_REAL
              else OpCode.DFT1D_IMAG_SYMM)
    new = ctx.new(target, site.operands)
    return replace_site(ctx, site, new.id, new)


def pat_parseval(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Div(Sum(Sq(re) + Sq(im)), N) over a DFT of x -> Sum(Square(x)).

    The whole chain must be single-use and the divisor a scalar constant
    equal to the (static) length of x; matches both the separate real/imag
    transforms and the fused one.
    """
    total, divisor = site.operands
    const = ctx.prod(divisor)
    if const is None or const.opcode is not OpCode.CONST_TENSOR:
        return None
    values = const.attr("values")
    if len(values) != 1:
        return None
    sum_op = ctx.prod(total)
    if sum_op is None or sum_op.opcode is not OpCode.SUM or not ctx.single_use(total):
        return None
    add_op = ctx.prod(sum_op.operands[0])
    if add_op is None or add_op.opcode is not OpCode.ADD \
            or not ctx.single_use(sum_op.operands[0]):
        return None
    squares = [ctx.prod(v) for v in add_op.operands]
    if any(s is None or s.opcode is not OpCode.SQUARE for s in squares):
        return None
    if not all(ctx.single_use(v) for v in add_op.operands):
        return None
    a, b = (s.operands[0] for s in squares)  # type: ignore[union-attr]
    if not (ctx.single_use(a) and ctx.single_use(b)):
        return None
    x = _dft_source(ctx, a, b)
    if x is None:
        x = _dft_source(ctx, b, a)
    if x is None:
        return None
    n = ctx.shape_len(x)
    if n is None or float(values[0]) != float(n):
        return None
    square = ctx.new(OpCode.SQUARE, (x,))
    total_of_squares = ctx.new(OpCode.SUM, (square.id,))
    return replace_site(ctx, site, total_of_squares.id, square, total_of_squares)


def _dft_source(ctx: _Ctx, re: ValueId, im: ValueId) -> Optional[ValueId]:
    """The x whose real and imaginary DFT are `re` and `im`, in that order,
    from two separate transforms (or the mirrored pair pattern 4 makes of
    them, which holds every bin) or one fused one; None if there is none."""
    pr, pi = ctx.prod(re), ctx.prod(im)
    if pr is None or pi is None:
        return None
    if pr.operands == pi.operands and (pr.opcode, pi.opcode) in (
            (OpCode.DFT1D_REAL, OpCode.DFT1D_IMAG),
            (OpCode.DFT1D_REAL_SYMM, OpCode.DFT1D_IMAG_SYMM)):
        return pr.operands[0]
    if pr is pi and pr.opcode is OpCode.DFT1D_FUSED and (re, im) == (pr.id, pr.id + 1):
        return pr.operands[0]
    return None


def pat_dft_fusion(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Separate real and imaginary DFTs of one value fuse into a single pass."""
    partner = None
    for op in ctx.graph.ops:
        if op.opcode is OpCode.DFT1D_REAL and op.operands == site.operands:
            partner = op
            break
    if partner is None:
        return None
    new = ctx.new(OpCode.DFT1D_FUSED, site.operands)
    return _Rewrite(at=min(ctx.pos(site), ctx.pos(partner)), new_ops=(new,),
                    subst={partner.id: new.id, site.id: new.id + 1})


def pat_lms_gain_fusion(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Gain applied to a single-use LMS weight vector folds into the update."""
    lms = ctx.prod(site.operands[0])
    if lms is None or lms.opcode is not OpCode.LMS_FILTER:
        return None
    if not ctx.single_use(site.operands[0]):
        return None
    new = ctx.new(OpCode.LMS_FILTER_GAIN_OPT, lms.operands,
                  lms.attributes + site.attributes)  # (mu, M) + (g,)
    return _Rewrite(at=ctx.pos(lms), new_ops=(new,), subst={site.id: new.id})


def pat_identity_dft_idft(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """idft1d applied to the DFT of x is the identity: all uses read x."""
    x = _dft_source(ctx, *site.operands)
    if x is None:
        return None
    return replace_site(ctx, site, x)


def pat_identity_up_down(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """downsample(upsample(x, k), k) with the same k passes x through."""
    up = ctx.prod(site.operands[0])
    if up is None or up.opcode is not OpCode.UPSAMPLE:
        return None
    if site.attr("k") != up.attr("k"):
        return None
    return replace_site(ctx, site, up.operands[0])


_MATCHERS = {
    PatternId.SYMMETRIC_FILTER: (pat_symmetric_filter, {OpCode.MUL}),
    PatternId.SYMMETRIC_FILTER_RESPONSE: (pat_symmetric_filter_response,
                                          {OpCode.FIR_FILTER_RESPONSE}),
    PatternId.FILTER_Y_SYMM: (pat_filter_y_symm, {OpCode.CONV1D_FULL}),
    PatternId.DFT_CONJ_SYMM: (pat_dft_conj_symm, {OpCode.DFT1D_REAL, OpCode.DFT1D_IMAG}),
    PatternId.PARSEVAL: (pat_parseval, {OpCode.DIV}),
    PatternId.DFT_FUSION: (pat_dft_fusion, {OpCode.DFT1D_IMAG}),
    PatternId.LMS_GAIN_FUSION: (pat_lms_gain_fusion, {OpCode.GAIN}),
    PatternId.IDENTITY_DFT_IDFT: (pat_identity_dft_idft, {OpCode.IDFT1D}),
    PatternId.IDENTITY_UP_DOWN: (pat_identity_up_down, {OpCode.DOWNSAMPLE}),
}


def apply_dsp_patterns(graph: DspGraph,
                       enabled: Optional[Iterable[PatternId]] = None
                       ) -> tuple[DspGraph, RewriteStats]:
    """Greedy fixpoint rewriting in pattern-priority order.

    Takes a shape-inferred graph.  Patterns are tried in declaration order;
    within a pattern, its root ops are scanned in topological order and the
    first match is applied, then scanning restarts from the first pattern.  (A
    per-op worklist would change which pattern wins: on an energy chain it
    fuses the transforms before Parseval can match.)  Each application
    splices the match's new ops into one working copy of the graph, rewires
    only the ops that read a replaced value, prunes the ops left dead (all of
    them at the first application, so the first scan sees the graph as
    given, then a cascade from the values that lost their last use) and
    checks the new and rewired ops with `check_op`.  At the fixpoint the ids
    are renumbered and the whole graph is verified once.  Only new ops are
    shaped (from their operands), so a rewrite that would change the shape of
    a rewired value fails the check, and a graph never passed through
    ``infer_shapes`` keeps its unknown shapes.  With no application the
    input graph is returned as is.
    """
    wanted = list(PatternId) if enabled is None else \
        [pid for pid in PatternId if pid in set(enabled)]
    stats = RewriteStats(applications={pid: 0 for pid in wanted},
                         ops_before=len(graph.ops))
    ctx = _Ctx(DspGraph(list(graph.ops)))
    matchers = [(pid, *_MATCHERS[pid]) for pid in wanted]
    sweep_limit = len(graph.ops) + 8
    for _ in range(sweep_limit):
        hit = next(((pid, rw) for pid, match, roots in matchers for op in ctx.graph.ops
                    if op.opcode in roots and (rw := match(ctx, op)) is not None), None)
        if hit is None:
            break
        pid, rewrite = hit
        problems = ctx.splice(rewrite, prune_all=not stats.total_applications())
        if problems:
            raise RewriteError(f"pattern {pid.value} produced an invalid graph: {problems[0]}")
        stats.applications[pid] += 1
    else:
        raise NonTermination(sweep_limit + 1)
    current = graph
    if stats.total_applications():
        current = renumber(ctx.graph)
        problems = verify_graph(current)
        if problems:
            fired = ", ".join(pid.value for pid, n in stats.applications.items() if n)
            raise RewriteError(f"patterns {fired} produced an invalid graph: {problems[0]}")
    stats.ops_after = len(current.ops)
    return current, stats

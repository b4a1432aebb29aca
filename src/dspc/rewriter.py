"""Graph rewrites that exploit filter/transform structure.

Each pattern matches a small chain of ops by value identity (same SSA value,
not merely an equal-looking subtree), replaces it with a cheaper dedicated
op, and leaves dead producers to the cleanup pass.  The driver applies the
patterns in a fixed priority order, greedily, until a full sweep makes no
change; dead ops are pruned after every application so later patterns never
fire on unused values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import DspcError
from .graph import (Attribute, DspGraph, OpNode, ValueId, eliminate_dead_ops,
                    infer_shapes, verify_graph)
from .ops import OP_DEFS, OpCode


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

    @classmethod
    def from_code(cls, code: str) -> "PatternId":
        for pid in cls:
            if pid.value == code:
                return pid
        raise KeyError(code)


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
class _NewOp:
    opcode: OpCode
    operands: tuple[ValueId, ...] = ()
    attributes: tuple[Attribute, ...] = ()


@dataclass(frozen=True)
class _Rewrite:
    """Replace `remove` (list indices) with `new_ops` spliced in at `at`.

    `result_map` rewires old result values: each maps either to ("new", op
    index within new_ops, result index) or to ("old", existing ValueId).
    """

    remove: frozenset[int]
    new_ops: tuple[_NewOp, ...]
    at: int
    result_map: tuple[tuple[ValueId, tuple], ...]


class _Ctx:
    """Per-sweep lookup tables shared by the matchers."""

    def __init__(self, graph: DspGraph):
        self.graph = graph
        self.producer = graph.producer_map()
        self.uses = graph.use_counts()
        self.index_of = {id(op): i for i, op in enumerate(graph.ops)}

    def prod(self, value: ValueId) -> Optional[OpNode]:
        return self.producer.get(value)

    def single_use(self, value: ValueId) -> bool:
        return self.uses.get(value, 0) == 1 and value not in self.graph.prints \
            and value not in self.graph.returns

    def pos(self, op: OpNode) -> int:
        return self.index_of[id(op)]

    def shape_len(self, value: ValueId) -> Optional[int]:
        op = self.prod(value)
        if op is None:
            return None
        shape = op.result_shapes[value - op.id]
        if shape is None or shape.dynamic:
            return None
        return shape.length


def replace_site(ctx: _Ctx, site: OpNode, target: tuple, *new_ops: _NewOp) -> _Rewrite:
    """Replace the single op `site` by `new_ops`; its result is rewired to
    `target`, a `_Rewrite.result_map` target."""
    at = ctx.pos(site)
    return _Rewrite(remove=frozenset([at]), new_ops=new_ops, at=at,
                    result_map=((site.id, target),))


# --------------------------------------------------------------------------
# Pattern matchers.  Each takes the context and a site op; returns a rewrite
# description or None.


def pat_symmetric_filter(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Mul(low-pass taps, Hamming window) with matching L -> FilterHammOpt."""
    if site.opcode is not OpCode.MUL:
        return None
    a, b = (ctx.prod(v) for v in site.operands)
    if a is None or b is None:
        return None
    if a.opcode is OpCode.HAMMING_WINDOW and b.opcode is OpCode.LOW_PASS_FIR_COEFFS:
        a, b = b, a
    if a.opcode is not OpCode.LOW_PASS_FIR_COEFFS or b.opcode is not OpCode.HAMMING_WINDOW:
        return None
    if a.attr("L") != b.attr("L"):
        return None
    new = _NewOp(OpCode.FILTER_HAMM_OPT,
                 attributes=(Attribute("L", a.attr("L")), Attribute("wc", a.attr("wc"))))
    return replace_site(ctx, site, ("new", 0, 0), new)


def pat_symmetric_filter_response(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """FirFilterResponse with coefficients known symmetric -> paired-tap form."""
    if site.opcode is not OpCode.FIR_FILTER_RESPONSE:
        return None
    h = ctx.prod(site.operands[1])
    if h is None or h.opcode is not OpCode.FILTER_HAMM_OPT:
        return None
    new = _NewOp(OpCode.FILTER_RES_SYMM_OPT, operands=site.operands)
    return replace_site(ctx, site, ("new", 0, 0), new)


def pat_filter_y_symm(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """conv1d(x, reverse(x)) (either operand order) -> half-computed output."""
    if site.opcode is not OpCode.CONV1D_FULL:
        return None
    a, b = site.operands
    pa, pb = ctx.prod(a), ctx.prod(b)
    x: Optional[ValueId] = None
    if pb is not None and pb.opcode is OpCode.REVERSE and pb.operands[0] == a:
        x = a
    elif pa is not None and pa.opcode is OpCode.REVERSE and pa.operands[0] == b:
        x = b
    if x is None:
        return None
    new = _NewOp(OpCode.FILTER_Y_SYMM_OPT, operands=(x,))
    return replace_site(ctx, site, ("new", 0, 0), new)


def pat_dft_conj_symm(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """DFT of a provably even signal computes half the bins and mirrors."""
    if site.opcode not in (OpCode.DFT1D_REAL, OpCode.DFT1D_IMAG):
        return None
    src = ctx.prod(site.operands[0])
    if src is None or src.opcode is not OpCode.FILTER_Y_SYMM_OPT:
        return None
    target = (OpCode.DFT1D_REAL_SYMM if site.opcode is OpCode.DFT1D_REAL
              else OpCode.DFT1D_IMAG_SYMM)
    new = _NewOp(target, operands=site.operands)
    return replace_site(ctx, site, ("new", 0, 0), new)


def pat_parseval(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Div(Sum(Sq(re) + Sq(im)), N) over a DFT of x -> Sum(Square(x)).

    The whole chain must be single-use and the divisor a scalar constant
    equal to the (static) length of x; matches both the separate real/imag
    transforms and the fused one.
    """
    if site.opcode is not OpCode.DIV:
        return None
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
    sq_a, sq_b = squares  # type: ignore[misc]
    x = _dft_pair_source(ctx, sq_a.operands[0], sq_b.operands[0])
    if x is None:
        return None
    n = ctx.shape_len(x)
    if n is None or float(values[0]) != float(n):
        return None
    new_square = _NewOp(OpCode.SQUARE, operands=(x,))
    new_sum = _NewOp(OpCode.SUM, operands=(("new", 0, 0),))
    return replace_site(ctx, site, ("new", 1, 0), new_square, new_sum)


def _dft_pair_source(ctx: _Ctx, v_re: ValueId, v_im: ValueId) -> Optional[ValueId]:
    """If (v_re, v_im) are the real/imag DFT of one value (in either order),
    each feeding only its square, return that value."""
    for a, b in ((v_re, v_im), (v_im, v_re)):
        pa, pb = ctx.prod(a), ctx.prod(b)
        if pa is None or pb is None:
            continue
        if not (ctx.single_use(a) and ctx.single_use(b)):
            continue
        if pa.opcode is OpCode.DFT1D_REAL and pb.opcode is OpCode.DFT1D_IMAG \
                and pa.operands == pb.operands:
            return pa.operands[0]
        if pa.opcode is pb.opcode is OpCode.DFT1D_FUSED and pa is pb \
                and a == pa.id and b == pa.id + 1:
            return pa.operands[0]
    return None


def pat_dft_fusion(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Separate real and imaginary DFTs of one value fuse into a single pass."""
    if site.opcode is not OpCode.DFT1D_IMAG:
        return None
    partner = None
    for op in ctx.graph.ops:
        if op.opcode is OpCode.DFT1D_REAL and op.operands == site.operands:
            partner = op
            break
    if partner is None:
        return None
    new = _NewOp(OpCode.DFT1D_FUSED, operands=site.operands)
    at = min(ctx.pos(site), ctx.pos(partner))
    return _Rewrite(remove=frozenset([ctx.pos(site), ctx.pos(partner)]), new_ops=(new,),
                    at=at,
                    result_map=((partner.id, ("new", 0, 0)), (site.id, ("new", 0, 1))))


def pat_lms_gain_fusion(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Gain applied to a single-use LMS weight vector folds into the update."""
    if site.opcode is not OpCode.GAIN:
        return None
    lms = ctx.prod(site.operands[0])
    if lms is None or lms.opcode is not OpCode.LMS_FILTER:
        return None
    if not ctx.single_use(site.operands[0]):
        return None
    new = _NewOp(OpCode.LMS_FILTER_GAIN_OPT, operands=lms.operands,
                 attributes=(Attribute("mu", lms.attr("mu")), Attribute("M", lms.attr("M")),
                             Attribute("g", site.attr("g"))))
    return _Rewrite(remove=frozenset([ctx.pos(site), ctx.pos(lms)]), new_ops=(new,),
                    at=ctx.pos(lms),
                    result_map=((site.id, ("new", 0, 0)),))


def pat_identity_dft_idft(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """idft1d applied to the DFT of x is the identity: all uses read x."""
    if site.opcode is not OpCode.IDFT1D:
        return None
    re, im = site.operands
    pr, pi = ctx.prod(re), ctx.prod(im)
    if pr is None or pi is None:
        return None
    x: Optional[ValueId] = None
    if pr.opcode is OpCode.DFT1D_REAL and pi.opcode is OpCode.DFT1D_IMAG \
            and pr.operands == pi.operands:
        x = pr.operands[0]
    elif pr.opcode is pi.opcode is OpCode.DFT1D_FUSED and pr is pi \
            and re == pr.id and im == pr.id + 1:
        x = pr.operands[0]
    if x is None:
        return None
    return replace_site(ctx, site, ("old", x))


def pat_identity_up_down(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """downsample(upsample(x, k), k) with the same k passes x through."""
    if site.opcode is not OpCode.DOWNSAMPLE:
        return None
    up = ctx.prod(site.operands[0])
    if up is None or up.opcode is not OpCode.UPSAMPLE:
        return None
    if site.attr("k") != up.attr("k"):
        return None
    return replace_site(ctx, site, ("old", up.operands[0]))


_MATCHERS = {
    PatternId.SYMMETRIC_FILTER: pat_symmetric_filter,
    PatternId.SYMMETRIC_FILTER_RESPONSE: pat_symmetric_filter_response,
    PatternId.FILTER_Y_SYMM: pat_filter_y_symm,
    PatternId.DFT_CONJ_SYMM: pat_dft_conj_symm,
    PatternId.PARSEVAL: pat_parseval,
    PatternId.DFT_FUSION: pat_dft_fusion,
    PatternId.LMS_GAIN_FUSION: pat_lms_gain_fusion,
    PatternId.IDENTITY_DFT_IDFT: pat_identity_dft_idft,
    PatternId.IDENTITY_UP_DOWN: pat_identity_up_down,
}


def _apply_rewrite(graph: DspGraph, rw: _Rewrite) -> DspGraph:
    # Materialize the new ops with temporary ids beyond the current range;
    # operands written as ("new", op_idx, res_idx) refer to earlier new ops.
    temp_base = max((op.id + op.n_results for op in graph.ops if op.n_results), default=0)
    resolved: list[OpNode] = []
    new_result_ids: list[tuple[ValueId, ...]] = []
    cursor = temp_base
    for spec in rw.new_ops:
        n_results = OP_DEFS[spec.opcode].n_results
        operands = tuple(new_result_ids[v[1]][v[2]] if isinstance(v, tuple) else v
                         for v in spec.operands)
        node = OpNode(id=cursor, opcode=spec.opcode, operands=operands,
                      attributes=spec.attributes, result_shapes=(None,) * n_results)
        resolved.append(node)
        new_result_ids.append(node.result_ids)
        cursor += n_results
    # Build the substitution for rewired results.
    subst: dict[ValueId, ValueId] = {}
    for old_id, target in rw.result_map:
        if target[0] == "new":
            subst[old_id] = new_result_ids[target[1]][target[2]]
        else:
            subst[old_id] = target[1]
    out_ops: list[OpNode] = []
    for idx, op in enumerate(graph.ops):
        if idx == rw.at:
            out_ops.extend(resolved)
        if idx in rw.remove:
            continue
        out_ops.append(replace(op, operands=tuple(subst.get(v, v) for v in op.operands)))
    if rw.at >= len(graph.ops):
        out_ops.extend(resolved)
    # Ids stay sparse here; eliminate_dead_ops renumbers right after.
    return DspGraph(
        ops=out_ops,
        inputs=[(n, subst.get(v, v)) for n, v in graph.inputs],
        prints=[subst.get(v, v) for v in graph.prints],
        returns=[subst.get(v, v) for v in graph.returns],
    )


def apply_dsp_patterns(graph: DspGraph,
                       enabled: Optional[Iterable[PatternId]] = None
                       ) -> tuple[DspGraph, RewriteStats]:
    """Greedy fixpoint rewriting in pattern-priority order.

    Patterns are tried in declaration order; within a pattern, ops are
    scanned in topological order and the first match is applied.  After each
    application the graph is rebuilt, re-inferred, re-verified, and dead ops
    are pruned; scanning then restarts from the first pattern.
    """
    wanted = list(PatternId) if enabled is None else \
        [pid for pid in PatternId if pid in set(enabled)]
    stats = RewriteStats(applications={pid: 0 for pid in wanted},
                         ops_before=len(graph.ops))
    current = graph
    sweep_limit = len(graph.ops) + 8
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > sweep_limit:
            raise NonTermination(sweeps)
        ctx = _Ctx(current)
        rewrite = None
        hit_pid = None
        for pid in wanted:
            matcher = _MATCHERS[pid]
            for op in current.ops:
                rewrite = matcher(ctx, op)
                if rewrite is not None:
                    hit_pid = pid
                    break
            if rewrite is not None:
                break
        if rewrite is None:
            break
        current = _apply_rewrite(current, rewrite)
        current = eliminate_dead_ops(current)
        current = infer_shapes(current)
        problems = verify_graph(current)
        if problems:
            raise RewriteError(
                f"pattern {hit_pid.value} produced an invalid graph: {problems[0]}")
        stats.applications[hit_pid] = stats.applications.get(hit_pid, 0) + 1
    stats.ops_after = len(current.ops)
    return current, stats

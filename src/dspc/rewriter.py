"""Graph rewrites that exploit filter/transform structure.

Each pattern matches a small chain of ops by value identity (same SSA value,
not merely an equal-looking subtree), builds the cheaper replacement ops and
names the old values they stand for.  `_MATCHERS` registers each `PatternId`
as ``(matcher, root opcodes)``; a matcher walks its chain with one query,
`_Ctx.made_by(value, opcode, single)`.  The driver updates one working graph
(`_Ctx`) in place, so that an application costs what its match reads and
rewires, not the size of the graph.  Each op's order key, a tuple compared
lexicographically, is made when first asked for.  A splice rewires only the
readers of the replaced values, prunes the ops left dead along them and keys
the ops it inserts before an op by that op's key with the last entry lowered
by one, then its first new id and their index: no key is ever renumbered.  A
root whose match failed is tried again once it is rewired, or the producer or
readers of a value its matcher read change (`_Ctx.watch`).  A splice checks
nothing: the op list is built and verified once, at the fixpoint, with the
working ids, which are sparse and not in list order, so matchers compare ids
only relatively.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .errors import DspcError
from .graph import DspGraph, OpNode, ValueId, verify_graph
from .ops import OP_DEFS, OpCode, TensorShape

class PatternId(Enum):
    SYMMETRIC_FILTER = "1"
    FIR_MERGE = "8"  # before 2, which would pair one band before the bands merge
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


class Applied(NamedTuple):
    """One application: pattern, site id and opcode, new ids, op count after."""

    pattern: PatternId
    site: ValueId
    opcode: OpCode
    new: tuple[ValueId, ...]
    ops: int


@dataclass
class RewriteStats:
    applications: dict[PatternId, int] = field(default_factory=dict)
    log: list[Applied] = field(default_factory=list)

    @property
    def fired(self) -> set[PatternId]:
        return {pid for pid, n in self.applications.items() if n > 0}


class _Rewrite(NamedTuple):
    """Insert `new_ops` right before the op `at` and make every use of a key
    of `subst` read its value instead."""

    at: OpNode
    new_ops: tuple[OpNode, ...]
    subst: dict[ValueId, ValueId]


class _Ctx:
    """The working graph and its tables, and the matchers' op factory."""

    def __init__(self, graph: DspGraph, matchers: Iterable[tuple] = ()):
        self.live = graph.ops  # the ops in list order, until an op enters or leaves
        self.producer: dict[ValueId, OpNode] = {
            r: op for op in self.live for r in range(op.id, op.id + OP_DEFS[op.opcode].n_results)}
        self.next_id = max(self.producer, default=-1) + 1
        self.readers: dict[ValueId, list] = defaultdict(list)  # value -> ops, once per slot
        # producer, readers: value -> [(todo, op)] of the matches that read them
        self.watch: tuple[dict, dict] = (defaultdict(list), defaultdict(list))
        self.patterns: list[tuple] = []  # (pid, matcher, todo: id(op) -> op)
        self.roots: dict[OpCode, list[dict]] = {}  # opcode -> todos
        for pid, match, roots in matchers:
            self.patterns.append((pid, match, todo := {}))
            for opcode in roots:
                self.roots.setdefault(opcode, []).append(todo)
        for op in self.live:
            for v in op.operands:
                self.readers[v].append(op)
            for todo in self.roots.get(op.opcode, ()):
                todo[id(op)] = op
        self.trying: Optional[tuple[dict, OpNode]] = None
        self.moved: list[ValueId] = []  # values whose readers changed in this splice
        self.changed = False  # once an op enters or leaves; till then todos are in list order
        self._prune([v for v in self.producer if v not in self.readers])

    @cached_property
    def ops(self) -> dict[int, tuple]:
        """id(op) -> (order key, op), built when first asked for: by list position."""
        return {id(op): ((i,), op) for i, op in enumerate(self.live)}

    def _enter(self, op: OpNode, key: tuple) -> None:
        self.changed = True
        self.ops[id(op)] = key, op
        self.producer.update(dict.fromkeys(op.result_ids, op))
        for v in op.operands:
            self.readers[v].append(op)
        self.moved += op.operands
        for todo in self.roots.get(op.opcode, ()):
            todo[id(op)] = op

    def _leave(self, op: OpNode) -> tuple:
        """Take `op` out of every table; returns its order key."""
        self.changed = True
        for r in op.result_ids:
            del self.producer[r]
        for v in set(op.operands):
            self.readers[v] = [reader for reader in self.readers[v] if reader is not op]
        self.moved += op.operands
        for todo in self.roots.get(op.opcode, ()):
            todo.pop(id(op), None)
        return self.ops.pop(id(op))[0]

    def users(self, value: ValueId) -> list[OpNode]:
        """The ops reading `value`, once per operand slot, in no set order."""
        if self.trying:
            self.watch[1][value].append(self.trying)
        return list(self.readers.get(value, ()))

    def single_use(self, value: ValueId) -> bool:
        return len(self.users(value)) == 1

    def made_by(self, value: ValueId, opcode: OpCode, single: bool = False) -> Optional[OpNode]:
        """The producer of `value` if an `opcode` op, and with `single` its one
        reader; else None.  Watches `value`'s producer, and via `users` its readers."""
        if self.trying:
            self.watch[0][value].append(self.trying)
        op = self.producer.get(value)
        if op is None or op.opcode is not opcode or single and not self.single_use(value):
            return None
        return op

    def order(self, op: OpNode) -> tuple:
        return self.ops[id(op)][0]

    def shape(self, value: ValueId) -> Optional[TensorShape]:
        """Not watched: a rewired op keeps its result shapes."""
        op = self.producer.get(value)
        return None if op is None else op.result_shapes[value - op.id]

    def new(self, opcode: OpCode, operands: tuple[ValueId, ...] = (),
            attributes: tuple[object, ...] = ()) -> OpNode:
        """A new op with ids above every id in the graph, shaped by its OpDef."""
        op = OpNode(self.next_id, opcode, operands, attributes)
        op.result_shapes = OP_DEFS[opcode].result_shapes(op, [*map(self.shape, operands)])
        self.next_id += len(op.result_shapes)
        self.producer.update(dict.fromkeys(op.result_ids, op))
        return op

    def sweep(self) -> Optional[tuple[PatternId, OpNode, _Rewrite]]:
        """The first match, by pattern priority, then list order of the roots."""
        for pid, match, todo in self.patterns:
            for site in sorted(todo.values(), key=self.order) if self.changed else [*todo.values()]:
                self.trying = todo, site
                rw = match(self, site)
                self.trying = None
                if rw is not None:
                    return pid, site, rw
                del todo[id(site)]
        return None

    def splice(self, rw: _Rewrite) -> None:
        """Apply `rw` in place and prune the ops it left dead."""
        at, get, self.moved = self.order(rw.at), rw.subst.get, []
        stale = {id(op): op for old in rw.subst for op in self.readers.get(old, ())}
        for i, op in enumerate(rw.new_ops):
            self._enter(op, (*at[:-1], at[-1] - 1, rw.new_ops[0].id, i))
        rewired = []
        for old in stale.values():
            rewired.append(OpNode(old.id, old.opcode, tuple(map(get, old.operands, old.operands)),
                                  old.attributes, old.result_shapes))
            self._enter(rewired[-1], self._leave(old))
        self._prune([*rw.subst, *(r for op in rw.new_ops for r in op.result_ids)])
        for watch, values in zip(self.watch, ([r for op in rewired for r in op.result_ids],
                                              self.moved)):
            for todo, op in (t for v in watch.keys() & values for t in watch.pop(v)):
                if id(op) in self.ops:  # the watch holds `op`, so no other op has its id
                    todo[id(op)] = op

    def _prune(self, work: list[ValueId]) -> None:
        """Take out each unread op but an input making a value of `work`, and so on."""
        while work:
            v = work.pop()
            if self.readers.get(v) or (op := self.producer.get(v)) is None \
                    or op.opcode is OpCode.INPUT or any(map(self.readers.get, op.result_ids)):
                continue
            self._leave(op)
            work += op.operands


def replace_site(site: OpNode, value: ValueId, *new_ops: OpNode) -> _Rewrite:
    """Replace the single op `site` by `new_ops`; uses of its result read `value`."""
    return _Rewrite(at=site, new_ops=new_ops, subst={site.id: value})


# --------------------------------------------------------------------------
# Pattern matchers.  Each takes the context and a site op whose opcode is one
# of the pattern's roots in `_MATCHERS` (so it does not test it); on a match
# it builds its new ops with `ctx.new` and returns the splice, else None.


def pat_symmetric_filter(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Mul(low-pass taps, Hamming window) with matching L -> FilterHammOpt."""
    a, b = site.operands
    if ctx.made_by(a, OpCode.HAMMING_WINDOW) is not None:
        a, b = b, a
    taps = ctx.made_by(a, OpCode.LOW_PASS_FIR_COEFFS)
    window = ctx.made_by(b, OpCode.HAMMING_WINDOW)
    if taps is None or window is None or taps.attr("L") != window.attr("L"):
        return None
    new = ctx.new(OpCode.FILTER_HAMM_OPT, attributes=taps.attributes)  # (L, wc)
    return replace_site(site, new.id, new)


def pat_fir_merge(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """A tree of single-use adds over J >= 2 leaves, each a single-use fir(x,
    h_j) under at most one single-use gain(., g_j), one x and one static tap
    length L -> fir(x, taps), taps the left-to-right add chain of gain(h_j, g_j)
    (h_j where g_j == 1.0), in one application at the tree's top add.
    Contract (rounding): each output moves by at most 2*gamma(L+J)*m_i, with
    m_i = sum_k |x[i-k]|*sum_j |g_j*h_j[k]|, gamma(n) = n*u/(1-n*u), u = 2**-53,
    while no tap sum or product overflows."""
    v, top = site.id, None
    if ctx.single_use(v) and (up := ctx.users(v)[0]).opcode is OpCode.GAIN:
        v = up.id
    while ctx.single_use(v) and (up := ctx.users(v)[0]).opcode is OpCode.ADD:
        v, top = up.id, up
    bands = top and _fir_bands(ctx, top, site.operands[0])
    if not bands:
        return None
    new = [ctx.new(OpCode.GAIN, (h,), (g,)) for h, g in bands if g != 1.0]
    scaled = iter(new)
    taps, *rest = [h if g == 1.0 else next(scaled).id for h, g in bands]
    for h in rest:
        new.append(ctx.new(OpCode.ADD, (taps, h)))
        taps = new[-1].id
    new.append(ctx.new(OpCode.FIR_FILTER_RESPONSE, (site.operands[0], taps)))
    return _Rewrite(at=top, new_ops=tuple(new), subst={top.id: new[-1].id})


def _fir_bands(ctx: _Ctx, top: OpNode, x: ValueId) -> Optional[list[tuple[ValueId, float]]]:
    """The (taps, gain) of each leaf under `top`, left to right, if the tree qualifies."""
    bands, stack = [], [*reversed(top.operands)]
    while stack:
        v = stack.pop()
        if (add := ctx.made_by(v, OpCode.ADD, single=True)) is not None:
            stack += reversed(add.operands)
            continue
        gain = ctx.made_by(v, OpCode.GAIN, single=True)
        fir = ctx.made_by(gain.operands[0] if gain else v, OpCode.FIR_FILTER_RESPONSE, single=True)
        if fir is None or fir.operands[0] != x:
            return None
        bands.append((fir.operands[1], gain.attributes[0] if gain else 1.0))
    shapes = {ctx.shape(h) for h, _ in bands}
    return bands if len(shapes) == 1 and None not in shapes else None


def pat_symmetric_filter_response(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """FirFilterResponse with coefficients known symmetric -> paired-tap form."""
    if ctx.made_by(site.operands[1], OpCode.FILTER_HAMM_OPT) is None:
        return None
    new = ctx.new(OpCode.FILTER_RES_SYMM_OPT, site.operands)
    return replace_site(site, new.id, new)


def pat_filter_y_symm(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """conv1d(x, reverse(x)) (either operand order) -> half-computed output."""
    a, b = site.operands
    for x, rev in ((a, ctx.made_by(b, OpCode.REVERSE)), (b, ctx.made_by(a, OpCode.REVERSE))):
        if rev is not None and rev.operands[0] == x:
            new = ctx.new(OpCode.FILTER_Y_SYMM_OPT, (x,))
            return replace_site(site, new.id, new)
    return None


def pat_dft_conj_symm(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """DFT of a provably even signal computes half the bins and mirrors."""
    if ctx.made_by(site.operands[0], OpCode.FILTER_Y_SYMM_OPT) is None:
        return None
    new = ctx.new(OpCode.DFT1D_REAL_SYMM if site.opcode is OpCode.DFT1D_REAL
                  else OpCode.DFT1D_IMAG_SYMM, site.operands)
    return replace_site(site, new.id, new)


def pat_parseval(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Div(Sum(Sq(re) + Sq(im)), N) over a DFT of x -> Sum(Square(x)), where
    the chain is single-use and N a scalar constant equal to the length of x;
    the DFT is the separate real/imag transforms or the fused one."""
    total, divisor = site.operands
    const = ctx.made_by(divisor, OpCode.CONST_TENSOR)
    if const is None or len(values := const.attr("values")) != 1:
        return None
    sum_op = ctx.made_by(total, OpCode.SUM, single=True)
    add_op = sum_op and ctx.made_by(sum_op.operands[0], OpCode.ADD, single=True)
    if add_op is None:
        return None
    squares = [ctx.made_by(v, OpCode.SQUARE) for v in add_op.operands]
    if None in squares:
        return None
    a, b = (s.operands[0] for s in squares)  # type: ignore[union-attr]
    if not all(map(ctx.single_use, (*add_op.operands, a, b))):
        return None
    x = _dft_source(ctx, a, b)
    if x is None:
        x = _dft_source(ctx, b, a)
    shape = None if x is None else ctx.shape(x)
    if shape is None or float(values[0]) != float(shape.length):
        return None
    square = ctx.new(OpCode.SQUARE, (x,))
    total_of_squares = ctx.new(OpCode.SUM, (square.id,))
    return replace_site(site, total_of_squares.id, square, total_of_squares)


def _dft_source(ctx: _Ctx, re: ValueId, im: ValueId) -> Optional[ValueId]:
    """The x whose real and imaginary DFT are `re` and `im`, in that order,
    from two separate transforms (or the mirrored pair pattern 4 makes of
    them, which holds every bin) or one fused one; None if there is none."""
    for real, imag in ((OpCode.DFT1D_REAL, OpCode.DFT1D_IMAG),
                       (OpCode.DFT1D_REAL_SYMM, OpCode.DFT1D_IMAG_SYMM)):
        pr, pi = ctx.made_by(re, real), ctx.made_by(im, imag)
        if pr is not None and pi is not None and pr.operands == pi.operands:
            return pr.operands[0]
    fused = ctx.made_by(re, OpCode.DFT1D_FUSED)
    if fused is not None and (re, im) == (fused.id, fused.id + 1):
        return fused.operands[0]
    return None


def pat_dft_fusion(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Separate real and imaginary DFTs of one value fuse into a single pass."""
    partners = [op for op in ctx.users(site.operands[0])
                if op.opcode is OpCode.DFT1D_REAL and op.operands == site.operands]
    if not partners:
        return None
    partner = min(partners, key=ctx.order)
    new = ctx.new(OpCode.DFT1D_FUSED, site.operands)
    return _Rewrite(at=min(site, partner, key=ctx.order), new_ops=(new,),
                    subst={partner.id: new.id, site.id: new.id + 1})


def pat_lms_gain_fusion(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """Gain applied to a single-use LMS weight vector fuses into the LMS op,
    which scales its final weights in place."""
    lms = ctx.made_by(site.operands[0], OpCode.LMS_FILTER, single=True)
    if lms is None:
        return None
    new = ctx.new(OpCode.LMS_FILTER_GAIN_OPT, lms.operands,
                  lms.attributes + site.attributes)  # (mu, M) + (g,)
    return _Rewrite(at=lms, new_ops=(new,), subst={site.id: new.id})


def pat_identity_dft_idft(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """idft1d applied to the DFT of x is the identity: all uses read x."""
    x = _dft_source(ctx, *site.operands)
    return None if x is None else replace_site(site, x)


def pat_identity_up_down(ctx: _Ctx, site: OpNode) -> Optional[_Rewrite]:
    """downsample(upsample(x, k), k) with the same k passes x through."""
    up = ctx.made_by(site.operands[0], OpCode.UPSAMPLE)
    if up is None or site.attr("k") != up.attr("k"):
        return None
    return replace_site(site, up.operands[0])


_MATCHERS = {
    PatternId.SYMMETRIC_FILTER: (pat_symmetric_filter, {OpCode.MUL}),
    PatternId.FIR_MERGE: (pat_fir_merge, {OpCode.FIR_FILTER_RESPONSE}),
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

    Takes a verified, shape-inferred graph, and first prunes each op but an
    input whose results nothing reads, then each op only pruned ops read.
    Each sweep tries the patterns in declaration order, each on its roots in
    list order, and applies the first match.  (A per-op worklist would change
    which pattern wins: on an energy chain it fuses the transforms before
    Parseval can match.)  Only new ops are shaped, and unknown shapes stay
    unknown.  Once a pattern fired, the result alone is verified, so a
    rewrite that reshapes a rewired value raises RewriteError, while a bad op
    that a later application removes goes unseen.  The result and the log
    share one id space: an op of `graph` keeps its id and a new op takes the
    next id above all others.  With nothing pruned and no application `graph`
    is returned.
    """
    wanted = list(PatternId) if enabled is None else \
        [pid for pid in PatternId if pid in set(enabled)]
    stats = RewriteStats(applications={pid: 0 for pid in wanted})
    ctx = _Ctx(graph, [(pid, *_MATCHERS[pid]) for pid in wanted])
    sweep_limit = len(graph.ops) + 8
    for _ in range(sweep_limit):
        hit = ctx.sweep()
        if hit is None:
            break
        pid, site, rewrite = hit
        ctx.splice(rewrite)
        stats.applications[pid] += 1
        stats.log.append(Applied(pid, site.id, site.opcode,
                                 tuple(op.id for op in rewrite.new_ops), len(ctx.ops)))
    else:
        raise RewriteError(f"rewriter exceeded {sweep_limit + 1} sweeps "
                           "without reaching a fixpoint")
    current = DspGraph([op for _key, op in sorted(ctx.ops.values())]) if ctx.changed else graph
    if stats.log:
        problems = verify_graph(current)
        if problems:
            fired = ", ".join(pid.value for pid, n in stats.applications.items() if n)
            raise RewriteError(f"patterns {fired} produced an invalid graph: {problems[0]}")
    return current, stats

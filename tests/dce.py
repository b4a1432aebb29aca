"""Whole-graph dead-op pruning by use counts, the reference that the
rewriter's in-place pruning along its readers is held to, and dense
renumbering, which compares two graphs up to their ids."""

from typing import Iterable, Mapping

from dspc.graph import DspGraph, OpNode, ValueId
from dspc.ops import OP_DEFS, OpCode


def producer_map(graph: DspGraph) -> dict[ValueId, OpNode]:
    return {rid: op for op in graph.ops for rid in op.result_ids}


def use_counts(graph: DspGraph) -> dict[ValueId, int]:
    counts: dict[ValueId, int] = {}
    for op in graph.ops:
        for v in op.operands:
            counts[v] = counts.get(v, 0) + 1
    return counts


def dead_ops(producer: Mapping[ValueId, OpNode], uses: dict[ValueId, int],
             values: Iterable[ValueId]) -> dict[int, OpNode]:
    """The ops left dead once `values` may have lost their last use, by `id()`.

    An op other than an input dies when none of its results is used; its
    operands then lose a use in `uses` (updated in place) and the check
    cascades to their producers.  Prints and returns have no result and
    never die, and their operands are counted uses like any other.  With
    every value as a candidate this prunes all that prints and returns do
    not reach.
    """
    dead: dict[int, OpNode] = {}
    work = list(values)
    while work:
        op = producer.get(work.pop())
        if op is None or id(op) in dead or op.opcode is OpCode.INPUT \
                or any(uses.get(r, 0) for r in op.result_ids):
            continue
        dead[id(op)] = op
        for v in op.operands:
            uses[v] -= 1
        work += op.operands
    return dead


def renumber(graph: DspGraph) -> DspGraph:
    """Assign dense ValueIds in list order, keeping multi-result ids adjacent."""
    mapping: dict[ValueId, ValueId] = {}
    next_id = 0
    staged: list[tuple[OpNode, ValueId]] = []
    for op in graph.ops:
        n = OP_DEFS[op.opcode].n_results
        staged.append((op, next_id if n else -1))
        for i in range(n):
            mapping[op.id + i] = next_id + i
        next_id += n
    return DspGraph([OpNode(new_id, op.opcode, tuple(map(mapping.__getitem__, op.operands)),
                            op.attributes, op.result_shapes) for op, new_id in staged])

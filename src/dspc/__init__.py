"""dspc: a small optimizing compiler for a signal-processing DSL.

The pipeline is frontend (tokens, AST) -> SSA op graph -> domain rewrites
(filter symmetry, spectral identities, fusion) -> loop-level IR -> an
instrumented interpreter that counts arithmetic, memory traffic, and loop
trips.  The `dspc` console script exposes build/run/bench commands.
"""

from .errors import DspcError, UsageError
from .frontend import parse_source, tokenize
from .graph import build_graph, graph_to_text, infer_shapes, verify_graph
from .interp import Tensor, evaluate_loop_ir, tensor
from .lowering import lower_graph
from .rewriter import PatternId, apply_dsp_patterns

__version__ = "0.1.0"

__all__ = [
    "DspcError",
    "PatternId",
    "Tensor",
    "UsageError",
    "__version__",
    "apply_dsp_patterns",
    "build_graph",
    "evaluate_loop_ir",
    "graph_to_text",
    "infer_shapes",
    "lower_graph",
    "parse_source",
    "tensor",
    "tokenize",
    "verify_graph",
]

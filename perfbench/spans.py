"""In-memory span recorder for the traced run.

A span is one call into a dspc layer, timed from the benchmark around the
call.  Spans nest: the span open when another starts is its parent.  They
stay in memory until the run ends, then are summarised as self time per layer
(span duration minus the time its child spans cover) and written out.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

FIELDS = ("layer", "start_ns", "end_ns", "parent", "program")

_OFF = contextlib.nullcontext()


class NoSpans:
    """The untraced run: opening a span records nothing."""

    def span(self, layer: str):
        return _OFF


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # one FIELDS row per span
        self._open: list[int] = []
        self.program = None  # id of the program the spans belong to

    def span(self, layer: str) -> "_Span":
        return _Span(self, layer)

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per layer: (total self time in ns, number of spans)."""
        covered = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for (layer, start, end, _, _), child in zip(self.spans, covered):
            self_ns[layer] += end - start - child
            calls[layer] += 1
        return dict(self_ns), dict(calls)

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**header, "fields": FIELDS, "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


class _Span:
    __slots__ = ("rec", "layer", "row")

    def __init__(self, rec: SpanRecorder, layer: str) -> None:
        self.rec = rec
        self.layer = layer

    def __enter__(self) -> None:
        rec = self.rec
        parent = rec._open[-1] if rec._open else -1
        rec._open.append(len(rec.spans))
        self.row = [self.layer, time.perf_counter_ns(), 0, parent, rec.program]
        rec.spans.append(self.row)

    def __exit__(self, *exc) -> bool:
        self.row[2] = time.perf_counter_ns()
        self.rec._open.pop()
        return False

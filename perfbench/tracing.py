"""In-memory spans around the benchmark's calls into each layer.

A span is ``name, start, end, parent, op`` plus optional attributes; spans
of one operation share ``op``.  A layer's self time is its span's duration
minus the time its child spans cover.  With tracing off, ``span`` returns a
shared no-op context manager, so the untraced run pays almost nothing.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

_OFF = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    op: int
    parent: Optional[int]
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _OFF
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), self.op, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def self_times(self, op: int) -> list[tuple[Span, float]]:
        """Every span of one operation with its self time."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.op == op and s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return [(s, s.end - s.start - child_time[i]) for i, s in enumerate(self.spans)
                if s.op == op]

"""Sim-time tracing spans.

A span names an interval of **simulated** time (``sim_start`` →
``sim_end``) and also carries the wall-clock cost of computing it.  Spans
nest: :meth:`Tracer.begin`/:meth:`Span.end` maintain an explicit stack,
and :meth:`Tracer.record` appends an already-bounded child span (how the
session driver reconstructs join → playback → stalls → teardown from a
playback report after the fact).

The trace serialises to JSONL, one span per line, in completion order.
Wall-clock readings never feed back into the simulation — they are
recorded, not consulted — so tracing cannot perturb event ordering.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Any, Dict, IO, List, Optional


class Span:
    """One named interval of simulated time."""

    __slots__ = ("name", "span_id", "parent_id", "sim_start", "sim_end",
                 "wall_start", "wall_end", "attrs")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        sim_start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None
        self.wall_start = time.perf_counter()
        self.wall_end: Optional[float] = None
        self.attrs = attrs

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    @property
    def wall_duration(self) -> Optional[float]:
        if self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "sim_duration": self.sim_duration,
            "wall_duration": self.wall_duration,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans; open spans form a stack for parent attribution."""

    def __init__(self, max_spans: int = 1_000_000) -> None:
        self.spans: List[Span] = []  # completed, in completion order
        self.dropped = 0
        self._max_spans = max_spans
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------- live spans

    def begin(self, name: str, sim_time: float, **attrs: Any) -> Span:
        """Open a span at simulated time ``sim_time``; it becomes the
        parent of spans begun or recorded before its :meth:`end`."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, next(self._ids), parent, sim_time, attrs)
        self._stack.append(span)
        return span

    def end(self, span: Span, sim_time: float) -> Span:
        """Close ``span`` at simulated time ``sim_time``."""
        span.sim_end = sim_time
        span.wall_end = time.perf_counter()
        if span in self._stack:
            self._stack.remove(span)
        self._finish(span)
        return span

    # ------------------------------------------------------ retroactive spans

    def record(
        self,
        name: str,
        sim_start: float,
        sim_end: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Append an already-bounded span (e.g. reconstructed from a
        report).  Parent defaults to the innermost open span."""
        parent_id = (parent.span_id if parent is not None
                     else (self._stack[-1].span_id if self._stack else None))
        span = Span(name, next(self._ids), parent_id, sim_start, attrs)
        span.sim_end = sim_end
        span.wall_end = span.wall_start
        self._finish(span)
        return span

    def _finish(self, span: Span) -> None:
        if len(self.spans) >= self._max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    # --------------------------------------------------------------- export

    def write_jsonl(self, sink: IO[str]) -> int:
        """Write the trace to an open text file; returns spans written."""
        for span in self.spans:
            sink.write(json.dumps(span.to_dict(), separators=(",", ":")))
            sink.write("\n")
        return len(self.spans)

    def find(self, name: str) -> List[Span]:
        """All completed spans with the given name (test helper)."""
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

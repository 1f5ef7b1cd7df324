"""Spans around the calls the harness makes into a layer.

Every timed call in the benchmark goes through :meth:`Tracer.span`, so
the wall clock is read the same way whether or not spans are kept.  An
untraced run only returns the seconds; a traced run also stores the span
(name, start, end, parent, workload) in memory and hands the list to the
result file when the run ends.  A span's name is ``<layer>.<call>`` with
the layer being the ``repro`` module the call enters, so self time sums
per layer.  Spans inside ``src/repro`` are a later issue.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Span:
    """One timed call; ``seconds`` is valid once the ``with`` block ends."""

    __slots__ = ("name", "start", "end", "parent", "id")

    def __init__(self, name: str, start: float, parent: int | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.id: int | None = None  # its index among the stored spans

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Times calls; keeps their spans only when ``enabled``."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, keep: bool = True) -> Iterator[Span]:
        """Time the block; ``keep=False`` times without storing a span.

        The traced run alternates kept and unkept samples of the same
        call, which is how ``trace.overhead_share`` is measured.
        """
        record = self.enabled and keep
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        if record:
            span.id = len(self.spans)
            self._stack.append(span.id)
            self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if record:
                self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Store a span timed elsewhere (overlapping requests of one phase)."""
        if self.enabled:
            span = Span(name, start, parent)
            span.end = end
            span.id = len(self.spans)
            self.spans.append(span)

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each span minus the part its children cover.

        Children may overlap (requests in flight together), so the
        covered part is the union of their intervals, not their sum.
        """
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out: dict[str, float] = {}
        for span, intervals in zip(self.spans, children):
            covered, reach = 0.0, span.start
            for start, end in sorted(intervals):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            layer = span.name.rsplit(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + span.seconds - covered
        return out

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "id": s.id,
                "name": s.name,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "parent": s.parent,
                "workload": self.workload,
            }
            for s in self.spans
        ]

"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start, an end, a parent and the id of the request
or session that caused it.  Parents follow a context variable, so a
span opened inside an asyncio task nests under the span that was open
when the task awaited; calls that run on the edge worker thread start
their own root spans.  Spans stay in memory until :meth:`Tracer.dump`
writes them out when the run ends.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[Span]:
        span = Span(
            next(self._ids), name, time.perf_counter(), 0.0,
            self._current.get(), request,
        )
        token = self._current.set(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [span.duration for span in self.spans if span.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
                begin = max(child.start, cursor)
                end = min(child.end, span.end)
                if end > begin:
                    covered += end - begin
                    cursor = end
            totals[span.name] += span.duration - covered
        return dict(totals)

    def dump(self, path: Path) -> None:
        """Write every span and the per-name self times as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "spans": [
                {
                    "id": s.span_id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "request": s.request,
                }
                for s in self.spans
            ],
            "self_s": self.self_times(),
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(document), encoding="utf-8")

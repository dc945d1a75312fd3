"""Span-based tracing for the cloud-edge pipeline.

A span measures one region of interest::

    with trace.span("cloud.search", slices=420) as span:
        ...
    print(span.elapsed_s)

Spans nest: a span opened while another is active on the same thread
becomes its child, so one ``cloud.handle_batch`` root can show its
``cloud.search`` child.  Every finished span feeds
an ``obs.span.<name>.s`` histogram in the metrics registry, and the
tracer keeps the most recent root spans (with their trees) for the
``emap obs`` report and JSON export.

Timing semantics matter to callers: :meth:`Span.__exit__` always
computes ``elapsed_s`` from ``perf_counter_ns`` — even when the tracer
is disabled — because `SearchResult.elapsed_s` and the Fig. 7(b)
exploration-time benches are built on it.  Disabled mode only skips
*recording* (no registry traffic, no retained spans), which keeps the
overhead to two clock reads per span.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

#: Root spans retained for export (oldest dropped first).
MAX_RETAINED_ROOTS = 256


@dataclass
class Span:
    """One timed region; context-manager protocol starts/stops it."""

    name: str
    tracer: "Tracer | None" = None
    metadata: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0
    #: Whether this span went onto the tracer's stack at entry; the
    #: exit path pops on this, not on the *current* enabled flag, so a
    #: disable() while a span is open cannot leak it on the stack.
    pushed: bool = field(default=False, repr=False)

    @property
    def elapsed_s(self) -> float:
        """Wall time of the span (0 until it has finished)."""
        if self.end_ns <= self.start_ns:
            return 0.0
        return (self.end_ns - self.start_ns) * 1e-9

    def annotate(self, **metadata: object) -> None:
        """Attach metadata to the span (merged into any existing keys)."""
        self.metadata.update(metadata)

    def __enter__(self) -> "Span":
        if self.tracer is not None and self.tracer.enabled:
            self.pushed = True
            self.tracer._push(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.end_ns = time.perf_counter_ns()
        if self.pushed:
            self.tracer._pop(self)

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "elapsed_s": self.elapsed_s,
            "metadata": dict(self.metadata),
            "children": [child.as_dict() for child in self.children],
        }


class Tracer:
    """Creates spans, tracks per-thread nesting, retains root spans."""

    def __init__(
        self,
        registry: "MetricsRegistry | None" = None,
        enabled: bool = True,
    ) -> None:
        self.registry = registry
        self.enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []

    # -- switching -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- span lifecycle ------------------------------------------------

    def span(self, name: str, **metadata: object) -> "Span":
        """A new span; use as a context manager."""
        return Span(name=name, tracer=self, metadata=metadata)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate enable/disable mid-span: only pop what we pushed.
        if stack and stack[-1] is span:
            stack.pop()
            if not stack:
                with self._lock:
                    self._roots.append(span)
                    if len(self._roots) > MAX_RETAINED_ROOTS:
                        del self._roots[: len(self._roots) - MAX_RETAINED_ROOTS]
        if self.registry is not None:
            self.registry.observe(f"obs.span.{span.name}.s", span.elapsed_s)

    # -- export --------------------------------------------------------

    @property
    def active_span(self) -> Span | None:
        """The innermost span open on the calling thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def export(self) -> list[dict]:
        """JSON-serialisable trees of the retained root spans."""
        return [span.as_dict() for span in self.roots()]

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()
        self._local = threading.local()

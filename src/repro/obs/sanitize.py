"""Runtime concurrency sanitizer (``EMAP_SANITIZE=1``).

The static pass (``tools/emaplint`` EM007–EM012) proves properties the
call graph can see; this module catches the dynamic remainder while a
suite runs:

* **Loop stalls** — a heartbeat coroutine sleeps ``poll_interval_s`` and
  measures scheduling drift; drift beyond ``stall_threshold_s`` means
  something held the event loop (a blocking call EM007 could not reach,
  a pathological callback).  The loop's ``slow_callback_duration`` is
  lowered to the same threshold and debug mode enabled so asyncio's own
  log line attributes the offending callback.
* **Task leaks** — tasks spawned during the run that are still pending
  when the entry coroutine returns.  ``asyncio.run`` silently cancels
  these; the sanitizer reports them first, because a forgotten task is
  exactly the bug EM008 flags statically.
* **Memory growth** — a :mod:`tracemalloc` before/after delta (after a
  forced GC) over ``memory_growth_limit_bytes`` fails the run.

Everything is opt-in: when ``EMAP_SANITIZE`` is unset,
:func:`run_sanitized` is a plain ``asyncio.run`` and no instrumentation
is installed, so tier-1 wall time is unchanged.  The CI ``sanitize``
lane exports ``EMAP_SANITIZE=1`` and re-runs the gateway, chaos, and
soak suites; the :mod:`tests.conftest` hook reroutes every
``asyncio.run`` call through here in that mode.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Coroutine

from repro import obs
from repro.errors import SanitizerError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SANITIZE_ENV",
    "Sanitizer",
    "SanitizerReport",
    "run_sanitized",
    "sanitize_enabled",
]

SANITIZE_ENV = "EMAP_SANITIZE"


def sanitize_enabled() -> bool:
    """True when the environment opts into the sanitizer harness."""
    return os.environ.get(SANITIZE_ENV) == "1"


@dataclass
class SanitizerReport:
    """What one sanitized run observed, plus the budget verdicts."""

    stalls: list[float] = field(default_factory=list)
    leaked_tasks: list[str] = field(default_factory=list)
    memory_growth_bytes: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "sanitizer: clean"
        lines = ["sanitizer: FAILED"]
        lines.extend(f"  - {violation}" for violation in self.violations)
        return "\n".join(lines)


class Sanitizer:
    """One run's instrumentation: install, observe, judge.

    Lifecycle: :meth:`install` inside the running loop,
    :meth:`finalize` after the entry coroutine returns (still inside
    the loop, so pending tasks are observable), :meth:`close` after the
    loop is torn down (memory verdict).
    """

    def __init__(
        self,
        *,
        stall_threshold_s: float = 0.25,
        poll_interval_s: float = 0.05,
        memory_growth_limit_bytes: int = 64 * 1024 * 1024,
        track_memory: bool = True,
    ) -> None:
        if stall_threshold_s <= 0.0 or poll_interval_s <= 0.0:
            raise SanitizerError("sanitizer thresholds must be positive")
        self.stall_threshold_s = stall_threshold_s
        self.poll_interval_s = poll_interval_s
        self.memory_growth_limit_bytes = memory_growth_limit_bytes
        self.track_memory = track_memory
        self.report = SanitizerReport()
        self._registry: MetricsRegistry = obs.metrics()
        self._baseline_tasks: set[asyncio.Task] = set()
        self._monitor_task: asyncio.Task | None = None
        self._started_tracing = False
        self._memory_baseline = 0
        self._finalized = False

    # -- lifecycle ------------------------------------------------------

    def install(self, loop: asyncio.AbstractEventLoop) -> None:
        loop.slow_callback_duration = self.stall_threshold_s
        loop.set_debug(True)
        self._baseline_tasks = set(asyncio.all_tasks(loop))
        if self.track_memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracing = True
            gc.collect()
            self._memory_baseline = tracemalloc.get_traced_memory()[0]
        self._monitor_task = loop.create_task(
            self._monitor(), name="emap-sanitizer-monitor"
        )

    async def finalize(self) -> None:
        """Stop the heartbeat and snapshot pending tasks (in-loop)."""
        self._finalized = True
        monitor = self._monitor_task
        if monitor is not None:
            monitor.cancel()
            try:
                await monitor
            except asyncio.CancelledError:
                pass
        current = asyncio.current_task()
        loop = asyncio.get_running_loop()
        for task in asyncio.all_tasks(loop):
            if task is current or task is monitor:
                continue
            if task in self._baseline_tasks or task.done():
                continue
            self.report.leaked_tasks.append(self._describe_task(task))

    def close(self) -> SanitizerReport:
        """Judge the run after the loop has been torn down."""
        if self.track_memory:
            gc.collect()
            current = tracemalloc.get_traced_memory()[0]
            self.report.memory_growth_bytes = max(
                0, current - self._memory_baseline
            )
            if self._started_tracing:
                tracemalloc.stop()
        self._judge()
        self._emit_metrics()
        return self.report

    # -- detectors ------------------------------------------------------

    async def _monitor(self) -> None:
        """Heartbeat: scheduling drift beyond the threshold is a stall."""
        while True:
            before = time.monotonic()
            try:
                await asyncio.sleep(self.poll_interval_s)
            except asyncio.CancelledError:
                # A stall that ends exactly at shutdown still counts:
                # measure the beat we were cancelled out of.
                self._record_drift(before)
                raise
            self._record_drift(before)

    def _record_drift(self, before: float) -> None:
        drift = time.monotonic() - before - self.poll_interval_s
        if drift >= self.stall_threshold_s:
            self.report.stalls.append(drift)

    @staticmethod
    def _describe_task(task: asyncio.Task) -> str:
        coro = task.get_coro()
        target = getattr(coro, "__qualname__", repr(coro))
        return f"{task.get_name()} ({target})"

    # -- verdicts -------------------------------------------------------

    def _judge(self) -> None:
        report = self.report
        if report.stalls:
            worst = max(report.stalls)
            report.violations.append(
                f"event loop stalled {len(report.stalls)}x "
                f"(worst {worst:.3f}s > {self.stall_threshold_s:.3f}s "
                "budget); a coroutine is blocking the loop"
            )
        if report.leaked_tasks:
            names = ", ".join(report.leaked_tasks)
            report.violations.append(
                f"{len(report.leaked_tasks)} task(s) still pending at "
                f"exit: {names}; await, cancel, or scope them"
            )
        if (
            self.track_memory
            and report.memory_growth_bytes > self.memory_growth_limit_bytes
        ):
            report.violations.append(
                f"traced memory grew {report.memory_growth_bytes} bytes "
                f"(limit {self.memory_growth_limit_bytes})"
            )

    def _emit_metrics(self) -> None:
        if not self._registry.enabled:
            return
        report = self.report
        self._registry.inc("obs.sanitize.runs")
        self._registry.inc("obs.sanitize.stalls", len(report.stalls))
        for drift in report.stalls:
            self._registry.observe("obs.sanitize.stall_s", drift)
        self._registry.inc(
            "obs.sanitize.leaked_tasks", len(report.leaked_tasks)
        )
        self._registry.set_gauge(
            "obs.sanitize.memory_growth_bytes",
            float(report.memory_growth_bytes),
        )


async def _guarded(
    main: Coroutine[Any, Any, Any], sanitizer: Sanitizer
) -> Any:
    sanitizer.install(asyncio.get_running_loop())
    try:
        return await main
    finally:
        await sanitizer.finalize()


def run_sanitized(
    main: Coroutine[Any, Any, Any],
    *,
    sanitizer: Sanitizer | None = None,
    force: bool = False,
) -> Any:
    """``asyncio.run`` with the sanitizer harness around it.

    With the environment gate off (and ``force`` unset) this *is*
    ``asyncio.run`` — same semantics, zero overhead.  Otherwise the run
    is instrumented and a :class:`SanitizerError` raised on any budget
    violation.  An exception from ``main`` always wins over sanitizer
    verdicts (the crash is the more fundamental signal).
    """
    if not force and sanitizer is None and not sanitize_enabled():
        return asyncio.run(main)
    active = sanitizer if sanitizer is not None else Sanitizer()
    loop = asyncio.new_event_loop()
    try:
        asyncio.set_event_loop(loop)
        try:
            result = loop.run_until_complete(_guarded(main, active))
        finally:
            _cancel_remaining(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
    finally:
        asyncio.set_event_loop(None)
        loop.close()
    report = active.close()
    if not report.ok:
        raise SanitizerError(report.render())
    return result


def _cancel_remaining(loop: asyncio.AbstractEventLoop) -> None:
    """Drain leftover tasks the way ``asyncio.run`` does on exit."""
    pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
    if not pending:
        return
    for task in pending:
        task.cancel()
    loop.run_until_complete(
        asyncio.gather(*pending, return_exceptions=True)
    )

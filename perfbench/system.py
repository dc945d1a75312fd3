"""Bringing the system up, and the calls the workloads make into it.

The load reaches the program only through its public serving surface:
``ServingGateway.submit`` over a ``CloudServer`` built on the
``MegaDatabase`` itself, ``EdgeStepDriver.adopt``/``step``, and
``MDBBuilder.ingest_record``.  :class:`Calls` makes those calls
directly; :class:`TracedCalls` makes the same calls inside spans and
wraps the layer entry points the serving surface reaches
(``CloudServer.handle_batch``/``refresh``, ``FleetTracker.step``/
``open_session`` and the fleet's rectangle kernel), for the traced run
only.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

import repro.edge.fleet as edge_fleet
from repro.cloud.client import CloudCallOutcome
from repro.cloud.results import SearchResult
from repro.cloud.server import CloudServer
from repro.edge._kernels import _reset_backend_selection, kernel_backend
from repro.edge.tracker import TrackerConfig, TrackingStep
from repro.gateway.fleet import EdgeStepDriver
from repro.gateway.gateway import ServingGateway
from repro.mdb.builder import MDBBuilder
from repro.signals.types import Signal

from perfbench import host
from perfbench.tracing import Tracer

#: Steal share at which the host counts as calm.  Throughput stayed
#: within a few percent of its steal-free rate up to about 2% steal, and
#: fell to under half of it at 30%.
CALM_STEAL = 0.02
#: Set-ups before and after the measured window, so that a host
#: slowdown during one batch of them moves fewer than half (see
#: :func:`summarise`).
SETUP_BEFORE = 6
SETUP_AFTER = 5


class BenchmarkError(Exception):
    """The system failed in a way the benchmark cannot measure around."""


@dataclass
class System:
    builder: MDBBuilder
    server: CloudServer
    gateway: ServingGateway
    driver: EdgeStepDriver

    async def aclose(self) -> None:
        await self.gateway.aclose()
        await self.driver.aclose()
        self.server.close()


async def _bring_up(
    records: Sequence[Signal], warm_frames: tuple[np.ndarray, np.ndarray]
) -> tuple[System, dict[str, float]]:
    """One complete set-up, timed phase by phase, with the host's steal
    share over it (see :func:`perfbench.host.cpu_ticks`)."""
    ticks = host.cpu_ticks()
    started = time.perf_counter()
    builder = MDBBuilder()
    for record in records:
        builder.ingest_record(record)
    built = time.perf_counter()
    server = CloudServer(builder.mdb)
    compiled = time.perf_counter()
    _reset_backend_selection()
    kernel_backend()
    loaded = time.perf_counter()
    system = System(
        builder, server, ServingGateway(server), EdgeStepDriver(TrackerConfig())
    )
    try:
        outcome = await system.gateway.submit("warmup", warm_frames[0], 0.0)
        if not outcome.ok or outcome.result is None:
            raise BenchmarkError(f"warm-up search failed: {outcome.failure}")
        await system.driver.adopt("warmup", outcome.result)
        await system.driver.step("warmup", warm_frames[1])
        await system.driver.close_session("warmup")
    except BaseException:
        await system.aclose()
        raise
    ready = time.perf_counter()
    steal_share = 0.0
    after = host.cpu_ticks()
    if ticks is not None and after is not None and after[1] > ticks[1]:
        steal_share = (after[0] - ticks[0]) / (after[1] - ticks[1])
    return system, {
        "mdb_build_s": built - started,
        "plane_compile_s": compiled - built,
        "kernel_load_s": loaded - compiled,
        "warmup_s": ready - loaded,
        "setup_s": ready - started,
        "steal_share": steal_share,
    }


async def set_up(
    records: Sequence[Signal],
    warm_frames: tuple[np.ndarray, np.ndarray],
    repeats: int,
) -> tuple[System, list[dict[str, float]]]:
    """Set the system up ``repeats`` times; keep the last one.

    Returns the kept system and every set-up's split, in order.
    """
    splits: list[dict[str, float]] = []
    system: System | None = None
    for _ in range(repeats):
        if system is not None:
            await system.aclose()
        system, split = await _bring_up(records, warm_frames)
        splits.append(split)
    assert system is not None
    return system, splits


def summarise(splits: Sequence[dict[str, float]]) -> dict[str, float]:
    """The median of each phase over the calm set-ups: those whose steal
    share is at most the median one or :data:`CALM_STEAL`.

    ``setup_s`` thus mostly measures warm re-set-ups in one process, in
    the moments other guests took least of the host; ``first_setup_s``
    is the first one, which alone pays any cost a process pays only once.
    """
    steal = [split["steal_share"] for split in splits]
    cut = max(statistics.median(steal), CALM_STEAL)
    calm = [split for split in splits if split["steal_share"] <= cut]
    setup = {key: statistics.median(split[key] for split in calm) for key in splits[0]}
    setup["first_setup_s"] = splits[0]["setup_s"]
    return setup


class Calls:
    """Direct calls into the serving surface (the untraced run)."""

    def __init__(self, system: System) -> None:
        self.system = system

    async def submit(
        self, tenant: str, frame: np.ndarray, now_s: float, request: str
    ) -> CloudCallOutcome:
        return await self.system.gateway.submit(tenant, frame, now_s)

    async def adopt(self, session: str, result: SearchResult) -> None:
        await self.system.driver.adopt(session, result)

    async def step(self, session: str, frame: np.ndarray) -> TrackingStep:
        return await self.system.driver.step(session, frame)

    def ingest(self, record: Signal) -> int:
        return self.system.builder.ingest_record(record)

    def window_started(self) -> None:
        """The measured window begins; earlier calls were preparation."""

    def close(self) -> None:
        """Undo any instrumentation (none here)."""


class TracedCalls(Calls):
    """The same calls inside spans, plus wrappers around layer entries."""

    def __init__(self, system: System, tracer: Tracer) -> None:
        super().__init__(system)
        self.tracer = tracer
        #: id(frame) → request id, while the request is queued.
        self._requests: dict[int, str] = {}
        #: request id → start of the first batch that carried it.
        self._batch_start: dict[str, float] = {}
        #: session id → duration of the fused step that served it last.
        self._fused_s: dict[str, float] = {}
        self.window_started()
        self._restore: list[Callable[[], None]] = []
        tracker = system.driver.tracker
        self._wrap(system.server, "handle_batch", self._handle_batch)
        self._wrap(system.server, "refresh", self._refresh)
        self._wrap(tracker, "step", self._fleet_step)
        self._wrap(tracker, "open_session", self._open_session)
        kernel = edge_fleet.abs_diff_rect_sums
        edge_fleet.abs_diff_rect_sums = self._kernel(kernel)
        self._restore.append(lambda: setattr(edge_fleet, "abs_diff_rect_sums", kernel))

    def window_started(self) -> None:
        """Forget what preparation recorded; count only the window."""
        self.tracer.spans.clear()
        self.tracer.counters.clear()
        self.queue_wait_s: list[float] = []
        self.driver_wait_s: list[float] = []
        #: (duration, size) of every served batch.
        self.batches: list[tuple[float, int]] = []
        self.refreshes_s: list[float] = []
        tracker = self.system.driver.tracker
        self._hits0 = tracker.cache_hits
        self._misses0 = tracker.cache_misses

    def _wrap(self, target: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = getattr(target, name)
        setattr(target, name, make(original))
        self._restore.append(lambda: delattr(target, name))

    def close(self) -> None:
        tracker = self.system.driver.tracker
        self.tracer.count("edge.cache_hits", tracker.cache_hits - self._hits0)
        self.tracer.count("edge.cache_misses", tracker.cache_misses - self._misses0)
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    # -- wrappers around layer entry points ---------------------------

    def _handle_batch(self, original: Any) -> Any:
        def handle_batch(frames: Sequence[np.ndarray]) -> Any:
            request = ",".join(self._requests.get(id(f), "?") for f in frames)
            with self.tracer.span("cloud.handle_batch", request) as span:
                for frame in frames:
                    rid = self._requests.get(id(frame))
                    if rid is not None:
                        self._batch_start.setdefault(rid, span.start)
                served = original(frames)
            self.batches.append((span.duration, len(frames)))
            for result, breakdown in served:
                self.tracer.count("cloud.requests")
                self.tracer.count("cloud.correlations", result.correlations_evaluated)
                self.tracer.count("cloud.eq4_search_s", breakdown.search_s)
            return served

        return handle_batch

    def _refresh(self, original: Any) -> Any:
        def refresh() -> bool:
            with self.tracer.span("cloud.refresh") as span:
                refreshed = original()
            if refreshed:
                plane = self.system.server.plane
                self.refreshes_s.append(span.duration)
                self.tracer.count("cloud.shards_compiled", plane.last_refresh_compiled)
                self.tracer.count("cloud.shards_reused", plane.last_refresh_reused)
            return bool(refreshed)

        return refresh

    def _fleet_step(self, original: Any) -> Any:
        def step(frames: dict[str, np.ndarray]) -> Any:
            with self.tracer.span("edge.fleet.step", f"{len(frames)} sessions") as span:
                steps = original(frames)
            tracker = self.system.driver.tracker
            for session in frames:
                self._fused_s[session] = span.duration
            self.tracer.count("edge.fused_steps")
            self.tracer.count("edge.fused_sessions", len(frames))
            self.tracer.count("edge.groups", tracker.last_fused_groups)
            self.tracer.count("edge.pairs", tracker.last_fused_pairs)
            self.tracer.count("edge.dedup", tracker.dedup_ratio)
            return steps

        return step

    def _open_session(self, original: Any) -> Any:
        def open_session(session: str, result: SearchResult) -> None:
            with self.tracer.span("edge.open_session", session):
                original(session, result)

        return open_session

    def _kernel(self, original: Any) -> Any:
        def rect_sums(rows: np.ndarray, queries: np.ndarray, **kwargs: Any) -> Any:
            with self.tracer.span("edge.kernel"):
                out = original(rows, queries, **kwargs)
            self.tracer.count("edge.kernel_cells", out.size)
            self.tracer.count(
                "edge.kernel_bytes", rows.nbytes + queries.nbytes + out.nbytes
            )
            return out

        return rect_sums

    # -- the serving surface -------------------------------------------

    async def submit(
        self, tenant: str, frame: np.ndarray, now_s: float, request: str
    ) -> CloudCallOutcome:
        frame = frame.view()  # a distinct object identifies this request
        self._requests[id(frame)] = request
        try:
            with self.tracer.span("gateway.submit", request) as span:
                outcome = await super().submit(tenant, frame, now_s, request)
        finally:
            del self._requests[id(frame)]
        batch_start = self._batch_start.pop(request, None)
        if batch_start is not None:
            self.queue_wait_s.append(batch_start - span.start)
        if outcome.failure == "rejected":
            self.tracer.count("gateway.rejected")
        return outcome

    async def adopt(self, session: str, result: SearchResult) -> None:
        with self.tracer.span("edge.adopt", session):
            await super().adopt(session, result)

    async def step(self, session: str, frame: np.ndarray) -> TrackingStep:
        with self.tracer.span("edge.driver_step", session) as span:
            step = await super().step(session, frame)
        self.driver_wait_s.append(span.duration - self._fused_s.get(session, 0.0))
        return step

    def ingest(self, record: Signal) -> int:
        with self.tracer.span("mdb.ingest_record", record.source):
            inserted = super().ingest(record)
        self.tracer.count("mdb.slices_inserted", inserted)
        return inserted


def require_ok(outcome: CloudCallOutcome) -> SearchResult:
    """The result of a search the workload cannot go on without."""
    if not outcome.ok or outcome.result is None:
        raise BenchmarkError(f"search failed: {outcome.failure}")
    return outcome.result


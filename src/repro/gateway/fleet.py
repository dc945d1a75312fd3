"""Fleets of monitored sessions driving the serving gateway.

:func:`run_fleet_session` is the paper's closed loop (Fig. 3, timed in
Fig. 9) at serving scale: the same
:class:`~repro.runtime.streaming.SignalAcquisition` framing and
sans-I/O :class:`~repro.runtime.streaming.ClosedLoop` a
:class:`~repro.runtime.streaming.StreamingMonitor` runs, over the
served system's I/O.  Each tracking iteration rides a fused fleet step
through :class:`EdgeStepDriver`; each cloud call is a background
:meth:`ServingGateway.submit <repro.gateway.gateway.ServingGateway.submit>`
sharing coalesced batch walks with other sessions.  A result lands at
the first frame at or after its Eq. 4 instant.  The loop needs a call's
outcome by its next frame (a failure degrades it, a success decides
when it lands), so that frame awaits the call if it has not resolved:
at ``time_scale=0`` it always waits, on a paced clock the search has
usually resolved.  A submission admission control rejects is a failed
call: the session degrades and the policy re-fires on its next frame.

:func:`run_fleet` runs ``n_sessions`` of them against one gateway and
one edge driver; each belongs to a tenant, arrives at a seeded instant
inside the arrival horizon and replays its own seeded
``session_s``-second EEG recording.  Simulated time (``now_s``) carries
breaker cooldowns and backoff penalties; wall time gives the request
latency percentiles of the report.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro.edge.fleet import FleetTracker
from repro.edge.tracker import TrackerConfig, TrackingStep, checked_frame
from repro.errors import EMAPError, GatewayError, TrackingError
from repro.gateway.gateway import GatewayConfig, ServingGateway
from repro.runtime.streaming import (
    ClosedLoop,
    FrameworkConfig,
    MonitorUpdate,
    SignalAcquisition,
)
from repro.signals.generator import EEGGenerator
from repro.signals.types import BASE_SAMPLE_RATE_HZ, FRAME_SAMPLES

if TYPE_CHECKING:
    from repro.cloud.client import CloudCallOutcome, ResilienceConfig
    from repro.cloud.results import SearchMatch, SearchResult
    from repro.cloud.server import CloudServer
    from repro.faults.plan import FaultPlan

_T = TypeVar("_T")


@dataclass(frozen=True)
class FleetConfig:
    """Shape of a served session fleet."""

    n_sessions: int = 200
    n_tenants: int = 8
    #: Seconds of seeded EEG each session replays, one frame a second.
    session_s: float = 20.0
    #: Sessions arrive uniformly over this many simulated seconds.
    arrival_horizon_s: float = 5.0
    #: Wall seconds per simulated second (0 = as fast as possible).
    time_scale: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise GatewayError(
                f"fleet needs >= 1 session, got {self.n_sessions}"
            )
        if self.n_tenants < 1:
            raise GatewayError(
                f"fleet needs >= 1 tenant, got {self.n_tenants}"
            )
        if self.session_frames < 1:
            raise GatewayError(
                f"a session must cover at least one frame, got {self.session_s} s"
            )
        if self.arrival_horizon_s < 0 or self.time_scale < 0:
            raise GatewayError("fleet times must be non-negative")

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenant names; session ``i`` belongs to ``tenants[i % n_tenants]``."""
        return tuple(f"tenant-{index}" for index in range(self.n_tenants))

    def check_tenant(self, tenant: str) -> None:
        """Reject a tenant name that no session of this fleet uses."""
        if tenant not in self.tenants:
            raise GatewayError(
                f"unknown tenant {tenant!r}: the fleet's tenants are "
                f"tenant-0 … tenant-{self.n_tenants - 1}"
            )

    @property
    def session_frames(self) -> int:
        """Frames each session's recording holds."""
        return int(self.session_s * BASE_SAMPLE_RATE_HZ) // FRAME_SAMPLES

    def fault_horizon(self, resilience: ResilienceConfig) -> int:
        """Calls one tenant's fault plan must cover: at worst every
        session of the tenant calls on every frame (a degraded session
        re-fires each frame), each call taking every attempt."""
        sessions = -(-self.n_sessions // self.n_tenants)
        return sessions * self.session_frames * (resilience.max_retries + 1)


@dataclass
class TenantSummary:
    """Per-tenant aggregate of the fleet run."""

    sessions: int = 0
    requests: int = 0
    successes: int = 0
    failures: int = 0
    rejected: int = 0
    sessions_without_set: int = 0

    @property
    def failure_ratio(self) -> float:
        return self.failures / self.requests if self.requests else 0.0


@dataclass
class FleetReport:
    """What the whole fleet run produced."""

    sessions: int
    #: Sessions that ended without ever adopting a correlation set.
    sessions_without_set: int
    #: Admitted cloud calls (a rejected submission is not a request).
    requests: int
    successes: int
    failures: int
    rejections: int
    wall_elapsed_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    batches_served: int
    mean_batch_size: float
    queue_high_water: int
    pending_at_end: int
    per_tenant: dict[str, TenantSummary] = field(default_factory=dict)
    #: Tracking iterations the sessions got back from the edge driver.
    edge_steps: int = 0
    #: Session frames the driver's fused fleet steps advanced.
    edge_fused_frames: int = 0
    edge_evaluations: int = 0
    edge_fused_steps: int = 0
    edge_dedup_ratio: float = 1.0
    #: Non-empty correlation sets the sessions adopted, and how many of
    #: them the session's landing frame stepped as a fresh set.
    sets_adopted: int = 0
    sets_stepped: int = 0

    @property
    def throughput_rps(self) -> float:
        if self.wall_elapsed_s <= 0:
            return 0.0
        return self.requests / self.wall_elapsed_s

    @property
    def edge_mean_fused_batch(self) -> float:
        if not self.edge_fused_steps:
            return 0.0
        return self.edge_fused_frames / self.edge_fused_steps

    def report(self) -> str:
        """Human-readable summary (the ``emap serve`` output)."""
        lines = [
            f"sessions: {self.sessions}, "
            f"{self.sessions_without_set} ended without a set",
            f"requests: {self.requests} "
            f"({self.successes} ok, {self.failures} failed, "
            f"{self.rejections} rejections)",
            f"wall time: {self.wall_elapsed_s:.2f}s "
            f"({self.throughput_rps:.0f} req/s)",
            f"latency p50/p95/p99: {self.latency_p50_s * 1e3:.1f} / "
            f"{self.latency_p95_s * 1e3:.1f} / "
            f"{self.latency_p99_s * 1e3:.1f} ms",
            f"batches: {self.batches_served} "
            f"(mean size {self.mean_batch_size:.1f}), "
            f"queue high-water {self.queue_high_water}, "
            f"pending at end {self.pending_at_end}",
        ]
        if self.edge_steps:
            lines.append(
                f"edge: {self.edge_steps} session steps in "
                f"{self.edge_fused_steps} fused fleet steps "
                f"(mean batch {self.edge_mean_fused_batch:.1f}), "
                f"{self.edge_evaluations} area evaluations, "
                f"dedup ratio {self.edge_dedup_ratio:.1f}; "
                f"{self.sets_adopted} sets adopted, "
                f"{self.sets_stepped} stepped on landing"
            )
        lines.append(
            "per tenant (requests ok/failed/rejected, sessions without a set):"
        )
        for name in sorted(self.per_tenant):
            tenant = self.per_tenant[name]
            lines.append(
                f"  {name:<12} {tenant.successes}/{tenant.failures}"
                f"/{tenant.rejected}, without a set "
                f"{tenant.sessions_without_set}"
            )
        return "\n".join(lines)


class EdgeStepDriver:
    """Coalesces concurrent sessions' edge frames into fused fleet steps.

    Async front door to one (non-thread-safe) shared
    :class:`~repro.edge.fleet.FleetTracker`: every tracker interaction —
    open, step, close — runs on a dedicated single worker thread, which
    both serialises access and keeps the event loop off the kernel's
    critical path (the C kernel releases the GIL and threads
    internally).  Frames submitted while a fused step is running pile up
    in ``_pending``; the stepper drains them as the *next* fused
    :meth:`FleetTracker.step` — so the batch size adapts to load exactly
    like the gateway's cloud-side coalescing.  :meth:`adopt` parks its
    result, and the session's next fused step opens it on the worker,
    then steps it.  A session closed after its frame was parked, or
    whose parked result fails to open, fails only that frame.
    """

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.tracker = FleetTracker(config)
        #: Adopted results waiting for their session's next step.
        self._parked: dict[str, SearchResult | Sequence[SearchMatch]] = {}
        self._pending: dict[
            str, tuple[np.ndarray, asyncio.Future[TrackingStep]]
        ] = {}
        self._wake: asyncio.Event | None = None
        self._stepper: asyncio.Task[None] | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="edge-step"
        )
        self._closed = False
        self.fused_steps = 0
        self.frames_stepped = 0
        #: Highest references-per-slice ratio seen across fused steps
        #: (sessions close at end, so the final ratio is trivially 1).
        self.max_dedup_ratio = 1.0

    async def adopt(
        self, session_id: str, result: SearchResult | Sequence[SearchMatch]
    ) -> None:
        """(Re)open ``session_id`` with a fresh correlation set at its
        next :meth:`step`, which opens it on the worker first."""
        if self._closed:
            raise GatewayError("edge driver is closed; create a new one")
        self._parked[session_id] = result

    async def close_session(self, session_id: str) -> None:
        """Close ``session_id`` if it is open; a result parked for it
        never opens."""
        self._parked.pop(session_id, None)
        await self._run(self._close, session_id)

    async def step(self, session_id: str, frame: np.ndarray) -> TrackingStep:
        """One tracking iteration, riding the next fused fleet step.

        Raises :class:`~repro.errors.TrackingError` at once for a
        session that is neither open nor holding a parked result, or a
        frame of the wrong shape or with non-finite samples.
        """
        if self._closed:
            raise GatewayError("edge driver is closed; create a new one")
        if session_id in self._pending:
            raise GatewayError(
                f"session {session_id!r} already has a frame in flight"
            )
        # Checked per caller, before the frame joins a fused step: a bad
        # frame fails only its own caller, never its batch-mates.
        data = (
            checked_frame(frame, self.tracker.config.frame_samples, session_id)
            if session_id in self._parked
            else self.tracker.check_frame(session_id, frame)
        )
        loop = asyncio.get_running_loop()
        future: asyncio.Future[TrackingStep] = loop.create_future()
        self._pending[session_id] = (data, future)
        if self._wake is None:
            self._wake = asyncio.Event()
        self._wake.set()
        if self._stepper is None or self._stepper.done():
            self._stepper = loop.create_task(self._step_loop())
        return await future

    async def aclose(self) -> None:
        """Stop the stepper and the worker thread; fail pending frames."""
        self._closed = True
        task = self._stepper
        self._stepper = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        failure = GatewayError("edge driver closed with frames in flight")
        for _, future in self._pending.values():
            if not future.done():
                future.set_exception(failure)
        self._pending.clear()
        self._parked.clear()
        self._executor.shutdown(wait=True)

    async def _run(self, fn: Callable[..., _T], *args: object) -> _T:
        """Run one tracker call on the serialising worker thread."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    def _close(self, session_id: str) -> None:
        """Close ``session_id`` if it is open; worker thread only."""
        if session_id in self.tracker.session_ids:
            self.tracker.close_session(session_id)

    def _open_and_step(
        self,
        frames: Mapping[str, np.ndarray],
        opens: Mapping[str, SearchResult | Sequence[SearchMatch]],
    ) -> tuple[dict[str, TrackingStep], dict[str, EMAPError]]:
        """Open the parked results, then one fused step over the sessions
        open; worker thread only.

        Serialised with :meth:`close_session` on the worker, so a frame
        whose session closed first is simply left out of the step, as is
        one whose result failed to open (its error is returned).
        """
        failed: dict[str, EMAPError] = {}
        for session_id, result in opens.items():
            try:
                self.tracker.open_session(session_id, result)
            except EMAPError as error:
                failed[session_id] = error
        open_ids = set(self.tracker.session_ids) - failed.keys()
        live = {sid: frame for sid, frame in frames.items() if sid in open_ids}
        return (self.tracker.step(live) if live else {}), failed

    async def _step_loop(self) -> None:
        wake = self._wake
        if wake is None:  # pragma: no cover - step() sets it first
            raise GatewayError("edge stepper started without a wake event")
        while True:
            await wake.wait()
            # One yield lets same-tick submitters join this fused step.
            await asyncio.sleep(0)
            wake.clear()
            while self._pending:
                batch = self._pending
                self._pending = {}
                frames = {sid: frame for sid, (frame, _) in batch.items()}
                opens = {
                    sid: self._parked.pop(sid) for sid in batch if sid in self._parked
                }
                try:
                    steps, failed = await self._run(
                        self._open_and_step, frames, opens
                    )
                except EMAPError as error:
                    for _, future in batch.values():
                        if not future.done():
                            future.set_exception(error)
                    continue
                if steps:
                    self.fused_steps += 1
                    self.frames_stepped += len(steps)
                    self.max_dedup_ratio = max(
                        self.max_dedup_ratio, self.tracker.dedup_ratio
                    )
                for sid, (_, future) in batch.items():
                    if future.done():
                        continue
                    if sid in steps:
                        future.set_result(steps[sid])
                    elif sid in failed:
                        future.set_exception(failed[sid])
                    else:
                        future.set_exception(
                            TrackingError(
                                f"fleet session {sid!r} closed before its "
                                "frame stepped"
                            )
                        )
                # Yield so resolved sessions run (and may re-enqueue the
                # next frame) before this loop drains again.
                await asyncio.sleep(0)


async def run_fleet_session(
    gateway: ServingGateway,
    edge: EdgeStepDriver,
    tenant: str,
    session_id: str,
    frames: Sequence[np.ndarray],
    config: FrameworkConfig,
    start_s: float = 0.0,
    time_scale: float = 0.0,
    latencies: list[float] | None = None,
) -> list[MonitorUpdate]:
    """Run a recording's filtered ``frames`` (from
    :class:`~repro.runtime.streaming.SignalAcquisition`) through the
    closed loop over ``edge`` and ``gateway`` (as ``tenant``) from
    simulated second ``start_s``; returns one update per frame, as a
    :class:`~repro.runtime.streaming.StreamingMonitor` would.  Each
    admitted call's wall seconds go to ``latencies``."""
    loop = ClosedLoop(config, gateway.server.timing)
    clock = asyncio.get_running_loop()
    updates: list[MonitorUpdate] = []
    in_flight: tuple[MonitorUpdate, asyncio.Future[CloudCallOutcome]] | None = None

    async def submit(frame: np.ndarray, now_s: float) -> CloudCallOutcome:
        started = clock.time()
        outcome = await gateway.submit(tenant, frame, now_s)
        if latencies is not None and outcome.failure != "rejected":
            latencies.append(clock.time() - started)
        return outcome

    async def settle() -> None:
        nonlocal in_flight
        if in_flight is not None:
            update, call = in_flight
            in_flight = None
            updates.append(loop.record_call(update, await call))

    await asyncio.sleep(start_s * time_scale)
    try:
        for data in frames:
            await settle()
            now_s = start_s + (loop.frame_index + 1) * loop.frame_s
            landed = loop.land(now_s)
            if landed is not None:
                await edge.adopt(session_id, landed)
            step = await edge.step(session_id, data) if loop.tracks(landed) else None
            update, call = loop.advance(now_s, landed, step)
            if call:
                in_flight = (update, asyncio.ensure_future(submit(data, now_s)))
            else:
                updates.append(update)
            await asyncio.sleep(loop.frame_s * time_scale)
        await settle()
    finally:
        if in_flight is not None:
            in_flight[1].cancel()
        await edge.close_session(session_id)
    return updates


async def _run_fleet_async(
    server: CloudServer,
    config: FleetConfig,
    gateway_config: GatewayConfig,
    tenant_plans: Mapping[str, FaultPlan] | None,
    arrivals: Sequence[tuple[float, list[np.ndarray]]],
) -> FleetReport:
    gateway = ServingGateway(server, gateway_config, tenant_plans)
    framework = FrameworkConfig()
    edge = EdgeStepDriver(framework.tracker)
    latencies: list[float] = []
    tenants = config.tenants

    async def session(index: int) -> tuple[str, list[MonitorUpdate]]:
        start_s, frames = arrivals[index]
        tenant = tenants[index % config.n_tenants]
        updates = await run_fleet_session(
            gateway, edge, tenant, f"session-{index}", frames, framework,
            start_s, config.time_scale, latencies,
        )
        return tenant, updates

    started = time.perf_counter()
    try:
        sessions = await asyncio.gather(
            *(session(index) for index in range(config.n_sessions))
        )
    finally:
        pending_at_end = gateway.pending
        await gateway.aclose()
        await edge.aclose()
    elapsed = time.perf_counter() - started

    per_tenant: dict[str, TenantSummary] = {}
    steps: list[TrackingStep] = []
    sets_adopted = sets_stepped = 0
    for tenant, updates in sessions:
        summary = per_tenant.setdefault(tenant, TenantSummary())
        summary.sessions += 1
        summary.sessions_without_set += all(u.adopted is None for u in updates)
        for update in updates:
            step = update.step
            if step is not None:
                steps.append(step)
            if update.adopted:
                # A freshly opened set steps as iteration 1.
                sets_adopted += 1
                sets_stepped += step is not None and step.iteration == 1
            outcome = update.call
            if outcome is None:
                continue
            if outcome.failure == "rejected":
                summary.rejected += 1
                continue
            summary.requests += 1
            summary.successes += outcome.ok
            summary.failures += not outcome.ok

    sample = np.asarray(latencies) if latencies else np.zeros(1)
    p50, p95, p99 = (
        float(value) for value in np.percentile(sample, (50.0, 95.0, 99.0))
    )
    batches = gateway.batches_served
    tenants = per_tenant.values()
    return FleetReport(
        sessions=len(sessions),
        sessions_without_set=sum(t.sessions_without_set for t in tenants),
        requests=sum(t.requests for t in tenants),
        successes=sum(t.successes for t in tenants),
        failures=sum(t.failures for t in tenants),
        rejections=sum(t.rejected for t in tenants),
        wall_elapsed_s=elapsed,
        latency_p50_s=p50,
        latency_p95_s=p95,
        latency_p99_s=p99,
        batches_served=batches,
        mean_batch_size=gateway.attempts_served / batches if batches else 0.0,
        queue_high_water=gateway.queue_high_water,
        pending_at_end=pending_at_end,
        per_tenant=per_tenant,
        edge_steps=len(steps),
        edge_fused_frames=edge.frames_stepped,
        edge_evaluations=sum(step.area_evaluations for step in steps),
        edge_fused_steps=edge.fused_steps,
        edge_dedup_ratio=edge.max_dedup_ratio,
        sets_adopted=sets_adopted,
        sets_stepped=sets_stepped,
    )


def run_fleet(
    server: CloudServer,
    config: FleetConfig | None = None,
    gateway_config: GatewayConfig | None = None,
    tenant_plans: Mapping[str, FaultPlan] | None = None,
) -> FleetReport:
    """Drive a fleet of monitored sessions through a fresh gateway.

    Draws each session's arrival and filters its seeded recording up
    front, so neither runs on the event loop, then builds the gateway
    and the edge driver, runs every session to the end of its
    recording, closes both, and returns the aggregated
    :class:`FleetReport`.
    """
    config = config or FleetConfig()
    for tenant in tenant_plans or ():
        config.check_tenant(tenant)
    arrivals = []
    for index in range(config.n_sessions):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, index)))
        start_s = float(rng.uniform(0.0, config.arrival_horizon_s))
        recording = EEGGenerator(seed=int(rng.integers(2**32))).record(
            config.session_s, source=f"fleet/{index}"
        )
        frames = SignalAcquisition(FRAME_SAMPLES).push(recording.data)
        arrivals.append((start_s, frames))
    return asyncio.run(
        _run_fleet_async(
            server, config, gateway_config or GatewayConfig(), tenant_plans, arrivals
        )
    )

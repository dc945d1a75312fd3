"""Async multi-tenant serving gateway with cross-request batching.

:class:`ServingGateway` fronts one :class:`~repro.cloud.server.CloudServer`
for many concurrent edge sessions.  In-flight search requests are
coalesced by a dispatcher task into single
:meth:`~repro.cloud.server.CloudServer.handle_batch` calls — one pinned
plane epoch serves the whole batch — while every request
still passes through its **tenant's own**
:class:`~repro.cloud.client.ResilientCloudClient`, so deadlines,
retries and the circuit breaker act per tenant, never globally.

The resilient semantics are not re-implemented here: each request
drives the same sans-I/O :class:`~repro.cloud.client.ResilientCallDriver`
state machine the synchronous client uses; only the transport differs
(an attempt awaits the next coalesced batch instead of calling the
endpoint inline).  Per-tenant fault plans (:mod:`repro.faults`) stack
between the driver and the batch results exactly as a
:class:`~repro.faults.injector.FaultInjector` stacks under the
synchronous client.

Every frame is validated once, at :meth:`ServingGateway.submit`, with
the search engine's own ``prepare_query``: a corrupt frame (non-finite
or the wrong length) fails at once with the typed
:class:`~repro.errors.SearchError` and never joins a queue, so it can
neither fail the other riders of a coalesced batch nor spend retries.

Admission control is two bounded queues deep: a global in-flight bound
and a per-tenant bound.  A request arriving over either limit is
rejected immediately (``failure="rejected"``, no attempt, breaker
untouched) — backpressure the caller can see, instead of an unbounded
queue.  Tenant fairness is a round-robin drain: each batch takes one
request per tenant in rotation until the batch is full, so a flooding
tenant cannot starve the others.

Everything observable goes through :mod:`repro.obs` as ``gateway.*``
metrics (requests, rejections, batches, batch size, queue depth,
end-to-end request latency), rendered by ``emap obs`` like every other
subsystem.
"""

from __future__ import annotations

import asyncio
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro import obs
from repro.cloud.client import (
    CloudCallOutcome,
    ResilienceConfig,
    ResilientCallDriver,
    ResilientCloudClient,
)
from repro.errors import EMAPError, GatewayError, SearchError
from repro.faults.injector import FaultInjector
from repro.obs.sanitize import sanitize_enabled
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # heavy types stay annotations-only
    from repro.cloud.results import SearchResult
    from repro.cloud.server import CloudServer
    from repro.runtime.timing import TimingBreakdown, TimingModel
    from repro.signals.types import Frame


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the serving gateway.

    ``coalesce_window_s`` is *wall* time the dispatcher waits after the
    first enqueued request for the batch to fill (0 yields once to the
    event loop, which is the right setting for as-fast-as-possible
    simulation).  The two queue bounds are the admission-control
    surface: requests beyond them are rejected, not buffered.
    """

    max_batch: int = 16
    coalesce_window_s: float = 0.0
    max_queue_per_tenant: int = 256
    max_pending: int = 2048
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Route each batched plane walk through the default thread-pool
    #: executor instead of calling it inline on the event loop.  Inline
    #: is faster for as-fast-as-possible simulation (no thread hop) but
    #: stalls the loop for the duration of the walk; offload keeps the
    #: loop responsive at real MDB scales.  Defaults to the
    #: ``EMAP_SANITIZE`` gate so sanitized lanes exercise the
    #: non-blocking path and the loop-stall detector stays meaningful.
    offload_batches: bool = field(default_factory=sanitize_enabled)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise GatewayError(f"max batch must be >= 1, got {self.max_batch}")
        if self.coalesce_window_s < 0:
            raise GatewayError(
                f"coalesce window must be non-negative, got "
                f"{self.coalesce_window_s}"
            )
        if self.max_queue_per_tenant < 1:
            raise GatewayError(
                "per-tenant queue bound must be >= 1, got "
                f"{self.max_queue_per_tenant}"
            )
        if self.max_pending < 1:
            raise GatewayError(
                f"global pending bound must be >= 1, got {self.max_pending}"
            )


class _StagedEndpoint:
    """CloudEndpoint adapter handing out the batch-computed response.

    The dispatcher stages the ``(result, breakdown)`` pair the batched
    walk produced for a request, then invokes the tenant's endpoint
    chain (fault injector included) exactly like the synchronous path
    invokes ``handle_frame`` — so per-tenant fault plans keep their
    call-index semantics and the resilient driver sees an ordinary
    endpoint response or :class:`~repro.errors.EMAPError`.
    """

    def __init__(self, timing: TimingModel) -> None:
        self.timing = timing
        self._staged: tuple[SearchResult, TimingBreakdown] | None = None

    def stage(self, result: SearchResult, breakdown: TimingBreakdown) -> None:
        self._staged = (result, breakdown)

    def handle_frame(
        self, frame: Frame | np.ndarray
    ) -> tuple[SearchResult, TimingBreakdown]:
        staged = self._staged
        if staged is None:
            raise GatewayError(
                "no staged batch response for this request (dispatcher bug)"
            )
        self._staged = None
        return staged


class _PendingAttempt:
    """One enqueued attempt: the frame and the future its batch resolves."""

    __slots__ = ("frame", "future")

    def __init__(
        self,
        frame: Frame | np.ndarray,
        future: asyncio.Future[tuple[SearchResult, TimingBreakdown]],
    ) -> None:
        self.frame = frame
        self.future = future


class _TenantState:
    """Everything the gateway keeps per tenant."""

    __slots__ = (
        "chain",
        "client",
        "name",
        "queue",
        "rejected",
        "served_failure",
        "served_ok",
        "stage",
        "submitted",
    )

    def __init__(
        self,
        name: str,
        stage: _StagedEndpoint,
        chain: _StagedEndpoint | FaultInjector,
        client: ResilientCloudClient,
    ) -> None:
        self.name = name
        self.stage = stage
        self.chain = chain
        self.client = client
        self.queue: deque[_PendingAttempt] = deque()
        self.submitted = 0
        self.served_ok = 0
        self.served_failure = 0
        self.rejected = 0


def _tenant_seed(base_seed: int, name: str) -> int:
    """Deterministic per-tenant backoff seed (stable across runs)."""
    return (base_seed + zlib.crc32(name.encode("utf-8"))) % (2**31)


class ServingGateway:
    """Coalescing, fair, backpressured front door to a cloud server."""

    def __init__(
        self,
        server: CloudServer,
        config: GatewayConfig | None = None,
        tenant_plans: Mapping[str, FaultPlan] | None = None,
    ) -> None:
        self.server = server
        self.config = config or GatewayConfig()
        self._tenant_plans = dict(tenant_plans or {})
        self._tenants: dict[str, _TenantState] = {}
        self._order: list[str] = []
        self._rr_index = 0
        self._pending_total = 0
        self._wake: asyncio.Event | None = None
        self._dispatcher: asyncio.Task[None] | None = None
        self._closed = False
        #: The non-EMAP exception that killed the dispatcher, if any.
        self.dispatcher_crash: Exception | None = None
        self.queue_high_water = 0
        self.batches_served = 0
        self.attempts_served = 0
        self.requests_rejected = 0

    # -- public surface ------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests currently queued (all tenants)."""
        return self._pending_total

    def tenant_client(self, tenant: str) -> ResilientCloudClient:
        """The tenant's resilient client (breaker state, counters)."""
        return self._tenant(tenant).client

    async def submit(
        self, tenant: str, frame: Frame | np.ndarray, now_s: float
    ) -> CloudCallOutcome:
        """One resilient search request for ``tenant`` at ``now_s``.

        Runs the full per-tenant resilient call (validation → admission
        → breaker → attempts → classified outcome); each attempt rides
        the next coalesced batch.  Never raises for a failed call — like
        the synchronous client, failures come back as a classified
        :class:`~repro.cloud.client.CloudCallOutcome`.  A frame the
        search engine refuses fails with ``failure="search_error"`` and
        the :class:`~repro.errors.SearchError` in ``error``, without an
        attempt and without touching the tenant's breaker.
        """
        if self._closed:
            raise GatewayError("gateway is closed; create a new one")
        state = self._tenant(tenant)
        state.submitted += 1
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("gateway.requests")
        try:
            self.server.search_engine.prepare_query(getattr(frame, "data", frame))
        except SearchError as error:
            state.served_failure += 1
            if registry.enabled:
                registry.inc("gateway.failures")
            return self._refuse(state, "search_error", error)
        if (
            self._pending_total >= self.config.max_pending
            or len(state.queue) >= self.config.max_queue_per_tenant
        ):
            return self._reject(state)
        loop = asyncio.get_running_loop()
        started = loop.time()
        driver = ResilientCallDriver(state.client, frame, now_s)
        while driver.begin_attempt():
            if self._closed:
                # The gateway closed mid-call: attempts already queued
                # were failed by ``aclose``; later retries fail here
                # without resurrecting the dispatcher.
                driver.record_error(
                    GatewayError("gateway closed with requests in flight")
                )
                continue
            future: asyncio.Future[
                tuple[SearchResult, TimingBreakdown]
            ] = loop.create_future()
            attempt = _PendingAttempt(frame, future)
            state.queue.append(attempt)
            self._pending_total += 1
            if self._pending_total > self.queue_high_water:
                self.queue_high_water = self._pending_total
            self._ensure_dispatcher()
            try:
                result, breakdown = await future
            except EMAPError as error:
                driver.record_error(error)
            else:
                driver.record_response(result, breakdown)
        outcome = driver.outcome
        if outcome is None:  # unreachable: the driver always concludes
            raise GatewayError("resilient driver ended without an outcome")
        if outcome.ok:
            state.served_ok += 1
        else:
            state.served_failure += 1
        if registry.enabled:
            registry.observe(
                "gateway.request_latency_s", loop.time() - started
            )
            if not outcome.ok:
                registry.inc("gateway.failures")
        return outcome

    async def aclose(self) -> None:
        """Stop the dispatcher; pending attempts fail as unavailable.

        Idempotent; afterwards :meth:`submit` raises instead of silently
        resurrecting the dispatcher on a half-torn-down gateway.
        """
        self._closed = True
        task = self._dispatcher
        self._dispatcher = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception as error:
                # A crashed dispatcher already failed its riders;
                # keep the cause for post-mortems instead of raising
                # it again out of close.
                self.dispatcher_crash = error
        self._fail_pending(
            GatewayError("gateway closed with requests in flight")
        )

    # -- internals -----------------------------------------------------

    def _tenant(self, name: str) -> _TenantState:
        if not name:
            raise GatewayError("tenant name must be non-empty")
        state = self._tenants.get(name)
        if state is not None:
            return state
        base = self.config.resilience
        tenant_config = replace(base, seed=_tenant_seed(base.seed, name))
        stage = _StagedEndpoint(self.server.timing)
        plan = self._tenant_plans.get(name)
        chain: _StagedEndpoint | FaultInjector = (
            FaultInjector(stage, plan) if plan is not None else stage
        )
        client = ResilientCloudClient(chain, tenant_config)
        state = _TenantState(name, stage, chain, client)
        self._tenants[name] = state
        self._order.append(name)
        return state

    def _reject(self, state: _TenantState) -> CloudCallOutcome:
        """Admission control turned the request away: no attempt, no
        breaker interaction — pure backpressure the caller can retry."""
        state.rejected += 1
        self.requests_rejected += 1
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("gateway.rejected")
        return self._refuse(state, "rejected")

    @staticmethod
    def _refuse(
        state: _TenantState, failure: str, error: EMAPError | None = None
    ) -> CloudCallOutcome:
        """A failed outcome for a request that made no attempt."""
        return CloudCallOutcome(
            ok=False,
            result=None,
            breakdown=None,
            attempts=0,
            retries=0,
            penalty_s=0.0,
            failure=failure,
            breaker_state=state.client.breaker_state,
            error=error,
        )

    def _ensure_dispatcher(self) -> None:
        if self._closed:
            return
        if self._wake is None:
            self._wake = asyncio.Event()
        self._wake.set()
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def _dispatch_loop(self) -> None:
        wake = self._wake
        if wake is None:  # pragma: no cover - _ensure_dispatcher sets it
            raise GatewayError("dispatcher started without a wake event")
        while True:
            await wake.wait()
            if self.config.coalesce_window_s > 0:
                await asyncio.sleep(self.config.coalesce_window_s)
            else:
                await asyncio.sleep(0)
            wake.clear()
            while self._pending_total > 0:
                batch = self._next_batch()
                try:
                    await self._serve_batch(batch)
                except Exception as error:
                    # A non-EMAP exception is a bug, not a classified
                    # failure — but dying silently would strand every
                    # submitter on a future nobody will resolve.  Fail
                    # the in-flight riders and the queues, then let the
                    # task end with the real traceback.
                    failure = GatewayError(
                        f"gateway dispatcher crashed: {error!r}"
                    )
                    for _, attempt in batch:
                        if not attempt.future.done():
                            attempt.future.set_exception(failure)
                    self._fail_pending(failure)
                    raise
                # Yield so resolved submitters run (and may re-enqueue
                # retries) before the next batch is drained.
                await asyncio.sleep(0)

    def _fail_pending(self, failure: GatewayError) -> None:
        """Fail every queued attempt (dispatcher crash or close)."""
        for state in self._tenants.values():
            while state.queue:
                attempt = state.queue.popleft()
                self._pending_total -= 1
                if not attempt.future.done():
                    attempt.future.set_exception(failure)

    def _next_batch(self) -> list[tuple[_TenantState, _PendingAttempt]]:
        """Round-robin drain: one request per tenant per rotation.

        Work-conserving — once the quieter tenants' queues run dry the
        rotation keeps filling the batch from whoever still has work —
        but within a batch no tenant gets a second request before every
        backlogged tenant got its first.
        """
        batch: list[tuple[_TenantState, _PendingAttempt]] = []
        names = self._order
        n = len(names)
        if n == 0:
            return batch
        empty_scans = 0
        while len(batch) < self.config.max_batch and empty_scans < n:
            state = self._tenants[names[self._rr_index % n]]
            self._rr_index = (self._rr_index + 1) % n
            if state.queue:
                batch.append((state, state.queue.popleft()))
                self._pending_total -= 1
                empty_scans = 0
            else:
                empty_scans += 1
        return batch

    async def _serve_batch(
        self, batch: list[tuple[_TenantState, _PendingAttempt]]
    ) -> None:
        if not batch:
            return
        frames = [attempt.frame for _, attempt in batch]
        try:
            if self.config.offload_batches:
                served = await asyncio.get_running_loop().run_in_executor(
                    None, self.server.handle_batch, frames
                )
            else:
                # Inline is a deliberate trade: the simulation-speed
                # path accepts stalling the loop for one plane walk.
                served = self.server.handle_batch(frames)  # emaplint: disable=EM007
        except EMAPError as error:
            # The whole batch failed before any per-tenant stage: every
            # rider sees the same endpoint error through its driver.
            for _, attempt in batch:
                if not attempt.future.done():
                    attempt.future.set_exception(error)
            return
        finally:
            self.batches_served += 1
            self.attempts_served += len(batch)
            registry = obs.metrics()
            if registry.enabled:
                registry.inc("gateway.batches")
                registry.observe("gateway.batch_size", float(len(batch)))
                registry.set_gauge(
                    "gateway.queue_depth", float(self._pending_total)
                )
        for (state, attempt), (result, breakdown) in zip(batch, served):
            state.stage.stage(result, breakdown)
            try:
                value = state.chain.handle_frame(attempt.frame)
            except EMAPError as error:
                if not attempt.future.done():
                    attempt.future.set_exception(error)
            else:
                if not attempt.future.done():
                    attempt.future.set_result(value)

"""Resilient cloud-call path: deadlines, retries, circuit breaker.

:class:`ResilientCloudClient` sits between a runtime loop and any
``handle_frame`` endpoint (a :class:`~repro.cloud.server.CloudServer`,
or a :class:`~repro.faults.injector.FaultInjector` wrapping one) and
turns raw failures into a bounded, observable outcome the loop can
degrade on instead of crashing:

* **Per-call deadline** — a call whose simulated Eq. 4 latency exceeds
  ``deadline_s`` is abandoned as a timeout (the edge cannot block the
  1 s loop on a 10 s download).
* **Payload validation** — a result whose matches were dropped in
  transit (empty while the search admitted candidates) or corrupted
  (offsets past the end of their slices) is rejected like any other
  failed attempt.
* **Bounded retries** — up to ``max_retries`` re-attempts with seeded
  exponential backoff plus jitter; all randomness comes from one
  ``numpy.random.Generator``, so a session replays bit-identically.
* **Circuit breaker** — ``breaker_failure_threshold`` consecutive
  failed calls open the breaker: further calls fail fast (no attempt)
  until ``breaker_cooldown_s`` of simulated time passes, then one
  half-open probe decides between closing and re-opening.

Failed time is *simulated*: the outcome's ``penalty_s`` is how much
simulated wall-clock the failed attempts and backoffs consumed, which
the batch framework adds to the dispatch timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro import obs
from repro.errors import CloudUnavailableError, EMAPError, FrameworkError, PayloadError

if TYPE_CHECKING:  # runtime/signal types are only type annotations here
    from repro.cloud.results import SearchResult
    from repro.runtime.timing import TimingBreakdown, TimingModel
    from repro.signals.types import Frame


class CloudEndpoint(Protocol):
    """The server surface the client (and the fault injector) wraps.

    Satisfied by :class:`~repro.cloud.server.CloudServer` and by
    :class:`~repro.faults.injector.FaultInjector` — chaos proxies stack
    under the resilient client transparently.
    """

    @property
    def timing(self) -> TimingModel:
        ...

    def handle_frame(
        self, frame: Frame | np.ndarray
    ) -> tuple[SearchResult, TimingBreakdown]:
        ...


class BreakerState(Enum):
    """Circuit-breaker states (gauge values in parentheses)."""

    CLOSED = "closed"
    HALF_OPEN = "half_open"
    OPEN = "open"


#: Gauge encoding for ``cloud.client.breaker_state``.
BREAKER_GAUGE = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 1.0,
    BreakerState.OPEN: 2.0,
}


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilient call path.

    The default deadline comfortably admits the paper's ~3 s Δinitial
    while rejecting a 50× spike on the 200 ms download budget; backoff
    is exponential (``base · factor^attempt``) with multiplicative
    jitter drawn uniformly from ``[1, 1 + jitter]``.
    """

    deadline_s: float = 10.0
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 10.0
    validate_payloads: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise FrameworkError(f"deadline must be positive, got {self.deadline_s}")
        if self.max_retries < 0:
            raise FrameworkError(
                f"max retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise FrameworkError(
                f"backoff base must be non-negative, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise FrameworkError(
                f"backoff factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_jitter < 0:
            raise FrameworkError(
                f"backoff jitter must be non-negative, got {self.backoff_jitter}"
            )
        if self.breaker_failure_threshold < 1:
            raise FrameworkError(
                "breaker failure threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_cooldown_s < 0:
            raise FrameworkError(
                f"breaker cooldown must be non-negative, got {self.breaker_cooldown_s}"
            )
        if self.seed < 0:
            raise FrameworkError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class CloudCallOutcome:
    """What one resilient call produced (success or classified failure)."""

    ok: bool
    result: SearchResult | None
    breakdown: TimingBreakdown | None
    attempts: int
    retries: int
    #: Simulated seconds the failed attempts + backoffs consumed before
    #: the successful attempt started (0 on a clean first try).
    penalty_s: float
    failure: str | None
    breaker_state: BreakerState
    #: Breaker transitions this call caused, in order (event-log fodder).
    transitions: tuple[BreakerState, ...] = ()
    #: The error that stopped the call before any attempt (a frame the
    #: serving gateway refused at submit); ``None`` otherwise.
    error: EMAPError | None = None


def validate_payload(result: SearchResult, frame_samples: int) -> None:
    """Reject a dropped or corrupted search-result payload.

    A payload is *dropped* when the matches list is empty although the
    search statistics say candidates were admitted, and *corrupt* when
    any match carries a non-finite ω or an offset no valid sliding
    window could produce (``offset + frame > len(slice)``).
    """
    if not result.matches:
        if result.candidates_above_threshold > 0:
            raise PayloadError(
                "payload dropped: search admitted "
                f"{result.candidates_above_threshold} candidates but zero "
                "matches arrived"
            )
        return
    for match in result.matches:
        if not math.isfinite(match.omega):
            raise PayloadError(f"corrupt payload: non-finite omega {match.omega}")
        if match.offset + frame_samples > len(match.sig_slice):
            raise PayloadError(
                f"corrupt payload: offset {match.offset} leaves no room for a "
                f"{frame_samples}-sample window in a {len(match.sig_slice)}-sample "
                "slice"
            )


class ResilientCallDriver:
    """Sans-I/O state machine for ONE resilient cloud call.

    Owns every semantic of the call — breaker gating, retry budget,
    backoff penalties, deadline and payload checks, breaker
    transitions — while leaving the *transport* (how an attempt
    actually reaches the endpoint) to the caller.  The synchronous
    :meth:`ResilientCloudClient.call` and the serving gateway's async
    per-tenant path both drive this exact machine, which is what keeps
    their deadline/retry/circuit-breaker behaviour identical.

    Protocol::

        driver = ResilientCallDriver(client, frame, now_s)
        while driver.begin_attempt():
            try:
                result, breakdown = <one endpoint attempt>
            except EMAPError as error:
                driver.record_error(error)
            else:
                driver.record_response(result, breakdown)
        outcome = driver.outcome

    ``begin_attempt`` returns ``False`` once the call has concluded —
    either a success was recorded, the breaker fast-failed the call, or
    the attempt budget ran dry (concluding drives the breaker state
    machine exactly as the previous inline loop did).
    """

    def __init__(
        self,
        client: ResilientCloudClient,
        frame: Frame | np.ndarray,
        now_s: float,
    ) -> None:
        self._client = client
        self._now_s = now_s
        self._frame_samples = client._frame_samples(frame)
        self._transitions: list[BreakerState] = []
        self._penalty_s = 0.0
        self._failure: str | None = None
        self._attempts_started = 0
        self.outcome: CloudCallOutcome | None = None

        client.calls += 1
        if client._state is BreakerState.OPEN:
            if now_s - client._opened_at_s >= client.config.breaker_cooldown_s:
                client._transition(BreakerState.HALF_OPEN, self._transitions)
            else:
                client.fast_failures += 1
                client._record_counter("cloud.client.fast_fails")
                self.outcome = client._failure_outcome(
                    attempts=0, penalty_s=0.0, failure="breaker_open",
                    transitions=self._transitions,
                )
        # A half-open breaker grants exactly one probe attempt.
        self._budget = (
            1
            if client._state is BreakerState.HALF_OPEN
            else client.config.max_retries + 1
        )

    def begin_attempt(self) -> bool:
        """Start the next attempt; ``False`` once the call concluded.

        Starting a retry (any attempt after the first) draws its seeded
        backoff and adds it to the simulated penalty.  When the budget
        is exhausted this concludes the call as a failure, driving the
        breaker exactly like the synchronous path always has.
        """
        if self.outcome is not None:
            return False
        if self._attempts_started >= self._budget:
            self._conclude_failure()
            return False
        if self._attempts_started > 0:
            client = self._client
            self._penalty_s += client._backoff_s(self._attempts_started - 1)
            client.retries_total += 1
            client._record_counter("cloud.client.retries")
        self._attempts_started += 1
        return True

    def record_error(self, error: EMAPError) -> None:
        """The in-flight attempt raised; classify and move on."""
        self._failure = self._client._classify(error)

    def record_response(
        self, result: SearchResult, breakdown: TimingBreakdown
    ) -> None:
        """The in-flight attempt returned a payload; judge it.

        A response past the deadline or failing payload validation
        counts as a failed attempt (with its simulated penalty); an
        accepted one concludes the call as a success and closes the
        breaker.
        """
        client = self._client
        if breakdown.initial_s > client.config.deadline_s:
            self._failure = "timeout"
            self._penalty_s += client.config.deadline_s
            client.timeouts_total += 1
            client._record_counter("cloud.client.timeouts")
            return
        if client.config.validate_payloads:
            try:
                validate_payload(result, self._frame_samples)
            except PayloadError as error:
                self._failure = client._classify(error)
                self._penalty_s += breakdown.initial_s
                return
        client.successes += 1
        if client._state is not BreakerState.CLOSED:
            client._transition(BreakerState.CLOSED, self._transitions)
        client._consecutive_failures = 0
        self.outcome = CloudCallOutcome(
            ok=True,
            result=result,
            breakdown=breakdown,
            attempts=self._attempts_started,
            retries=self._attempts_started - 1,
            penalty_s=self._penalty_s,
            failure=None,
            breaker_state=client._state,
            transitions=tuple(self._transitions),
        )

    def _conclude_failure(self) -> None:
        """Every attempt failed: drive the breaker state machine."""
        client = self._client
        if client._state is BreakerState.HALF_OPEN:
            client._open(self._now_s, self._transitions)
        else:
            client._consecutive_failures += 1
            if (
                client._consecutive_failures
                >= client.config.breaker_failure_threshold
            ):
                client._open(self._now_s, self._transitions)
        self.outcome = client._failure_outcome(
            attempts=self._budget,
            penalty_s=self._penalty_s,
            failure=self._failure,
            transitions=self._transitions,
        )


class ResilientCloudClient:
    """Deadline + retry + circuit-breaker wrapper over a cloud endpoint."""

    def __init__(
        self, endpoint: CloudEndpoint, config: ResilienceConfig | None = None
    ) -> None:
        self.endpoint = endpoint
        self.config = config or ResilienceConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_s = 0.0
        self.calls = 0
        self.successes = 0
        self.failures = 0
        self.retries_total = 0
        self.timeouts_total = 0
        self.fast_failures = 0

    @property
    def breaker_state(self) -> BreakerState:
        return self._state

    def reset(self) -> None:
        """Fresh session: close the breaker, reseed the backoff RNG."""
        self._rng = np.random.default_rng(self.config.seed)
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_s = 0.0

    def call(self, frame: Frame | np.ndarray, now_s: float) -> CloudCallOutcome:
        """One resilient cloud call at simulated instant ``now_s``."""
        driver = ResilientCallDriver(self, frame, now_s)
        while driver.begin_attempt():
            try:
                result, breakdown = self.endpoint.handle_frame(frame)
            except EMAPError as error:
                driver.record_error(error)
            else:
                driver.record_response(result, breakdown)
        outcome = driver.outcome
        if outcome is None:  # unreachable: begin_attempt()==False implies it
            raise FrameworkError("resilient call ended without an outcome")
        return outcome

    # -- internals -----------------------------------------------------

    def _failure_outcome(
        self,
        attempts: int,
        penalty_s: float,
        failure: str | None,
        transitions: list[BreakerState],
    ) -> CloudCallOutcome:
        self.failures += 1
        self._record_counter("cloud.client.failures")
        return CloudCallOutcome(
            ok=False,
            result=None,
            breakdown=None,
            attempts=attempts,
            retries=max(0, attempts - 1),
            penalty_s=penalty_s,
            failure=failure,
            breaker_state=self._state,
            transitions=tuple(transitions),
        )

    def _backoff_s(self, retry_index: int) -> float:
        """Seeded exponential backoff with multiplicative jitter."""
        base = self.config.backoff_base_s * self.config.backoff_factor**retry_index
        jitter = 1.0 + self.config.backoff_jitter * float(self._rng.uniform())
        return base * jitter

    def _open(self, now_s: float, transitions: list[BreakerState]) -> None:
        self._opened_at_s = now_s
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN, transitions)

    def _transition(
        self, state: BreakerState, transitions: list[BreakerState]
    ) -> None:
        if state is self._state:
            return
        self._state = state
        transitions.append(state)
        registry = obs.metrics()
        if registry.enabled:
            registry.set_gauge("cloud.client.breaker_state", BREAKER_GAUGE[state])

    @staticmethod
    def _classify(error: EMAPError) -> str:
        if isinstance(error, CloudUnavailableError):
            return "unreachable"
        if isinstance(error, PayloadError):
            return "payload"
        return "search_error"

    @staticmethod
    def _frame_samples(frame: Frame | np.ndarray) -> int:
        data = getattr(frame, "data", frame)
        return int(np.asarray(data).size)

    @staticmethod
    def _record_counter(name: str) -> None:
        registry = obs.metrics()
        if registry.enabled:
            registry.inc(name)

"""The closed loop (paper Fig. 3 / Fig. 9) as one push-based monitor.

A deployed edge node sees samples arrive *live*.
:class:`StreamingMonitor` takes raw samples in chunks of any size, runs
them through the streaming 100-tap bandpass filter and cuts one-second
frames (:class:`SignalAcquisition`, Section V-A), then runs one
per-frame body on each, decided by the sans-I/O :class:`ClosedLoop`.
A frame:

1. adopts the in-flight cloud search if it has landed.  A result sent
   at ``now_s`` lands at the first frame whose time is
   ``≥ now_s + penalty_s + ΔEC + ΔCS + ΔCE`` (Eq. 4, plus the seconds
   failed attempts consumed), so frames acquired while the search is in
   flight are not tracked, exactly as in Fig. 9;
2. runs one Algorithm 2 tracking iteration and a prediction when a set
   is tracked, scored against the Section V-C budget (the device cost
   model's edge seconds for the iteration, against one frame).  The
   iteration runs on a one-session
   :class:`~repro.edge.fleet.FleetTracker`, the compiled step every
   fleet session also runs;
3. transmits the frame *in the background* when no search is in flight
   and the tracked set is empty or the :class:`CloudCallPolicy` fires
   (N(F) < H, or the five-iteration refresh).

Every cloud call goes through a
:class:`~repro.cloud.client.ResilientCloudClient` (deadline, seeded
retries, circuit breaker).  A failed call puts the loop in **degraded
mode**: it keeps tracking the stale candidate set, flags each frame's
update as degraded, and re-dispatches per policy on later frames until
a fresh set is adopted.

:class:`~repro.runtime.framework.EMAPFramework` drives this same loop
over a whole recording, one frame of raw samples at a time, and a
fleet session (:mod:`repro.gateway.fleet`) drives the same
:class:`ClosedLoop` over the serving gateway and the fused edge driver,
which steps many sessions in one :class:`~repro.edge.fleet.FleetTracker`
call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.cloud.client import CloudCallOutcome, ResilienceConfig, ResilientCloudClient
from repro.edge.device import CloudCallPolicy
from repro.edge.fleet import FleetTracker
from repro.edge.predictor import AnomalyPredictor, PredictorConfig
from repro.edge.tracker import TrackerConfig, TrackingStep
from repro.errors import FrameworkError, SignalError
from repro.signals.filters import StreamingFIRFilter
from repro.signals.types import BASE_SAMPLE_RATE_HZ, Frame

if TYPE_CHECKING:  # avoid a circular import with repro.cloud.server
    from repro.cloud.client import CloudEndpoint
    from repro.cloud.results import SearchResult
    from repro.runtime.timing import TimingBreakdown, TimingModel


@dataclass(frozen=True)
class FrameworkConfig:
    """Knobs of the closed loop (stage configs live in their modules).

    ``max_iterations`` caps the tracking iterations
    :meth:`EMAPFramework.run <repro.runtime.framework.EMAPFramework.run>`
    drives; ``max_retained_updates`` bounds
    :attr:`StreamingMonitor.updates` (oldest dropped first; ``None``
    retains every update — fine for tests and short sessions, unbounded
    for a long-lived monitor).
    """

    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    policy: CloudCallPolicy = field(default_factory=CloudCallPolicy)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    max_iterations: int | None = None
    max_retained_updates: int | None = None

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 1:
            raise FrameworkError(
                f"max iterations must be >= 1, got {self.max_iterations}"
            )
        if self.max_retained_updates is not None and self.max_retained_updates < 1:
            raise FrameworkError(
                "max_retained_updates must be None or >= 1, got "
                f"{self.max_retained_updates}"
            )


@dataclass(frozen=True)
class MonitorUpdate:
    """What the loop reports after each completed frame."""

    frame_index: int
    time_s: float
    anomaly_probability: float
    tracked_count: int
    anomaly_predicted: bool
    #: This frame's tracking iteration; ``None`` while the initial
    #: search is in flight or the set is empty.
    step: TrackingStep | None = field(default=None, compare=False)
    #: The resilient client's outcome of this frame's cloud call;
    #: ``None`` when the frame made no call.
    call: CloudCallOutcome | None = field(default=None, compare=False)
    #: Size of the candidate set that landed and was adopted at the
    #: start of this frame; ``None`` when no search landed.
    adopted: int | None = None
    #: True when this frame ran in degraded mode: the last cloud call
    #: failed and the tracked set (and its PA observation) is stale.
    degraded: bool = False
    #: True when this frame's tracking iteration overran the frame in
    #: the device cost model (Section V-C).
    deadline_missed: bool = False

    @property
    def tracking_active(self) -> bool:
        """Whether a tracking iteration ran this frame."""
        return self.step is not None

    @property
    def cloud_call_issued(self) -> bool:
        """Whether this frame's cloud call succeeded (a search is in flight)."""
        return self.call is not None and self.call.ok


def eq4_instants(
    now_s: float, penalty_s: float, breakdown: TimingBreakdown
) -> tuple[float, float, float, float]:
    """Upload start, search start, search end and landing of a call.

    A successful call sent at ``now_s`` starts uploading after the
    ``penalty_s`` its failed attempts consumed, then spends Eq. 4's
    ΔEC, ΔCS and ΔCE in turn.
    """
    start = now_s + penalty_s
    searching = start + breakdown.upload_s
    done = searching + breakdown.search_s
    return start, searching, done, done + breakdown.download_s


class ClosedLoop:
    """Sans-I/O state machine for one session's per-frame body.

    Owns what the loop decides — adoption bookkeeping, the refresh
    count and :class:`CloudCallPolicy`, the degraded flag, the Section
    V-C budget check, each call's Eq. 4 landing and the predictor — and
    leaves the I/O to its driver: :class:`StreamingMonitor` runs it over
    a one-session :class:`~repro.edge.fleet.FleetTracker` and a
    :class:`~repro.cloud.client.ResilientCloudClient`, a fleet session
    (:mod:`repro.gateway.fleet`) over the fused edge driver and the
    serving gateway.  Once per frame at ``now_s``::

        landed = loop.land(now_s)        # then adopt it, if any
        step = <track the frame> if loop.tracks(landed) else None
        update, call = loop.advance(now_s, landed, step)
        if call:
            update = loop.record_call(update, <one resilient call>)

    A call's outcome is recorded before the next frame's :meth:`land`.
    """

    def __init__(self, config: FrameworkConfig, timing: TimingModel) -> None:
        self.config = config
        self.timing = timing
        self.frame_s = config.tracker.frame_samples / BASE_SAMPLE_RATE_HZ
        self.predictor = AnomalyPredictor(config.predictor)
        self.frame_index = 0
        self.cloud_calls = 0
        self._tracked = 0
        self._since_refresh = 0
        self._pending: tuple[float, SearchResult] | None = None  # (lands_s, result)
        self._degraded = False

    def land(self, now_s: float) -> SearchResult | None:
        """The in-flight result if it lands by ``now_s``: at the first
        frame at or after its Eq. 4 instant."""
        if self._pending is None or now_s < self._pending[0]:
            return None
        landed = self._pending[1]
        self._pending = None
        return landed

    def tracks(self, landed: SearchResult | None) -> bool:
        """Whether this frame runs a tracking iteration: the set it
        tracks, ``landed`` once adopted, is not empty."""
        return len(landed.matches) > 0 if landed is not None else self._tracked > 0

    def advance(
        self, now_s: float, landed: SearchResult | None, step: TrackingStep | None
    ) -> tuple[MonitorUpdate, bool]:
        """Fold one frame in: ``landed`` was adopted, then ``step`` ran.
        Returns the frame's update and whether to call the cloud."""
        index = self.frame_index
        self.frame_index += 1
        registry = obs.metrics()
        if index == 0:
            registry.inc("runtime.sessions")
        adopted: int | None = None
        if landed is not None:
            adopted = self._tracked = len(landed.matches)
            self._since_refresh = 0
            self._degraded = False
            registry.inc("edge.device.set_refreshes")
            registry.observe("edge.device.set_size", adopted)

        # The flag this frame's PA observation runs under; a call failure
        # later this frame degrades the *following* frames.
        degraded = self._degraded
        probability, tracked, predicted, missed = 0.0, 0, False, False
        if step is not None:
            self.predictor.observe(step.anomaly_probability, support=step.tracked_after)
            self._since_refresh += 1
            probability = step.anomaly_probability
            tracked = self._tracked = step.tracked_after
            # The predictor runs on every tracking iteration, even when
            # the step emptied the set (the EMA/trend may still flag).
            predicted = self.predictor.predict()
            # Section V-C: the edge must finish each iteration inside one
            # frame (~900 ms of a 1 s budget), priced by the cost model.
            edge_s = self.timing.tracking_iteration_s(step.area_evaluations)
            missed = edge_s > self.frame_s
            registry.observe("runtime.loop.budget_used", edge_s / self.frame_s)
            registry.inc("runtime.loop.iterations")
            if missed:
                registry.inc("runtime.loop.deadline_misses")
            if degraded:
                registry.inc("runtime.degraded_iterations")

        # An emptied tracked set always warrants a call (there is
        # nothing left to track), even when ``tracking_threshold`` is 0;
        # an in-flight search is never stacked with a second one.
        call = self._pending is None and (
            tracked == 0 or self.config.policy.should_call(tracked, self._since_refresh)
        )
        return MonitorUpdate(
            frame_index=index,
            time_s=now_s,
            anomaly_probability=probability,
            tracked_count=tracked,
            anomaly_predicted=predicted,
            step=step,
            adopted=adopted,
            degraded=degraded,
            deadline_missed=missed,
        ), call

    def record_call(
        self, update: MonitorUpdate, outcome: CloudCallOutcome
    ) -> MonitorUpdate:
        """``update`` with the outcome of the call its frame made.

        A success is in flight until its Eq. 4 landing (no call is
        stacked on it).  A failure (after retries, fast-failed on an
        open breaker, or refused by admission control) degrades the
        loop and leaves the refresh count running, so the policy
        re-fires on the next frame.
        """
        registry = obs.metrics()
        if not outcome.ok:
            self._degraded = True
            registry.inc("runtime.cloud_failures")
            return replace(update, call=outcome)
        if outcome.result is None or outcome.breakdown is None:
            raise FrameworkError("successful cloud call carried no payload")
        now_s = update.time_s
        lands_s = eq4_instants(now_s, outcome.penalty_s, outcome.breakdown)[3]
        self._pending = (lands_s, outcome.result)
        self.cloud_calls += 1
        registry.inc("edge.device.cloud_calls")
        if self.cloud_calls == 1:
            # Δinitial: latency of the session's first successful call.
            registry.observe("runtime.initial_latency_s", lands_s - now_s)
        return replace(update, call=outcome)


class SignalAcquisition:
    """Signal Acquisition (Section V-A): filter raw samples, cut frames.

    The streaming 100-tap bandpass filter's delay line persists across
    chunks, as a hardware filter's would, so any chunking of the same
    samples yields the same frames.
    """

    def __init__(self, frame_samples: int) -> None:
        self.frame_samples = frame_samples
        self._filter = StreamingFIRFilter()
        # Filtered samples awaiting a complete frame, kept as the pushed
        # chunks rather than one array: re-concatenating on every push
        # is O(buffer) per chunk, i.e. quadratic for the many-small-chunk
        # delivery real amplifiers produce.
        self._chunks: deque[np.ndarray] = deque()
        self.buffered = 0

    def push(self, samples: np.ndarray) -> list[np.ndarray]:
        """Feed raw (unfiltered) samples; returns every frame completed."""
        chunk = np.asarray(samples, dtype=np.float64)
        if chunk.ndim != 1:
            raise SignalError(f"sample chunk must be 1-D, got shape {chunk.shape}")
        if chunk.size == 0:
            return []
        filtered = self._filter.process(chunk)
        self._chunks.append(filtered)
        self.buffered += filtered.size
        frames: list[np.ndarray] = []
        while self.buffered >= self.frame_samples:
            frames.append(self._assemble_frame(self.frame_samples))
        return frames

    def _assemble_frame(self, size: int) -> np.ndarray:
        """Pop exactly ``size`` buffered samples into one frame array."""
        frame = np.empty(size)
        filled = 0
        while filled < size:
            head = self._chunks[0]
            take = min(head.size, size - filled)
            frame[filled : filled + take] = head[:take]
            if take == head.size:
                self._chunks.popleft()
            else:
                self._chunks[0] = head[take:]
            filled += take
        self.buffered -= size
        return frame


#: The one session a :class:`StreamingMonitor`'s tracker holds.
_SESSION = "monitor"


class StreamingMonitor:
    """Push-based EMAP session over a live sample stream."""

    def __init__(
        self, cloud: CloudEndpoint, config: FrameworkConfig | None = None
    ) -> None:
        self.cloud = cloud
        self.config = config or FrameworkConfig()
        self._frame_samples = self.config.tracker.frame_samples
        self._client = ResilientCloudClient(cloud, self.config.resilience)
        self.reset()

    def reset(self) -> None:
        """Start a fresh session (new patient)."""
        self._acquisition = SignalAcquisition(self._frame_samples)
        self._tracker = FleetTracker(self.config.tracker)
        self._loop = ClosedLoop(self.config, self.cloud.timing)
        self._client.reset()
        self.updates: list[MonitorUpdate] = []

    @property
    def predictor(self) -> AnomalyPredictor:
        return self._loop.predictor

    @property
    def cloud_calls(self) -> int:
        """Successful cloud calls this session."""
        return self._loop.cloud_calls

    @property
    def buffered_samples(self) -> int:
        """Filtered samples waiting for the next frame boundary."""
        return self._acquisition.buffered

    def push(self, samples: np.ndarray) -> list[MonitorUpdate]:
        """Feed raw (unfiltered) samples; returns updates for every
        frame the chunk completed."""
        emitted = [self._handle_frame(data) for data in self._acquisition.push(samples)]
        self.updates.extend(emitted)
        limit = self.config.max_retained_updates
        if limit is not None and len(self.updates) > limit:
            del self.updates[: len(self.updates) - limit]
        return emitted

    def _handle_frame(self, data: np.ndarray) -> MonitorUpdate:
        loop = self._loop
        frame = Frame(
            data, loop.frame_index, filtered=True, expected_samples=self._frame_samples
        )
        now_s = (frame.index + 1) * loop.frame_s
        with obs.trace.span("runtime.stream_frame") as span:
            landed = loop.land(now_s)
            if landed is not None:
                self._tracker.open_session(_SESSION, landed)
            step = (
                self._tracker.step({_SESSION: frame.data})[_SESSION]
                if loop.tracks(landed)
                else None
            )
            update, call = loop.advance(now_s, landed, step)
            if call:
                update = loop.record_call(update, self._client.call(frame, now_s=now_s))
        registry = obs.metrics()
        registry.inc("runtime.stream.frames")
        registry.observe("runtime.stream.frame_s", span.elapsed_s)
        return update

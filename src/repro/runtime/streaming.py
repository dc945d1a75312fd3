"""The closed loop (paper Fig. 3 / Fig. 9) as one push-based monitor.

A deployed edge node sees samples arrive *live*.
:class:`StreamingMonitor` takes raw samples in chunks of any size, runs
them through the streaming 100-tap bandpass filter (Signal Acquisition,
Section V-A; the delay line persists across chunks, as a hardware
filter's would), cuts one-second frames and runs one per-frame body on
each.  A frame:

1. adopts the in-flight cloud search if it has landed.  A result sent
   at ``now_s`` lands at the first frame whose time is
   ``≥ now_s + penalty_s + ΔEC + ΔCS + ΔCE`` (Eq. 4, plus the seconds
   failed attempts consumed), so frames acquired while the search is in
   flight are not tracked, exactly as in Fig. 9;
2. runs one Algorithm 2 tracking iteration and a prediction when a set
   is tracked, scored against the Section V-C budget (the device cost
   model's edge seconds for the iteration, against one frame);
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
over a whole recording, one frame of raw samples at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.cloud.client import CloudCallOutcome, ResilienceConfig, ResilientCloudClient
from repro.edge.device import CloudCallPolicy
from repro.edge.predictor import AnomalyPredictor, PredictorConfig
from repro.edge.tracker import SignalTracker, TrackerConfig, TrackingStep
from repro.errors import FrameworkError, SignalError
from repro.signals.filters import StreamingFIRFilter
from repro.signals.types import BASE_SAMPLE_RATE_HZ, Frame

if TYPE_CHECKING:  # avoid a circular import with repro.cloud.server
    from repro.cloud.client import CloudEndpoint
    from repro.cloud.results import SearchResult
    from repro.runtime.timing import TimingBreakdown


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

    @property
    def cloud_call_failed(self) -> bool:
        """Whether this frame's cloud call failed after retries."""
        return self.call is not None and not self.call.ok


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


class StreamingMonitor:
    """Push-based EMAP session over a live sample stream."""

    def __init__(
        self, cloud: CloudEndpoint, config: FrameworkConfig | None = None
    ) -> None:
        self.cloud = cloud
        self.config = config or FrameworkConfig()
        self._frame_samples = self.config.tracker.frame_samples
        self._frame_s = self._frame_samples / BASE_SAMPLE_RATE_HZ
        self._client = ResilientCloudClient(cloud, self.config.resilience)
        self.reset()

    def reset(self) -> None:
        """Start a fresh session (new patient)."""
        self._filter = StreamingFIRFilter()
        self._tracker = SignalTracker(self.config.tracker)
        self._predictor = AnomalyPredictor(self.config.predictor)
        self._client.reset()
        # Filtered samples awaiting a complete frame, kept as the pushed
        # chunks rather than one array: re-concatenating on every push
        # is O(buffer) per chunk, i.e. quadratic for the many-small-chunk
        # delivery real amplifiers produce.
        self._chunks: deque[np.ndarray] = deque()
        self._buffered = 0
        self._frame_index = 0
        self._iterations_since_refresh = 0
        self._pending: tuple[float, SearchResult] | None = None  # (lands_s, result)
        self._degraded = False
        self.cloud_calls = 0
        self.updates: list[MonitorUpdate] = []

    @property
    def tracker(self) -> SignalTracker:
        return self._tracker

    @property
    def predictor(self) -> AnomalyPredictor:
        return self._predictor

    @property
    def buffered_samples(self) -> int:
        """Filtered samples waiting for the next frame boundary."""
        return self._buffered

    def push(self, samples: np.ndarray) -> list[MonitorUpdate]:
        """Feed raw (unfiltered) samples; returns updates for every
        frame the chunk completed."""
        chunk = np.asarray(samples, dtype=np.float64)
        if chunk.ndim != 1:
            raise SignalError(f"sample chunk must be 1-D, got shape {chunk.shape}")
        if chunk.size == 0:
            return []
        filtered = self._filter.process(chunk)
        self._chunks.append(filtered)
        self._buffered += filtered.size
        emitted: list[MonitorUpdate] = []
        size = self._frame_samples
        while self._buffered >= size:
            emitted.append(self._handle_frame(self._assemble_frame(size)))
        self.updates.extend(emitted)
        limit = self.config.max_retained_updates
        if limit is not None and len(self.updates) > limit:
            del self.updates[: len(self.updates) - limit]
        return emitted

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
        self._buffered -= size
        return frame

    def _handle_frame(self, data: np.ndarray) -> MonitorUpdate:
        with obs.trace.span("runtime.stream_frame") as span:
            update = self._process_frame(data)
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("runtime.stream.frames")
            registry.observe("runtime.stream.frame_s", span.elapsed_s)
        return update

    def _process_frame(self, data: np.ndarray) -> MonitorUpdate:
        frame = Frame(
            data=data,
            index=self._frame_index,
            filtered=True,
            expected_samples=self._frame_samples,
        )
        self._frame_index += 1
        now_s = (frame.index + 1) * self._frame_s
        registry = obs.metrics()
        if frame.index == 0:
            registry.inc("runtime.sessions")

        adopted: int | None = None
        if self._pending is not None and now_s >= self._pending[0]:
            landed = self._pending[1]
            self._tracker.load(landed)
            self._iterations_since_refresh = 0
            self._pending = None
            self._degraded = False
            adopted = len(landed.matches)
            if registry.enabled:
                registry.inc("edge.device.set_refreshes")
                registry.observe("edge.device.set_size", adopted)

        # The flag this frame's PA observation runs under; a call failure
        # later this frame degrades the *following* frames.
        degraded = self._degraded
        step: TrackingStep | None = None
        probability, tracked, predicted, missed = 0.0, 0, False, False
        if self._tracker.tracked_count > 0:
            step = self._tracker.step(frame)
            self._predictor.observe(
                step.anomaly_probability, support=step.tracked_after
            )
            self._iterations_since_refresh += 1
            probability = step.anomaly_probability
            tracked = step.tracked_after
            # The predictor runs on every tracking iteration, even when
            # the step emptied the set (the EMA/trend may still flag).
            predicted = self._predictor.predict()
            missed = self._check_loop_budget(step.area_evaluations)
            registry.inc("runtime.loop.iterations")
            if degraded:
                registry.inc("runtime.degraded_iterations")

        # An emptied tracked set always warrants a call (there is
        # nothing left to track), even when ``tracking_threshold`` is 0;
        # an in-flight search is never stacked with a second one.
        call: CloudCallOutcome | None = None
        if self._pending is None and (
            tracked == 0
            or self.config.policy.should_call(tracked, self._iterations_since_refresh)
        ):
            call = self._call(frame, now_s)

        return MonitorUpdate(
            frame_index=frame.index,
            time_s=now_s,
            anomaly_probability=probability,
            tracked_count=tracked,
            anomaly_predicted=predicted,
            step=step,
            call=call,
            adopted=adopted,
            degraded=degraded,
            deadline_missed=missed,
        )

    def _check_loop_budget(self, area_evaluations: int) -> bool:
        """Score one iteration against the per-frame loop budget.

        The edge must finish each tracking iteration inside one frame
        (Section V-C: ~900 ms of a 1 s budget); the device cost model
        converts the iteration's area evaluations to edge seconds, and
        an iteration over budget is a deadline miss.
        """
        edge_s = self.cloud.timing.tracking_iteration_s(area_evaluations)
        missed = edge_s > self._frame_s
        registry = obs.metrics()
        if registry.enabled:
            registry.observe("runtime.loop.budget_used", edge_s / self._frame_s)
            registry.observe("runtime.loop.edge_iteration_s", edge_s)
            if missed:
                registry.inc("runtime.loop.deadline_misses")
        return missed

    def _call(self, frame: Frame, now_s: float) -> CloudCallOutcome:
        """Send a frame through the resilient client.

        On success the search is in flight until its Eq. 4 landing: no
        call is stacked on it, and adopting it restarts the refresh
        count.  On failure (after retries, or fast-failed on an open
        breaker) the loop degrades and leaves the refresh count
        running, so the policy re-fires on the next frame.
        """
        outcome = self._client.call(frame, now_s=now_s)
        registry = obs.metrics()
        if not outcome.ok:
            self._degraded = True
            registry.inc("runtime.cloud_failures")
            return outcome
        if outcome.result is None or outcome.breakdown is None:
            raise FrameworkError("successful cloud call carried no payload")
        lands_s = eq4_instants(now_s, outcome.penalty_s, outcome.breakdown)[3]
        self._pending = (lands_s, outcome.result)
        self.cloud_calls += 1
        registry.inc("edge.device.cloud_calls")
        if self.cloud_calls == 1:
            # Δinitial: latency of the session's first successful call.
            registry.observe("runtime.initial_latency_s", lands_s - now_s)
        return outcome

"""The closed-loop EMAP framework over a whole recording (Fig. 3 / Fig. 9).

:class:`EMAPFramework` drives the one closed loop,
:class:`~repro.runtime.streaming.StreamingMonitor`, over a complete
patient recording: it pushes the recording one frame of raw samples at
a time, stops at ``max_iterations``, and builds the session's
:class:`MonitoringResult` and Fig. 9 :class:`EventLog` from what each
frame reports.  The first frame is uploaded and the top-100 set lands
after Δinitial (≈3 s); every later frame drives one Algorithm 2
iteration, and background refreshes land at their Eq. 4 instants.

A failed cloud call degrades the session instead of raising: PA
observations recorded meanwhile are marked stale
(:attr:`MonitoringResult.stale_series`).  With a healthy cloud the
resilient path is bit-identical to a direct call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.cloud.client import BreakerState, CloudEndpoint
from repro.errors import FrameworkError, SignalError
from repro.runtime.events import EventKind, EventLog
from repro.runtime.streaming import (
    FrameworkConfig,
    MonitorUpdate,
    StreamingMonitor,
    eq4_instants,
)
from repro.signals.types import BASE_SAMPLE_RATE_HZ, Signal

#: Breaker transitions → the event kinds the timeline records.
_BREAKER_EVENTS = {
    BreakerState.OPEN: EventKind.BREAKER_OPEN,
    BreakerState.HALF_OPEN: EventKind.BREAKER_HALF_OPEN,
    BreakerState.CLOSED: EventKind.BREAKER_CLOSE,
}


@dataclass
class MonitoringResult:
    """Everything one monitoring session produced."""

    pa_series: list[float] = field(default_factory=list)
    tracked_counts: list[int] = field(default_factory=list)
    predictions: list[bool] = field(default_factory=list)
    cloud_calls: int = 0
    initial_latency_s: float = 0.0
    iterations: int = 0
    deadline_misses: int = 0
    #: Cloud calls that failed after retries (or fast-failed on an
    #: open breaker) — the session degraded instead of raising.
    cloud_failures: int = 0
    #: Tracking iterations executed while the last cloud call had
    #: failed and no fresh set had been adopted yet.
    degraded_iterations: int = 0
    #: Per-iteration staleness flag, aligned with ``pa_series``: True
    #: when that PA observation was computed in degraded mode.
    stale_series: list[bool] = field(default_factory=list)
    events: EventLog = field(default_factory=EventLog)

    @property
    def final_prediction(self) -> bool:
        """The session's overall anomaly decision."""
        if not self.predictions:
            return False
        return self.predictions[-1]

    @property
    def peak_probability(self) -> float:
        if not self.pa_series:
            return 0.0
        return max(self.pa_series)

    def record(self, update: MonitorUpdate) -> None:
        """Fold one frame's update into the series and the timeline."""
        log, now_s = self.events, update.time_s
        log.record(now_s, EventKind.SAMPLE, frame=update.frame_index)
        if update.adopted is not None:
            log.record(now_s, EventKind.SET_REFRESH, matches=update.adopted)
        step = update.step
        if step is not None:
            self.iterations += 1
            self.pa_series.append(step.anomaly_probability)
            self.tracked_counts.append(step.tracked_after)
            self.predictions.append(update.anomaly_predicted)
            self.stale_series.append(update.degraded)
            self.degraded_iterations += update.degraded
            self.deadline_misses += update.deadline_missed
            log.record(
                now_s,
                EventKind.TRACK,
                iteration=step.iteration,
                tracked=step.tracked_after,
                removed=step.removed,
                area_evaluations=step.area_evaluations,
                pa=round(step.anomaly_probability, 4),
                stale=update.degraded,
            )
            log.record(now_s, EventKind.PREDICTION, anomaly=update.anomaly_predicted)
        outcome = update.call
        if outcome is None:
            return
        if update.frame_index > 0:  # the first upload is no re-call
            log.record(now_s, EventKind.CLOUD_CALL, tracked=update.tracked_count)
        for state in outcome.transitions:
            log.record(now_s, _BREAKER_EVENTS[state])
        if outcome.retries:
            log.record(now_s, EventKind.CLOUD_RETRY, retries=outcome.retries)
        if not outcome.ok:
            self.cloud_failures += 1
            log.record(
                now_s,
                EventKind.CLOUD_FAIL,
                reason=outcome.failure or "unknown",
                attempts=outcome.attempts,
            )
            return
        found, breakdown = outcome.result, outcome.breakdown
        if found is None or breakdown is None:
            raise FrameworkError("successful cloud call carried no payload")
        start, searching, done, lands = eq4_instants(
            now_s, outcome.penalty_s, breakdown
        )
        self.cloud_calls += 1
        if self.cloud_calls == 1:
            # Δinitial: latency of the session's first successful call.
            self.initial_latency_s = lands - now_s
        log.record(start, EventKind.UPLOAD, seconds=round(breakdown.upload_s, 6))
        log.record(searching, EventKind.SEARCH_START)
        log.record(
            done,
            EventKind.SEARCH_DONE,
            matches=len(found.matches),
            correlations=found.correlations_evaluated,
        )
        log.record(lands, EventKind.DOWNLOAD, seconds=round(breakdown.download_s, 6))


class EMAPFramework:
    """Runs one patient recording through the full EMAP loop."""

    def __init__(
        self,
        cloud: CloudEndpoint,
        config: FrameworkConfig | None = None,
    ) -> None:
        self.cloud = cloud
        self.config = config or FrameworkConfig()

    def run(self, recording: Signal) -> MonitoringResult:
        """Monitor a recording end to end; returns the session result."""
        if abs(recording.sample_rate_hz - BASE_SAMPLE_RATE_HZ) > 1e-9:
            raise SignalError(
                f"acquisition expects a {BASE_SAMPLE_RATE_HZ:.0f} Hz recording, "
                f"got {recording.sample_rate_hz} Hz; resample first"
            )
        size = self.config.tracker.frame_samples
        if len(recording) < size:
            raise FrameworkError(
                "recording too short for even one acquisition frame"
            )
        monitor = StreamingMonitor(self.cloud, self.config)
        limit = self.config.max_iterations
        result = MonitoringResult()
        with obs.trace.span("runtime.session"):
            for start in range(0, len(recording) - size + 1, size):
                if limit is not None and result.iterations >= limit:
                    break
                for update in monitor.push(recording.data[start : start + size]):
                    result.record(update)
        return result

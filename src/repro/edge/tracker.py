"""Lightweight signal tracking at the edge (paper Algorithm 2).

Each downloaded match ``W = [S, ω, β]`` is tracked across subsequent
input frames: for every new frame the tracker scans the candidate's
slice with the cheap area-between-curves metric (Eq. 3), keeps the
best-matching offset, and **removes** the candidate when even its best
area exceeds the area threshold δ_A — the signal has become dissimilar
to the patient.

Interpretation note (see DESIGN.md): Algorithm 2's pseudocode contains
an inner ``while`` over the candidate's offsets, which we read as a
full-slice area scan per frame.  This is the only reading consistent
with the paper's own numbers — 1000-sample slices can hold at most
three disjoint one-second windows, yet the framework tracks for five
iterations between cloud calls, and the reported ~9 ms-per-signal edge
cost matches a scan, not a single comparison.

The scan cost is what Fig. 8(b) compares against cross-correlation
tracking (~4.3× dearer); :meth:`SignalTracker.step` therefore reports
its evaluation count so the timing model can convert it to edge time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro import obs
from repro.cloud.results import SearchMatch, SearchResult
from repro.errors import TrackingError
from repro.signals.metrics import sliding_area, sliding_area_normalized
from repro.signals.types import FRAME_SAMPLES, Frame, SignalSlice

#: Engine names :class:`TrackerConfig.engine` accepts.
TRACKING_ENGINES = ("scalar", "plane")

#: Paper's area threshold δ_A (~900 sq. units ≈ δ = 0.8, Fig. 8a).
DEFAULT_AREA_THRESHOLD = 900.0

#: Reference RMS amplitude tracked windows are normalised to before the
#: area test.  Derived from the paper's own equivalence: for zero-mean
#: Gaussian windows of RMS σ with correlation ρ, the expected area over
#: 256 samples is 256·√(2(1−ρ))·√(2/π)·σ, so δ_A ≈ 900 coincides with
#: δ = 0.8 exactly when σ ≈ 7 units — the paper's implied working
#: amplitude.  Normalising to that scale makes the published threshold
#: transfer to any input amplitude.
TRACKING_REFERENCE_RMS = 7.0


def checked_frame(
    frame: Frame | np.ndarray, frame_samples: int, owner: str = ""
) -> np.ndarray:
    """``frame`` as a float64 vector, or :class:`TrackingError`.

    A tracking frame must be 1-D with ``frame_samples`` samples, all
    finite: one NaN makes every area NaN, a NaN area never exceeds δ_A,
    so the step would keep every candidate and score PA as if the frame
    matched.  ``owner`` names the session in the error.  Touches no
    state, so callers check before they mutate.
    """
    data = frame.data if isinstance(frame, Frame) else np.asarray(frame, dtype=np.float64)
    where = f" for session {owner!r}" if owner else ""
    if data.ndim != 1 or data.size != frame_samples:
        raise TrackingError(
            f"tracking frame must be 1-D with {frame_samples} samples, "
            f"got shape {data.shape}{where}"
        )
    if not np.isfinite(data).all():
        raise TrackingError(f"tracking frame{where} has non-finite samples")
    return data


@dataclass(frozen=True)
class TrackerConfig:
    """Parameters of the edge tracking stage.

    ``reference_rms`` rescales both the frame and each slice to a
    common working amplitude before the area test (see
    :data:`TRACKING_REFERENCE_RMS`); set it to ``None`` to compare raw
    µV waveforms, in which case ``area_threshold`` must be chosen for
    the input's own amplitude scale.

    ``engine`` selects how the area scan executes: ``"scalar"`` is the
    reference per-candidate Python loop, ``"plane"`` compiles each
    loaded slice once and evaluates each step in one kernel call
    (:class:`repro.edge.fleet.FleetTrackingEngine`, a one-session
    :class:`~repro.edge.fleet.FleetTracker`) — bit-identical results,
    different cost.
    """

    area_threshold: float = DEFAULT_AREA_THRESHOLD
    frame_samples: int = FRAME_SAMPLES
    reference_rms: float | None = TRACKING_REFERENCE_RMS
    offset_stride: int = 4
    engine: str = "scalar"

    def __post_init__(self) -> None:
        if self.area_threshold <= 0:
            raise TrackingError(
                f"area threshold must be positive, got {self.area_threshold}"
            )
        if self.frame_samples <= 0:
            raise TrackingError(
                f"frame size must be positive, got {self.frame_samples}"
            )
        if self.reference_rms is not None and self.reference_rms <= 0:
            raise TrackingError(
                f"reference RMS must be positive, got {self.reference_rms}"
            )
        if self.offset_stride < 1:
            raise TrackingError(
                f"offset stride must be >= 1, got {self.offset_stride}"
            )
        if self.engine not in TRACKING_ENGINES:
            raise TrackingError(
                f"unknown tracking engine {self.engine!r}; "
                f"expected one of {TRACKING_ENGINES}"
            )


@dataclass
class TrackedSignal:
    """One tracked candidate: the live counterpart of ``W = [S, ω, β]``."""

    sig_slice: SignalSlice
    omega: float
    offset: int
    last_area: float = float("inf")

    @property
    def anomalous(self) -> bool:
        return self.sig_slice.label.is_anomalous


@dataclass
class TrackingStep:
    """Outcome of one tracking iteration."""

    iteration: int
    tracked_before: int
    removed: int
    area_evaluations: int
    anomaly_probability: float
    removed_signals: list[TrackedSignal] = field(default_factory=list)

    @property
    def tracked_after(self) -> int:
        return self.tracked_before - self.removed


@dataclass
class EngineStep:
    """What a tracking engine reports for one evaluated frame.

    ``survivors`` and ``removed`` partition the engine's live set in
    candidate order; the engine has already updated each signal's
    ``last_area`` (and survivors' ``offset``).
    """

    survivors: list[TrackedSignal]
    removed: list[TrackedSignal]
    area_evaluations: int


class TrackingEngine(Protocol):
    """Anything that can run Algorithm 2's area scan over a loaded set.

    The engine seam mirroring the cloud's
    :class:`~repro.cloud.server.SearchEngine`: engines own the
    candidate state between :meth:`load` calls, and
    :class:`SignalTracker` orchestrates validation, iteration counting
    and metrics around them.  Satisfied by
    :class:`ScalarTrackingEngine` and
    :class:`repro.edge.fleet.FleetTrackingEngine`.
    """

    def load(self, signals: Sequence[TrackedSignal]) -> None:
        ...

    def step(self, data: np.ndarray) -> EngineStep:
        ...


class ScalarTrackingEngine:
    """The reference per-candidate Python loop (bit-exactness baseline).

    Every step rebuilds each slice's window statistics from scratch via
    :func:`~repro.signals.metrics.sliding_area_normalized`; the
    compiled engine exists precisely to amortise that work, and is held
    to this engine's outputs bit for bit.
    """

    def __init__(self, config: TrackerConfig) -> None:
        self.config = config
        self._signals: list[TrackedSignal] = []

    def load(self, signals: Sequence[TrackedSignal]) -> None:
        self._signals = list(signals)

    def step(self, data: np.ndarray) -> EngineStep:
        survivors: list[TrackedSignal] = []
        removed: list[TrackedSignal] = []
        evaluations = 0
        for signal in self._signals:
            if len(signal.sig_slice) < self.config.frame_samples:
                # Too short to hold even one comparison window: retired
                # with a defined worst-case area.
                signal.last_area = float("inf")
                removed.append(signal)
                continue
            if self.config.reference_rms is not None:
                areas = sliding_area_normalized(
                    data,
                    signal.sig_slice.data,
                    self.config.reference_rms,
                    stride=self.config.offset_stride,
                )
            else:
                areas = sliding_area(
                    data, signal.sig_slice.data, stride=self.config.offset_stride
                )
            evaluations += areas.size
            best = int(np.argmin(areas))
            signal.last_area = float(areas[best])
            if signal.last_area > self.config.area_threshold:
                removed.append(signal)
            else:
                signal.offset = best * self.config.offset_stride
                survivors.append(signal)
        self._signals = survivors
        return EngineStep(
            survivors=survivors, removed=removed, area_evaluations=evaluations
        )


class SignalTracker:
    """Tracks the signal correlation set against incoming frames."""

    def __init__(
        self,
        config: TrackerConfig | None = None,
        engine: TrackingEngine | None = None,
    ) -> None:
        self.config = config or TrackerConfig()
        self.engine = engine if engine is not None else self._build_engine()
        self._tracked: list[TrackedSignal] = []
        self._iteration = 0

    def _build_engine(self) -> TrackingEngine:
        if self.config.engine == "plane":
            # Imported lazily: fleet.py depends on this module.
            from repro.edge.fleet import FleetTrackingEngine

            return FleetTrackingEngine(self.config)
        return ScalarTrackingEngine(self.config)

    # -- set management ------------------------------------------------

    def load(self, matches: list[SearchMatch] | SearchResult) -> None:
        """Adopt a fresh signal correlation set ``T`` (F = T, Alg. 2 l.2)."""
        if isinstance(matches, SearchResult):
            entries = matches.matches
        else:
            entries = matches
        self._tracked = [
            TrackedSignal(
                sig_slice=match.sig_slice,
                omega=match.omega,
                offset=match.offset,
            )
            for match in entries
        ]
        self.engine.load(self._tracked)
        self._iteration = 0

    @property
    def tracked(self) -> tuple[TrackedSignal, ...]:
        return tuple(self._tracked)

    @property
    def tracked_count(self) -> int:
        """``N(F)``: signals currently being tracked."""
        return len(self._tracked)

    @property
    def anomalous_count(self) -> int:
        """``N(AS)``: anomalous signals currently tracked."""
        return sum(1 for signal in self._tracked if signal.anomalous)

    @property
    def iteration(self) -> int:
        return self._iteration

    def anomaly_probability(self) -> float:
        """Eq. 5: ``PA = N(AS) / N(F)`` (0 when nothing is tracked)."""
        if not self._tracked:
            return 0.0
        return self.anomalous_count / len(self._tracked)

    # -- tracking ------------------------------------------------------

    def step(self, frame: Frame | np.ndarray) -> TrackingStep:
        """One tracking iteration against the next input frame.

        For every tracked signal, scan the slice for the window with the
        minimum area against the frame; remove the signal when that
        minimum exceeds δ_A, otherwise advance its offset to the best
        window.
        """
        data = checked_frame(frame, self.config.frame_samples)
        self._iteration += 1
        tracked_before = len(self._tracked)
        with obs.trace.span("edge.track_step", tracked=tracked_before) as span:
            outcome = self.engine.step(data)
        self._tracked = outcome.survivors
        step = TrackingStep(
            iteration=self._iteration,
            tracked_before=tracked_before,
            removed=len(outcome.removed),
            area_evaluations=outcome.area_evaluations,
            anomaly_probability=self.anomaly_probability(),
            removed_signals=outcome.removed,
        )
        self._publish(step, span.elapsed_s)
        return step

    def _publish(self, step: TrackingStep, elapsed_s: float) -> None:
        """Record one iteration's aggregates (once per step, post-loop)."""
        registry = obs.metrics()
        if not registry.enabled:
            return
        registry.inc("edge.tracker.iterations")
        registry.inc("edge.tracker.area_evaluations", step.area_evaluations)
        registry.inc("edge.tracker.candidates_pruned", step.removed)
        registry.set_gauge("edge.tracker.tracked", step.tracked_after)
        registry.observe("edge.tracker.step_s", elapsed_s)
        if elapsed_s > 0:
            registry.observe(
                "edge.tracker.evaluations_per_s", step.area_evaluations / elapsed_s
            )

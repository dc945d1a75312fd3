"""Fig. 2 — motivational analysis: PA rises as tracking prunes signals.

The paper tracks the top-100 correlation set for an anomalous input
across five one-second iterations: the anomaly probability climbs from
0.22 at iteration 0 to 0.66 at iteration 5, because normal signals are
eliminated faster than anomalous ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.shards import ShardedSearchPlane
from repro.edge.tracker import SignalTracker, TrackerConfig
from repro.errors import EMAPError
from repro.eval.experiments.common import (
    ExperimentFixture,
    build_fixture,
    filtered_frame,
)
from repro.eval.reporting import format_series
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType, Signal


@dataclass
class MotivationResult:
    """Per-iteration tracked-set composition (iteration 0 = fresh set)."""

    iterations: list[int] = field(default_factory=list)
    anomaly_probability: list[float] = field(default_factory=list)
    normal_tracked: list[int] = field(default_factory=list)
    anomalous_tracked: list[int] = field(default_factory=list)

    def report(self) -> str:
        return format_series(
            "iteration",
            self.iterations,
            {
                "PA": self.anomaly_probability,
                "normal": self.normal_tracked,
                "anomalous": self.anomalous_tracked,
            },
            title="Fig. 2 — PA vs tracking iteration (anomalous input)",
        )


def _pick_tracking_start(patient: Signal, n_iterations: int) -> int:
    """Second to start tracking at: the first full second of a long burst."""
    rate = patient.sample_rate_hz
    spans = sorted(patient.anomalous_spans or ())
    onset = patient.onset_sample or len(patient.data)
    best_second: int | None = None
    best_length = 0.0
    for start, stop in spans:
        if start >= onset:
            continue
        start_s = start / rate
        length_s = (stop - start) / rate
        if start_s < 30.0 or length_s < 3.0:
            continue
        if length_s > best_length:
            best_length = length_s
            best_second = int(start_s) + 1
    if best_second is not None:
        return best_second
    return max(2, int(onset / rate) - 3)


def _motivation_slices(
    fixture: ExperimentFixture, max_anomalous: int, seed: int
) -> list:
    """Fixture subset with the paper's normal-heavy composition.

    Fig. 2's starting point has "quite large" normal-to-anomalous
    proportions (PA₀ ≈ 0.22): the MDB holds far more normal material
    than material matching any one patient.  Capping the anomalous
    slice count reproduces that regime regardless of fixture scale.
    """
    import numpy as np

    normals = [s for s in fixture.slices if not s.label.is_anomalous]
    anomalous = [s for s in fixture.slices if s.label.is_anomalous]
    rng = np.random.default_rng(seed)
    if len(anomalous) > max_anomalous:
        picks = rng.choice(len(anomalous), size=max_anomalous, replace=False)
        anomalous = [anomalous[i] for i in picks]
    return normals + anomalous


def run(
    fixture: ExperimentFixture | None = None,
    n_iterations: int = 5,
    input_seed: int = 42,
    track_from_s: int | None = None,
    initial_delta: float = 0.3,
    max_anomalous: int = 25,
) -> MotivationResult:
    """Track one preictal seizure input for ``n_iterations`` seconds.

    ``track_from_s`` picks where tracking starts; by default the first
    full second of a long preictal discharge.  ``initial_delta``
    relaxes the admission threshold for the *initial* search only — the
    synthetic corpora separate classes more cleanly than clinical EEG,
    so the paper's δ = 0.8 would admit an already-pure set and hide the
    Fig. 2 dynamics.  ``max_anomalous`` caps the anomalous slice count
    in the searched subset, reproducing the paper's normal-heavy MDB
    composition (see EXPERIMENTS.md for both interpretation notes).
    """
    if n_iterations < 1:
        raise EMAPError(f"need at least one iteration, got {n_iterations}")
    fix = fixture or build_fixture()
    slices = _motivation_slices(fix, max_anomalous, seed=input_seed)
    spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=150.0, buildup_s=140.0)
    patient = make_anomalous_signal(
        EEGGenerator(seed=input_seed), 160.0, spec, source="fig2/input"
    )
    if track_from_s is None:
        track_from_s = _pick_tracking_start(patient, n_iterations)

    search = SlidingWindowSearch(SearchConfig(delta=initial_delta))
    first = filtered_frame(patient, track_from_s)
    correlation_set = search.search(first, ShardedSearchPlane(slices))
    if not correlation_set.matches:
        raise EMAPError(
            "cloud search found no matches for the Fig. 2 input; "
            "increase the fixture's MDB scale"
        )

    tracker = SignalTracker(TrackerConfig())
    tracker.load(correlation_set)

    result = MotivationResult()
    result.iterations.append(0)
    result.anomaly_probability.append(tracker.anomaly_probability())
    result.anomalous_tracked.append(tracker.anomalous_count)
    result.normal_tracked.append(tracker.tracked_count - tracker.anomalous_count)

    for iteration in range(1, n_iterations + 1):
        frame = filtered_frame(patient, track_from_s + iteration)
        tracker.step(frame)
        result.iterations.append(iteration)
        result.anomaly_probability.append(tracker.anomaly_probability())
        result.anomalous_tracked.append(tracker.anomalous_count)
        result.normal_tracked.append(
            tracker.tracked_count - tracker.anomalous_count
        )
    return result

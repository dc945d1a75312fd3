"""Fig. 9 — timing analysis of the closed loop.

The paper's timeline shows: a ~3 s initial latency (Δinitial = ΔEC +
ΔCS + ΔCE, Eq. 4) before tracking starts, one tracking iteration per
second thereafter (each under 1 s of edge compute), and background
cloud refreshes roughly every five iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.server import CloudServer
from repro.errors import EMAPError
from repro.eval.experiments.common import ExperimentFixture, build_fixture
from repro.eval.reporting import format_table
from repro.network.link import NetworkLink
from repro.runtime.events import EventKind
from repro.runtime.framework import EMAPFramework, FrameworkConfig
from repro.runtime.timing import DeviceCostModel, TimingModel
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType


@dataclass
class TimelineResult:
    """Timing characteristics of one monitoring session."""

    initial_latency_s: float = 0.0
    upload_s: float = 0.0
    search_s: float = 0.0
    download_s: float = 0.0
    mean_tracking_iteration_s: float = 0.0
    max_tracking_iteration_s: float = 0.0
    iterations: int = 0
    cloud_calls: int = 0
    mean_iterations_between_calls: float = 0.0
    timeline: list[str] = field(default_factory=list)

    @property
    def tracking_meets_realtime(self) -> bool:
        """Whether every tracking iteration fits in the 1 s tick."""
        return self.max_tracking_iteration_s < 1.0

    def report(self) -> str:
        rows = [
            ("initial latency (Δinitial)", f"{self.initial_latency_s:.2f} s", "~3 s"),
            ("  ΔEC upload", f"{self.upload_s * 1e3:.3f} ms", "< 1 ms"),
            ("  ΔCS cloud search", f"{self.search_s:.2f} s", "~2.8 s"),
            ("  ΔCE download", f"{self.download_s * 1e3:.1f} ms", "< 200 ms"),
            (
                "mean tracking iteration",
                f"{self.mean_tracking_iteration_s * 1e3:.0f} ms",
                "~900 ms @ 100 signals",
            ),
            (
                "max tracking iteration",
                f"{self.max_tracking_iteration_s * 1e3:.0f} ms",
                "< 1000 ms",
            ),
            ("tracking iterations", str(self.iterations), "-"),
            ("cloud calls", str(self.cloud_calls), "-"),
            (
                "iterations between calls",
                f"{self.mean_iterations_between_calls:.1f}",
                "~5",
            ),
        ]
        return format_table(
            ["quantity", "measured", "paper"],
            rows,
            title="Fig. 9 — timing analysis",
        )


def run(
    fixture: ExperimentFixture | None = None,
    input_seed: int = 31,
    duration_s: float = 80.0,
    platform: str = "LTE",
    costs: DeviceCostModel | None = None,
    timeline_events: int = 40,
) -> TimelineResult:
    """Run one session and extract the Fig. 9 timing quantities."""
    if duration_s < 10:
        raise EMAPError(f"session must be >= 10 s, got {duration_s}")
    fix = fixture or build_fixture()
    model = costs or DeviceCostModel()
    timing = TimingModel(link=NetworkLink.for_platform(platform), costs=model)
    cloud = CloudServer(
        fix.slices,
        search=SlidingWindowSearch(SearchConfig()),
        timing=timing,
    )
    framework = EMAPFramework(cloud, FrameworkConfig())
    spec = AnomalySpec(
        kind=AnomalyType.SEIZURE, onset_s=0.8 * duration_s, buildup_s=0.7 * duration_s
    )
    patient = make_anomalous_signal(
        EEGGenerator(seed=input_seed), duration_s, spec, source="fig9/input"
    )
    session = framework.run(patient)

    result = TimelineResult()
    result.initial_latency_s = session.initial_latency_s
    result.iterations = session.iterations
    result.cloud_calls = session.cloud_calls
    if session.iterations > 0 and session.cloud_calls > 0:
        result.mean_iterations_between_calls = (
            session.iterations / session.cloud_calls
        )

    uploads = session.events.of_kind(EventKind.UPLOAD)
    if uploads:
        result.upload_s = float(uploads[0].detail["seconds"])
    downloads = session.events.of_kind(EventKind.DOWNLOAD)
    if downloads:
        result.download_s = float(downloads[0].detail["seconds"])
    searches = session.events.of_kind(EventKind.SEARCH_DONE)
    if searches:
        correlations = int(searches[0].detail["correlations"])
        result.search_s = model.cloud_search_time_s(correlations)

    # Edge tracking cost per iteration: the cost model's price of the
    # area evaluations each iteration actually ran.
    tracking_times = [
        model.edge_tracking_time_s(int(event.detail["area_evaluations"]))
        for event in session.events.of_kind(EventKind.TRACK)
    ]
    if tracking_times:
        result.mean_tracking_iteration_s = float(np.mean(tracking_times))
        result.max_tracking_iteration_s = float(np.max(tracking_times))

    result.timeline = session.events.timeline()[:timeline_events]
    return result

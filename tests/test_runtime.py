"""Unit tests for the runtime: events, timing, closed loop."""

import numpy as np
import pytest

from repro.cloud.server import CloudServer
from repro.errors import FrameworkError, SearchError
from repro.runtime.events import EventKind, EventLog
from repro.runtime.framework import EMAPFramework, FrameworkConfig
from repro.runtime.timing import (
    EDGE_XCORR_AREA_RATIO,
    DeviceCostModel,
    TimingBreakdown,
    TimingModel,
)
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType, Signal


class TestEventLog:
    def test_time_sorted_insertion(self):
        log = EventLog()
        log.record(1.0, EventKind.SAMPLE)
        log.record(3.0, EventKind.SEARCH_DONE)  # future event
        log.record(2.0, EventKind.SAMPLE)
        times = [event.time_s for event in log]
        assert times == [1.0, 2.0, 3.0]

    def test_of_kind_and_first(self):
        log = EventLog()
        log.record(1.0, EventKind.SAMPLE, frame=0)
        log.record(2.0, EventKind.TRACK, pa=0.5)
        log.record(3.0, EventKind.TRACK, pa=0.6)
        assert len(log.of_kind(EventKind.TRACK)) == 2
        assert log.first_of_kind(EventKind.TRACK).detail["pa"] == 0.5
        assert log.first_of_kind(EventKind.DOWNLOAD) is None

    def test_timeline_rendering(self):
        log = EventLog()
        log.record(1.0, EventKind.UPLOAD, seconds=0.001)
        lines = log.timeline()
        assert len(lines) == 1
        assert "upload" in lines[0]

    def test_rejects_negative_time(self):
        with pytest.raises(FrameworkError):
            EventLog().record(-1.0, EventKind.SAMPLE)


class TestDeviceCostModel:
    def test_cloud_search_time(self):
        model = DeviceCostModel(cloud_correlations_per_s=1000.0)
        assert model.cloud_search_time_s(2500) == pytest.approx(2.5)

    def test_edge_ratio_defaults_to_paper(self):
        model = DeviceCostModel()
        ratio = model.effective_edge_xcorr_eval_s / model.edge_area_eval_s
        assert ratio == pytest.approx(EDGE_XCORR_AREA_RATIO)

    def test_tracking_100_signals_near_900ms(self):
        """Paper: tracking 100 signals takes ~900 ms per iteration."""
        model = DeviceCostModel()
        evaluations = 100 * ((1000 - 256) // 4 + 1)
        time_s = model.edge_tracking_time_s(evaluations)
        assert 0.7 < time_s < 1.0

    def test_validation(self):
        with pytest.raises(FrameworkError):
            DeviceCostModel(cloud_correlations_per_s=0.0)
        with pytest.raises(FrameworkError):
            DeviceCostModel().cloud_search_time_s(-1)


class TestTimingModel:
    def test_initial_breakdown(self):
        timing = TimingModel()
        breakdown = timing.initial_breakdown(
            frame_samples=256, correlations_evaluated=42_000, n_signals_downloaded=100
        )
        assert breakdown.search_s == pytest.approx(1.0)
        assert breakdown.upload_s < 1e-3
        assert breakdown.download_s < 0.2
        assert breakdown.initial_s == pytest.approx(
            breakdown.upload_s + breakdown.search_s + breakdown.download_s
        )

    def test_zero_download_allowed(self):
        breakdown = TimingModel().initial_breakdown(256, 1000, 0)
        assert breakdown.download_s == 0.0

    def test_breakdown_validation(self):
        with pytest.raises(FrameworkError):
            TimingBreakdown(upload_s=-1.0, search_s=0.0, download_s=0.0)


class TestFramework:
    def test_seizure_session_detects(self, mdb_slices):
        cloud = CloudServer(mdb_slices)
        framework = EMAPFramework(cloud)
        spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=50.0, buildup_s=40.0)
        patient = make_anomalous_signal(EEGGenerator(seed=77), 60.0, spec)
        session = framework.run(patient)
        assert session.iterations > 30
        assert session.cloud_calls >= 1
        assert session.final_prediction
        assert session.peak_probability > 0.5
        assert len(session.pa_series) == session.iterations

    def test_normal_session_stays_quiet(self, mdb_slices):
        cloud = CloudServer(mdb_slices)
        framework = EMAPFramework(cloud)
        session = framework.run(EEGGenerator(seed=88).record(40.0))
        assert not any(session.predictions)
        assert session.peak_probability < 0.4

    def test_event_log_structure(self, mdb_slices):
        cloud = CloudServer(mdb_slices)
        framework = EMAPFramework(cloud)
        session = framework.run(EEGGenerator(seed=89).record(20.0))
        kinds = {event.kind for event in session.events}
        assert EventKind.SAMPLE in kinds
        assert EventKind.UPLOAD in kinds
        assert EventKind.SEARCH_DONE in kinds
        assert EventKind.TRACK in kinds
        samples = session.events.of_kind(EventKind.SAMPLE)
        assert len(samples) == 20

    def test_max_iterations_cap(self, mdb_slices):
        framework = EMAPFramework(
            CloudServer(mdb_slices), FrameworkConfig(max_iterations=5)
        )
        session = framework.run(EEGGenerator(seed=90).record(60.0))
        assert session.iterations == 5

    def test_initial_latency_positive(self, mdb_slices):
        framework = EMAPFramework(CloudServer(mdb_slices))
        session = framework.run(EEGGenerator(seed=91).record(10.0))
        assert session.initial_latency_s > 0.0

    def test_rejects_too_short_recording(self, mdb_slices):
        framework = EMAPFramework(CloudServer(mdb_slices))
        with pytest.raises(FrameworkError, match="too short"):
            framework.run(Signal(data=np.ones(100)))

    def test_cloud_server_rejects_empty_store(self):
        with pytest.raises(SearchError, match="non-empty"):
            CloudServer([])

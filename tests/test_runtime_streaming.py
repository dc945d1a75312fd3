"""Unit tests for the streaming (push-based) monitor."""

import numpy as np
import pytest

from repro.cloud.server import CloudServer
from repro.errors import FrameworkError, SignalError
from repro.runtime.events import EventKind
from repro.runtime.framework import EMAPFramework
from repro.runtime.streaming import FrameworkConfig, StreamingMonitor, eq4_instants
from repro.runtime.timing import DeviceCostModel, TimingModel
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType


@pytest.fixture
def monitor(mdb_slices):
    return StreamingMonitor(CloudServer(mdb_slices))


class TestPushMechanics:
    def test_partial_chunks_buffer(self, monitor):
        recording = EEGGenerator(seed=0).record(2.0)
        # Push in odd-sized chunks; two frames total.
        updates = []
        for start in range(0, 512, 100):
            updates.extend(monitor.push(recording.data[start : start + 100]))
        assert [update.frame_index for update in updates] == [0, 1]

    def test_one_update_per_frame(self, monitor):
        recording = EEGGenerator(seed=1).record(5.0)
        updates = monitor.push(recording.data)
        assert len(updates) == 5
        assert [u.frame_index for u in updates] == list(range(5))
        assert updates[-1].time_s == pytest.approx(5.0)

    def test_empty_chunk_noop(self, monitor):
        assert monitor.push(np.array([])) == []

    def test_rejects_2d(self, monitor):
        with pytest.raises(SignalError, match="1-D"):
            monitor.push(np.zeros((2, 10)))

    def test_first_frame_issues_cloud_call(self, monitor):
        recording = EEGGenerator(seed=2).record(1.0)
        updates = monitor.push(recording.data)
        assert updates[0].cloud_call_issued
        assert monitor.cloud_calls == 1

    def test_latency_gap_before_tracking(self, mdb_slices):
        """The first set lands at its Eq. 4 instant: frames acquired
        while the initial search is in flight are not tracked.  A slower
        cloud gives this small MDB the paper's multi-second Δinitial."""
        slow = TimingModel(costs=DeviceCostModel(cloud_correlations_per_s=5_000.0))
        monitor = StreamingMonitor(CloudServer(mdb_slices, timing=slow))
        recording = EEGGenerator(seed=3).record(8.0)
        updates = monitor.push(recording.data)
        first = updates[0]
        lands_s = eq4_instants(
            first.time_s, first.call.penalty_s, first.call.breakdown
        )[3]
        assert lands_s > 3.0
        for update in updates:
            assert update.tracking_active == (update.time_s >= lands_s)
        landed = next(u for u in updates if u.time_s >= lands_s)
        assert landed.adopted == landed.step.tracked_before > 0

    def test_reset_starts_fresh_session(self, monitor):
        recording = EEGGenerator(seed=4).record(3.0)
        first = monitor.push(recording.data)
        monitor.reset()
        assert monitor.cloud_calls == 0
        second = monitor.push(recording.data)
        assert [u.anomaly_probability for u in first] == [
            u.anomaly_probability for u in second
        ]


class TestChunkBuffering:
    """Regression: buffering is chunk-accumulating, not O(n²) concat."""

    def _trace(self, monitor):
        return [
            (
                u.frame_index,
                u.anomaly_probability,
                u.tracked_count,
                u.anomaly_predicted,
                u.cloud_call_issued,
                u.tracking_active,
            )
            for u in monitor.updates
        ]

    def test_many_small_chunks_emit_identical_updates(self, mdb_slices):
        """Sample-at-a-time delivery must match one-shot delivery."""
        recording = EEGGenerator(seed=31).record(6.0)
        bulk = StreamingMonitor(CloudServer(mdb_slices))
        bulk.push(recording.data)
        trickle = StreamingMonitor(CloudServer(mdb_slices))
        step = 7  # chunk size coprime to the frame size
        for start in range(0, len(recording.data), step):
            trickle.push(recording.data[start : start + step])
        assert self._trace(trickle) == self._trace(bulk)
        assert trickle.buffered_samples == len(recording.data) % 256

    def test_buffered_samples_tracks_partial_frames(self, monitor):
        recording = EEGGenerator(seed=32).record(2.0)
        monitor.push(recording.data[:100])
        assert monitor.buffered_samples == 100
        monitor.push(recording.data[100:300])
        assert monitor.buffered_samples == 300 - 256
        monitor.reset()
        assert monitor.buffered_samples == 0


class TestUpdateRetention:
    """Satellite: optional bound on the retained updates list."""

    def test_unbounded_by_default(self, mdb_slices):
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        recording = EEGGenerator(seed=33).record(6.0)
        monitor.push(recording.data)
        assert len(monitor.updates) == 6

    def test_bounded_retention_keeps_newest(self, mdb_slices):
        monitor = StreamingMonitor(
            CloudServer(mdb_slices), FrameworkConfig(max_retained_updates=3)
        )
        recording = EEGGenerator(seed=33).record(6.0)
        emitted = []
        for start in range(0, len(recording.data), 300):
            emitted.extend(monitor.push(recording.data[start : start + 300]))
        # push() still returns every update; only retention is bounded.
        assert [u.frame_index for u in emitted] == list(range(6))
        assert [u.frame_index for u in monitor.updates] == [3, 4, 5]

    def test_rejects_non_positive_bound(self):
        with pytest.raises(FrameworkError, match="max_retained_updates"):
            FrameworkConfig(max_retained_updates=0)


class TestStreamingDetection:
    def test_seizure_detected_online(self, mdb_slices):
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=40.0, buildup_s=30.0)
        patient = make_anomalous_signal(EEGGenerator(seed=5), 50.0, spec)
        # Simulate live delivery in 0.25 s chunks.
        flagged = False
        for start in range(0, len(patient.data), 64):
            for update in monitor.push(patient.data[start : start + 64]):
                if update.anomaly_predicted:
                    flagged = True
        assert flagged

    def test_normal_stays_quiet_online(self, mdb_slices):
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        recording = EEGGenerator(seed=6).record(30.0)
        updates = monitor.push(recording.data)
        assert not any(update.anomaly_predicted for update in updates)
        assert max(update.anomaly_probability for update in updates) < 0.4

    def test_chunking_does_not_change_trace(self, mdb_slices):
        """Same samples, different chunk sizes, identical PA trace."""
        recording = EEGGenerator(seed=7).record(12.0)
        traces = []
        for chunk_size in (64, 256, 1000):
            monitor = StreamingMonitor(CloudServer(mdb_slices))
            updates = []
            for start in range(0, len(recording.data), chunk_size):
                updates.extend(
                    monitor.push(recording.data[start : start + chunk_size])
                )
            traces.append([update.anomaly_probability for update in updates])
        assert traces[0] == traces[1] == traces[2]


class TestBatchStreamEquivalence:
    """``EMAPFramework.run`` drives the same loop a live monitor runs:
    at default timing, the whole-recording session equals a monitor fed
    the same samples in 640-sample chunks (frame boundaries inside
    chunks), frame for frame.

    Regression for the prediction-trace divergence bug, when the
    monitor skipped ``predictor.predict()`` whenever a tracking step
    emptied the set while the framework predicted on every iteration.
    """

    def run_both(self, mdb_slices, recording):
        batch = EMAPFramework(CloudServer(mdb_slices)).run(recording)
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        for start in range(0, recording.data.size, 640):
            monitor.push(recording.data[start : start + 640])
        stream = [u for u in monitor.updates if u.tracking_active]
        return batch, monitor, stream

    def assert_identical(self, batch, monitor, stream):
        assert [u.anomaly_probability for u in stream] == batch.pa_series
        assert [u.tracked_count for u in stream] == batch.tracked_counts
        assert [u.anomaly_predicted for u in stream] == batch.predictions
        assert [u.degraded for u in stream] == batch.stale_series
        assert monitor.cloud_calls == batch.cloud_calls
        assert len(monitor.updates) == len(batch.events.of_kind(EventKind.SAMPLE))

    def test_seizure_traces_identical(self, mdb_slices, seizure_recording):
        batch, monitor, stream = self.run_both(mdb_slices, seizure_recording)
        self.assert_identical(batch, monitor, stream)
        assert batch.initial_latency_s > 0.0  # no instant-cloud recipe
        assert any(batch.predictions)  # the seizure is actually flagged

    def test_normal_traces_identical(self, mdb_slices, normal_recording):
        batch, monitor, stream = self.run_both(mdb_slices, normal_recording)
        self.assert_identical(batch, monitor, stream)

    def test_prediction_runs_even_when_step_empties_the_set(self, mdb_slices):
        """The fixed path: tracked_after == 0 still consults the
        predictor (EMA / trend may flag an anomaly on an emptied set)."""
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=20.0, buildup_s=15.0)
        patient = make_anomalous_signal(EEGGenerator(seed=8), 30.0, spec)
        monitor.push(patient.data)
        emptied = [
            u
            for u in monitor.updates
            if u.tracking_active and u.tracked_count == 0
        ]
        # The scenario must occur for this regression test to bite.
        assert emptied, "no step emptied the set; adjust the scenario"


class TestEntryPointsAgree:
    """Every entry point of the closed loop equals the reference driver
    (the same loop on the scalar ``SignalTracker``) on the same
    recording, bit for bit.  The entry points all track on the compiled
    ``FleetTracker``; the ``fleet`` case is a one-session fleet on the
    simulated clock, the same loop over the serving gateway and the
    fused edge driver."""

    @pytest.mark.parametrize("recording", ["seizure_recording", "normal_recording"])
    def test_matches_framework(
        self, mdb_slices, request, recording, run_session, run_reference
    ):
        signal = request.getfixturevalue(recording)
        expected = run_reference(CloudServer(mdb_slices), FrameworkConfig(), signal)
        result = run_session(CloudServer(mdb_slices), FrameworkConfig(), signal)
        assert result.pa_series == expected.pa_series
        assert result.tracked_counts == expected.tracked_counts
        assert result.predictions == expected.predictions
        assert result.stale_series == expected.stale_series
        assert result.degraded_iterations == expected.degraded_iterations
        assert result.cloud_calls == expected.cloud_calls > 1
        assert result.initial_latency_s == expected.initial_latency_s
        # Every call lands on the same frame (SET_REFRESH), and the
        # whole Fig. 9 event log agrees.
        landings = [e.time_s for e in result.events.of_kind(EventKind.SET_REFRESH)]
        assert landings == [
            e.time_s for e in expected.events.of_kind(EventKind.SET_REFRESH)
        ]
        assert [(e.time_s, e.kind, e.detail) for e in result.events] == [
            (e.time_s, e.kind, e.detail) for e in expected.events
        ]

"""Pinning tests for cloud-call policy semantics at the edges.

``tracking_threshold=0`` is the degenerate configuration where the
policy itself never fires on set size (``tracked < 0`` is impossible).
The closed loop must still call the cloud when the tracked set is
*empty* — there is nothing left to track — and may never stack a second
call while one is already in flight, whichever entry point drives it.
"""

import pytest

from repro.cloud.server import CloudServer
from repro.edge.device import CloudCallPolicy
from repro.errors import TrackingError
from repro.runtime.events import EventKind
from repro.runtime.framework import EMAPFramework
from repro.runtime.streaming import FrameworkConfig, StreamingMonitor
from repro.signals.generator import EEGGenerator


class TestPolicyThresholdZero:
    def test_threshold_zero_never_fires_on_size(self):
        policy = CloudCallPolicy(tracking_threshold=0, refresh_interval=5)
        assert not policy.should_call(tracked_count=0, iterations_since_refresh=0)
        assert not policy.should_call(tracked_count=100, iterations_since_refresh=0)

    def test_threshold_zero_still_fires_on_refresh(self):
        policy = CloudCallPolicy(tracking_threshold=0, refresh_interval=5)
        assert policy.should_call(tracked_count=100, iterations_since_refresh=5)

    def test_negative_threshold_rejected(self):
        with pytest.raises(TrackingError):
            CloudCallPolicy(tracking_threshold=-1)


@pytest.fixture
def zero_threshold_config():
    return FrameworkConfig(
        policy=CloudCallPolicy(tracking_threshold=0, refresh_interval=5)
    )


class TestThresholdZero:
    def test_emptied_set_still_calls_cloud(
        self, mdb_slices, zero_threshold_config, run_session
    ):
        """Even with threshold 0 the loop re-searches when the tracked
        set empties (the policy alone would never fire)."""
        recording = EEGGenerator(seed=31).record(40.0)
        result = run_session(
            CloudServer(mdb_slices), zero_threshold_config, recording
        )
        assert result.iterations > 0
        assert result.cloud_calls >= 1
        # Refresh-driven calls still happen: over 40 s with interval 5
        # the loop calls repeatedly even when the set stays healthy.
        calls = result.events.of_kind(EventKind.CLOUD_CALL)
        assert len(calls) > 1
        # A TRACK that left the set empty is followed by a CLOUD_CALL at
        # the same instant unless a search was already in flight.
        in_flight_until = 0.0
        for event in result.events:
            if event.kind is EventKind.DOWNLOAD:
                in_flight_until = event.time_s
            if event.kind is EventKind.TRACK and event.detail["tracked"] == 0:
                assert event.time_s < in_flight_until or any(
                    call.time_s == event.time_s for call in calls
                )


class TestFrameworkThresholdZero:
    def test_refresh_cadence_with_zero_threshold(self, mdb_slices, zero_threshold_config):
        framework = EMAPFramework(CloudServer(mdb_slices), zero_threshold_config)
        recording = EEGGenerator(seed=32).record(30.0)
        result = framework.run(recording)
        track_events = result.events.of_kind(EventKind.TRACK)
        call_events = result.events.of_kind(EventKind.CLOUD_CALL)
        assert track_events and call_events
        # With interval 5, there can be at most one call per ~5
        # iterations plus the initial search and empty-set rescues.
        assert len(call_events) <= len(track_events) // 2 + 2


class TestStreamingThresholdZero:
    def test_no_duplicate_call_while_pending(self, mdb_slices, zero_threshold_config):
        """An in-flight search suppresses further dispatches: the next
        call waits for the previous result to land (Eq. 4), so issued
        calls are more than Δinitial apart."""
        monitor = StreamingMonitor(CloudServer(mdb_slices), zero_threshold_config)
        recording = EEGGenerator(seed=34).record(20.0)
        monitor.push(recording.data)
        issued = [u for u in monitor.updates if u.cloud_call_issued]
        assert issued[0].frame_index == 0
        for sent, following in zip(issued, issued[1:]):
            lands_s = sent.time_s + sent.call.breakdown.initial_s
            assert following.time_s > lands_s

    def test_both_loops_agree_on_call_count(self, mdb_slices, zero_threshold_config):
        """Same recording, default timing, same number of cloud calls
        under the threshold-0 policy."""
        recording = EEGGenerator(seed=35).record(30.0)
        framework = EMAPFramework(CloudServer(mdb_slices), zero_threshold_config)
        batch = framework.run(recording)
        monitor = StreamingMonitor(CloudServer(mdb_slices), zero_threshold_config)
        monitor.push(recording.data)
        assert monitor.cloud_calls == batch.cloud_calls > 1

"""The edge device's acquisition stage (§V-A), call policy and per-frame
bookkeeping, as the one closed loop runs them.

``StreamingMonitor.push`` samples, filters and frames the EEG;
``EMAPFramework.run`` drives it over a whole recording.  A spy endpoint
records every frame the loop transmits, and a stub endpoint serves a
fixed correlation set with zero Eq. 4 latency.
"""

import numpy as np
import pytest

from repro.cloud.results import SearchMatch, SearchResult
from repro.cloud.server import CloudServer
from repro.edge.device import CloudCallPolicy
from repro.edge.tracker import TrackerConfig
from repro.errors import SignalError, TrackingError
from repro.runtime.events import EventKind
from repro.runtime.framework import EMAPFramework
from repro.runtime.streaming import FrameworkConfig, StreamingMonitor
from repro.runtime.timing import TimingBreakdown, TimingModel
from repro.signals.filters import BandpassFilter
from repro.signals.generator import EEGGenerator
from repro.signals.types import FRAME_SAMPLES, AnomalyType, Signal, SignalSlice


class SpyEndpoint:
    """Forwards to a real server and keeps every frame it was sent."""

    def __init__(self, server):
        self.server = server
        self.frames = []

    @property
    def timing(self):
        return self.server.timing

    def handle_frame(self, frame):
        self.frames.append(frame)
        return self.server.handle_frame(frame)


class StubEndpoint:
    """Serves one fixed correlation set that lands in zero seconds."""

    timing = TimingModel()

    def __init__(self, result):
        self.result = result

    def handle_frame(self, frame):
        return self.result, TimingBreakdown(upload_s=0.0, search_s=0.0, download_s=0.0)


@pytest.fixture
def spy(mdb_slices):
    return SpyEndpoint(CloudServer(mdb_slices))


class TestSignalAcquisition:
    def test_frames_match_one_shot_filter(self, spy):
        recording = EEGGenerator(seed=0).record(20.0)
        EMAPFramework(spy).run(recording)
        one_shot = BandpassFilter().apply(recording.data)
        assert len(spy.frames) > 1
        for frame in spy.frames:
            start = frame.index * FRAME_SAMPLES
            assert np.allclose(frame.data, one_shot[start : start + FRAME_SAMPLES])

    def test_frame_indices_sequential(self, mdb_slices):
        recording = EEGGenerator(seed=1).record(3.0)
        session = EMAPFramework(CloudServer(mdb_slices)).run(recording)
        samples = session.events.of_kind(EventKind.SAMPLE)
        assert [event.detail["frame"] for event in samples] == [0, 1, 2]

    def test_exhaustion_returns_none(self, mdb_slices):
        """A partial frame emits nothing until its last sample arrives."""
        recording = EEGGenerator(seed=2).record(2.0)
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        assert len(monitor.push(recording.data[:300])) == 1
        assert monitor.push(recording.data[300:511]) == []
        assert len(monitor.push(recording.data[511:])) == 1

    def test_frames_available(self, mdb_slices):
        """Only complete frames of a recording are monitored."""
        recording = EEGGenerator(seed=3).record(2.5)
        session = EMAPFramework(CloudServer(mdb_slices)).run(recording)
        assert len(session.events.of_kind(EventKind.SAMPLE)) == 2

    def test_reset(self, spy):
        recording = EEGGenerator(seed=4).record(1.0)
        monitor = StreamingMonitor(spy)
        monitor.push(recording.data)
        monitor.reset()
        monitor.push(recording.data)
        first, again = spy.frames
        assert np.array_equal(first.data, again.data)
        assert first.index == again.index == 0

    def test_rejects_foreign_rate(self, mdb_slices):
        sig = Signal(data=np.ones(1000), sample_rate_hz=512.0)
        with pytest.raises(SignalError, match="resample first"):
            EMAPFramework(CloudServer(mdb_slices)).run(sig)

    def test_frames_marked_filtered(self, spy):
        recording = EEGGenerator(seed=5).record(1.0)
        StreamingMonitor(spy).push(recording.data)
        (frame,) = spy.frames
        assert frame.filtered
        assert len(frame) == FRAME_SAMPLES


class TestCloudCallPolicy:
    def test_threshold_trigger(self):
        policy = CloudCallPolicy(tracking_threshold=20, refresh_interval=5)
        assert policy.should_call(tracked_count=19, iterations_since_refresh=0)
        assert not policy.should_call(tracked_count=20, iterations_since_refresh=1)

    def test_interval_trigger(self):
        policy = CloudCallPolicy(tracking_threshold=20, refresh_interval=5)
        assert policy.should_call(tracked_count=100, iterations_since_refresh=5)
        assert not policy.should_call(tracked_count=100, iterations_since_refresh=4)

    def test_validation(self):
        with pytest.raises(TrackingError):
            CloudCallPolicy(tracking_threshold=-1)
        with pytest.raises(TrackingError):
            CloudCallPolicy(refresh_interval=0)


class TestEdgeDevice:
    def stub(self, recording, n=30):
        """A set of ``n`` slices that each open with the first frame."""
        rng = np.random.default_rng(6)
        frame = BandpassFilter().apply(recording.data)[:FRAME_SAMPLES]
        matches = []
        for i in range(n):
            series = rng.standard_normal(1000) * 0.1
            series[0:FRAME_SAMPLES] = frame + rng.standard_normal(FRAME_SAMPLES) * 0.02
            label = AnomalyType.SEIZURE if i % 3 == 0 else AnomalyType.NONE
            matches.append(
                SearchMatch(
                    sig_slice=SignalSlice(data=series, label=label, slice_id=f"m{i}"),
                    omega=0.95,
                    offset=0,
                )
            )
        return StubEndpoint(SearchResult(matches=matches))

    def interval_monitor(self, recording, interval):
        """Refresh-only policy; no candidate is ever pruned."""
        config = FrameworkConfig(
            tracker=TrackerConfig(area_threshold=1e9),
            policy=CloudCallPolicy(tracking_threshold=0, refresh_interval=interval),
        )
        return StreamingMonitor(self.stub(recording), config)

    def test_track_updates_predictor_and_counters(self):
        recording = EEGGenerator(seed=6).record(5.0)
        monitor = StreamingMonitor(self.stub(recording))
        first, second = monitor.push(recording.data[: 2 * FRAME_SAMPLES])
        assert first.cloud_call_issued and not first.tracking_active
        assert second.adopted == 30
        assert second.step.tracked_before == 30
        assert len(monitor.predictor.trace) == 1

    def test_wants_cloud_call_after_interval(self):
        recording = EEGGenerator(seed=7).record(10.0)
        monitor = self.interval_monitor(recording, interval=3)
        updates = monitor.push(recording.data)
        # Frame 0 sends the initial search; its set lands by frame 1,
        # which tracks; the third tracked iteration fires the refresh.
        assert [u.tracking_active for u in updates[:4]] == [False, True, True, True]
        assert [u.cloud_call_issued for u in updates[:4]] == [True, False, False, True]

    def test_request_resets_interval_counter(self):
        """Each adopted set restarts the refresh count, so refreshes
        repeat every ``interval`` frames once the first set lands."""
        recording = EEGGenerator(seed=8).record(12.0)
        monitor = self.interval_monitor(recording, interval=3)
        monitor.push(recording.data)
        issued = [u.frame_index for u in monitor.updates if u.cloud_call_issued]
        assert issued == [0, 3, 6, 9]
        assert monitor.cloud_calls == 4

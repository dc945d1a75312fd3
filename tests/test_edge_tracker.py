"""Unit tests for Algorithm 2 — the edge signal tracker."""

import numpy as np
import pytest

from repro.cloud.results import SearchMatch, SearchResult
from repro.edge.fleet import FleetTracker
from repro.edge.tracker import (
    DEFAULT_AREA_THRESHOLD,
    SignalTracker,
    TrackerConfig,
)
from repro.errors import TrackingError
from repro.signals.types import AnomalyType, SignalSlice


def match_for(data, label=AnomalyType.NONE, omega=0.9, offset=0, slice_id="s"):
    sig_slice = SignalSlice(
        data=np.asarray(data, dtype=float), label=label, slice_id=slice_id
    )
    return SearchMatch(sig_slice=sig_slice, omega=omega, offset=offset)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestTrackerConfig:
    def test_paper_default_threshold(self):
        assert TrackerConfig().area_threshold == DEFAULT_AREA_THRESHOLD == 900.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"area_threshold": 0.0},
            {"frame_samples": 0},
            {"reference_rms": -1.0},
            {"offset_stride": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(TrackingError):
            TrackerConfig(**kwargs)


class TestLoadAndCounts:
    def test_load_from_search_result(self, rng):
        tracker = SignalTracker()
        matches = [
            match_for(rng.standard_normal(1000), AnomalyType.SEIZURE, slice_id="a"),
            match_for(rng.standard_normal(1000), slice_id="b"),
        ]
        tracker.load(SearchResult(matches=matches))
        assert tracker.tracked_count == 2
        assert tracker.anomalous_count == 1
        assert tracker.anomaly_probability() == pytest.approx(0.5)

    def test_empty_probability(self):
        tracker = SignalTracker()
        tracker.load([])
        assert tracker.anomaly_probability() == 0.0

    def test_reload_resets_iteration(self, rng):
        tracker = SignalTracker()
        tracker.load([match_for(rng.standard_normal(1000))])
        tracker.step(rng.standard_normal(256))
        assert tracker.iteration == 1
        tracker.load([match_for(rng.standard_normal(1000))])
        assert tracker.iteration == 0


class TestStep:
    def test_similar_signal_survives(self, rng):
        frame = rng.standard_normal(256)
        series = rng.standard_normal(1000) * 0.1
        series[200:456] = 3.0 * frame + 1.0  # scaled/shifted copy
        tracker = SignalTracker()
        tracker.load([match_for(series, AnomalyType.SEIZURE)])
        step = tracker.step(frame)
        assert step.removed == 0
        assert tracker.tracked_count == 1
        # Offset snapped to the embedded copy (within the stride).
        assert abs(tracker.tracked[0].offset - 200) <= TrackerConfig().offset_stride

    def test_dissimilar_signal_removed(self, rng):
        tracker = SignalTracker()
        tracker.load([match_for(rng.standard_normal(1000))])
        step = tracker.step(rng.standard_normal(256))
        assert step.removed == 1
        assert tracker.tracked_count == 0
        assert step.removed_signals[0].last_area > TrackerConfig().area_threshold

    def test_mixed_set_prunes_selectively(self, rng):
        frame = rng.standard_normal(256)
        similar = rng.standard_normal(1000) * 0.1
        similar[100:356] = frame * 2.0
        tracker = SignalTracker()
        tracker.load(
            [
                match_for(similar, AnomalyType.SEIZURE, slice_id="keep"),
                match_for(rng.standard_normal(1000), slice_id="drop"),
            ]
        )
        step = tracker.step(frame)
        assert step.tracked_before == 2
        assert step.tracked_after == 1
        assert tracker.tracked[0].sig_slice.slice_id == "keep"
        assert step.anomaly_probability == 1.0

    def test_amplitude_mismatch_tolerated(self, rng):
        """Reference-RMS normalisation makes tracking amplitude-blind."""
        frame = rng.standard_normal(256) * 50.0  # loud input
        series = np.tile(frame / 50.0 * 0.5, 4)[:1000]  # quiet copy
        tracker = SignalTracker()
        tracker.load([match_for(series)])
        step = tracker.step(frame)
        assert step.removed == 0

    def test_raw_mode_amplitude_sensitive(self, rng):
        frame = rng.standard_normal(256) * 50.0
        series = np.tile(frame / 50.0 * 0.5, 4)[:1000]
        tracker = SignalTracker(TrackerConfig(reference_rms=None))
        tracker.load([match_for(series)])
        step = tracker.step(frame)
        assert step.removed == 1

    def test_short_slice_retired(self, rng):
        tracker = SignalTracker()
        tracker.load([match_for(np.ones(100))])
        step = tracker.step(rng.standard_normal(256))
        assert step.removed == 1

    def test_evaluation_count_reported(self, rng):
        tracker = SignalTracker(TrackerConfig(offset_stride=4))
        tracker.load([match_for(rng.standard_normal(1000))])
        step = tracker.step(rng.standard_normal(256))
        assert step.area_evaluations == (1000 - 256) // 4 + 1

    def test_rejects_wrong_frame_size(self, rng):
        tracker = SignalTracker()
        tracker.load([match_for(rng.standard_normal(1000))])
        with pytest.raises(TrackingError, match="256"):
            tracker.step(np.ones(100))

    @pytest.mark.parametrize("engine", ["scalar", "plane"])
    def test_rejects_non_finite_frame_without_stepping(self, rng, engine):
        """``scalar`` is the reference tracker; ``plane`` is the fleet,
        which tracks on compiled slice windows.  Either refuses the
        frame before any state changes, then steps on a clean one as
        the reference does."""
        matches = [
            match_for(rng.standard_normal(1000), slice_id=f"s{index}")
            for index in range(3)
        ]
        reference = SignalTracker(TrackerConfig(area_threshold=1e9))
        reference.load(matches)
        frame = rng.standard_normal(256)
        frame[17] = np.nan
        if engine == "scalar":
            with pytest.raises(TrackingError, match="non-finite"):
                reference.step(frame)
            assert reference.iteration == 0 and len(reference.tracked) == 3
            frame[17] = 0.0
            step, tracked = reference.step(frame), reference.tracked
        else:
            fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
            fleet.open_session("s", matches)
            with pytest.raises(TrackingError, match="non-finite"):
                fleet.step({"s": frame})
            assert len(fleet.tracked("s")) == 3
            frame[17] = 0.0
            step, tracked = fleet.step({"s": frame})["s"], fleet.tracked("s")
        expected = SignalTracker(TrackerConfig(area_threshold=1e9))
        expected.load(matches)
        expected_step = expected.step(frame)
        assert (step.iteration, step.area_evaluations) == (
            1,
            expected_step.area_evaluations,
        )
        assert tracked == expected.tracked

    def test_probability_tracks_composition(self, rng):
        frame = rng.standard_normal(256)
        similar = rng.standard_normal(1000) * 0.05
        similar[0:256] = frame
        matches = [
            match_for(similar, AnomalyType.SEIZURE, slice_id="a"),
            match_for(similar + rng.standard_normal(1000) * 0.01, AnomalyType.NONE, slice_id="b"),
            match_for(rng.standard_normal(1000), AnomalyType.NONE, slice_id="c"),
        ]
        tracker = SignalTracker()
        tracker.load(matches)
        step = tracker.step(frame)
        assert step.tracked_after == 2
        assert step.anomaly_probability == pytest.approx(0.5)

"""Tests for the compiled edge engine and fleet batching.

Covers the ``engine="plane"`` engine's slice cache across loads, the
short-slice removal contract, and the cross-engine equivalence
property: the scalar tracker, the plane engine and the fleet must
produce bit-identical ``TrackingStep`` sequences — areas, offsets,
removals, evaluation counts and anomaly probabilities — over random
correlation sets, strides and both normalisation modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.results import SearchMatch
from repro.cloud.server import CloudServer
from repro.edge.fleet import FleetTracker, FleetTrackingEngine
from repro.edge.plane import compile_slice_windows
from repro.edge.tracker import (
    ScalarTrackingEngine,
    SignalTracker,
    TrackerConfig,
)
from repro.errors import TrackingError
from repro.runtime.streaming import StreamingConfig, StreamingMonitor
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType, SignalSlice


def _random_matches(
    seed: int,
    n: int = 24,
    slice_len: int = 1000,
    short_every: int = 7,
    flat_every: int = 9,
) -> list[SearchMatch]:
    """A deterministic correlation set with short and flat-stretch slices."""
    rng = np.random.default_rng(seed)
    matches = []
    for index in range(n):
        if short_every and index % short_every == 3:
            data = rng.standard_normal(int(rng.integers(10, 200))) * 7
        elif flat_every and index % flat_every == 5:
            data = rng.standard_normal(slice_len) * 7
            data[100:500] = 2.5  # zero-variance stretch -> flat windows
        else:
            data = rng.standard_normal(slice_len) * 7
        label = AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE
        sig_slice = SignalSlice(
            data=data, label=label, slice_id=f"p{seed}-{index}"
        )
        matches.append(SearchMatch(sig_slice=sig_slice, omega=0.9, offset=0))
    return matches


def _frames(seed: int, count: int, samples: int = 256) -> list[np.ndarray]:
    rng = np.random.default_rng(seed + 50_000)
    return [rng.standard_normal(samples) * 7 for _ in range(count)]


def _step_key(step, tracked):
    """Everything a TrackingStep observably carries, bit-compared."""
    return (
        step.iteration,
        step.tracked_before,
        step.removed,
        step.area_evaluations,
        step.anomaly_probability,
        tuple(
            (s.sig_slice.slice_id, s.last_area, s.offset, s.omega) for s in tracked
        ),
        tuple((s.sig_slice.slice_id, s.last_area) for s in step.removed_signals),
    )


def _run_tracker(engine: str, matches, frames, **overrides):
    tracker = SignalTracker(TrackerConfig(engine=engine, **overrides))
    tracker.load(matches)
    return [
        _step_key(tracker.step(frame), tracker.tracked) for frame in frames
    ]


def _run_fleet(matches, frames, **overrides):
    fleet = FleetTracker(TrackerConfig(**overrides))
    fleet.open_session("s", matches)
    keys = []
    for frame in frames:
        step = fleet.step({"s": frame})["s"]
        keys.append(_step_key(step, fleet.tracked("s")))
    return keys


class TestTrackerConfigEngine:
    def test_rejects_unknown_engine(self):
        with pytest.raises(TrackingError, match="unknown tracking engine"):
            TrackerConfig(engine="gpu")

    def test_engine_selection_builds_matching_engine(self):
        assert isinstance(
            SignalTracker(TrackerConfig(engine="scalar")).engine,
            ScalarTrackingEngine,
        )
        assert isinstance(
            SignalTracker(TrackerConfig(engine="plane")).engine,
            FleetTrackingEngine,
        )

    def test_explicit_engine_instance_wins(self):
        config = TrackerConfig()
        plane = FleetTrackingEngine(config)
        assert SignalTracker(config, engine=plane).engine is plane


class TestShortSliceRemoval:
    """Satellite: short slices are retired with a *defined* last_area."""

    @pytest.mark.parametrize("engine", ["scalar", "plane"])
    def test_short_slice_removed_with_inf_area(self, engine):
        short = SignalSlice(
            data=np.ones(10), label=AnomalyType.SEIZURE, slice_id="short"
        )
        tracker = SignalTracker(TrackerConfig(engine=engine))
        tracker.load([SearchMatch(sig_slice=short, omega=0.9, offset=0)])
        step = tracker.step(np.zeros(256))
        assert step.removed == 1
        assert step.area_evaluations == 0
        assert tracker.tracked_count == 0
        assert step.removed_signals[0].last_area == float("inf")

    def test_fleet_short_slice_removed_with_inf_area(self):
        short = SignalSlice(
            data=np.ones(10), label=AnomalyType.NONE, slice_id="short"
        )
        fleet = FleetTracker()
        fleet.open_session("s", [SearchMatch(sig_slice=short, omega=0.9, offset=0)])
        step = fleet.step({"s": np.zeros(256)})["s"]
        assert step.removed == 1
        assert step.area_evaluations == 0
        assert step.removed_signals[0].last_area == float("inf")
        assert fleet.unique_slices == 0  # reference released on removal


class TestCompiledSliceWindows:
    def test_short_slice_compiles_to_none(self):
        assert compile_slice_windows(np.ones(10), 256, 4, 7.0) is None

    def test_raw_mode_windows_match_strided_view(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal(500)
        compiled = compile_slice_windows(data, 256, 4, None)
        assert compiled is not None
        expected = np.stack(
            [data[k * 4 : k * 4 + 256] for k in range(compiled.n_offsets)]
        )
        np.testing.assert_array_equal(compiled.windows, expected)
        assert not compiled.flat.any()


class TestPlaneEngineCache:
    """The plane engine compiles a slice once, whatever the steps and
    reloads, as long as some loaded set still tracks it."""

    def test_load_compiles_once(self):
        plane = FleetTrackingEngine(TrackerConfig())
        tracker = SignalTracker(TrackerConfig(engine="plane"), engine=plane)
        tracker.load(_random_matches(0, n=12))
        assert plane.fleet.cache_misses == 12
        assert plane.fleet.unique_slices == 12
        for frame in _frames(0, 3):
            tracker.step(frame)
        assert plane.fleet.cache_misses == 12  # steps never recompile

    def test_mass_removal_releases_every_slice(self):
        plane = FleetTrackingEngine(TrackerConfig(area_threshold=1e-6))
        tracker = SignalTracker(
            TrackerConfig(engine="plane", area_threshold=1e-6), engine=plane
        )
        tracker.load(_random_matches(1, n=10, short_every=0, flat_every=0))
        step = tracker.step(_frames(1, 1)[0])
        assert step.removed == 10
        assert plane.fleet.unique_slices == 0
        # Further steps on the emptied engine are harmless no-ops.
        empty = tracker.step(_frames(1, 2)[1])
        assert empty.tracked_before == 0
        assert empty.area_evaluations == 0

    def test_partial_removal_keeps_survivors_compiled(self):
        matches = _random_matches(2, n=8, short_every=0, flat_every=0)
        config = TrackerConfig(
            engine="plane", reference_rms=None, area_threshold=1e4
        )
        tracker = SignalTracker(config)
        plane = tracker.engine
        assert isinstance(plane, FleetTrackingEngine)
        tracker.load(matches)
        step = tracker.step(matches[0].sig_slice.data[:256])
        # The self-matching candidate survives with area exactly 0.
        assert tracker.tracked[0].sig_slice is matches[0].sig_slice
        assert tracker.tracked[0].last_area == 0.0
        assert step.removed + tracker.tracked_count == 8
        assert plane.fleet.unique_slices == tracker.tracked_count

    def test_reload_compiles_only_new_slices(self):
        matches = _random_matches(3, n=10, short_every=0, flat_every=0)
        config = TrackerConfig(engine="plane", area_threshold=1e9)
        tracker = SignalTracker(config)
        plane = tracker.engine
        assert isinstance(plane, FleetTrackingEngine)
        tracker.load(matches[:6])
        tracker.step(_frames(3, 1)[0])
        tracker.load(matches[3:])  # slices 3-5 overlap the old set
        assert plane.fleet.cache_misses == 6 + 4
        assert plane.fleet.cache_hits == 3
        assert plane.fleet.unique_slices == 7  # 0-2 released on reload
        step = tracker.step(_frames(3, 2)[1])
        assert step.iteration == 1
        assert step.tracked_before == 7


class TestEngineEquivalence:
    """Satellite: bit-identical TrackingStep sequences across engines."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        stride=st.sampled_from([1, 4, 7]),
        normalized=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_scalar_plane_fleet_identical(self, seed, stride, normalized):
        overrides = {
            "offset_stride": stride,
            "reference_rms": 7.0 if normalized else None,
            # Thresholds that actually exercise removal for each mode.
            "area_threshold": 900.0 if normalized else 1800.0,
        }
        matches = _random_matches(seed)
        frames = _frames(seed, 6)
        scalar = _run_tracker("scalar", matches, frames, **overrides)
        plane = _run_tracker("plane", matches, frames, **overrides)
        fleet = _run_fleet(matches, frames, **overrides)
        assert plane == scalar
        assert fleet == scalar

    def test_survivor_tracking_near_threshold(self):
        """Steps where most candidates survive (self-similar frames)."""
        matches = _random_matches(11, n=16, short_every=0)
        rng = np.random.default_rng(11)
        frames = [
            matches[int(rng.integers(0, len(matches)))].sig_slice.data[:256]
            + rng.standard_normal(256) * 2.0
            for _ in range(8)
        ]
        scalar = _run_tracker("scalar", matches, frames)
        plane = _run_tracker("plane", matches, frames)
        assert plane == scalar


class TestFleetMechanics:
    def test_shared_slices_compiled_once(self):
        matches = _random_matches(20, n=10, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        assert fleet.session_count == 2
        assert fleet.unique_slices == 10
        assert fleet.tracked_references == 20
        assert fleet.dedup_ratio == pytest.approx(2.0)
        assert fleet.cache_misses == 10
        assert fleet.cache_hits == 10
        # Shared bytes: the same compiled windows serve both sessions.
        single = FleetTracker()
        single.open_session("only", matches)
        assert fleet.compiled_bytes == single.compiled_bytes

    def test_close_session_releases_references(self):
        matches = _random_matches(21, n=6, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        fleet.close_session("a")
        assert fleet.unique_slices == 6  # still referenced by "b"
        fleet.close_session("b")
        assert fleet.unique_slices == 0
        assert fleet.session_count == 0

    def test_reopen_restarts_iterations(self):
        matches = _random_matches(22, n=4, short_every=0)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("a", matches)
        fleet.step({"a": np.zeros(256)})
        fleet.open_session("a", matches)
        step = fleet.step({"a": np.zeros(256)})["a"]
        assert step.iteration == 1
        assert fleet.unique_slices == 4  # no duplicate cache entries

    def test_unknown_session_rejected(self):
        fleet = FleetTracker()
        with pytest.raises(TrackingError, match="unknown fleet session"):
            fleet.step({"ghost": np.zeros(256)})
        with pytest.raises(TrackingError, match="unknown fleet session"):
            fleet.close_session("ghost")

    def test_bad_frame_rejected_before_any_session_steps(self):
        matches = _random_matches(23, n=4, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        with pytest.raises(TrackingError, match="256 samples"):
            fleet.step({"a": np.zeros(256), "b": np.zeros(13)})
        # Validation happens up front: session "a" did not advance.
        assert fleet.step({"a": np.zeros(256)})["a"].iteration == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected_before_any_session_steps(self, bad):
        matches = _random_matches(24, n=4, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        frame = np.zeros(256)
        frame[100] = bad
        with pytest.raises(TrackingError, match="non-finite"):
            fleet.step({"a": np.zeros(256), "b": frame})
        step = fleet.step({"a": np.zeros(256), "b": np.zeros(256)})
        assert step["a"].iteration == step["b"].iteration == 1
        assert fleet.tracked("b") == fleet.tracked("a")

    def test_absent_sessions_do_not_advance(self):
        matches = _random_matches(24, n=4, short_every=0)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        fleet.step({"a": np.zeros(256)})
        steps = fleet.step({"a": np.zeros(256), "b": np.zeros(256)})
        assert steps["a"].iteration == 2
        assert steps["b"].iteration == 1

    def test_reopen_same_slices_keeps_entries_warm(self):
        """Churn regression: drop-then-re-add of a session whose slice
        ids overlap the old set must reuse the compiled entries instead
        of evicting and recompiling them."""
        matches = _random_matches(26, n=6, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        assert fleet.cache_misses == 6
        fleet.open_session("a", matches)  # drop-then-re-add, same slices
        assert fleet.cache_misses == 6  # nothing recompiled
        assert fleet.cache_hits == 6
        assert fleet.unique_slices == 6
        assert fleet.tracked_references == 6  # no refcount drift either

    def test_stale_release_cannot_evict_a_reregistered_entry(self):
        """Underflow regression: a handle released after its session was
        already closed (refs == 0) must be a no-op — decrementing again
        would evict the entry a re-registered session still uses."""
        matches = _random_matches(27, n=4, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        stale = list(fleet._sessions["a"].entries)
        fleet.close_session("a")
        assert fleet.unique_slices == 0
        fleet.open_session("a", [matches[0]])
        # The stale handles' refs are 0; releasing them again must not
        # underflow or evict the freshly re-registered entry.
        for entry in stale:
            fleet._release(entry)
        assert fleet.unique_slices == 1
        assert fleet.tracked_references == 1
        # The re-registered session still steps cleanly.
        step = fleet.step({"a": np.zeros(256)})["a"]
        assert step.tracked_before == 1

    def test_churned_session_recompiles_cleanly_after_eviction(self):
        """Full churn cycle: open → close (evicts) → reopen must
        recompile from scratch and land on consistent counters."""
        matches = _random_matches(28, n=5, short_every=0)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("a", matches)
        fleet.close_session("a")
        assert fleet.unique_slices == 0
        fleet.open_session("a", matches)  # slices were evicted: recompile
        assert fleet.cache_misses == 10
        assert fleet.unique_slices == 5
        assert fleet.tracked_references == 5
        step = fleet.step({"a": np.zeros(256)})["a"]
        assert step.iteration == 1
        assert step.tracked_before == 5

    def test_empty_slice_id_not_shared_but_correct(self):
        rng = np.random.default_rng(25)
        data = rng.standard_normal(1000) * 7
        anon = SignalSlice(data=data, label=AnomalyType.NONE)  # slice_id=""
        matches = [
            SearchMatch(sig_slice=anon, omega=0.9, offset=0) for _ in range(3)
        ]
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("a", matches)
        assert fleet.unique_slices == 3  # compiled privately, not merged
        step = fleet.step({"a": rng.standard_normal(256) * 7})["a"]
        assert step.tracked_before == 3


class TestRuntimeIntegration:
    """Plane mode flows through the streaming monitor unchanged."""

    def test_streaming_monitor_identical_across_engines(self, mdb_slices):
        recording = EEGGenerator(seed=77).record(8.0)
        traces = {}
        for engine in ("scalar", "plane"):
            monitor = StreamingMonitor(
                CloudServer(mdb_slices),
                StreamingConfig(tracker=TrackerConfig(engine=engine)),
            )
            monitor.push(recording.data)
            traces[engine] = [
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
        assert traces["plane"] == traces["scalar"]

"""Tests for the compiled edge tracker and fleet batching.

Covers a one-session fleet's slice cache across reopens (the shape the
streaming monitor tracks on), the short-slice removal contract, and the
equivalence property: the scalar reference ``SignalTracker`` and the
fleet must produce bit-identical ``TrackingStep`` sequences — areas,
offsets, removals, evaluation counts and anomaly probabilities — over
random correlation sets, strides and both normalisation modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.results import SearchMatch
from repro.edge.fleet import FleetTracker, _query_matrix
from repro.edge.plane import compile_slice_windows
from repro.edge.tracker import SignalTracker, TrackerConfig
from repro.errors import TrackingError
from repro.signals.metrics import (
    normalized_query,
    normalized_sliding_windows,
    sliding_window_stats,
)
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


def _run_scalar(matches, frames, **overrides):
    tracker = SignalTracker(TrackerConfig(**overrides))
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
        # "scalar" is the only value; "plane" tracking is a FleetTracker.
        for engine in ("plane", "gpu"):
            with pytest.raises(TrackingError, match="unknown tracking engine"):
                TrackerConfig(engine=engine)


class TestShortSliceRemoval:
    """Satellite: short slices are retired with a *defined* last_area."""

    @pytest.mark.parametrize("engine", ["scalar", "plane"])
    def test_short_slice_removed_with_inf_area(self, engine):
        """``scalar`` is the reference tracker; ``plane`` is the fleet,
        which tracks on compiled slice windows."""
        short = SignalSlice(
            data=np.ones(10), label=AnomalyType.SEIZURE, slice_id="short"
        )
        matches = [SearchMatch(sig_slice=short, omega=0.9, offset=0)]
        frames = [np.zeros(256)]
        run = _run_scalar if engine == "scalar" else _run_fleet
        # Iteration 1 removes the one candidate without evaluating it.
        assert run(matches, frames) == [
            (1, 1, 1, 0, 0.0, (), (("short", float("inf")),))
        ]

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
        np.testing.assert_array_equal(compiled.rows(), expected)
        assert not compiled.flat.any()

    @pytest.mark.parametrize("stride", [1, 3, 4])
    @pytest.mark.parametrize("length", [256, 641, 1002])
    @pytest.mark.parametrize("reference_rms", [7.0, None])
    def test_rows_are_the_scalar_windows_bit_for_bit(
        self, stride, length, reference_rms
    ):
        """Rows rebuilt from the kept samples, means and scales are the
        windows the scalar path materialises, to the bit, flat offsets
        included; only the samples the rows read are kept."""
        rng = np.random.default_rng(stride * 1000 + length)
        data = rng.standard_normal(length) * 50.0 + 3.0
        data[:300] = 2.5  # a flat stretch: offset 0 has zero variance
        compiled = compile_slice_windows(data, 256, stride, reference_rms)
        assert compiled is not None
        stats = sliding_window_stats(data, 256, stride)
        if reference_rms is None:
            expected = np.ascontiguousarray(stats.windows)
            assert not compiled.flat.any()
        else:
            expected = normalized_sliding_windows(stats, reference_rms)
            np.testing.assert_array_equal(compiled.flat, stats.flat)
            assert compiled.flat[0]
        rows = compiled.rows()
        assert rows.shape == expected.shape
        np.testing.assert_array_equal(rows.view(np.uint64), expected.view(np.uint64))
        assert compiled.samples.size == (stats.n_offsets - 1) * stride + 256
        assert not compiled.samples.flags.writeable


class TestQueryMatrix:
    def test_rows_are_normalized_queries_bit_for_bit(self):
        """The step's query matrix is built at once; each row and worst
        area equal the per-frame ``normalized_query`` path's, flat and
        all-zero frames included."""
        rng = np.random.default_rng(3)
        frames = [
            rng.standard_normal(256) * 10.0 ** k + rng.standard_normal() * 100
            for k in range(-3, 4)
        ]
        frames += [np.full(256, 5.0), np.zeros(256)]
        matrix, worst = _query_matrix(frames, 256, 7.0)
        for row, frame in enumerate(frames):
            query = normalized_query(frame, 7.0)
            np.testing.assert_array_equal(
                matrix[row].view(np.uint64), query.view(np.uint64)
            )
            assert worst[row] == float(np.abs(query).sum())
        raw, raw_worst = _query_matrix(frames, 256, None)
        np.testing.assert_array_equal(raw, np.stack(frames))
        assert np.isinf(raw_worst).all()
        empty, empty_worst = _query_matrix([], 256, 7.0)
        assert empty.shape == (0, 256) and empty_worst.shape == (0,)


class TestPlaneEngineCache:
    """A one-session fleet — what the streaming monitor tracks on —
    compiles a slice once, whatever the steps and reopens, as long as
    some adopted set still tracks it."""

    def test_load_compiles_once(self):
        fleet = FleetTracker()
        fleet.open_session("s", _random_matches(0, n=12))
        assert fleet.cache_misses == 12
        assert fleet.unique_slices == 12
        for frame in _frames(0, 3):
            fleet.step({"s": frame})
        assert fleet.cache_misses == 12  # steps never recompile

    def test_mass_removal_releases_every_slice(self):
        fleet = FleetTracker(TrackerConfig(area_threshold=1e-6))
        fleet.open_session("s", _random_matches(1, n=10, short_every=0, flat_every=0))
        step = fleet.step({"s": _frames(1, 1)[0]})["s"]
        assert step.removed == 10
        assert fleet.unique_slices == 0
        # Further steps on the emptied session are harmless no-ops.
        empty = fleet.step({"s": _frames(1, 2)[1]})["s"]
        assert empty.tracked_before == 0
        assert empty.area_evaluations == 0

    def test_partial_removal_keeps_survivors_compiled(self):
        matches = _random_matches(2, n=8, short_every=0, flat_every=0)
        fleet = FleetTracker(TrackerConfig(reference_rms=None, area_threshold=1e4))
        fleet.open_session("s", matches)
        step = fleet.step({"s": matches[0].sig_slice.data[:256]})["s"]
        tracked = fleet.tracked("s")
        # The self-matching candidate survives with area exactly 0.
        assert tracked[0].sig_slice is matches[0].sig_slice
        assert tracked[0].last_area == 0.0
        assert step.removed + len(tracked) == 8
        assert fleet.unique_slices == len(tracked)

    def test_reload_compiles_only_new_slices(self):
        matches = _random_matches(3, n=10, short_every=0, flat_every=0)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("s", matches[:6])
        fleet.step({"s": _frames(3, 1)[0]})
        fleet.open_session("s", matches[3:])  # slices 3-5 overlap the old set
        assert fleet.cache_misses == 6 + 4
        assert fleet.cache_hits == 3
        assert fleet.unique_slices == 7  # 0-2 released on reopen
        step = fleet.step({"s": _frames(3, 2)[1]})["s"]
        assert step.iteration == 1
        assert step.tracked_before == 7


class TestEngineEquivalence:
    """Bit-identical TrackingStep sequences: scalar reference vs fleet."""

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
        scalar = _run_scalar(matches, frames, **overrides)
        assert _run_fleet(matches, frames, **overrides) == scalar

    def test_survivor_tracking_near_threshold(self):
        """Steps where most candidates survive (self-similar frames)."""
        matches = _random_matches(11, n=16, short_every=0)
        rng = np.random.default_rng(11)
        frames = [
            matches[int(rng.integers(0, len(matches)))].sig_slice.data[:256]
            + rng.standard_normal(256) * 2.0
            for _ in range(8)
        ]
        assert _run_fleet(matches, frames) == _run_scalar(matches, frames)


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

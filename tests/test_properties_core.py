"""Property-based invariants across the core pipeline.

These pin down the contracts the whole framework rests on, under
randomised inputs: search admission/ordering, skip-policy behaviour,
tracker monotonicity, probability bounds, and ingest bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.results import SearchMatch, SearchResult
from repro.cloud.search import (
    ExhaustiveSearch,
    ExponentialSkipPolicy,
    SearchConfig,
    SlidingWindowSearch,
)
from repro.cloud.shards import ShardedSearchPlane
from repro.edge.predictor import AnomalyPredictor
from repro.edge.tracker import SignalTracker, TrackerConfig
from repro.signals.slicing import count_slices
from repro.signals.types import AnomalyType, SignalSlice

slice_data = st.integers(min_value=300, max_value=900).flatmap(
    lambda n: st.builds(
        lambda seed: np.random.default_rng(seed).standard_normal(n) * 20.0,
        st.integers(min_value=0, max_value=10_000),
    )
)


def make_slices(seeds, labels):
    rng_labels = [AnomalyType.SEIZURE if flag else AnomalyType.NONE for flag in labels]
    return [
        SignalSlice(
            data=np.random.default_rng(seed).standard_normal(600) * 25.0,
            label=label,
            slice_id=f"p{index}",
        )
        for index, (seed, label) in enumerate(zip(seeds, rng_labels))
    ]


class TestSearchInvariants:
    @given(
        seeds=st.lists(st.integers(0, 9999), min_size=2, max_size=12, unique=True),
        flags=st.lists(st.booleans(), min_size=2, max_size=12),
        delta=st.sampled_from([0.0, 0.3, 0.6, 0.8]),
        frame_seed=st.integers(0, 9999),
    )
    @settings(max_examples=30, deadline=None)
    def test_admission_ordering_dedupe(self, seeds, flags, delta, frame_seed):
        slices = make_slices(seeds, (flags * 12)[: len(seeds)])
        frame = np.random.default_rng(frame_seed).standard_normal(256) * 25.0
        config = SearchConfig(delta=delta, top_k=8)
        result = SlidingWindowSearch(config).search(frame, ShardedSearchPlane(slices))
        omegas = [m.omega for m in result.matches]
        # Admission: every match clears delta; clamped non-negative.
        assert all(omega > delta for omega in omegas)
        assert all(0.0 <= omega <= 1.0 for omega in omegas)
        # Ordering: descending; capped at top_k.
        assert omegas == sorted(omegas, reverse=True)
        assert len(omegas) <= 8
        # Dedupe: one match per slice.
        ids = [m.sig_slice.slice_id for m in result.matches]
        assert len(set(ids)) == len(ids)

    @given(
        seeds=st.lists(st.integers(0, 9999), min_size=3, max_size=10, unique=True),
        frame_seed=st.integers(0, 9999),
    )
    @settings(max_examples=20, deadline=None)
    def test_algorithm1_never_beats_exhaustive(self, seeds, frame_seed):
        slices = make_slices(seeds, [False] * len(seeds))
        frame = np.random.default_rng(frame_seed).standard_normal(256) * 25.0
        config = SearchConfig(delta=0.0, top_k=5)
        plane = ShardedSearchPlane(slices)
        exhaustive = ExhaustiveSearch(config).search(frame, plane)
        algorithm1 = SlidingWindowSearch(config).search(frame, plane)
        assert (
            algorithm1.correlations_evaluated <= exhaustive.correlations_evaluated
        )
        if exhaustive.matches and algorithm1.matches:
            assert exhaustive.matches[0].omega >= algorithm1.matches[0].omega - 1e-12

    @given(
        omegas=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=30
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_skip_policy_monotone_in_omega(self, omegas):
        policy = ExponentialSkipPolicy()
        ordered = sorted(omegas)
        skips = [policy.skip(omega) for omega in ordered]
        # Higher correlation never yields a larger skip.
        assert all(a >= b for a, b in zip(skips, skips[1:]))


class TestTrackerInvariants:
    @given(
        seeds=st.lists(st.integers(0, 9999), min_size=1, max_size=10, unique=True),
        flags=st.lists(st.booleans(), min_size=10, max_size=10),
        frame_seed=st.integers(0, 9999),
        steps=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_tracked_set_never_grows(self, seeds, flags, frame_seed, steps):
        slices = make_slices(seeds, flags[: len(seeds)])
        matches = [
            SearchMatch(sig_slice=sig_slice, omega=0.9, offset=0)
            for sig_slice in slices
        ]
        tracker = SignalTracker(TrackerConfig())
        tracker.load(SearchResult(matches=matches))
        rng = np.random.default_rng(frame_seed)
        previous = tracker.tracked_count
        for _ in range(steps):
            step = tracker.step(rng.standard_normal(256) * 25.0)
            assert step.tracked_after <= previous
            assert step.tracked_after == step.tracked_before - step.removed
            assert 0.0 <= step.anomaly_probability <= 1.0
            previous = step.tracked_after
        # Composition bookkeeping stays consistent.
        assert tracker.anomalous_count <= tracker.tracked_count

    @given(probabilities=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_predictor_never_crashes_and_ema_bounded(self, probabilities):
        predictor = AnomalyPredictor()
        for probability in probabilities:
            predictor.observe(probability, support=50)
            assert 0.0 <= predictor.ema <= 1.0
            assert predictor.predict() in (True, False)


class TestSlicingInvariants:
    @given(
        total=st.integers(min_value=1000, max_value=50_000),
        stride=st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=50, deadline=None)
    def test_slice_count_monotone_in_length(self, total, stride):
        shorter = count_slices(total, 1000, stride)
        longer = count_slices(total + stride, 1000, stride)
        assert longer >= shorter
        assert longer - shorter <= 1


class TestEndToEndProbability:
    def test_pa_equals_composition_after_each_step(self, mdb_slices):
        from repro.eval.experiments.common import filtered_frame
        from repro.signals.generator import EEGGenerator

        frame_source = EEGGenerator(seed=606).record(8.0)
        search = SlidingWindowSearch(SearchConfig(delta=0.3))
        tracker = SignalTracker()
        tracker.load(
            search.search(
                filtered_frame(frame_source, 1), ShardedSearchPlane(mdb_slices)
            )
        )
        for second in range(2, 7):
            step = tracker.step(filtered_frame(frame_source, second))
            if tracker.tracked_count:
                expected = tracker.anomalous_count / tracker.tracked_count
                assert step.anomaly_probability == pytest.approx(expected)

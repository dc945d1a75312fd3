"""Unit + property tests for the cloud search engines (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.results import SearchMatch, SearchResult
from repro.cloud.search import (
    ExhaustiveSearch,
    ExponentialSkipPolicy,
    FixedSkipPolicy,
    SearchConfig,
    SlidingWindowSearch,
)
from repro.cloud.shards import ShardedSearchPlane
from repro.errors import SearchError
from repro.eval.experiments.common import filtered_frame
from repro.signals.types import AnomalyType, SignalSlice


def make_slice(data, label=AnomalyType.NONE, slice_id="s"):
    return SignalSlice(data=np.asarray(data, dtype=float), label=label, slice_id=slice_id)


@pytest.fixture(scope="module")
def query_frame(seizure_recording):
    return filtered_frame(seizure_recording, 84)  # ictal window


@pytest.fixture(scope="module")
def mdb_plane(mdb_slices):
    return ShardedSearchPlane(mdb_slices)


class TestSearchConfig:
    def test_paper_defaults(self):
        config = SearchConfig()
        assert config.delta == 0.8
        assert config.alpha == 0.004
        assert config.top_k == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 1.5},
            {"alpha": 0.0},
            {"skip_scale": -1.0},
            {"omega_floor": 0.0},
            {"max_skip": 0},
            {"top_k": 0},
            {"frame_samples": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SearchError):
            SearchConfig(**kwargs)


class TestSkipPolicies:
    def test_fixed(self):
        assert FixedSkipPolicy(3).skip(0.99) == 3
        with pytest.raises(SearchError):
            FixedSkipPolicy(0)

    def test_exponential_inverse_to_omega(self):
        policy = ExponentialSkipPolicy(alpha=0.004, skip_scale=135.0)
        assert policy.skip(0.9) < policy.skip(0.2) <= policy.skip(0.05)

    def test_exponential_clamped(self):
        policy = ExponentialSkipPolicy(alpha=0.004, skip_scale=135.0, max_skip=10)
        assert policy.skip(0.0001) == 10
        assert policy.skip(1.0) >= 1

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_skip_always_positive_and_bounded(self, omega):
        policy = ExponentialSkipPolicy()
        assert 1 <= policy.skip(omega) <= policy.max_skip


class TestSearchEngines:
    def test_finds_embedded_window(self):
        rng = np.random.default_rng(0)
        frame = rng.standard_normal(256)
        background = rng.standard_normal(1000) * 0.2
        planted = background.copy()
        planted[300:556] = 4.0 * frame + 2.0
        slices = [
            make_slice(background, slice_id="noise"),
            make_slice(planted, AnomalyType.SEIZURE, slice_id="planted"),
        ]
        result = ExhaustiveSearch(SearchConfig()).search(frame, slices)
        assert result.matches
        top = result.matches[0]
        assert top.sig_slice.slice_id == "planted"
        assert top.offset == 300
        assert top.omega == pytest.approx(1.0, abs=1e-6)

    def test_exhaustive_evaluates_every_offset(self):
        rng = np.random.default_rng(1)
        slices = [make_slice(rng.standard_normal(1000))]
        result = ExhaustiveSearch(SearchConfig()).search(rng.standard_normal(256), slices)
        assert result.correlations_evaluated == 745

    def test_algorithm1_evaluates_fewer(self, mdb_plane, query_frame):
        exhaustive = ExhaustiveSearch(SearchConfig()).search(query_frame, mdb_plane)
        algorithm1 = SlidingWindowSearch(SearchConfig()).search(query_frame, mdb_plane)
        assert algorithm1.correlations_evaluated < exhaustive.correlations_evaluated
        ratio = exhaustive.correlations_evaluated / algorithm1.correlations_evaluated
        assert 3.0 < ratio < 20.0  # paper: ~6.8x

    def test_precompute_keyword_is_a_leftover(self):
        SlidingWindowSearch(SearchConfig(), precompute=False)
        with pytest.raises(SearchError, match="ShardedSearchPlane"):
            SlidingWindowSearch(SearchConfig(), precompute=True)

    def test_matches_sorted_descending(self, mdb_plane, query_frame):
        result = SlidingWindowSearch(SearchConfig()).search(query_frame, mdb_plane)
        omegas = [match.omega for match in result.matches]
        assert omegas == sorted(omegas, reverse=True)

    def test_all_matches_above_delta(self, mdb_plane, query_frame):
        config = SearchConfig(delta=0.8)
        result = SlidingWindowSearch(config).search(query_frame, mdb_plane)
        assert all(match.omega > 0.8 for match in result.matches)

    def test_top_k_respected(self, mdb_plane, query_frame):
        config = SearchConfig(delta=0.1, top_k=7)
        result = ExhaustiveSearch(config).search(query_frame, mdb_plane)
        assert len(result.matches) == 7

    def test_dedupe_per_slice(self, mdb_plane, query_frame):
        config = SearchConfig(delta=0.1, top_k=50)
        result = ExhaustiveSearch(config).search(query_frame, mdb_plane)
        ids = [match.sig_slice.slice_id for match in result.matches]
        assert len(set(ids)) == len(ids)

    def test_no_dedupe_allows_repeats(self):
        rng = np.random.default_rng(2)
        frame = rng.standard_normal(256)
        series = np.tile(frame, 4)[:1000]
        config = SearchConfig(delta=0.5, top_k=10, dedupe_per_slice=False)
        result = ExhaustiveSearch(config).search(frame, [make_slice(series)])
        assert len(result.matches) > 1

    def test_skips_short_slices(self):
        frame = np.random.default_rng(3).standard_normal(256)
        result = ExhaustiveSearch(SearchConfig()).search(
            frame, [make_slice(np.ones(100))]
        )
        assert result.slices_searched == 1
        assert result.correlations_evaluated == 0

    def test_rejects_bad_frame(self, mdb_slices):
        with pytest.raises(SearchError, match="must have 256"):
            ExhaustiveSearch(SearchConfig()).search(np.ones(100), mdb_slices)

    def test_omega_clamped_non_negative(self, mdb_slices, query_frame):
        result = ExhaustiveSearch(SearchConfig(delta=0.0, top_k=10_000)).search(
            query_frame, ShardedSearchPlane(mdb_slices[:30])
        )
        assert all(match.omega >= 0.0 for match in result.matches)


class TestSearchResult:
    def _match(self, label, omega=0.9):
        return SearchMatch(
            sig_slice=make_slice(np.ones(300), label), omega=omega, offset=0
        )

    def test_anomaly_probability(self):
        result = SearchResult(
            matches=[
                self._match(AnomalyType.SEIZURE),
                self._match(AnomalyType.NONE),
                self._match(AnomalyType.NONE),
                self._match(AnomalyType.STROKE),
            ]
        )
        assert result.anomaly_probability == pytest.approx(0.5)
        assert result.anomalous_count == 2

    def test_empty_probability_zero(self):
        assert SearchResult().anomaly_probability == 0.0

    def test_mean_and_min_omega(self):
        result = SearchResult(
            matches=[self._match(AnomalyType.NONE, 0.9), self._match(AnomalyType.NONE, 0.7)]
        )
        assert result.mean_omega == pytest.approx(0.8)
        assert result.min_omega == pytest.approx(0.7)

    def test_match_validation(self):
        with pytest.raises(SearchError, match="offset"):
            SearchMatch(sig_slice=make_slice(np.ones(10)), omega=0.5, offset=-1)
        with pytest.raises(SearchError, match="ω"):
            SearchMatch(sig_slice=make_slice(np.ones(10)), omega=2.0, offset=0)

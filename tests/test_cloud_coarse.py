"""Tests for the coarse screening pass of the two-stage plane search.

Covers fast-mode determinism and keep-count rules, coarse-cache
accounting and generation-driven invalidation (a document inserted
mid-run must never be screened against stale coarse summaries), and
the config surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.coarse import CoarseIndex, _segment_max
from repro.cloud.plane import PlaneCore
from repro.cloud.search import ExhaustiveSearch, SearchConfig
from repro.cloud.shards import ShardedSearchPlane
from repro.errors import SearchError
from repro.mdb.mdb import MegaDatabase
from repro.mdb.schema import slice_to_document
from repro.signals.types import AnomalyType, SignalSlice


def _random_slices(seed: int, n: int = 12, min_len: int = 150, max_len: int = 900):
    rng = np.random.default_rng(seed)
    slices = []
    for index in range(n):
        length = int(rng.integers(min_len, max_len))
        label = AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE
        slices.append(
            SignalSlice(
                data=rng.standard_normal(length),
                label=label,
                slice_id=f"c{seed}-{index}",
            )
        )
    return slices


def _centered(frame: np.ndarray) -> tuple[np.ndarray, float]:
    centered = frame - frame.mean()
    return centered, float(np.linalg.norm(centered))


def _core(slices: list[SignalSlice]) -> PlaneCore:
    """The single compiled core of a one-shard plane over ``slices``."""
    plane = ShardedSearchPlane(slices, shard_slices=len(slices))
    return plane.pin().shards[0].core


class TestSegmentMax:
    def test_empty_segments_yield_neg_inf(self):
        values = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        bounds = np.array([0, 2, 2, 4, 5])
        out = _segment_max(values, bounds)
        np.testing.assert_array_equal(out, [3.0, -np.inf, 5.0, 4.0])

    def test_all_empty(self):
        out = _segment_max(np.zeros(0), np.array([0, 0, 0]))
        np.testing.assert_array_equal(out, [-np.inf, -np.inf])


class TestFastScreen:
    def test_deterministic_and_floor_respected(self):
        index = _core(_random_slices(8, n=20, min_len=300)).ensure_coarse(256, 8)
        frame = np.random.default_rng(80).standard_normal(256)
        centered, norm = _centered(frame)
        first = index.screen_fast(centered, norm, keep_fraction=0.3, min_keep=2)
        second = index.screen_fast(centered, norm, keep_fraction=0.3, min_keep=2)
        np.testing.assert_array_equal(first.keep, second.keep)
        assert first.keep.sum() == max(2, int(np.ceil(0.3 * 20)))

    def test_min_keep_wins_over_tiny_fraction(self):
        index = _core(_random_slices(9, n=10, min_len=300)).ensure_coarse(256, 8)
        centered, norm = _centered(
            np.random.default_rng(90).standard_normal(256)
        )
        outcome = index.screen_fast(
            centered, norm, keep_fraction=0.01, min_keep=7
        )
        assert outcome.keep.sum() == 7

    def test_full_fraction_keeps_all(self):
        index = _core(_random_slices(10, n=5, min_len=300)).ensure_coarse(256, 8)
        centered, norm = _centered(
            np.random.default_rng(100).standard_normal(256)
        )
        outcome = index.screen_fast(
            centered, norm, keep_fraction=1.0, min_keep=1
        )
        assert outcome.keep.all()

    def test_chunked_verdict_matches_whole_plane(self):
        """apply() over any partition reproduces the global decision."""
        index = _core(_random_slices(11, n=16, min_len=300)).ensure_coarse(256, 8)
        centered, norm = _centered(
            np.random.default_rng(110).standard_normal(256)
        )
        outcome = index.screen_fast(
            centered, norm, keep_fraction=0.25, min_keep=2
        )
        whole, _ = outcome.apply(range(16))
        parts = [outcome.apply(range(0, 7))[0], outcome.apply(range(7, 16))[0]]
        np.testing.assert_array_equal(whole, np.concatenate(parts))


class TestCoarseCacheLifecycle:
    def test_hit_miss_accounting(self):
        core = _core(_random_slices(12, n=5, min_len=300))
        assert core.coarse_cache_misses == 0
        core.ensure_coarse(256, 8)
        core.ensure_coarse(256, 8)
        core.ensure_coarse(128, 8)
        assert core.coarse_cache_misses == 2
        assert core.coarse_cache_hits == 1

    def test_mid_run_insert_invalidates_coarse_cache(self):
        """Satellite: a document inserted mid-run must be screened
        against fresh coarse summaries, never stale ones."""
        from repro.cloud.server import CloudServer

        slices = _random_slices(13, n=10, min_len=1000, max_len=1001)
        # A smooth pattern survives the block-sum projection, so the
        # coarse phase-0 score ranks the planted slice first — but only
        # once the coarse cache actually contains it.
        frame = np.sin(np.linspace(0.0, 6.0 * np.pi, 256)) + (
            0.05 * np.random.default_rng(13_000).standard_normal(256)
        )
        planted_data = np.random.default_rng(131).standard_normal(1000) * 0.1
        planted_data[104:360] = 3.0 * frame + 1.0  # phase-0 offset
        planted = SignalSlice(
            data=planted_data, label=AnomalyType.SEIZURE, slice_id="planted"
        )
        mdb = MegaDatabase()
        for sig_slice in slices:
            mdb.insert_document(
                slice_to_document(sig_slice, dataset="test", channel="Fp1")
            )
        server = CloudServer(
            mdb,
            search=ExhaustiveSearch(
                SearchConfig(two_stage="fast", coarse_keep_fraction=0.2,
                             top_k=3),
                precompute=True,
            ),
        )
        before, _ = server.handle_frame(frame)
        # All 10 slices fit in the default-sized single shard; its core
        # owns the coarse cache under test.
        stale_shard = server.plane.pin().shards[0]
        assert stale_shard.core.coarse_cache_misses == 1
        assert all(m.sig_slice.slice_id != "planted" for m in before.matches)
        mdb.insert_document(
            slice_to_document(planted, dataset="test", channel="Fp1")
        )
        after, _ = server.handle_frame(frame)
        fresh_shard = server.plane.pin().shards[0]
        # The insert changed the shard's content address, so the delta
        # refresh recompiled it — dropping the shard-local coarse cache
        # with it; the new screen covers all 11 slices.
        assert fresh_shard is not stale_shard
        assert fresh_shard.core.coarse_cache_misses == 1
        assert fresh_shard.core.ensure_coarse(256, 8).n_slices == 11
        assert after.matches
        assert after.matches[0].sig_slice.slice_id == "planted"
        assert after.matches[0].offset == 104


class TestConfigSurface:
    def test_rejects_unknown_mode(self):
        for mode in ("turbo", "lossless"):
            with pytest.raises(SearchError, match="two_stage"):
                SearchConfig(two_stage=mode)

    @pytest.mark.parametrize("decimation", [1, 0, 257])
    def test_rejects_bad_decimation_when_enabled(self, decimation):
        with pytest.raises(SearchError, match="decimation"):
            SearchConfig(
                two_stage="fast",
                frame_samples=256,
                coarse_decimation=decimation,
            )

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_rejects_bad_keep_fraction_when_enabled(self, fraction):
        with pytest.raises(SearchError, match="keep fraction"):
            SearchConfig(two_stage="fast", coarse_keep_fraction=fraction)

    def test_off_mode_ignores_coarse_knobs(self):
        SearchConfig(two_stage="off", coarse_decimation=1)

    def test_coarse_index_rejects_bad_decimation(self):
        core = _core(_random_slices(14, n=3, min_len=300))
        norms = core.ensure_norms(256)
        with pytest.raises(SearchError, match="decimation"):
            CoarseIndex(core, norms, 256, 1)
        with pytest.raises(SearchError, match="exceeds"):
            CoarseIndex(core, norms, 256, 300)

    def test_nbytes_reported(self):
        index = _core(_random_slices(15, n=4, min_len=300)).ensure_coarse(256, 8)
        assert index.nbytes > 0

"""Tests for the compiled search plane and its serving paths.

Covers the plane's memory layout and caches (one-shard planes expose
their single :class:`PlaneCore`), CloudServer freshness
(generation-driven refresh) and non-finite frame rejection.  That the
compiled walk equals the scalar reference is the differential suite's
job (``tests/test_cloud_differential.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.plane import PlaneCore
from repro.cloud.search import ExhaustiveSearch, SearchConfig
from repro.cloud.server import CloudServer
from repro.cloud.shards import ShardedSearchPlane
from repro.errors import SearchError
from repro.mdb.mdb import MegaDatabase
from repro.mdb.schema import slice_to_document
from repro.signals.types import AnomalyType, SignalSlice


def _random_slices(seed: int, n: int = 24, min_len: int = 200, max_len: int = 1400):
    """A deterministic variable-length signal-set list."""
    rng = np.random.default_rng(seed)
    slices = []
    for index in range(n):
        length = int(rng.integers(min_len, max_len))
        label = AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE
        slices.append(
            SignalSlice(
                data=rng.standard_normal(length),
                label=label,
                slice_id=f"r{seed}-{index}",
            )
        )
    return slices


def _query(seed: int, samples: int = 256) -> np.ndarray:
    return np.random.default_rng(seed + 10_000).standard_normal(samples)


def _one_shard(slices, **kwargs) -> ShardedSearchPlane:
    """The monolithic layout: every slice in one compiled core."""
    return ShardedSearchPlane(slices, shard_slices=len(slices), **kwargs)


def _core(plane: ShardedSearchPlane) -> PlaneCore:
    return plane.pin().shards[0].core


def _mdb_from(slices) -> MegaDatabase:
    mdb = MegaDatabase()
    for sig_slice in slices:
        mdb.insert_document(
            slice_to_document(sig_slice, dataset="test", channel="Fp1")
        )
    return mdb


class TestSearchPlane:
    def test_layout_matches_sources(self):
        slices = _random_slices(0, n=10)
        plane = _one_shard(slices)
        core = _core(plane)
        assert plane.n_slices == core.n_slices == 10
        assert plane.n_samples == sum(len(s) for s in slices)
        for index, sig_slice in enumerate(slices):
            np.testing.assert_array_equal(
                core.slice_data(index), sig_slice.data
            )

    def test_rejects_empty(self):
        with pytest.raises(SearchError, match="empty"):
            ShardedSearchPlane([])

    def test_norm_cache_hit_miss_accounting(self):
        core = _core(_one_shard(_random_slices(2, n=6)))
        assert core.cache_misses == 0
        core.ensure_norms(256)
        core.ensure_norms(256)
        core.ensure_norms(128)
        assert core.cache_misses == 2
        assert core.cache_hits == 1

    def test_refresh_tracks_mdb_generation(self):
        slices = _random_slices(4, n=8)
        mdb = _mdb_from(slices[:5])
        plane = ShardedSearchPlane(mdb, shard_slices=3)
        generation = plane.generation
        assert plane.refresh() is False
        assert plane.generation == generation
        for sig_slice in slices[5:]:
            mdb.insert_document(
                slice_to_document(sig_slice, dataset="test", channel="Fp1")
            )
        assert plane.refresh() is True
        assert plane.generation == generation + 1
        assert plane.n_slices == 8

    def test_static_plane_never_refreshes(self):
        plane = _one_shard(_random_slices(5, n=4))
        assert plane.refresh() is False


class TestCloudServerRefresh:
    def test_post_insert_frames_search_new_slices(self):
        """A frame arriving after an MDB insert must see the new slices."""
        slices = _random_slices(8, n=12, min_len=1000, max_len=1001)
        frame = _query(8)
        # Plant a perfect match in a slice inserted only *after* the
        # server is built.
        planted_data = np.random.default_rng(88).standard_normal(1000) * 0.1
        planted_data[100:356] = 3.0 * frame + 1.0
        planted = SignalSlice(
            data=planted_data, label=AnomalyType.SEIZURE, slice_id="planted"
        )
        mdb = _mdb_from(slices)
        server = CloudServer(mdb, search=ExhaustiveSearch(SearchConfig()))
        before, _ = server.handle_frame(frame)
        assert server.n_slices == 12
        assert all(m.sig_slice.slice_id != "planted" for m in before.matches)
        mdb.insert_document(
            slice_to_document(planted, dataset="test", channel="Fp1")
        )
        after, _ = server.handle_frame(frame)
        assert server.n_slices == 13
        assert after.matches
        assert after.matches[0].sig_slice.slice_id == "planted"
        assert after.matches[0].offset == 100

    def test_explicit_refresh_reports_change(self):
        slices = _random_slices(9, n=6)
        mdb = _mdb_from(slices[:4])
        server = CloudServer(mdb)
        assert server.refresh() is False
        mdb.insert_document(
            slice_to_document(slices[4], dataset="test", channel="Fp1")
        )
        assert server.refresh() is True
        assert server.n_slices == 5


class TestNonFiniteFrames:
    """A corrupt frame fails with a typed :class:`SearchError` on every
    serving path — never an ``IndexError`` out of the skip tables."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_handle_frame_rejects(self, bad):
        frame = _query(12)
        frame[40] = bad
        server = CloudServer(_random_slices(12, n=6))
        with pytest.raises(SearchError, match="non-finite"):
            server.handle_frame(frame)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_handle_batch_rejects(self, bad):
        frames = [_query(13), _query(14)]
        frames[1][7] = bad
        server = CloudServer(_random_slices(13, n=6))
        with pytest.raises(SearchError, match="non-finite"):
            server.handle_batch(frames)
        # The server stays usable for clean frames.
        clean, _ = server.handle_frame(frames[0])
        assert clean.slices_searched == 6

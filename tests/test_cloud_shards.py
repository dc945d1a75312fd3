"""Shard-width invariance and lifecycle tests for the sharded MDB plane.

Search is checked against the scalar reference engines in
``tests/test_cloud_differential.py``.  Here it is also held to
**shard-width invariance** at a small top-K, where the merge decides
what survives: scattering a query across independently compiled shards
and merging their hits must equal searching the one-shard (monolithic)
layout of the same slices — same matches, same admission order, same
statistics — for single and batched searches.  The rest of the file
covers shard layout, delta compilation and epoch pinning.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.search import (
    ExhaustiveSearch,
    SearchConfig,
    SlidingWindowSearch,
)
from repro.cloud import shards as shards_module
from repro.cloud.shards import ShardedSearchPlane, shard_id_for
from repro.errors import SearchError
from repro.mdb.mdb import MegaDatabase
from repro.mdb.schema import slice_to_document
from repro.signals.types import AnomalyType, SignalSlice


def _random_slices(seed, n=12, min_len=150, max_len=700):
    rng = np.random.default_rng(seed)
    return [
        SignalSlice(
            data=rng.standard_normal(int(rng.integers(min_len, max_len))),
            label=AnomalyType.SEIZURE if i % 3 == 0 else AnomalyType.NONE,
            slice_id=f"r{seed}-{i}",
        )
        for i in range(n)
    ]


def _query(seed, samples=256):
    return np.random.default_rng(seed + 10_000).standard_normal(samples)


def _mdb_from(slices):
    mdb = MegaDatabase()
    for sig_slice in slices:
        mdb.insert_document(
            slice_to_document(sig_slice, dataset="test", channel="Fp1")
        )
    return mdb


def _key(result):
    return sorted(
        (m.sig_slice.slice_id, round(m.omega, 12), m.offset)
        for m in result.matches
    )


def _one_shard(slices):
    return ShardedSearchPlane(slices, shard_slices=len(slices))


def _assert_identical(sharded_result, mono_result):
    assert _key(sharded_result) == _key(mono_result)
    assert (
        sharded_result.correlations_evaluated
        == mono_result.correlations_evaluated
    )
    assert (
        sharded_result.candidates_above_threshold
        == mono_result.candidates_above_threshold
    )
    assert sharded_result.slices_searched == mono_result.slices_searched
    assert sharded_result.heap_admissions == mono_result.heap_admissions


#: A small top-K so the merge really drops hits on the test-sized planes.
SMALL_TOP = SearchConfig(top_k=3)


class TestBitIdentity:
    @given(
        seed=st.integers(0, 10_000),
        shard_slices=st.integers(1, 6),
        split=st.integers(1, 15),
        samples=st.sampled_from([128, 256, 384]),
    )
    @settings(max_examples=12, deadline=None)
    def test_sharded_equals_monolithic_after_inserts(
        self, seed, shard_slices, split, samples
    ):
        """Grow an MDB after the initial compile, delta-refresh, and
        demand bit-identity with a from-scratch one-shard plane."""
        slices = _random_slices(seed, n=16)
        mdb = _mdb_from(slices[:split])
        sharded = ShardedSearchPlane(mdb, shard_slices=shard_slices)
        for sig_slice in slices[split:]:
            mdb.insert_document(
                slice_to_document(sig_slice, dataset="test", channel="Fp1")
            )
        if split < len(slices):
            assert sharded.refresh()
        engine = SlidingWindowSearch(SearchConfig(frame_samples=samples, top_k=3))
        frame = _query(seed, samples)
        mono = engine.search(frame, _one_shard(slices))
        _assert_identical(engine.search(frame, sharded), mono)

    @given(seed=st.integers(0, 10_000), shard_slices=st.integers(1, 5))
    @settings(max_examples=8, deadline=None)
    def test_batch_path_equals_monolithic(self, seed, shard_slices):
        """Batch equals single search on the one-shard plane."""
        slices = _random_slices(seed, n=10)
        sharded = ShardedSearchPlane(slices, shard_slices=shard_slices)
        engine = SlidingWindowSearch(SMALL_TOP)
        frames = [_query(seed + i) for i in range(3)]
        batch = engine.search_batch(frames, sharded)
        mono_plane = _one_shard(slices)
        for frame, got in zip(frames, batch):
            _assert_identical(got, engine.search(frame, mono_plane))

    def test_exhaustive_engine_matches(self):
        slices = _random_slices(21, n=9)
        sharded = ShardedSearchPlane(slices, shard_slices=4)
        engine = ExhaustiveSearch(SMALL_TOP)
        frame = _query(21)
        _assert_identical(
            engine.search(frame, sharded),
            engine.search(frame, _one_shard(slices)),
        )


class TestShardLayout:
    def test_grouping_and_bases(self):
        plane = ShardedSearchPlane(
            _random_slices(3, n=10, max_len=300), shard_slices=4
        )
        epoch = plane.pin()
        assert [shard.n_slices for shard in epoch.shards] == [4, 4, 2]
        assert epoch.bases == (0, 4, 8)
        assert plane.n_shards == 3
        assert plane.n_slices == len(plane) == 10
        assert plane.registry_size == 3

    def test_rejects_bad_shard_width(self):
        with pytest.raises(SearchError, match="shard_slices"):
            ShardedSearchPlane(_random_slices(3, n=2), shard_slices=0)

    def test_rejects_empty_store(self):
        with pytest.raises(SearchError, match="empty"):
            ShardedSearchPlane([])

    def test_anonymous_slices_are_not_content_addressed(self):
        anon = [
            SignalSlice(
                data=np.random.default_rng(i).standard_normal(200),
                label=AnomalyType.NONE,
                slice_id="",
            )
            for i in range(2)
        ]
        assert shard_id_for(anon) is None
        plane = ShardedSearchPlane(
            _random_slices(4, n=4, max_len=300) + anon, shard_slices=4
        )
        # The all-named shard registers; the anonymous one cannot.
        assert plane.n_shards == 2
        assert plane.registry_size == 1
        assert plane.pin().shards[1].shard_id is None

    def test_duplicate_content_shards_share_one_core(self):
        base = _random_slices(9, n=4, min_len=260, max_len=300)
        twins = [
            SignalSlice(
                data=s.data.copy(), label=s.label, slice_id=s.slice_id
            )
            for s in base
        ]
        plane = ShardedSearchPlane(base + twins, shard_slices=4)
        epoch = plane.pin()
        # Same digest: the repeat shares the compiled core but keeps
        # its own slices, so each hit names the slice at its position.
        first, second = epoch.shards
        assert second.core is first.core
        assert second.slices == tuple(twins)
        assert all(mine is twin for mine, twin in zip(second.slices, twins))
        assert second.shard_id == first.shard_id
        assert plane.registry_size == 1
        assert (plane.last_refresh_compiled, plane.last_refresh_reused) == (1, 1)
        assert epoch.nbytes == first.core.nbytes
        engine = SlidingWindowSearch(SearchConfig())
        frame = base[0].data[:256].copy()
        result = engine.search(frame, plane)
        _assert_identical(result, engine.search(frame, _one_shard(base + twins)))
        _assert_identical(
            result, SlidingWindowSearch(SearchConfig()).search(frame, base + twins)
        )
        matched = {id(m.sig_slice) for m in result.matches}
        assert id(base[0]) in matched and id(twins[0]) in matched


class TestIncrementalCompile:
    @pytest.mark.parametrize("n_inserts", [1, 4])
    def test_append_recompiles_only_the_trailing_shard(self, n_inserts):
        """Each one-record insert compiles exactly the trailing shard and
        reuses every other, however many inserts come in a row."""
        slices = _random_slices(5, n=8, max_len=300)
        mdb = _mdb_from(slices)
        plane = ShardedSearchPlane(mdb, shard_slices=4)
        assert plane.last_refresh_compiled == 2
        assert plane.last_refresh_reused == 0
        first_epoch = plane.pin()
        for index, inserted in enumerate(
            _random_slices(77, n=n_inserts, max_len=300)
        ):
            old_epoch = plane.pin()
            mdb.insert_document(
                slice_to_document(inserted, dataset="test", channel="Fp1")
            )
            assert plane.refresh()
            assert plane.last_refresh_reused == 2
            assert plane.last_refresh_compiled == 1
            new_epoch = plane.pin()
            assert new_epoch.generation == old_epoch.generation + 1
            # Reuse is by object identity: caches and all survive.
            assert new_epoch.shards[0] is first_epoch.shards[0]
            assert new_epoch.shards[1] is first_epoch.shards[1]
            assert new_epoch.shards[2].n_slices == index + 1

    def test_one_record_refresh_hashes_only_new_slices(self, monkeypatch):
        """An append reuses every untouched shard by slice identity: the
        refresh hashes only the trailing shard's slices and keeps every
        shard id."""
        mdb = _mdb_from(_random_slices(12, n=10, max_len=300))
        plane = ShardedSearchPlane(mdb, shard_slices=4)
        old_ids = [shard.shard_id for shard in plane.pin().shards]
        hashed: list[str] = []
        real_key = shards_module._slice_key

        def counting(sig_slice):
            hashed.append(sig_slice.slice_id)
            return real_key(sig_slice)

        monkeypatch.setattr(shards_module, "_slice_key", counting)
        mdb.insert_document(
            slice_to_document(
                _random_slices(99, n=1, max_len=300)[0],
                dataset="test",
                channel="Fp1",
            )
        )
        assert plane.refresh()
        # Shards 0 and 1 hold the same decoded slices: not hashed.  The
        # trailing shard grew from 2 to 3 slices and is hashed once.
        assert len(hashed) == 3
        new_ids = [shard.shard_id for shard in plane.pin().shards]
        assert new_ids[:2] == old_ids[:2]
        assert new_ids[2] != old_ids[2]
        assert (plane.last_refresh_compiled, plane.last_refresh_reused) == (1, 2)

    def test_refresh_without_change_is_a_noop(self):
        plane = ShardedSearchPlane(
            _mdb_from(_random_slices(6, n=5, max_len=300)), shard_slices=2
        )
        epoch = plane.pin()
        assert not plane.refresh()
        assert plane.pin() is epoch

    def test_static_slice_list_never_refreshes(self):
        plane = ShardedSearchPlane(
            _random_slices(6, n=4, max_len=300), shard_slices=2
        )
        assert not plane.refresh()

    def test_pinned_epoch_survives_a_mid_flight_refresh(self):
        """The satellite-1 mechanism at the core level: a reader holding
        a pinned epoch keeps getting the old generation's results even
        after a refresh installs a new epoch."""
        slices = _random_slices(8, n=6, max_len=400)
        mdb = _mdb_from(slices)
        plane = ShardedSearchPlane(mdb, shard_slices=3)
        engine = SlidingWindowSearch(SearchConfig())
        frame = _query(8)
        pinned = plane.pin()
        before = engine.search(frame, pinned)
        mdb.insert_document(
            slice_to_document(
                _random_slices(88, n=1, max_len=400)[0],
                dataset="test",
                channel="Fp1",
            )
        )
        assert plane.refresh()
        # The pinned epoch is frozen at 6 slices; the plane moved on.
        assert _key(engine.search(frame, pinned)) == _key(before)
        assert pinned.n_slices == 6
        assert plane.n_slices == 7
        assert engine.search(frame, plane).slices_searched >= before.slices_searched

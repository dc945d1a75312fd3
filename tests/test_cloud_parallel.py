"""Unit tests for the partitioned / parallel cloud search."""

import numpy as np
import pytest

from repro.cloud.parallel import (
    ParallelSearch,
    merge_results,
    partition_indices,
    partition_slices,
)
from repro.cloud.results import SearchMatch, SearchResult
from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.shards import ShardedSearchPlane
from repro.errors import SearchError
from repro.eval.experiments.common import filtered_frame
from repro.signals.types import AnomalyType, SignalSlice


def _match(omega, slice_id="s"):
    return SearchMatch(
        sig_slice=SignalSlice(
            data=np.ones(300), label=AnomalyType.NONE, slice_id=slice_id
        ),
        omega=omega,
        offset=0,
    )


def _shared(plane):
    """Whether every shard of ``plane`` holds a shared-memory export."""
    return all(shard._shm is not None for shard in plane.pin().shards)


class TestPartition:
    def test_balanced_and_complete(self, mdb_slices):
        chunks = partition_slices(mdb_slices, 4)
        assert len(chunks) == 4
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(mdb_slices)

    def test_more_chunks_than_slices(self, mdb_slices):
        chunks = partition_slices(mdb_slices[:3], 10)
        assert len(chunks) == 3

    def test_balances_sample_counts_not_slice_counts(self):
        # Four huge signal-sets among many small ones: round-robin by
        # position would pile several big ones onto one chunk; the
        # greedy partition spreads them so chunk *sample* loads stay
        # within one slice length of each other.
        lengths = [8000, 8000, 8000, 8000] + [250] * 32
        chunks = partition_indices(lengths, 4)
        loads = sorted(sum(lengths[i] for i in chunk) for chunk in chunks)
        assert loads[-1] - loads[0] <= max(lengths)
        assert loads[-1] < sum(lengths) / 2  # no chunk hogs the work
        assert sorted(i for chunk in chunks for i in chunk) == list(
            range(len(lengths))
        )

    def test_indices_sorted_within_chunk(self):
        chunks = partition_indices([500, 100, 900, 300, 700], 2)
        for chunk in chunks:
            assert chunk == sorted(chunk)

    def test_rejects_empty(self):
        with pytest.raises(SearchError, match="empty"):
            partition_slices([], 2)

    def test_rejects_bad_count(self, mdb_slices):
        with pytest.raises(SearchError, match="chunk count"):
            partition_slices(mdb_slices, 0)


class TestMerge:
    def test_global_top_k(self):
        a = SearchResult(matches=[_match(0.9, "a"), _match(0.7, "b")])
        a.correlations_evaluated = 10
        b = SearchResult(matches=[_match(0.95, "c"), _match(0.6, "d")])
        b.correlations_evaluated = 20
        merged = merge_results([a, b], top_k=3)
        assert [m.omega for m in merged.matches] == [0.95, 0.9, 0.7]
        assert merged.correlations_evaluated == 30

    def test_rejects_bad_top_k(self):
        with pytest.raises(SearchError, match="top_k"):
            merge_results([], 0)


class TestParallelSearch:
    def _key(self, result):
        return sorted(
            (round(m.omega, 10), m.sig_slice.slice_id, m.offset)
            for m in result.matches
        )

    def test_chunked_equals_single_engine(self, mdb_slices, seizure_recording):
        frame = filtered_frame(seizure_recording, 84)
        single = SlidingWindowSearch(SearchConfig(), precompute=True).search(
            frame, mdb_slices
        )
        chunked = ParallelSearch(SearchConfig(), n_chunks=5).search(
            frame, mdb_slices
        )
        assert self._key(chunked) == self._key(single)
        assert chunked.correlations_evaluated == single.correlations_evaluated
        assert chunked.slices_searched == single.slices_searched

    def test_single_chunk_degenerate(self, mdb_slices, seizure_recording):
        frame = filtered_frame(seizure_recording, 84)
        single = SlidingWindowSearch(SearchConfig(), precompute=True).search(
            frame, mdb_slices
        )
        chunked = ParallelSearch(SearchConfig(), n_chunks=1).search(
            frame, mdb_slices
        )
        assert self._key(chunked) == self._key(single)

    def test_process_pool_equals_serial(self, mdb_slices, seizure_recording):
        frame = filtered_frame(seizure_recording, 84)
        serial = ParallelSearch(SearchConfig(), n_chunks=4, n_workers=1).search(
            frame, mdb_slices[:80]
        )
        pooled = ParallelSearch(SearchConfig(), n_chunks=4, n_workers=2).search(
            frame, mdb_slices[:80]
        )
        assert self._key(pooled) == self._key(serial)

    def test_validation(self):
        with pytest.raises(SearchError):
            ParallelSearch(n_chunks=0)
        with pytest.raises(SearchError):
            ParallelSearch(n_workers=0)


class TestBindLifecycle:
    def test_rebind_releases_owned_plane_segment(self, mdb_slices):
        # Regression: rebinding used to abandon the previous owned
        # plane with its shared-memory segment still allocated, leaking
        # it until interpreter exit.
        engine = ParallelSearch(SearchConfig(), n_chunks=2)
        first = engine.bind(mdb_slices[:8])
        first.share()
        assert _shared(first)
        second = engine.bind(mdb_slices[8:16])
        assert not any(shard._shm for shard in first.pin().shards)
        assert engine.plane is second
        engine.close()

    def test_rebind_keeps_borrowed_plane_alive(self, mdb_slices):
        plane = ShardedSearchPlane(mdb_slices[:8])
        plane.share()
        engine = ParallelSearch(SearchConfig(), n_chunks=2)
        engine.bind(plane)
        engine.bind(mdb_slices[8:16])
        # The caller owns `plane`; rebinding must not close it.
        assert _shared(plane)
        plane.close()
        engine.close()

    def test_rebind_same_plane_is_noop(self, mdb_slices):
        plane = ShardedSearchPlane(mdb_slices[:8])
        plane.share()
        engine = ParallelSearch(SearchConfig(), n_chunks=2)
        engine.bind(plane)
        engine.bind(plane)
        assert _shared(plane)
        plane.close()
        engine.close()


class TestCloseLifecycle:
    def _key(self, result):
        return sorted(
            (round(m.omega, 10), m.sig_slice.slice_id, m.offset)
            for m in result.matches
        )

    def test_close_is_idempotent(self, mdb_slices):
        engine = ParallelSearch(SearchConfig(), n_chunks=2)
        engine.bind(mdb_slices[:8])
        engine.close()
        engine.close()  # second close must be a no-op, not a crash

    def test_search_after_close_raises(self, mdb_slices, seizure_recording):
        # Regression: a closed engine used to quietly rebuild state on
        # the next search (or crash on the dead pool) instead of
        # failing fast with a clear error.
        frame = filtered_frame(seizure_recording, 84)
        engine = ParallelSearch(SearchConfig(), n_chunks=2)
        engine.bind(mdb_slices[:8])
        engine.close()
        with pytest.raises(SearchError, match="closed"):
            engine.search(frame, None)
        # Passing a fresh source does not bypass the closed check
        # either — bind() is the documented revival path.
        with pytest.raises(SearchError, match="closed"):
            engine.search(frame, mdb_slices[:8])

    def test_bind_after_close_revives(self, mdb_slices, seizure_recording):
        frame = filtered_frame(seizure_recording, 84)
        engine = ParallelSearch(SearchConfig(), n_chunks=2)
        engine.bind(mdb_slices[:8])
        expected = self._key(engine.search(frame, None))
        engine.close()
        engine.bind(mdb_slices[:8])
        revived = engine.search(frame, None)
        assert self._key(revived) == expected
        engine.close()

    def test_pooled_engine_rebuilds_after_close_bind(
        self, mdb_slices, seizure_recording
    ):
        frame = filtered_frame(seizure_recording, 84)
        engine = ParallelSearch(SearchConfig(), n_chunks=2, n_workers=2)
        engine.bind(mdb_slices[:8])
        expected = self._key(engine.search(frame, None))
        engine.close()
        engine.bind(mdb_slices[:8])
        assert self._key(engine.search(frame, None)) == expected
        engine.close()

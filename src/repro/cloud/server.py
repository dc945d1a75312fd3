"""CloudServer: the cloud half of the closed loop.

Compiles the MDB's signal-sets into a sharded search plane once (the
paper keeps the MDB in memory-backed MongoDB for the same reason),
serves cross-correlation search requests over the compiled arrays, and
reports the Eq. 4 timing breakdown for each call via the timing model.

Unlike the old materialise-at-construction snapshot, the server is
never stale: every :meth:`handle_frame` (and an explicit
:meth:`refresh`) compares the MDB's generation counter against the
plane's and recompiles when signal-sets were inserted or removed —
a cheap integer comparison on the no-change path.  The
:class:`~repro.cloud.shards.ShardedSearchPlane` recompiles **only the
delta shards** on a refresh (content-addressed reuse), so an
online-growing MDB adopts new slices without a serving pause, and the
plane reference is pinned once per request/batch so a refresh racing an
in-flight gateway batch can never mix generations within one batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.cloud.results import SearchResult
from repro.cloud.search import (
    CorrelationSearch,
    SearchConfig,
    SlidingWindowSearch,
)
from repro.cloud.shards import DEFAULT_SHARD_SLICES, ShardedSearchPlane
from repro.errors import SearchError
from repro.mdb.mdb import MegaDatabase
from repro.runtime.timing import TimingBreakdown, TimingModel
from repro.signals.types import Frame, SignalSlice


class CloudServer:
    """Serves signal cross-correlation searches over an MDB.

    An MDB or slice list is compiled into a
    :class:`~repro.cloud.shards.ShardedSearchPlane` (``shard_slices``
    slices per content-addressed shard); a pre-built plane is served
    as-is.
    """

    def __init__(
        self,
        mdb: MegaDatabase | list[SignalSlice] | ShardedSearchPlane,
        search: CorrelationSearch | None = None,
        timing: TimingModel | None = None,
        shard_slices: int = DEFAULT_SHARD_SLICES,
    ) -> None:
        self.plane: ShardedSearchPlane
        if isinstance(mdb, ShardedSearchPlane):
            self.plane = mdb
        else:
            if not len(mdb):
                raise SearchError(
                    "cloud server needs a non-empty signal-set store"
                )
            self.plane = ShardedSearchPlane(mdb, shard_slices=shard_slices)
        self.search_engine = search or SlidingWindowSearch(
            SearchConfig(), precompute=True
        )
        self.timing = timing or TimingModel()
        self.calls_served = 0

    @property
    def n_slices(self) -> int:
        return self.plane.n_slices

    def refresh(self) -> bool:
        """Recompile the plane if the backing MDB changed; True if so.

        Called automatically by :meth:`handle_frame`, so frames
        arriving after an MDB insert always search the new signal-sets.
        On the sharded plane only the delta shards recompile, and the
        new epoch is installed atomically — requests already walking
        the previous epoch are undisturbed.
        """
        refreshed = self.plane.refresh()
        if refreshed:
            obs.metrics().inc("cloud.server.refreshes")
        return refreshed

    def handle_frame(
        self, frame: Frame | np.ndarray
    ) -> tuple[SearchResult, TimingBreakdown]:
        """Run one search request; returns (T, Eq. 4 breakdown)."""
        data = (
            frame.data
            if isinstance(frame, Frame)
            else np.asarray(frame, dtype=np.float64)
        )
        self.refresh()
        # Pin the plane reference for the whole request: a concurrent
        # refresh (gateway offloads batches to executor threads) must
        # not swap the plane between the span header and the search.
        plane = self.plane
        with obs.trace.span("cloud.handle_frame", slices=plane.n_slices):
            result = self.search_engine.search(data, plane)
            breakdown = self.timing.initial_breakdown(
                frame_samples=data.size,
                correlations_evaluated=result.correlations_evaluated,
                n_signals_downloaded=len(result.matches),
            )
        self.calls_served += 1
        self._record_served(result, breakdown)
        return result, breakdown

    def handle_batch(
        self, frames: Sequence[Frame | np.ndarray]
    ) -> list[tuple[SearchResult, TimingBreakdown]]:
        """Serve many coalesced search requests as one batch.

        The serving gateway's dispatch path: one plane refresh, one
        :meth:`~repro.cloud.search.CorrelationSearch.search_batch` call
        over one pinned epoch, then the per-request Eq. 4 breakdowns.
        Every returned ``(result, breakdown)`` pair is bit-identical to
        calling :meth:`handle_frame` with the same frame.

        The plane reference is pinned once for the whole batch — a
        ``refresh()`` racing an in-flight batch (an MDB insert landing
        mid-soak) cannot swap the plane between the coalescer snapshot
        and the batch walk, so one batch never mixes generations; the
        sharded plane additionally pins one immutable epoch inside
        ``search_batch`` for the same guarantee at the core level.
        """
        datas = [
            frame.data
            if isinstance(frame, Frame)
            else np.asarray(frame, dtype=np.float64)
            for frame in frames
        ]
        if not datas:
            return []
        self.refresh()
        plane = self.plane  # pinned: one plane for the whole batch
        with obs.trace.span(
            "cloud.handle_batch", requests=len(datas), slices=plane.n_slices
        ):
            results = self.search_engine.search_batch(datas, plane)
            served = [
                (
                    result,
                    self.timing.initial_breakdown(
                        frame_samples=data.size,
                        correlations_evaluated=result.correlations_evaluated,
                        n_signals_downloaded=len(result.matches),
                    ),
                )
                for data, result in zip(datas, results)
            ]
        self.calls_served += len(served)
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("cloud.server.batches")
            registry.observe("cloud.server.batch_size", float(len(served)))
            for result, breakdown in served:
                self._record_served(result, breakdown)
        return served

    def _record_served(
        self, result: SearchResult, breakdown: TimingBreakdown
    ) -> None:
        """Per-request serving counters (same for single and batched)."""
        registry = obs.metrics()
        if not registry.enabled:
            return
        registry.inc("cloud.server.calls_served")
        registry.inc("cloud.server.signals_returned", len(result.matches))
        registry.observe("cloud.server.phase.upload_s", breakdown.upload_s)
        registry.observe("cloud.server.phase.search_s", breakdown.search_s)
        registry.observe("cloud.server.phase.download_s", breakdown.download_s)
        registry.observe("cloud.server.phase.initial_s", breakdown.initial_s)

    def close(self) -> None:
        """A no-op: the server holds only in-process arrays.

        Kept so that callers written against an open/close lifecycle
        keep working; nothing needs releasing.
        """

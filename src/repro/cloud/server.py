"""CloudServer: the cloud half of the closed loop.

Compiles the MDB's signal-sets into a sharded search plane once (the
paper keeps the MDB in memory-backed MongoDB for the same reason),
serves cross-correlation search requests over the compiled arrays, and
reports the Eq. 4 timing breakdown for each call via the timing model.

The server has one serving body, :meth:`CloudServer.handle_batch`; a
single request is a batch of one.  It is never stale: every batch (and
an explicit :meth:`CloudServer.refresh`) compares the MDB's generation
counter against the plane's and recompiles when signal-sets were
inserted or removed — a cheap integer comparison on the no-change
path.  The :class:`~repro.cloud.shards.ShardedSearchPlane` recompiles
**only the delta shards** on a refresh (content-addressed reuse), so
an online-growing MDB adopts new slices without a serving pause, and
the plane reference is pinned once per batch so a refresh racing an
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
        self.search_engine = search or SlidingWindowSearch(SearchConfig())
        self.timing = timing or TimingModel()
        self.calls_served = 0

    @property
    def n_slices(self) -> int:
        return self.plane.n_slices

    def refresh(self) -> bool:
        """Recompile the plane if the backing MDB changed; True if so.

        Called automatically by :meth:`handle_batch`, so frames
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
        """Run one search request; returns (T, Eq. 4 breakdown).

        A batch of one: :meth:`handle_batch` is the only serving body.
        """
        return self.handle_batch([frame])[0]

    def handle_batch(
        self, frames: Sequence[Frame | np.ndarray]
    ) -> list[tuple[SearchResult, TimingBreakdown]]:
        """Serve many coalesced search requests as one batch.

        The serving gateway's dispatch path: one plane refresh, one
        :meth:`~repro.cloud.search.CorrelationSearch.search_batch` call
        over one pinned epoch, then the per-request Eq. 4 breakdowns.
        :meth:`handle_frame` is this with one frame, so every returned
        ``(result, breakdown)`` pair is what it would return.

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
                registry.inc("cloud.server.calls_served")
                registry.inc("cloud.server.signals_returned", len(result.matches))
                registry.observe("cloud.server.phase.upload_s", breakdown.upload_s)
                registry.observe("cloud.server.phase.search_s", breakdown.search_s)
                registry.observe(
                    "cloud.server.phase.download_s", breakdown.download_s
                )
                registry.observe(
                    "cloud.server.phase.initial_s", breakdown.initial_s
                )
        return served

    def close(self) -> None:
        """A no-op: the server holds only in-process arrays.

        Kept so that callers written against an open/close lifecycle
        keep working; nothing needs releasing.
        """

"""Shared measurement for the sharded-plane incremental compile bench.

Measures what an online-growing MDB pays to *adopt* a single inserted
document — the serving-pause cost the sharded plane exists to remove —
by adopting the same insert stream two ways:

* **full rebuild** — a fresh :class:`~repro.cloud.shards.ShardedSearchPlane`
  compiled from the whole MDB after every insert (concatenate,
  offsets and norm caches from scratch);
* **delta refresh** — one long-lived plane's ``refresh()``:
  content-addressed reuse recompiles only the trailing delta shard and
  re-warms only its caches; every untouched shard keeps its compiled
  core and norms.

Both arms time the compile **plus** the norm warm-up, i.e. the full
cost until the next request can be served at steady state.  Query cost is
deliberately excluded — it is identical by the bit-identity contract
(checked here after every insert) and would only dilute the
adoption-cost signal.

Used by ``test_bench_shard_throughput.py`` and the
``check_regression.py`` CI gate (delta speedup floored at 5x).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.shards import ShardedSearchPlane
from repro.eval.experiments.common import ExperimentFixture, filtered_frame
from repro.mdb.mdb import MegaDatabase
from repro.mdb.schema import slice_to_document
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType, SignalSlice


@dataclass
class ShardThroughputResult:
    """Adoption cost of the same insert stream, rebuilt vs refreshed."""

    n_slices: int
    n_shards: int
    shard_slices: int
    n_inserts: int
    full_rebuild_s: float
    delta_refresh_s: float
    shards_compiled: int
    shards_reused: int
    identical: bool

    @property
    def delta_speedup(self) -> float:
        if self.delta_refresh_s <= 0:
            return float("inf")
        return self.full_rebuild_s / self.delta_refresh_s

    def report(self) -> str:
        lines = [
            "Sharded plane incremental compile: single-insert adoption cost",
            f"  MDB: {self.n_slices} signal-sets, {self.n_shards} shards "
            f"({self.shard_slices} slices/shard), {self.n_inserts} inserts",
            f"  full rebuild:  {self.full_rebuild_s:.3f}s total",
            f"  delta refresh: {self.delta_refresh_s:.3f}s total "
            f"({self.delta_speedup:.1f}x, bit-identical: {self.identical})",
            f"  shards compiled {self.shards_compiled}, "
            f"reused {self.shards_reused} across all refreshes",
        ]
        return "\n".join(lines)


def _result_key(result) -> list[tuple[str, int, float]]:
    return [
        (match.sig_slice.slice_id, match.offset, match.omega)
        for match in result.matches
    ]


def run_shard_throughput(
    fixture: ExperimentFixture,
    shard_slices: int = 16,
    n_inserts: int = 4,
    seed: int = 7,
    frame_samples: int = 256,
) -> ShardThroughputResult:
    """Insert ``n_inserts`` documents one at a time and time adoption.

    Both arms track one private MDB (the shared fixture is never
    mutated).  Each arm's timed region is the compile plus the cache
    warm-up — everything between the insert landing and the next
    request serving at full speed.  After every insert the two planes
    are checked bit-identical on a fresh query.
    """
    mdb = MegaDatabase()
    for sig_slice in fixture.slices:
        mdb.insert_document(
            slice_to_document(sig_slice, dataset="bench", channel="Fp1")
        )
    sharded = ShardedSearchPlane(mdb, shard_slices=shard_slices)
    config = SearchConfig(frame_samples=frame_samples)
    engine = SlidingWindowSearch(config)
    recording = EEGGenerator(seed=seed).record(float(n_inserts + 2))
    rng = np.random.default_rng(seed)

    def warm(plane: ShardedSearchPlane) -> None:
        for shard in plane.pin().shards:
            shard.core.ensure_norms(frame_samples)

    # A steady-state server has a compiled plane plus norm caches
    # before the first online insert arrives.
    warm(sharded)

    full_s = 0.0
    delta_s = 0.0
    compiled = 0
    reused = 0
    identical = True
    for index in range(n_inserts):
        inserted = SignalSlice(
            data=rng.standard_normal(400),
            label=AnomalyType.SEIZURE if index % 2 == 0 else AnomalyType.NONE,
            slice_id=f"bench-insert-{index}",
        )
        mdb.insert_document(
            slice_to_document(inserted, dataset="bench", channel="Fp1")
        )

        started = time.perf_counter()
        rebuilt = ShardedSearchPlane(mdb)
        warm(rebuilt)
        full_s += time.perf_counter() - started

        started = time.perf_counter()
        sharded.refresh()
        warm(sharded)
        delta_s += time.perf_counter() - started

        compiled += sharded.last_refresh_compiled
        reused += sharded.last_refresh_reused

        frame = filtered_frame(recording, index + 1)
        rebuilt_result = engine.search(frame, rebuilt)
        shard_result = engine.search(frame, sharded)
        identical = (
            identical
            and _result_key(rebuilt_result) == _result_key(shard_result)
            and (
                rebuilt_result.correlations_evaluated
                == shard_result.correlations_evaluated
            )
        )

    result = ShardThroughputResult(
        n_slices=sharded.n_slices,
        n_shards=sharded.n_shards,
        shard_slices=shard_slices,
        n_inserts=n_inserts,
        full_rebuild_s=full_s,
        delta_refresh_s=delta_s,
        shards_compiled=compiled,
        shards_reused=reused,
        identical=identical,
    )
    return result


def summarize(
    result: ShardThroughputResult, mdb_scale: float, seed: int
) -> dict:
    """The JSON-able summary the regression baseline stores."""
    return {
        "config": {
            "mdb_scale": mdb_scale,
            "seed": seed,
            "shard_slices": result.shard_slices,
            "n_inserts": result.n_inserts,
        },
        "n_slices": result.n_slices,
        "n_shards": result.n_shards,
        "shards_compiled": result.shards_compiled,
        "shards_reused": result.shards_reused,
        "full_rebuild_s": result.full_rebuild_s,
        "delta_refresh_s": result.delta_refresh_s,
        "delta_speedup": result.delta_speedup,
        "identical": result.identical,
    }

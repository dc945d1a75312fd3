"""Shared measurement for the serving-plane throughput bench.

Compares two ways of serving the same stream of search requests over
the Fig. 7(b)-scale MDB:

* **legacy** — the pre-plane ``CloudServer`` behaviour: each request
  recomputes every slice's prefix sums, window norms and dot products
  from the raw slice list (``SlidingWindowSearch(precompute=True)``
  over ``list(mdb.slices())``);
* **plane** — the same engine over a compiled
  :class:`~repro.cloud.shards.ShardedSearchPlane` (the serving plane,
  default shard width): samples compiled once, window norms cached per
  frame length, the skip walk replayed over the batched correlation
  arrays.

Both arms run the identical Algorithm 1 walk, and the harness verifies
request-by-request that matches and ``correlations_evaluated`` are
bit-identical — the plane may only change *where* the arithmetic runs,
never what it computes.  Used by ``test_bench_plane_throughput.py``
and the ``check_regression.py`` CI gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.shards import ShardedSearchPlane
from repro.eval.experiments.common import ExperimentFixture, filtered_frame
from repro.signals.generator import EEGGenerator


@dataclass
class ThroughputResult:
    """Both arms' wall time over the same request stream."""

    n_slices: int
    n_queries: int
    legacy_s: float
    plane_s: float
    warmup_s: float
    identical: bool
    correlations_per_query: list[int] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.legacy_s / self.plane_s if self.plane_s > 0 else float("inf")

    @property
    def legacy_qps(self) -> float:
        return self.n_queries / self.legacy_s if self.legacy_s > 0 else 0.0

    @property
    def plane_qps(self) -> float:
        return self.n_queries / self.plane_s if self.plane_s > 0 else 0.0

    def report(self) -> str:
        lines = [
            "Serving throughput: legacy per-request path vs compiled plane",
            f"  MDB: {self.n_slices} signal-sets, {self.n_queries} requests",
            f"  legacy: {self.legacy_s:.3f}s total, {self.legacy_qps:6.1f} req/s",
            f"  plane:  {self.plane_s:.3f}s total, {self.plane_qps:6.1f} req/s "
            f"(+ {self.warmup_s:.3f}s one-off compile/warm-up)",
            f"  speedup: {self.speedup:.2f}x, bit-identical: {self.identical}",
            "  correlations/query: "
            + " ".join(str(count) for count in self.correlations_per_query),
        ]
        return "\n".join(lines)


def _result_key(result) -> list[tuple[str, int, float]]:
    return [
        (match.sig_slice.slice_id, match.offset, match.omega)
        for match in result.matches
    ]


def run_throughput(
    fixture: ExperimentFixture,
    n_queries: int = 12,
    seed: int = 7,
    config: SearchConfig | None = None,
) -> ThroughputResult:
    """Serve ``n_queries`` frames through both arms and time them.

    The plane arm is warmed with one untimed request first (compiling
    the plane and building the norm cache — one-off costs a persistent
    server pays once, reported separately as ``warmup_s``), so the
    timed region measures steady-state serving throughput.
    """
    cfg = config or SearchConfig()
    recording = EEGGenerator(seed=seed).record(float(n_queries + 2))
    frames = [
        filtered_frame(recording, second) for second in range(1, n_queries + 1)
    ]
    engine = SlidingWindowSearch(cfg, precompute=True)

    started = time.perf_counter()
    legacy_results = [engine.search(frame, fixture.slices) for frame in frames]
    legacy_s = time.perf_counter() - started

    started = time.perf_counter()
    plane = ShardedSearchPlane(fixture.mdb)
    engine.search(frames[0], plane)
    warmup_s = time.perf_counter() - started

    started = time.perf_counter()
    plane_results = [engine.search(frame, plane) for frame in frames]
    plane_s = time.perf_counter() - started

    identical = all(
        _result_key(legacy) == _result_key(planed)
        and legacy.correlations_evaluated == planed.correlations_evaluated
        and legacy.candidates_above_threshold
        == planed.candidates_above_threshold
        for legacy, planed in zip(legacy_results, plane_results)
    )
    return ThroughputResult(
        n_slices=fixture.n_slices,
        n_queries=n_queries,
        legacy_s=legacy_s,
        plane_s=plane_s,
        warmup_s=warmup_s,
        identical=identical,
        correlations_per_query=[
            result.correlations_evaluated for result in legacy_results
        ],
    )


def summarize(result: ThroughputResult, mdb_scale: float, seed: int) -> dict:
    """The JSON-able summary the regression baseline stores."""
    return {
        "config": {"mdb_scale": mdb_scale, "seed": seed},
        "n_slices": result.n_slices,
        "n_queries": result.n_queries,
        "correlations_per_query": result.correlations_per_query,
        "legacy_s": result.legacy_s,
        "plane_s": result.plane_s,
        "speedup": result.speedup,
        "identical": result.identical,
    }

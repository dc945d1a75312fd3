"""Shared measurement for the two-stage search throughput bench.

Serves the same request stream over the same compiled
:class:`~repro.cloud.shards.ShardedSearchPlane` two ways:

* **single** — the single-stage plane path (``two_stage="off"``), the
  baseline the earlier plane-throughput gate certifies;
* **fast** — coarse ranking keeps only ``keep_fraction`` of the plane
  per query.  This is the throughput arm the regression gate floors
  (≥ 2x over the single-stage plane path at the Fig. 7(b) MDB scale);
  its result *quality* is gated separately by the Fig. 11 search
  quality bench run with ``two_stage="fast"``.

Used by ``test_bench_two_stage_throughput.py`` and the
``check_regression.py`` CI gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.shards import ShardedSearchPlane
from repro.eval.experiments.common import ExperimentFixture, filtered_frame
from repro.signals.generator import EEGGenerator


@dataclass
class TwoStageResult:
    """Both arms' wall time over the same request stream."""

    n_slices: int
    n_queries: int
    keep_fraction: float
    single_s: float
    fast_s: float
    fast_pruned_per_query: list[int] = field(default_factory=list)
    fast_matches_per_query: list[int] = field(default_factory=list)

    @property
    def fast_speedup(self) -> float:
        return self.single_s / self.fast_s if self.fast_s > 0 else float("inf")

    @property
    def fast_prune_rate(self) -> float:
        total = self.n_queries * self.n_slices
        return sum(self.fast_pruned_per_query) / total if total else 0.0

    def report(self) -> str:
        lines = [
            "Two-stage search throughput: coarse screen over the compiled plane",
            f"  MDB: {self.n_slices} signal-sets, {self.n_queries} requests, "
            f"keep fraction {self.keep_fraction:.2f}",
            f"  single-stage: {self.single_s:.3f}s total",
            f"  fast:         {self.fast_s:.3f}s total "
            f"({self.fast_speedup:.2f}x, prune rate "
            f"{self.fast_prune_rate:.0%})",
            "  fast pruned/query: "
            + " ".join(str(count) for count in self.fast_pruned_per_query),
        ]
        return "\n".join(lines)


def run_two_stage(
    fixture: ExperimentFixture,
    n_queries: int = 12,
    seed: int = 7,
    keep_fraction: float = 0.25,
) -> TwoStageResult:
    """Serve ``n_queries`` frames through both arms and time them.

    Every arm is warmed with one untimed request first (plane compile,
    norm cache, coarse index — one-off costs a persistent server pays
    once), so the timed regions measure steady-state throughput.
    """
    recording = EEGGenerator(seed=seed).record(float(n_queries + 2))
    frames = [
        filtered_frame(recording, second) for second in range(1, n_queries + 1)
    ]
    plane = ShardedSearchPlane(fixture.mdb)
    single = SlidingWindowSearch(SearchConfig(), precompute=True)
    fast = SlidingWindowSearch(
        SearchConfig(two_stage="fast", coarse_keep_fraction=keep_fraction),
        precompute=True,
    )

    def timed(engine):
        engine.search(frames[0], plane)  # warm-up, untimed
        started = time.perf_counter()
        results = [engine.search(frame, plane) for frame in frames]
        return results, time.perf_counter() - started

    _, single_s = timed(single)
    fast_results, fast_s = timed(fast)
    return TwoStageResult(
        n_slices=fixture.n_slices,
        n_queries=n_queries,
        keep_fraction=keep_fraction,
        single_s=single_s,
        fast_s=fast_s,
        fast_pruned_per_query=[
            result.slices_pruned for result in fast_results
        ],
        fast_matches_per_query=[len(result) for result in fast_results],
    )


def summarize(result: TwoStageResult, mdb_scale: float, seed: int) -> dict:
    """The JSON-able summary the regression baseline stores."""
    return {
        "config": {
            "mdb_scale": mdb_scale,
            "seed": seed,
            "keep_fraction": result.keep_fraction,
        },
        "n_slices": result.n_slices,
        "n_queries": result.n_queries,
        "fast_pruned_per_query": result.fast_pruned_per_query,
        "fast_matches_per_query": result.fast_matches_per_query,
        "single_s": result.single_s,
        "fast_s": result.fast_s,
        "fast_speedup": result.fast_speedup,
    }

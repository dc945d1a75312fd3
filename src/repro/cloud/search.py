"""The signal cross-correlation search (paper Algorithm 1).

One engine, :class:`CorrelationSearch`, scans every signal-set with a
pluggable **skip policy** deciding how far the window advances after
each correlation:

* :class:`FixedSkipPolicy` (β = 1) — the exhaustive baseline of
  Figs. 7(b) and 11;
* :class:`ExponentialSkipPolicy` — the paper's β = αω⁻¹ rule: low
  correlation → long jumps over dissimilar regions, high correlation →
  fine-grained steps so peaks are not skipped over.

Both share the identical inner loop, so their wall-clock ratio reflects
the *algorithmic* saving (number of correlations evaluated), which is
what the paper's ~6.8× claim is about.

The engine runs the same walk two ways.  The scalar reference
(:func:`replay_skip_walk` over :class:`ScalarWindowEvaluator`, one
offset at a time) scans a plain slice list.  Every other search runs
over the compiled :class:`~repro.cloud.shards.ShardedSearchPlane`:
each query walks each shard core with
:meth:`~repro.cloud.plane.PlaneCore.walk`, which computes correlations
only at the offsets the skip rule visits (``precompute=True`` over a
slice list compiles a one-shard plane first).  The compiled walk is
bit-identical to the scalar reference: same matches, ω values,
offsets and statistics.

Two interpretation notes (also in DESIGN.md):

* ω is the *normalised* cross-correlation — the raw dot product of
  Eq. 2 is unbounded and cannot be compared against δ = 0.8.
* Algorithm 1's pseudocode says ``AscendingSort`` then take the first
  100, which would return the *least* correlated entries; we sort
  descending, which is the evident intent ("maximum signal correlation
  set").
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Protocol, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.cloud.plane import SkipRule
from repro.cloud.results import SearchMatch, SearchResult
from repro.cloud.shards import ShardEpoch, ShardedSearchPlane
from repro.errors import SearchError
from repro.obs.tracing import Span
from repro.signals.types import FRAME_SAMPLES, SignalSlice
from repro.signals.windows import WindowedStats

T = TypeVar("T")

#: Paper's preset step-size (Section V-B: "we have preset α to 0.004").
DEFAULT_ALPHA = 0.004

#: Paper's cross-correlation threshold δ.
DEFAULT_DELTA = 0.8

#: Size of the signal correlation set T ("top-100").
DEFAULT_TOP_K = 100


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of the cloud search.

    ``skip_scale`` converts the dimensionless β = α/ω into samples
    (DESIGN.md: with the paper's literal formula β is sub-sample); the
    default is calibrated so Algorithm 1's average reduction in
    correlations evaluated lands near the paper's ~6.8×.
    ``omega_floor`` is the ε floor for clamped-to-zero correlations
    (Algorithm 1 lines 9–11 clamp ω < 0 to 0, which would otherwise
    divide by zero).  ``dedupe_per_slice`` keeps only the best offset
    per signal-set so the top-100 are 100 distinct *signals*, matching
    the paper's reading of T; set it to ``False`` for the literal
    every-offset pseudocode behaviour.
    """

    frame_samples: int = FRAME_SAMPLES
    delta: float = DEFAULT_DELTA
    alpha: float = DEFAULT_ALPHA
    skip_scale: float = 135.0
    omega_floor: float = 0.05
    max_skip: int = 250
    top_k: int = DEFAULT_TOP_K
    dedupe_per_slice: bool = True

    def __post_init__(self) -> None:
        if self.frame_samples <= 0:
            raise SearchError(f"frame size must be positive, got {self.frame_samples}")
        if not (0.0 <= self.delta < 1.0):
            raise SearchError(f"delta must be in [0, 1), got {self.delta}")
        if self.alpha <= 0:
            raise SearchError(f"alpha must be positive, got {self.alpha}")
        if self.skip_scale <= 0:
            raise SearchError(f"skip scale must be positive, got {self.skip_scale}")
        if not (0.0 < self.omega_floor <= 1.0):
            raise SearchError(f"omega floor must be in (0, 1], got {self.omega_floor}")
        if self.max_skip < 1:
            raise SearchError(f"max skip must be >= 1, got {self.max_skip}")
        if self.top_k <= 0:
            raise SearchError(f"top_k must be positive, got {self.top_k}")


class SkipPolicy(Protocol):
    """Decides the window advance after one correlation evaluation."""

    def skip(self, omega: float) -> int:
        """Samples to advance given the (clamped) correlation ω."""
        ...

    @property
    def rule(self) -> SkipRule:
        """The same hop as :meth:`skip`, for the compiled walk."""
        ...


class FixedSkipPolicy:
    """Constant advance; ``FixedSkipPolicy(1)`` is the exhaustive search."""

    def __init__(self, step: int = 1) -> None:
        if step < 1:
            raise SearchError(f"fixed skip must be >= 1, got {step}")
        self.step = step

    def skip(self, omega: float) -> int:
        return self.step

    @property
    def rule(self) -> SkipRule:
        return SkipRule(scale=0.0, floor=1.0, low=self.step, high=self.step)


class ExponentialSkipPolicy:
    """The paper's β = αω⁻¹ sliding window, in samples.

    ``β = clamp(round(skip_scale · α / max(ω, ε)), 1, max_skip)`` —
    inversely proportional to the local correlation, so dissimilar
    regions are skipped quickly while near-matches are scanned finely.
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        skip_scale: float = 135.0,
        omega_floor: float = 0.05,
        max_skip: int = 250,
    ) -> None:
        if alpha <= 0:
            raise SearchError(f"alpha must be positive, got {alpha}")
        if skip_scale <= 0:
            raise SearchError(f"skip scale must be positive, got {skip_scale}")
        if not (0.0 < omega_floor <= 1.0):
            raise SearchError(f"omega floor must be in (0, 1], got {omega_floor}")
        if max_skip < 1:
            raise SearchError(f"max skip must be >= 1, got {max_skip}")
        self.alpha = alpha
        self.skip_scale = skip_scale
        self.omega_floor = omega_floor
        self.max_skip = max_skip

    def skip(self, omega: float) -> int:
        effective = max(omega, self.omega_floor)
        beta = int(round(self.skip_scale * self.alpha / effective))
        return max(1, min(beta, self.max_skip))

    @property
    def rule(self) -> SkipRule:
        """:meth:`skip` as a rule: ``rint`` and ``clip`` mirror
        ``int(round(...))`` and ``max(1, min(...))`` exactly (both round
        half to even on float64), so the rule's hop at any ω equals
        ``skip(ω)``."""
        return SkipRule(
            scale=self.skip_scale * self.alpha,
            floor=self.omega_floor,
            low=1,
            high=self.max_skip,
        )


class TopK(Generic[T]):
    """Min-heap keeping the ``k`` highest-scored items, no global sort.

    ``admissions`` counts pushes + replaces (the
    ``heap_admissions`` search statistic).
    """

    __slots__ = ("_heap", "_k", "_sequence", "admissions")

    def __init__(self, k: int) -> None:
        self._heap: list[tuple[float, int, T]] = []
        self._k = k
        self._sequence = 0
        self.admissions = 0

    def offer(self, score: float, item: T) -> None:
        """Admit ``item`` if ``score`` beats the current k-th best."""
        self._sequence += 1
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, (score, self._sequence, item))
            self.admissions += 1
        elif score > self._heap[0][0]:
            heapq.heapreplace(self._heap, (score, self._sequence, item))
            self.admissions += 1

    def sorted_items(self) -> list[T]:
        """The retained items, highest score first."""
        return [
            entry[2]
            for entry in sorted(self._heap, key=lambda item: item[0], reverse=True)
        ]


def replay_skip_walk(
    evaluate: Callable[[int], float],
    last_offset: int,
    policy: SkipPolicy,
    delta: float,
    dedupe_per_slice: bool,
) -> tuple[list[tuple[float, int]], int, int]:
    """Algorithm 1's window walk over one slice, one offset at a time.

    ``evaluate(offset)`` returns the normalised correlation at one
    offset (the scalar engine passes a :class:`ScalarWindowEvaluator`).
    This is the reference the compiled
    :meth:`~repro.cloud.plane.PlaneCore.walk` reproduces hit for hit
    and count for count.

    Returns ``(hits, evaluated, above_threshold)``.
    """
    hits: list[tuple[float, int]] = []
    best_omega = -np.inf
    best_offset = -1
    offset = 0
    evaluated = 0
    above_threshold = 0
    while offset <= last_offset:
        omega = float(evaluate(offset))
        evaluated += 1
        omega = max(omega, 0.0)  # Algorithm 1 lines 9-11
        if omega > delta:
            above_threshold += 1
            if dedupe_per_slice:
                if omega > best_omega:
                    best_omega = omega
                    best_offset = offset
            else:
                hits.append((omega, offset))
        offset += policy.skip(omega)
    if dedupe_per_slice and best_offset >= 0:
        hits.append((best_omega, best_offset))
    return hits, evaluated, above_threshold


class ScalarWindowEvaluator:
    """Per-offset O(1) correlation evaluator over one slice.

    The scalar engine's inner loop: prefix-sum statistics are built
    once per slice, then each call is a single windowed dot product —
    the honest per-offset cost model behind the Fig. 7(b) wall-clock
    benches.
    """

    __slots__ = ("_stats", "_centered", "_norm")

    def __init__(
        self, data: np.ndarray, centered: np.ndarray, norm: float
    ) -> None:
        self._stats = WindowedStats(data)
        self._centered = centered
        self._norm = norm

    def __call__(self, offset: int) -> float:
        return self._stats.normalized_correlation_with(
            self._centered, self._norm, offset
        )


class CorrelationSearch:
    """Scans signal-sets for windows correlated with an input frame.

    ``precompute=True`` runs a search over a slice list on the
    compiled walk, through a one-shard plane compiled for that call:
    the admitted matches and the ``correlations_evaluated`` statistic
    (the algorithmic cost that drives the timing model) are identical
    to the per-offset scalar mode; only the host wall-clock changes.
    The closed-loop framework uses the compiled walk for throughput;
    the Fig. 7(b) exploration-time benches use scalar mode, where
    wall-clock honestly tracks the number of correlations a device
    would evaluate.

    Passing a :class:`~repro.cloud.shards.ShardedSearchPlane` (or one
    of its pinned epochs) instead of a slice iterable reuses the
    plane's compiled arrays and cached window norms, amortising all
    query-independent work across requests; :meth:`search_batch` is
    that path, and :meth:`search` over a plane is a batch of one.
    """

    def __init__(
        self,
        config: SearchConfig,
        policy: SkipPolicy,
        precompute: bool = False,
    ) -> None:
        self.config = config
        self.policy = policy
        self.precompute = precompute

    def prepare_query(self, frame: np.ndarray) -> tuple[np.ndarray, float]:
        """Validate and centre the query frame; returns (centred, norm).

        Every search path (scalar, single and batched plane searches)
        goes through here, and the serving gateway calls it at submit,
        so a corrupt frame is turned away with a :class:`SearchError`
        before a NaN can reach the skip tables or another tenant's
        batch.
        """
        query = np.asarray(frame, dtype=np.float64)
        if query.ndim != 1:
            raise SearchError(f"input frame must be 1-D, got shape {query.shape}")
        if query.size != self.config.frame_samples:
            raise SearchError(
                f"input frame must have {self.config.frame_samples} samples, "
                f"got {query.size}"
            )
        if not np.isfinite(query).all():
            raise SearchError("input frame holds non-finite samples")
        centered = query - query.mean()
        return centered, float(np.linalg.norm(centered))

    def search(
        self,
        frame: np.ndarray,
        slices: Iterable[SignalSlice] | ShardedSearchPlane | ShardEpoch,
    ) -> SearchResult:
        """Return the top-K correlation set for ``frame`` over ``slices``.

        The frame must be the bandpass-filtered one-second input
        ``B_N`` (256 samples by default).  ``slices`` may be a plain
        iterable of signal-sets (scanned by the scalar reference, or
        compiled into a one-shard plane when ``precompute`` is set), a
        compiled :class:`~repro.cloud.shards.ShardedSearchPlane` or one
        of its pinned epochs (:meth:`search_batch` of one frame).
        """
        if isinstance(slices, (ShardedSearchPlane, ShardEpoch)):
            return self.search_batch([frame], slices)[0]
        slice_list = list(slices)
        if self.precompute and slice_list:
            plane = ShardedSearchPlane(slice_list, shard_slices=len(slice_list))
            return self.search_batch([frame], plane)[0]
        centered, norm = self.prepare_query(frame)
        result = SearchResult()
        top: TopK[SearchMatch] = TopK(self.config.top_k)
        with obs.trace.span("cloud.search") as span:
            for sig_slice in slice_list:
                result.slices_searched += 1
                for match in self._scan_slice(sig_slice, centered, norm, result):
                    top.offer(match.omega, match)
        self._finish(result, top, span)
        return result

    def search_batch(
        self,
        frames: Sequence[np.ndarray],
        source: ShardedSearchPlane | ShardEpoch,
    ) -> list[SearchResult]:
        """Top-K search of every frame over one sharded plane.

        Pins one epoch for the *whole* batch — the per-batch
        generation-pinning contract the gateway relies on: a refresh
        landing mid-batch cannot swap cores under queries already
        prepared against the pinned epoch.  Each query then walks every
        shard core in ascending order, and each walk returns its hits
        in scan order, so heap tie-breaks — and with them matches, ω
        values, offsets and statistics — are bit-identical to
        :meth:`search` over the plain slice list.
        """
        if not frames:
            return []
        epoch = source.pin() if isinstance(source, ShardedSearchPlane) else source
        prepared = [self.prepare_query(frame) for frame in frames]
        rule = self.policy.rule
        delta = self.config.delta
        dedupe = self.config.dedupe_per_slice
        results: list[SearchResult] = []
        tops: list[TopK[SearchMatch]] = []
        merge_s = 0.0
        with obs.trace.span("cloud.search", queries=len(frames)) as span:
            for centered, norm in prepared:
                result = SearchResult(slices_searched=epoch.n_slices)
                top: TopK[SearchMatch] = TopK(self.config.top_k)
                for shard in epoch.shards:
                    walk = shard.core.walk(centered, norm, rule, delta, dedupe)
                    result.correlations_evaluated += walk.evaluated
                    result.candidates_above_threshold += walk.above_threshold
                    merge_started = time.perf_counter()
                    for index, omega, offset in zip(
                        walk.slices.tolist(),
                        walk.omegas.tolist(),
                        walk.offsets.tolist(),
                    ):
                        top.offer(
                            omega,
                            SearchMatch(
                                sig_slice=shard.slices[index],
                                omega=omega,
                                offset=offset,
                            ),
                        )
                    merge_s += time.perf_counter() - merge_started
                results.append(result)
                tops.append(top)
        for result, top in zip(results, tops):
            self._finish(result, top, span)
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("cloud.search.batches")
            registry.observe("cloud.search.batch_size", float(len(frames)))
            registry.observe("cloud.plane.shard.merge_s", merge_s)
        return results

    def _finish(
        self, result: SearchResult, top: TopK[SearchMatch], span: Span
    ) -> None:
        result.elapsed_s = span.elapsed_s
        result.heap_admissions = top.admissions
        result.matches = top.sorted_items()
        self._publish(result, span)

    def _publish(self, result: SearchResult, span: Span) -> None:
        """Record the search's aggregate statistics into the registry.

        Aggregated once per search (never in the per-offset loop) so
        instrumentation stays off the hot path.
        """
        registry = obs.metrics()
        if not registry.enabled:
            return
        span.annotate(
            slices=result.slices_searched,
            correlations=result.correlations_evaluated,
            matches=len(result.matches),
        )
        registry.inc("cloud.search.requests")
        registry.inc("cloud.search.slices_scanned", result.slices_searched)
        registry.inc(
            "cloud.search.correlations_evaluated", result.correlations_evaluated
        )
        registry.inc(
            "cloud.search.candidates_above_threshold",
            result.candidates_above_threshold,
        )
        registry.inc("cloud.search.heap_admissions", result.heap_admissions)
        registry.observe("cloud.search.elapsed_s", result.elapsed_s)

    def _scan_slice(
        self,
        sig_slice: SignalSlice,
        centered: np.ndarray,
        norm: float,
        result: SearchResult,
    ) -> list[SearchMatch]:
        """Scan one signal-set offset by offset; returns its matches."""
        length = self.config.frame_samples
        if len(sig_slice) < length:
            return []
        last_offset = len(sig_slice) - length
        hits, evaluated, above = replay_skip_walk(
            ScalarWindowEvaluator(sig_slice.data, centered, norm),
            last_offset,
            self.policy,
            self.config.delta,
            self.config.dedupe_per_slice,
        )
        result.correlations_evaluated += evaluated
        result.candidates_above_threshold += above
        return [
            SearchMatch(sig_slice=sig_slice, omega=omega, offset=offset)
            for omega, offset in hits
        ]


class SlidingWindowSearch(CorrelationSearch):
    """Algorithm 1: the exponential sliding-window search."""

    def __init__(
        self, config: SearchConfig | None = None, precompute: bool = False
    ) -> None:
        cfg = config or SearchConfig()
        super().__init__(
            cfg,
            ExponentialSkipPolicy(
                alpha=cfg.alpha,
                skip_scale=cfg.skip_scale,
                omega_floor=cfg.omega_floor,
                max_skip=cfg.max_skip,
            ),
            precompute=precompute,
        )


class ExhaustiveSearch(CorrelationSearch):
    """The exhaustive baseline: every offset of every signal-set."""

    def __init__(
        self, config: SearchConfig | None = None, precompute: bool = False
    ) -> None:
        super().__init__(
            config or SearchConfig(), FixedSkipPolicy(1), precompute=precompute
        )

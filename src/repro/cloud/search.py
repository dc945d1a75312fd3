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

The engine runs two ways over the same walk: over a plain slice
iterable (the scalar or precompute reference path) and over the
compiled :class:`~repro.cloud.shards.ShardedSearchPlane`, where a
single search is a batch of one and each query walks every shard in
one pass.  The compiled path is bit-identical to the scalar reference;
the optional coarse screen (``two_stage="fast"``) is the one
deliberate exception.

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
from repro.cloud.coarse import ScreenOutcome, assemble_fast
from repro.cloud.plane import PlaneCore
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

    ``two_stage`` engages the coarse screening pass on compiled-plane
    searches (``"off"`` | ``"fast"`` — see :mod:`repro.cloud.coarse`):
    ``"fast"`` walks only the ``coarse_keep_fraction`` best-scoring
    slices (never fewer than ``top_k``), trading a Fig. 11-gated sliver
    of quality for throughput.  ``coarse_decimation`` is the block size
    ``D`` of the decimated grid.  Raw-iterable searches (no compiled
    plane) ignore the setting.
    """

    frame_samples: int = FRAME_SAMPLES
    delta: float = DEFAULT_DELTA
    alpha: float = DEFAULT_ALPHA
    skip_scale: float = 135.0
    omega_floor: float = 0.05
    max_skip: int = 250
    top_k: int = DEFAULT_TOP_K
    dedupe_per_slice: bool = True
    two_stage: str = "off"
    coarse_decimation: int = 8
    coarse_keep_fraction: float = 0.25

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
        if self.two_stage not in ("off", "fast"):
            raise SearchError(
                f"two_stage must be 'off' or 'fast', got {self.two_stage!r}"
            )
        if self.two_stage != "off":
            if not (2 <= self.coarse_decimation <= self.frame_samples):
                raise SearchError(
                    "coarse decimation must be in [2, frame_samples], got "
                    f"{self.coarse_decimation}"
                )
            if not (0.0 < self.coarse_keep_fraction <= 1.0):
                raise SearchError(
                    "coarse keep fraction must be in (0, 1], got "
                    f"{self.coarse_keep_fraction}"
                )


class SkipPolicy(Protocol):
    """Decides the window advance after one correlation evaluation."""

    def skip(self, omega: float) -> int:
        """Samples to advance given the (clamped) correlation ω."""
        ...

    def skip_table(self, omegas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`skip`: ``int64`` advances for every ω."""
        ...


class FixedSkipPolicy:
    """Constant advance; ``FixedSkipPolicy(1)`` is the exhaustive search."""

    def __init__(self, step: int = 1) -> None:
        if step < 1:
            raise SearchError(f"fixed skip must be >= 1, got {step}")
        self.step = step

    def skip(self, omega: float) -> int:
        return self.step

    def skip_table(self, omegas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`skip` for a whole correlation array."""
        return np.full(omegas.size, self.step, dtype=np.int64)


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

    def skip_table(self, omegas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`skip` for a whole correlation array.

        ``np.rint`` and ``np.clip`` mirror ``int(round(...))`` and
        ``max(1, min(...))`` exactly (both round half to even on
        float64), so the table entry at any ω equals ``skip(ω)``.
        """
        effective = np.maximum(omegas, self.omega_floor)
        np.divide(self.skip_scale * self.alpha, effective, out=effective)
        np.rint(effective, out=effective)
        np.clip(effective, 1, self.max_skip, out=effective)
        return effective.astype(np.int64)


def _screen(
    cores: Sequence[PlaneCore],
    config: SearchConfig,
    centered: np.ndarray,
    norm: float,
) -> ScreenOutcome | None:
    """One *global* coarse verdict over the shard cores of one epoch.

    ``None`` when two-stage search is off.  Per-slice scores are pure
    per-slice functions, so concatenating each shard's
    :meth:`~repro.cloud.coarse.CoarseIndex.fast_scores` in shard order
    and assembling the verdict globally reaches the same keep set for
    every shard width — critically, the keep *count* and the lexsort
    tie-break see the whole plane, never one shard.
    """
    if config.two_stage == "off":
        return None
    started = time.perf_counter()
    scores = np.concatenate(
        [
            core.ensure_coarse(
                config.frame_samples, config.coarse_decimation
            ).fast_scores(centered, norm)
            for core in cores
        ]
    )
    return assemble_fast(
        scores,
        config.coarse_keep_fraction,
        config.top_k,
        time.perf_counter() - started,
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
    """Algorithm 1's window walk over one slice.

    ``evaluate(offset)`` returns the normalised correlation at one
    offset — either a scalar evaluator or indexing into a precomputed
    correlation array; the admitted ``(omega, offset)`` hits and the
    evaluation counts are identical either way, which is what keeps
    every execution mode (scalar, precompute, plane) bit-identical.

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


class PlaneWalker:
    """One query's batched skip-policy replay over a compiled plane.

    Construction does all per-query vectorised work in bulk: the
    per-slice dot products and one normalisation pass over the
    concatenated correlation array.  :meth:`walk_all` then runs every
    slice's walk level-synchronously — one vectorised gather and one
    ``skip_table`` call advance all still-walking slices a hop per
    round — and classifies the visited offsets against the threshold
    in a single pass afterwards, so no per-offset Python loop remains.

    Hits and counters are bit-identical to :func:`replay_skip_walk`
    over the scalar evaluator: the trajectory through each slice is the
    same pure function of the correlation value at each visited offset,
    and every float op (dots, norms, rounding, clamps) is the same
    IEEE-754 operation, merely batched.

    ``parts`` lists ``(core, base, indices)`` triples: the slices
    ``indices`` of ``core`` (all of them when ``None``) join the layout
    in order and report hits under the global id ``base + index``.  One
    walker therefore spans every shard of a plane, so the walk over a
    sharded plane runs exactly the rounds the one-shard walk would.
    """

    __slots__ = (
        "_clamped",
        "_dedupe",
        "_delta",
        "_ids",
        "_policy",
        "_starts",
        "_step",
        "_stops",
    )

    #: Below this many still-walking slices the level-synchronous
    #: rounds stop paying for their fixed vector-op overhead; the few
    #: stragglers finish in a plain loop instead.
    _STRAGGLER_CUTOFF = 8

    def __init__(
        self,
        parts: Sequence[tuple[PlaneCore, int, np.ndarray | None]],
        centered: np.ndarray,
        norm: float,
        policy: SkipPolicy,
        delta: float,
        dedupe_per_slice: bool,
    ) -> None:
        self._policy = policy
        self._delta = delta
        self._dedupe = dedupe_per_slice
        self._step = getattr(policy, "step", None)
        id_parts: list[np.ndarray] = []
        length_parts: list[np.ndarray] = []
        # (core, local ids, lengths, window norms, min norm) per part.
        layout: list[tuple[PlaneCore, np.ndarray, np.ndarray, np.ndarray, float]] = []
        for core, base, indices in parts:
            cache = core.ensure_norms(centered.size)
            offsets = cache.offsets
            if indices is None or len(indices) == core.n_slices:
                # The norm cache's concatenated layout IS the walk layout.
                local = np.arange(core.n_slices, dtype=np.int64)
                lengths = np.diff(offsets)
                norms = cache.norms
                min_norm = cache.min_norm
            else:
                local = np.asarray(indices, dtype=np.int64)
                lengths = offsets[local + 1] - offsets[local]
                pieces = [
                    cache.slice_norms(int(index))
                    for index, length in zip(local, lengths)
                    if length > 0
                ]
                norms = np.concatenate(pieces) if pieces else np.zeros(0)
                min_norm = float(norms.min()) if norms.size else 0.0
            id_parts.append(local + base)
            length_parts.append(lengths)
            if norms.size:
                layout.append((core, local, lengths, norms, min_norm))
        lengths = np.concatenate(length_parts)
        self._ids = np.concatenate(id_parts)
        self._stops = np.cumsum(lengths)
        self._starts = self._stops - lengths
        total = int(self._stops[-1]) if lengths.size else 0
        if norm < 1e-12:
            self._clamped = np.zeros(total)
        else:
            # Normalise part by part, so each part's temporaries stay
            # cache-sized, straight into its slot of the layout.
            self._clamped = np.empty(total)
            stop = 0
            for core, local, lengths, norms, min_norm in layout:
                start, stop = stop, stop + norms.size
                dots = np.concatenate(
                    [
                        core.dots(int(index), centered)
                        for index, length in zip(local, lengths)
                        if length > 0
                    ]
                )
                denominator = norm * norms
                if norm * min_norm >= 1e-12:
                    # No flat window in this part (the cached minimum
                    # norm proves it), so skip the per-offset masking.
                    values = np.divide(dots, denominator, out=dots)
                else:
                    flat = denominator < 1e-12
                    denominator[flat] = 1.0
                    values = np.divide(dots, denominator, out=dots)
                    values[flat] = 0.0
                # clip(x, -1, 1) then max(·, 0) — Algorithm 1 lines
                # 9-11 — collapses to one clip into [0, 1].
                np.clip(values, 0.0, 1.0, out=self._clamped[start:stop])

    def walk_all(self) -> tuple[list[tuple[int, float, int]], int, int]:
        """Replay every slice's walk over the compiled layout.

        Returns ``(hits, evaluated, above_threshold)`` where ``hits``
        holds ``(slice_index, omega, relative_offset)`` tuples in
        exactly the order the sequential per-slice scan would admit
        them (slices in scan order, offsets ascending within a slice),
        so heap tie-breaking is unchanged.
        """
        if self._step is not None:
            return self._walk_all_strided()
        return self._classify_visited(self._visit_positions())

    def _visit_positions(self) -> np.ndarray:
        """Level-synchronous walk over all slices at once.

        Each round gathers the correlation at every still-walking
        slice's position in one vectorised ``take`` and hops by the
        policy's ``skip_table`` of those values; finished slices drop
        out.  Skips are computed only at visited offsets, never for the
        whole layout.
        The visited set is identical to running the scalar walk per
        slice because each hop depends only on the (precomputed)
        correlation at the current offset, and ``skip_table`` applied
        to any subset of values is the same elementwise IEEE-754
        computation as ``skip``.  Positions are returned in round-major
        order; :meth:`_classify_visited` does not depend on the order.
        """
        values = self._clamped
        table = self._policy.skip_table
        starts = self._starts
        live = starts < self._stops
        pos = starts[live]
        stop = self._stops[live]
        buf: list[np.ndarray] = []
        while pos.size > self._STRAGGLER_CUTOFF:
            buf.append(pos)
            pos = pos + table(values.take(pos))
            alive = pos < stop
            pos = pos[alive]
            stop = stop[alive]
        if pos.size:
            skip = self._policy.skip
            tail: list[int] = []
            for position, bound in zip(pos.tolist(), stop.tolist()):
                while position < bound:
                    tail.append(position)
                    position += skip(float(values[position]))
            buf.append(np.asarray(tail, dtype=np.int64))
        if not buf:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(buf)

    def _classify_visited(
        self, visited: np.ndarray
    ) -> tuple[list[tuple[int, float, int]], int, int]:
        """Threshold + dedupe + scan-order restore over visited positions.

        Pure function of the visited set (order-insensitive).
        """
        evaluated = int(visited.size)
        if not evaluated:
            return [], 0, 0
        starts = self._starts
        values = self._clamped.take(visited)
        above_mask = values > self._delta
        above = int(np.count_nonzero(above_mask))
        if not above:
            return [], evaluated, 0
        above_pos = visited[above_mask]
        above_val = values[above_mask]
        # Visited order is round-major; restore the sequential scan's
        # admission order (slice by slice, offsets ascending).  An
        # empty slice shares its start with the following non-empty one
        # but precedes it, so "last row with start <= position" always
        # lands on the owner.
        rows = np.searchsorted(starts, above_pos, side="right") - 1
        order = np.lexsort((above_pos, rows))
        rows = rows[order]
        above_val = above_val[order]
        rel = above_pos[order] - starts[rows]
        ids = self._ids
        hits: list[tuple[int, float, int]] = []
        if self._dedupe:
            # np.argmax keeps the first maximum, matching the scalar
            # walk's strict-improvement best tracking.
            edges = [
                0,
                *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist(),
                rows.size,
            ]
            for begin, end in zip(edges[:-1], edges[1:]):
                best = begin + int(np.argmax(above_val[begin:end]))
                hits.append(
                    (
                        int(ids[rows[best]]),
                        float(above_val[best]),
                        int(rel[best]),
                    )
                )
        else:
            hits = [
                (int(ids[row]), float(omega), int(offset))
                for row, omega, offset in zip(
                    rows.tolist(), above_val.tolist(), rel.tolist()
                )
            ]
        return hits, evaluated, above

    def _walk_all_strided(self) -> tuple[list[tuple[int, float, int]], int, int]:
        """Fixed-skip walk: each slice is a pure stride of the layout."""
        step = self._step
        hits: list[tuple[int, float, int]] = []
        evaluated = 0
        above = 0
        for row in range(self._ids.size):
            start = int(self._starts[row])
            stop = int(self._stops[row])
            if stop <= start:
                continue
            segment = self._clamped[start:stop:step]
            mask = segment > self._delta
            n_above = int(np.count_nonzero(mask))
            evaluated += int(segment.size)
            above += n_above
            if not n_above:
                continue
            values = segment[mask]
            relative = np.flatnonzero(mask) * step
            index = int(self._ids[row])
            if self._dedupe:
                best = int(np.argmax(values))
                hits.append(
                    (index, float(values[best]), int(relative[best]))
                )
            else:
                hits.extend(
                    (index, float(omega), int(offset))
                    for omega, offset in zip(
                        values.tolist(), relative.tolist()
                    )
                )
        return hits, evaluated, above


def _offer_hits(
    top: TopK[SearchMatch],
    slices: Sequence[SignalSlice],
    hits: Iterable[tuple[int, float, int]],
) -> None:
    """Admit walker hits ``(slice_index, ω, offset)`` as matches."""
    for index, omega, offset in hits:
        top.offer(
            omega,
            SearchMatch(sig_slice=slices[index], omega=omega, offset=offset),
        )


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

    ``precompute=True`` evaluates each slice's full correlation array
    vectorised and then replays the skip-policy walk over it: the
    admitted matches and the ``correlations_evaluated`` statistic (the
    algorithmic cost that drives the timing model) are identical to the
    per-offset scalar mode; only the host wall-clock changes.  The
    closed-loop framework uses precompute mode for throughput; the
    Fig. 7(b) exploration-time benches use scalar mode, where
    wall-clock honestly tracks the number of correlations a device
    would evaluate.

    Passing a :class:`~repro.cloud.shards.ShardedSearchPlane` (or one
    of its pinned epochs) instead of a slice iterable reuses the
    plane's compiled arrays and cached window norms, amortising all
    query-independent work across requests while replaying the same
    walk; :meth:`search_batch` is that path, and :meth:`search` over a
    plane is a batch of one.
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
        iterable of signal-sets (the scalar / precompute reference
        path), a compiled :class:`~repro.cloud.shards.ShardedSearchPlane`
        or one of its pinned epochs (:meth:`search_batch` of one frame).
        """
        if isinstance(slices, (ShardedSearchPlane, ShardEpoch)):
            return self.search_batch([frame], slices)[0]
        centered, norm = self.prepare_query(frame)
        result = SearchResult()
        top: TopK[SearchMatch] = TopK(self.config.top_k)
        with obs.trace.span("cloud.search") as span:
            for sig_slice in slices:
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
        prepared against the pinned epoch.  Each query then screens
        once *globally* across all shard cores and walks every shard in
        one :class:`PlaneWalker`.  Shards are laid out in ascending
        order and each walker returns its hits in scan order, so heap
        tie-breaks — and with them matches, ω values, offsets and
        statistics — are bit-identical to :meth:`search` over the plain
        slice list.
        """
        if not frames:
            return []
        epoch = source.pin() if isinstance(source, ShardedSearchPlane) else source
        prepared = [self.prepare_query(frame) for frame in frames]
        cores = [shard.core for shard in epoch.shards]
        results: list[SearchResult] = []
        tops: list[TopK[SearchMatch]] = []
        merge_s = 0.0
        with obs.trace.span("cloud.search", queries=len(frames)) as span:
            for centered, norm in prepared:
                result = SearchResult(slices_searched=epoch.n_slices)
                outcome = _screen(cores, self.config, centered, norm)
                parts: list[tuple[PlaneCore, int, np.ndarray | None]] = []
                for core, base in zip(cores, epoch.bases):
                    walk_ids: np.ndarray | None = None
                    if outcome is not None:
                        kept, pruned = outcome.apply(
                            range(base, base + core.n_slices)
                        )
                        walk_ids = kept - base
                        result.slices_pruned += pruned
                    parts.append((core, base, walk_ids))
                if outcome is not None:
                    result.coarse_elapsed_s = outcome.elapsed_s
                    self._publish_screen(
                        outcome, epoch.n_slices, result.slices_pruned
                    )
                walker = PlaneWalker(
                    parts,
                    centered,
                    norm,
                    self.policy,
                    self.config.delta,
                    self.config.dedupe_per_slice,
                )
                (
                    hits,
                    result.correlations_evaluated,
                    result.candidates_above_threshold,
                ) = walker.walk_all()
                merge_started = time.perf_counter()
                top: TopK[SearchMatch] = TopK(self.config.top_k)
                _offer_hits(top, epoch.slices, hits)
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
        if result.coarse_elapsed_s > 0.0:
            # Stage-1 (coarse screen) vs stage-2 (exact walk) split.
            registry.observe(
                "cloud.search.stage2_s",
                max(result.elapsed_s - result.coarse_elapsed_s, 0.0),
            )

    def _publish_screen(
        self, outcome: ScreenOutcome, scanned: int, pruned: int
    ) -> None:
        """Record one coarse screen's prune rate and tightness."""
        registry = obs.metrics()
        if not registry.enabled:
            return
        registry.inc("cloud.plane.coarse.screens")
        registry.inc("cloud.plane.coarse.slices_pruned", pruned)
        if scanned:
            registry.observe(
                "cloud.plane.coarse.prune_rate", pruned / scanned
            )
        registry.observe("cloud.plane.coarse.keep_floor", outcome.keep_floor)
        registry.observe("cloud.search.stage1_s", outcome.elapsed_s)

    def _scan_slice(
        self,
        sig_slice: SignalSlice,
        centered: np.ndarray,
        norm: float,
        result: SearchResult,
    ) -> list[SearchMatch]:
        """Scan one signal-set; returns its admitted matches."""
        length = self.config.frame_samples
        if len(sig_slice) < length:
            return []
        last_offset = len(sig_slice) - length
        if self.precompute:
            correlations = _full_correlations(centered, norm, sig_slice.data)
            evaluate = correlations.__getitem__
        else:
            evaluate = ScalarWindowEvaluator(sig_slice.data, centered, norm)
        hits, evaluated, above = replay_skip_walk(
            evaluate,
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


def _full_correlations(
    centered: np.ndarray, norm: float, series: np.ndarray
) -> np.ndarray:
    """Normalised correlation of a precentred query at every offset.

    Vectorised prefix-sum implementation identical in output to
    :meth:`WindowedStats.normalized_correlation_with` over all offsets.
    """
    m = centered.size
    n_offsets = series.size - m + 1
    if norm < 1e-12:
        return np.zeros(n_offsets)
    prefix = np.concatenate(([0.0], np.cumsum(series)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(series * series)))
    sums = prefix[m:] - prefix[:-m]
    sq_sums = prefix_sq[m:] - prefix_sq[:-m]
    centered_norms = np.sqrt(np.maximum(sq_sums - sums * sums / m, 0.0))
    dots = np.correlate(series, centered, mode="valid")
    denominator = norm * centered_norms
    flat = denominator < 1e-12
    denominator[flat] = 1.0
    values = dots / denominator
    values[flat] = 0.0
    return np.clip(values, -1.0, 1.0)


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

"""Coarse-pass candidate screening for the two-stage plane search.

The exact skip-walk (:class:`~repro.cloud.search.PlaneWalker`) prices
every slice at its full dot products even when the slice plainly cannot
contribute a match.  The coarse pass ranks slices first with a
**decimated block-sum (PAA) correlation**: each slice is summarised on
a fixed stride-``D`` grid of centred block sums, compiled **once per
shard core** next to the exact norm caches, and a single
``np.correlate`` over the zero-padded concatenated block sums then
scores every grid-aligned window (offsets ``o ≡ 0 mod D``) of every
slice at ``1/D²`` of the exact cost.

Each slice's score is its best grid-aligned ``⟨q̃, S⟩/D`` (``q̃`` the
query's block sums, ``S`` the slice's) normalised by the exact cached
window norm.  Only the best ``keep_fraction`` of slices (never fewer
than the caller's ``min_keep``) are walked exactly.  This is a
heuristic, not a proof: its quality is gated by the Fig. 11
search-quality benchmark.

Everything query-independent (grid, gather indices, window norms)
lives in :class:`CoarseIndex`, cached on the
:class:`~repro.cloud.plane.PlaneCore` it was compiled from — a shard
recompiled by a plane refresh is a fresh core, which drops these caches
exactly as it drops the exact-pass norm caches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import SearchError

if TYPE_CHECKING:  # runtime import would be circular (plane builds us)
    from repro.cloud.plane import PlaneCore, PlaneNorms

#: Denominators below this are treated as flat (zero-variance) windows,
#: matching the exact engines' epsilon.
_NORM_EPSILON = 1e-12


def _segment_max(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-segment maximum of ``values``; empty segments yield ``-inf``.

    ``bounds`` has ``n + 1`` entries delimiting ``n`` contiguous
    segments.  ``np.maximum.reduceat`` mis-handles empty segments
    (it returns the element *at* the boundary), so the reduction runs
    over the non-empty starts only — consecutive non-empty starts are
    exactly the segment boundaries once empties carry no elements.
    """
    counts = np.diff(bounds)
    out = np.full(counts.size, -np.inf)
    nonempty = counts > 0
    if values.size:
        out[nonempty] = np.maximum.reduceat(values, bounds[:-1][nonempty])
    return out


@dataclass(frozen=True)
class ScreenOutcome:
    """One query's coarse screening verdict over the whole plane.

    ``keep`` flags the slices the exact stage must walk; ``keep_floor``
    is the coarse score of the weakest kept slice (0 when everything
    is kept), the screen's tightness observable.
    """

    keep: np.ndarray
    keep_floor: float
    elapsed_s: float

    def apply(self, scan: Sequence[int] | range) -> tuple[np.ndarray, int]:
        """Restrict the verdict to ``scan``'s slice ids.

        Returns ``(kept_ids, pruned_count)`` — per-slice verdicts are
        global, so every shard width reaches identical decisions.
        """
        ids = np.asarray(scan, dtype=np.int64)
        kept = ids[self.keep[ids]]
        return kept, int(ids.size - kept.size)


def assemble_fast(
    scores: np.ndarray,
    keep_fraction: float,
    min_keep: int,
    elapsed_s: float,
) -> ScreenOutcome:
    """Turn per-slice coarse scores into a fast-mode verdict.

    The keep count and the lexsort tie-break run over the *global*
    score vector, so sharded scans (which concatenate per-shard
    :meth:`CoarseIndex.fast_scores`) select exactly the slices a
    one-shard screen would.
    """
    n = scores.size
    n_keep = min(n, max(min_keep, int(np.ceil(keep_fraction * n))))
    keep = np.zeros(n, dtype=bool)
    if n_keep >= n:
        keep[:] = True
        floor = 0.0
    else:
        order = np.lexsort((np.arange(n), -scores))
        keep[order[:n_keep]] = True
        weakest = scores[order[n_keep - 1]] if n_keep else -np.inf
        floor = float(weakest) if np.isfinite(weakest) else 0.0
    return ScreenOutcome(keep=keep, keep_floor=floor, elapsed_s=elapsed_s)


class CoarseIndex:
    """The compiled coarse screen for one ``(frame length, D)`` pair.

    Construction walks every slice once, building the stride-``D``
    block sums and the gather indices that make a screen call pure
    vector work: one padded ``np.correlate`` plus O(candidates)
    arithmetic, with no per-slice Python loop on the query path.
    """

    def __init__(
        self,
        core: "PlaneCore",
        norms: "PlaneNorms",
        frame_samples: int,
        decimation: int,
    ) -> None:
        if decimation < 2:
            raise SearchError(
                f"coarse decimation must be >= 2, got {decimation}"
            )
        if decimation > frame_samples:
            raise SearchError(
                f"coarse decimation {decimation} exceeds the frame length "
                f"{frame_samples}"
            )
        self.frame_samples = frame_samples
        self.decimation = decimation
        self.n_slices = core.n_slices
        m, d = frame_samples, decimation
        self._kernel_len = m // d
        pad = self._kernel_len  # isolates slices in the shared correlate
        zeros_pad = np.zeros(pad)
        padded_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        wnorm_parts: list[np.ndarray] = []
        n_offsets = np.zeros(self.n_slices, dtype=np.int64)
        bounds = np.zeros(self.n_slices + 1, dtype=np.int64)
        position = 0
        for index in range(self.n_slices):
            data = core.slice_data(index)
            n = data.size
            n_offsets[index] = max(0, n - m + 1)
            centered = data - data.mean()
            n_full = n // d
            sums = centered[: n_full * d].reshape(n_full, d).sum(axis=1)
            if n > n_full * d:
                # The partial trailing block never starts a grid-aligned
                # window; it only keeps the padded layout uniform.
                sums = np.append(sums, centered[n_full * d :].sum())
            count = (int(n_offsets[index]) - 1) // d + 1  # 0 if no offset
            bounds[index + 1] = bounds[index] + count
            if count:
                pos_parts.append(position + np.arange(count, dtype=np.int64))
                wnorm_parts.append(norms.slice_norms(index)[::d])
            position += sums.size + pad
            padded_parts.append(sums)
            padded_parts.append(zeros_pad)
        self._padded = (
            np.concatenate(padded_parts) if padded_parts else np.zeros(0)
        )
        self._corr_pos = (
            np.concatenate(pos_parts)
            if pos_parts
            else np.zeros(0, dtype=np.int64)
        )
        self._window_norms = (
            np.concatenate(wnorm_parts) if wnorm_parts else np.zeros(0)
        )
        self._bounds = bounds
        self._n_offsets = n_offsets

    @property
    def nbytes(self) -> int:
        """Bytes of the compiled coarse arrays."""
        return (
            self._padded.nbytes
            + self._corr_pos.nbytes
            + self._window_norms.nbytes
            + self._bounds.nbytes
            + self._n_offsets.nbytes
        )

    # -- screening ----------------------------------------------------

    def fast_scores(self, centered: np.ndarray, norm: float) -> np.ndarray:
        """Per-slice grid-aligned coarse scores (``-inf`` for slices
        with no candidate offset).

        A pure per-slice function, so a sharded plane concatenating
        per-shard score vectors gets the one-shard vector exactly.
        """
        if norm < _NORM_EPSILON:
            return np.where(self._n_offsets > 0, 0.0, -np.inf)
        d = self.decimation
        kernel = centered[: self._kernel_len * d].reshape(-1, d).sum(axis=1)
        dots = np.correlate(self._padded, kernel, mode="valid")
        estimate = dots[self._corr_pos] / d
        denominator = norm * self._window_norms
        flat = denominator < _NORM_EPSILON
        safe = np.where(flat, 1.0, denominator)
        score = estimate / safe
        score[flat] = 0.0
        return _segment_max(score, self._bounds)

    def screen_fast(
        self,
        centered: np.ndarray,
        norm: float,
        keep_fraction: float,
        min_keep: int,
    ) -> ScreenOutcome:
        """Rank slices by coarse score; keep the best fraction.

        Keeps ``max(min_keep, ⌈keep_fraction · n_slices⌉)`` slices
        (all of them when that reaches the plane size).  Ties break on
        the lower slice id, so the selection is deterministic and
        identical across whole-plane and sharded scans.
        """
        started = time.perf_counter()
        scores = self.fast_scores(centered, norm)
        return assemble_fast(
            scores,
            keep_fraction,
            min_keep,
            time.perf_counter() - started,
        )

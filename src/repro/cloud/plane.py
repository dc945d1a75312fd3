"""The compiled core of the MDB search plane, and its skip walk.

A :class:`PlaneCore` compiles a run of slices **once** into two
contiguous NumPy arrays (concatenated samples plus an ``int64`` slice
offset table) and caches, per frame length, the centred norm of every
window of every slice.  A query then pays only for Algorithm 1's walk:
:meth:`PlaneCore.walk` visits each slice's offsets by the skip rule
and computes the correlation **only at the offsets it visits** — the
β = αω⁻¹ skip exists so the cloud evaluates fewer correlations, and
the walk's cost now follows the ``correlations_evaluated`` count the
Eq. 4 model prices.

Every compiled core is one shard of a
:class:`~repro.cloud.shards.ShardedSearchPlane`, which owns the slice
metadata and the refresh-on-insert lifecycle; a core carries no slice
metadata and no reference back to the MDB.

The walk is **bit-identical** to the scalar engine
(:func:`~repro.cloud.search.replay_skip_walk` over
:meth:`~repro.signals.windows.WindowedStats.normalized_correlation_with`):
norms come from the same :func:`~repro.signals.windows.centered_window_norms`,
dot products replay numpy's pairwise ``np.multiply(c, w).sum()``, and
the hop is the same IEEE-754 ``rint``/``clip`` of the same ω.  It runs
on the backend :mod:`repro.kernels` selects: the compiled
``cloud_walk`` (one call per shard core and query, no threads), or a
numpy fallback that advances every slice's walk one hop per
level-synchronous round, gathering dot products only at the visited
windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.errors import SearchError
from repro.kernels import compiled_kernels
from repro.signals.metrics import NORM_EPSILON
from repro.signals.windows import centered_window_norms


class SkipRule(NamedTuple):
    """Algorithm 1's hop as the four numbers both walk backends read.

    After a correlation ω the walk advances
    ``clip(rint(scale / max(ω, floor)), low, high)`` samples: the
    exponential policy is ``(skip_scale·α, ε, 1, max_skip)``, a fixed
    step ``k`` is ``(0, 1, k, k)``.
    """

    scale: float
    floor: float
    low: int
    high: int

    def table(self, omegas: np.ndarray) -> np.ndarray:
        """``int64`` hops for every ω (the same ``rint`` as ``round``)."""
        hops = np.maximum(omegas, self.floor)
        np.divide(self.scale, hops, out=hops)
        np.rint(hops, out=hops)
        np.clip(hops, self.low, self.high, out=hops)
        return hops.astype(np.int64)


class WalkHits(NamedTuple):
    """One query's walk over one core.

    Hits are in scan order (slices ascending, offsets ascending):
    ``slices`` holds core-local slice indices, ``omegas`` the admitted
    correlations and ``offsets`` their offsets within the slice.
    """

    slices: np.ndarray
    omegas: np.ndarray
    offsets: np.ndarray
    evaluated: int
    above_threshold: int


@dataclass(frozen=True)
class PlaneNorms:
    """One frame length's centred window norms for every slice.

    ``norms`` concatenates the per-slice norm arrays (slice ``i`` owns
    ``norms[offsets[i]:offsets[i + 1]]``); a slice shorter than the
    frame contributes zero entries.
    """

    norms: np.ndarray
    offsets: np.ndarray


class PlaneCore:
    """Contiguous sample arrays, cached window norms and the walk.

    Deliberately metadata-free: it never sees labels, ids, or
    ``SignalSlice`` objects.  Norm caches are keyed by frame length and
    persist for the core's lifetime, so repeated queries amortise all
    query-independent work.
    """

    def __init__(self, samples: np.ndarray, offsets: np.ndarray) -> None:
        if samples.ndim != 1:
            raise SearchError(f"plane samples must be 1-D, got {samples.shape}")
        if offsets.ndim != 1 or offsets.size < 2:
            raise SearchError("plane offset table must have >= 2 entries")
        # The compiled walk reads these buffers raw.
        self.samples = np.ascontiguousarray(samples, dtype=np.float64)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self._norm_caches: dict[int, PlaneNorms] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def n_slices(self) -> int:
        return self.offsets.size - 1

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def nbytes(self) -> int:
        """Bytes of the compiled arrays (norm caches excluded)."""
        return self.samples.nbytes + self.offsets.nbytes

    def slice_data(self, index: int) -> np.ndarray:
        """Contiguous view of slice ``index``'s samples."""
        return self.samples[self.offsets[index] : self.offsets[index + 1]]

    def ensure_norms(self, frame_samples: int) -> PlaneNorms:
        """The norm cache for ``frame_samples``, building it on miss.

        A miss computes the centred norms of **every** slice in one
        pass, with the scalar engine's own
        :func:`~repro.signals.windows.centered_window_norms`.
        """
        if frame_samples <= 0:
            raise SearchError(
                f"frame size must be positive, got {frame_samples}"
            )
        cached = self._norm_caches.get(frame_samples)
        if cached is not None:
            self.cache_hits += 1
            obs.metrics().inc("cloud.plane.cache_hits")
            return cached
        self.cache_misses += 1
        started = time.perf_counter()
        per_slice = [
            centered_window_norms(self.slice_data(index), frame_samples)
            for index in range(self.n_slices)
        ]
        norm_offsets = np.zeros(self.n_slices + 1, dtype=np.int64)
        np.cumsum([norms.size for norms in per_slice], out=norm_offsets[1:])
        cache = PlaneNorms(norms=np.concatenate(per_slice), offsets=norm_offsets)
        self._norm_caches[frame_samples] = cache
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("cloud.plane.cache_misses")
            registry.observe(
                "cloud.plane.norm_cache_build_s", time.perf_counter() - started
            )
        return cache

    def walk(
        self,
        centered: np.ndarray,
        norm: float,
        rule: SkipRule,
        delta: float,
        dedupe_per_slice: bool,
    ) -> WalkHits:
        """Algorithm 1 over every slice of this core for one query.

        ``centered`` is the mean-subtracted query frame and ``norm`` its
        L2 norm.  Returns exactly what :func:`~repro.cloud.search.replay_skip_walk`
        over the scalar evaluator would for each slice in turn: the
        same hits, in the same order, and the same counts.
        """
        if not 1 <= rule.low <= rule.high:
            # A hop of 0 would never leave the offset it is on.
            raise SearchError(f"skip rule hops must satisfy 1 <= low <= high, got {rule}")
        cache = self.ensure_norms(centered.size)
        kernels = compiled_kernels()
        if kernels is None:
            return self._walk_rounds(cache, centered, norm, rule, delta, dedupe_per_slice)
        capacity = self.n_slices if dedupe_per_slice else cache.norms.size
        hit_slices = np.empty(capacity, dtype=np.int64)
        hit_offsets = np.empty(capacity, dtype=np.int64)
        hit_omegas = np.empty(capacity)
        hits, evaluated, above = kernels.walk(
            self.samples,
            self.offsets,
            cache.norms,
            cache.offsets,
            np.ascontiguousarray(centered, dtype=np.float64),
            norm,
            delta,
            rule,
            dedupe_per_slice,
            hit_slices,
            hit_offsets,
            hit_omegas,
        )
        return WalkHits(
            hit_slices[:hits], hit_omegas[:hits], hit_offsets[:hits], evaluated, above
        )

    def _walk_rounds(
        self,
        cache: PlaneNorms,
        centered: np.ndarray,
        norm: float,
        rule: SkipRule,
        delta: float,
        dedupe_per_slice: bool,
    ) -> WalkHits:
        """The numpy walk: every slice advances one hop per round.

        Each round gathers the still-walking slices' current windows,
        takes their dot products as ``(windows[pos] * centered).sum(axis=1)``
        (the reference's pairwise sum, row by row) and hops by the rule;
        finished slices drop out.  Threshold, dedupe and scan order are
        then one pass over everything visited.
        """
        norm_starts = cache.offsets[:-1]
        lengths = np.diff(cache.offsets)
        rows = np.flatnonzero(lengths)
        if not rows.size:
            nothing = np.zeros(0, dtype=np.int64)
            return WalkHits(nothing, np.zeros(0), nothing, 0, 0)
        windows = np.lib.stride_tricks.sliding_window_view(self.samples, centered.size)
        positions = np.zeros(rows.size, dtype=np.int64)
        visited: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while rows.size:
            denominator = norm * cache.norms[norm_starts[rows] + positions]
            flat = denominator < NORM_EPSILON
            denominator[flat] = 1.0
            dots = (windows[self.offsets[rows] + positions] * centered).sum(axis=1)
            omegas = np.clip(dots / denominator, 0.0, 1.0)
            omegas[flat] = 0.0
            visited.append((rows, positions, omegas))
            positions = positions + rule.table(omegas)
            walking = positions < lengths[rows]
            rows = rows[walking]
            positions = positions[walking]
        rows, positions, omegas = (np.concatenate(part) for part in zip(*visited))
        evaluated = rows.size
        above = omegas > delta
        rows, positions, omegas = rows[above], positions[above], omegas[above]
        if dedupe_per_slice:
            # Each slice's first maximum, as the scalar walk's strict
            # improvement keeps it.
            order = np.lexsort((positions, -omegas, rows))
            first = np.ones(order.size, dtype=bool)
            first[1:] = rows[order[1:]] != rows[order[:-1]]
            order = order[first]
        else:
            order = np.lexsort((positions, rows))
        return WalkHits(
            rows[order], omegas[order], positions[order], evaluated, int(above.sum())
        )

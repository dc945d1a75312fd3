"""The compiled core of the MDB search plane.

``CloudServer.handle_frame`` used to recompute every slice's prefix
sums and window norms from scratch on each request; at production
request rates that query-independent work dominates serving latency.
A :class:`PlaneCore` amortises it: a run of slices is compiled **once**
into two contiguous NumPy arrays (concatenated samples plus an
``int64`` slice offset table), and each frame length's centred window
norms are precomputed for *all* its slices in one pass and cached for
the core's lifetime.  A query then only pays for its own dot products.

Every compiled core is one shard of a
:class:`~repro.cloud.shards.ShardedSearchPlane`, which owns the slice
metadata and the refresh-on-insert lifecycle; a core carries no slice
metadata and no reference back to the MDB.

Correlation values are **bit-identical** to the scalar engine on the
direct path: norms use the same ``sqrt(max(Σx² − (Σx)²/m, 0))``
prefix-sum formula and dots the same ``np.correlate`` call, so the
skip-policy walk replayed over a plane-backed correlation array visits
exactly the offsets the per-offset scalar loop would.  For slices long
enough that ``O(N·M)`` direct correlation loses (``fft_min_samples``,
default 8192 — well above the standard 1000-sample signal-sets), dots
switch to an rFFT product, equal to the direct path within ~1e-12.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cloud.coarse import CoarseIndex
from repro.errors import SearchError

#: Slices shorter than this always use direct ``np.correlate``; the
#: default keeps the standard 1000-sample signal-sets on the
#: bit-identical direct path (np.correlate's C loop beats rFFT overhead
#: until slices are several thousand samples long).
DEFAULT_FFT_MIN_SAMPLES = 8192

#: FFT never pays for very short query frames regardless of slice size.
FFT_MIN_FRAME_SAMPLES = 64

#: Denominators below this are treated as flat (zero-variance) windows.
_NORM_EPSILON = 1e-12


@dataclass(frozen=True)
class PlaneNorms:
    """One frame length's centred window norms for every slice.

    ``norms`` concatenates the per-slice norm arrays (slice ``i`` owns
    ``norms[offsets[i]:offsets[i + 1]]``); a slice shorter than the
    frame contributes zero entries.
    """

    frame_samples: int
    norms: np.ndarray
    offsets: np.ndarray
    #: Smallest window norm across all slices; lets a query prove "no
    #: flat window anywhere" with one scalar compare instead of a
    #: per-offset mask.
    min_norm: float = 0.0

    def slice_norms(self, index: int) -> np.ndarray:
        """The centred window norms of slice ``index`` at every offset."""
        return self.norms[self.offsets[index] : self.offsets[index + 1]]


class PlaneCore:
    """Contiguous sample arrays plus the per-slice correlation math.

    Deliberately metadata-free: it never sees labels, ids, or
    ``SignalSlice`` objects.  Norm caches are keyed by frame length and persist for the
    core's lifetime, so repeated queries amortise all
    query-independent work.
    """

    def __init__(
        self,
        samples: np.ndarray,
        offsets: np.ndarray,
        fft_min_samples: int = DEFAULT_FFT_MIN_SAMPLES,
    ) -> None:
        if samples.ndim != 1:
            raise SearchError(f"plane samples must be 1-D, got {samples.shape}")
        if offsets.ndim != 1 or offsets.size < 2:
            raise SearchError("plane offset table must have >= 2 entries")
        if fft_min_samples < 1:
            raise SearchError(
                f"fft_min_samples must be >= 1, got {fft_min_samples}"
            )
        self.samples = samples
        self.offsets = offsets
        self.fft_min_samples = fft_min_samples
        self._norm_caches: dict[int, PlaneNorms] = {}
        self._coarse_caches: dict[tuple[int, int], CoarseIndex] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.coarse_cache_hits = 0
        self.coarse_cache_misses = 0

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

    # -- per-frame-length norm cache ---------------------------------

    def ensure_norms(self, frame_samples: int) -> PlaneNorms:
        """The norm cache for ``frame_samples``, building it on miss.

        A miss computes the centred norms of **every** slice in one
        pass (per-slice prefix sums, exactly the scalar engine's
        formula) so later queries of this frame length are pure dot
        products.
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
        per_slice: list[np.ndarray] = []
        norm_offsets = np.zeros(self.n_slices + 1, dtype=np.int64)
        for index in range(self.n_slices):
            data = self.slice_data(index)
            n_offsets = data.size - frame_samples + 1
            if n_offsets <= 0:
                norm_offsets[index + 1] = norm_offsets[index]
                continue
            prefix = np.concatenate(([0.0], np.cumsum(data)))
            prefix_sq = np.concatenate(([0.0], np.cumsum(data * data)))
            sums = prefix[frame_samples:] - prefix[:-frame_samples]
            sq_sums = prefix_sq[frame_samples:] - prefix_sq[:-frame_samples]
            per_slice.append(
                np.sqrt(np.maximum(sq_sums - sums * sums / frame_samples, 0.0))
            )
            norm_offsets[index + 1] = norm_offsets[index] + n_offsets
        norms = (
            np.concatenate(per_slice) if per_slice else np.zeros(0)
        )
        cache = PlaneNorms(
            frame_samples=frame_samples,
            norms=norms,
            offsets=norm_offsets,
            min_norm=float(norms.min()) if norms.size else 0.0,
        )
        self._norm_caches[frame_samples] = cache
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("cloud.plane.cache_misses")
            registry.observe(
                "cloud.plane.norm_cache_build_s", time.perf_counter() - started
            )
        return cache

    # -- per-(frame length, decimation) coarse screen cache ----------

    def ensure_coarse(
        self, frame_samples: int, decimation: int
    ) -> CoarseIndex:
        """The coarse screening index for ``(frame_samples,
        decimation)``, compiling it on miss.

        Lives beside the norm caches with the same lifecycle: keyed on
        this core, so a refresh that recompiles the shard (a fresh
        core) drops stale coarse grids exactly as it drops stale
        norms.
        """
        key = (frame_samples, decimation)
        cached = self._coarse_caches.get(key)
        if cached is not None:
            self.coarse_cache_hits += 1
            obs.metrics().inc("cloud.plane.coarse.cache_hits")
            return cached
        self.coarse_cache_misses += 1
        norms = self.ensure_norms(frame_samples)
        started = time.perf_counter()
        index = CoarseIndex(self, norms, frame_samples, decimation)
        self._coarse_caches[key] = index
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("cloud.plane.coarse.cache_misses")
            registry.observe(
                "cloud.plane.coarse.build_s", time.perf_counter() - started
            )
            registry.set_gauge(
                "cloud.plane.coarse.compiled_bytes", index.nbytes
            )
        return index

    # -- correlation evaluation --------------------------------------

    def _dots(self, data: np.ndarray, centered: np.ndarray) -> np.ndarray:
        """Valid-mode cross-correlation dot products, direct or FFT."""
        if (
            data.size < self.fft_min_samples
            or centered.size < FFT_MIN_FRAME_SAMPLES
        ):
            return np.correlate(data, centered, mode="valid")
        n = 1
        while n < data.size + centered.size - 1:
            n <<= 1
        spectrum = np.fft.rfft(data, n) * np.conj(np.fft.rfft(centered, n))
        return np.fft.irfft(spectrum, n)[: data.size - centered.size + 1]

    def dots(self, index: int, centered: np.ndarray) -> np.ndarray:
        """Valid-mode dot products of a precentred query against slice
        ``index`` (the query-dependent half of the correlation)."""
        return self._dots(self.slice_data(index), centered)

    def correlations(
        self,
        index: int,
        centered: np.ndarray,
        norm: float,
        cache: PlaneNorms | None = None,
    ) -> np.ndarray:
        """Normalised correlation of a precentred query at every offset.

        Output-identical to the scalar engine's
        :meth:`~repro.signals.windows.WindowedStats.normalized_correlation_with`
        evaluated at every offset of slice ``index``.
        """
        data = self.slice_data(index)
        n_offsets = data.size - centered.size + 1
        if n_offsets <= 0:
            return np.zeros(0)
        if norm < _NORM_EPSILON:
            return np.zeros(n_offsets)
        if cache is None or cache.frame_samples != centered.size:
            cache = self.ensure_norms(centered.size)
        denominator = norm * cache.slice_norms(index)
        flat = denominator < _NORM_EPSILON
        denominator[flat] = 1.0
        values = self._dots(data, centered) / denominator
        values[flat] = 0.0
        return np.clip(values, -1.0, 1.0)

